#include "src/core/control_journal.h"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

namespace yoda {
namespace {

// Percent-escaping over a conservative passlist, so every serialized string
// is free of the journal's own delimiters (spaces, newlines, ':', ',').
std::string Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    if (std::isalnum(c) || c == '_' || c == '.' || c == '/' || c == '*' || c == '?') {
      out.push_back(static_cast<char>(c));
    } else {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02x", c);
      out += buf;
    }
  }
  return out;
}

std::string Unescape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%' && i + 2 < s.size()) {
      out.push_back(static_cast<char>(std::strtoul(s.substr(i + 1, 2).c_str(), nullptr, 16)));
      i += 2;
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

// nullopt <-> "-" ("-" itself escapes to "%2d", so the forms never collide).
std::string EncodeOpt(const std::optional<std::string>& v) {
  return v ? Escape(*v) : "-";
}

std::optional<std::string> DecodeOpt(const std::string& v) {
  if (v == "-") {
    return std::nullopt;
  }
  return Unescape(v);
}

std::vector<std::string> SplitWs(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) {
    out.push_back(tok);
  }
  return out;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      out.push_back(line);
    }
  }
  return out;
}

// key=value tokens -> map; later duplicates win (never produced).
std::map<std::string, std::string> KvFields(const std::vector<std::string>& toks) {
  std::map<std::string, std::string> out;
  for (const std::string& t : toks) {
    const std::size_t eq = t.find('=');
    if (eq != std::string::npos) {
      out[t.substr(0, eq)] = t.substr(eq + 1);
    }
  }
  return out;
}

bool FieldU64(const std::map<std::string, std::string>& f, const char* key,
              std::uint64_t* out) {
  auto it = f.find(key);
  if (it == f.end()) {
    return false;
  }
  *out = std::strtoull(it->second.c_str(), nullptr, 10);
  return true;
}

std::string EncodeBackends(const std::vector<rules::Backend>& backends) {
  if (backends.empty()) {
    return "-";
  }
  std::string out;
  char buf[96];
  for (std::size_t i = 0; i < backends.size(); ++i) {
    // %.17g round-trips every double exactly.
    std::snprintf(buf, sizeof(buf), "%s%u:%u:%.17g", i == 0 ? "" : ",", backends[i].ip,
                  backends[i].port, backends[i].weight);
    out += buf;
  }
  return out;
}

std::vector<rules::Backend> DecodeBackends(const std::string& s) {
  std::vector<rules::Backend> out;
  if (s == "-") {
    return out;
  }
  std::istringstream in(s);
  std::string item;
  while (std::getline(in, item, ',')) {
    rules::Backend b;
    unsigned ip = 0;
    unsigned port = 0;
    double weight = 1.0;
    if (std::sscanf(item.c_str(), "%u:%u:%lg", &ip, &port, &weight) >= 2) {
      b.ip = ip;
      b.port = static_cast<net::Port>(port);
      b.weight = weight;
      out.push_back(b);
    }
  }
  return out;
}

}  // namespace

std::string ControlJournal::StepKey(const ExecStep& step) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u", static_cast<unsigned>(step.kind), step.vip,
                step.instance);
  return buf;
}

std::string ControlJournal::EncodeRule(const rules::Rule& rule) {
  std::ostringstream out;
  out << "name=" << Escape(rule.name) << " prio=" << rule.priority
      << " url=" << EncodeOpt(rule.match.url_glob) << " host=" << EncodeOpt(rule.match.host_glob)
      << " method=" << EncodeOpt(rule.match.method)
      << " cname=" << EncodeOpt(rule.match.cookie_name)
      << " cval=" << EncodeOpt(rule.match.cookie_value_glob)
      << " hname=" << EncodeOpt(rule.match.header_name)
      << " hval=" << EncodeOpt(rule.match.header_value_glob)
      << " atype=" << static_cast<int>(rule.action.type)
      << " sticky=" << Escape(rule.action.sticky_cookie)
      << " backends=" << EncodeBackends(rule.action.backends);
  return out.str();
}

std::optional<rules::Rule> ControlJournal::DecodeRule(const std::string& line) {
  const auto f = KvFields(SplitWs(line));
  rules::Rule rule;
  auto need = [&](const char* key) -> std::optional<std::string> {
    auto it = f.find(key);
    if (it == f.end()) {
      return std::nullopt;
    }
    return it->second;
  };
  const auto name = need("name");
  const auto prio = need("prio");
  const auto atype = need("atype");
  const auto backends = need("backends");
  if (!name || !prio || !atype || !backends) {
    return std::nullopt;
  }
  auto opt = [&](const char* key) -> std::optional<std::string> {
    auto it = f.find(key);
    return it == f.end() ? std::nullopt : DecodeOpt(it->second);
  };
  rule.name = Unescape(*name);
  rule.priority = std::atoi(prio->c_str());
  rule.match.url_glob = opt("url");
  rule.match.host_glob = opt("host");
  rule.match.method = opt("method");
  rule.match.cookie_name = opt("cname");
  rule.match.cookie_value_glob = opt("cval");
  rule.match.header_name = opt("hname");
  rule.match.header_value_glob = opt("hval");
  rule.action.type = static_cast<rules::ActionType>(std::atoi(atype->c_str()));
  if (auto it = f.find("sticky"); it != f.end()) {
    rule.action.sticky_cookie = Unescape(it->second);
  }
  rule.action.backends = DecodeBackends(*backends);
  return rule;
}

std::string ControlJournal::EncodeChange(const DurableChange& change) {
  std::ostringstream out;
  out << "epoch=" << change.epoch << " at=" << change.at
      << " kind=" << static_cast<int>(change.kind) << " subject=" << change.subject
      << " detail=" << change.detail << " port=" << change.port
      << " nrules=" << change.rules.size() << " npools=" << change.pools.size() << "\n";
  for (const rules::Rule& rule : change.rules) {
    out << "R " << EncodeRule(rule) << "\n";
  }
  for (const auto& [vip, pool] : change.pools) {
    out << "P " << vip;
    for (net::IpAddr ip : pool) {
      out << " " << ip;
    }
    out << "\n";
  }
  return out.str();
}

std::optional<DurableChange> ControlJournal::DecodeChange(const std::string& text) {
  const std::vector<std::string> lines = SplitLines(text);
  if (lines.empty()) {
    return std::nullopt;
  }
  const auto f = KvFields(SplitWs(lines[0]));
  DurableChange change;
  std::uint64_t kind = 0;
  std::uint64_t subject = 0;
  std::uint64_t at = 0;
  std::uint64_t port = 0;
  if (!FieldU64(f, "epoch", &change.epoch) || !FieldU64(f, "at", &at) ||
      !FieldU64(f, "kind", &kind) || !FieldU64(f, "subject", &subject) ||
      !FieldU64(f, "detail", &change.detail) || !FieldU64(f, "port", &port)) {
    return std::nullopt;
  }
  change.at = static_cast<sim::Time>(at);
  change.kind = static_cast<ChangeKind>(kind);
  change.subject = static_cast<net::IpAddr>(subject);
  change.port = static_cast<net::Port>(port);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].rfind("R ", 0) == 0) {
      if (auto rule = DecodeRule(lines[i].substr(2))) {
        change.rules.push_back(std::move(*rule));
      }
    } else if (lines[i].rfind("P ", 0) == 0) {
      const std::vector<std::string> toks = SplitWs(lines[i].substr(2));
      if (toks.empty()) {
        continue;
      }
      const net::IpAddr vip =
          static_cast<net::IpAddr>(std::strtoull(toks[0].c_str(), nullptr, 10));
      std::vector<net::IpAddr>& pool = change.pools[vip];
      for (std::size_t j = 1; j < toks.size(); ++j) {
        pool.push_back(static_cast<net::IpAddr>(std::strtoull(toks[j].c_str(), nullptr, 10)));
      }
    }
  }
  return change;
}

std::string ControlJournal::EncodeSnapshot(const ControlState& state) {
  std::ostringstream out;
  out << "epoch=" << state.epoch() << "\n";
  for (const auto& [vip, desired] : state.vips()) {
    out << "V " << vip << " " << desired.port << " " << desired.rules.size() << " "
        << static_cast<int>(desired.store_mode) << " " << desired.store_mode_epoch << "\n";
    for (const rules::Rule& rule : desired.rules) {
      out << "R " << EncodeRule(rule) << "\n";
    }
  }
  for (const auto& [vip, pool] : state.assignment()) {
    out << "A " << vip;
    for (net::IpAddr ip : pool) {
      out << " " << ip;
    }
    out << "\n";
  }
  return out.str();
}

bool ControlJournal::DecodeSnapshot(const std::string& text, RestoredControlPlane* out) {
  const std::vector<std::string> lines = SplitLines(text);
  if (lines.empty()) {
    return false;
  }
  const auto f = KvFields(SplitWs(lines[0]));
  if (!FieldU64(f, "epoch", &out->epoch)) {
    return false;
  }
  net::IpAddr current_vip = 0;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (line.rfind("V ", 0) == 0) {
      const std::vector<std::string> toks = SplitWs(line.substr(2));
      if (toks.size() < 2) {
        return false;
      }
      current_vip = static_cast<net::IpAddr>(std::strtoull(toks[0].c_str(), nullptr, 10));
      ControlState::VipDesired desired;
      desired.port =
          static_cast<net::Port>(std::strtoull(toks[1].c_str(), nullptr, 10));
      // Store-mode fields are optional (snapshots written before the
      // stateless fast path existed decode as kStateful).
      if (toks.size() >= 5) {
        desired.store_mode =
            static_cast<StoreMode>(std::strtoull(toks[3].c_str(), nullptr, 10));
        desired.store_mode_epoch = std::strtoull(toks[4].c_str(), nullptr, 10);
      }
      out->vips[current_vip] = std::move(desired);
    } else if (line.rfind("R ", 0) == 0) {
      if (auto rule = DecodeRule(line.substr(2))) {
        out->vips[current_vip].rules.push_back(std::move(*rule));
      }
    } else if (line.rfind("A ", 0) == 0) {
      const std::vector<std::string> toks = SplitWs(line.substr(2));
      if (toks.empty()) {
        continue;
      }
      const net::IpAddr vip =
          static_cast<net::IpAddr>(std::strtoull(toks[0].c_str(), nullptr, 10));
      std::vector<net::IpAddr>& pool = out->assignment[vip];
      for (std::size_t j = 1; j < toks.size(); ++j) {
        pool.push_back(static_cast<net::IpAddr>(std::strtoull(toks[j].c_str(), nullptr, 10)));
      }
    }
  }
  return true;
}

std::string ControlJournal::EncodePlan(const ExecPlan& plan) {
  std::ostringstream out;
  out << "epoch=" << plan.epoch << " id=" << plan.plan_id << " token=" << plan.fencing_token
      << " staggered=" << (plan.staggered ? 1 : 0) << " nsteps=" << plan.steps.size()
      << " reason=" << Escape(plan.reason) << "\n";
  for (const ExecStep& step : plan.steps) {
    out << "S " << static_cast<int>(step.kind) << " " << step.vip << " " << step.instance
        << " " << (step.healthy ? 1 : 0);
    if (step.pool.empty()) {
      out << " -";
    } else {
      out << " ";
      for (std::size_t i = 0; i < step.pool.size(); ++i) {
        out << (i == 0 ? "" : ",") << step.pool[i];
      }
    }
    out << "\n";
  }
  return out.str();
}

std::optional<ExecPlan> ControlJournal::DecodePlan(const std::string& text) {
  const std::vector<std::string> lines = SplitLines(text);
  if (lines.empty()) {
    return std::nullopt;
  }
  const auto f = KvFields(SplitWs(lines[0]));
  ExecPlan plan;
  std::uint64_t staggered = 0;
  if (!FieldU64(f, "epoch", &plan.epoch) || !FieldU64(f, "id", &plan.plan_id) ||
      !FieldU64(f, "token", &plan.fencing_token) || !FieldU64(f, "staggered", &staggered)) {
    return std::nullopt;
  }
  plan.staggered = staggered != 0;
  if (auto it = f.find("reason"); it != f.end()) {
    plan.reason = Unescape(it->second);
  }
  for (std::size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].rfind("S ", 0) != 0) {
      continue;
    }
    const std::vector<std::string> toks = SplitWs(lines[i].substr(2));
    if (toks.size() < 5) {
      return std::nullopt;
    }
    ExecStep step;
    step.kind = static_cast<ExecStepKind>(std::atoi(toks[0].c_str()));
    step.vip = static_cast<net::IpAddr>(std::strtoull(toks[1].c_str(), nullptr, 10));
    step.instance = static_cast<net::IpAddr>(std::strtoull(toks[2].c_str(), nullptr, 10));
    step.healthy = toks[3] != "0";
    if (toks[4] != "-") {
      std::istringstream in(toks[4]);
      std::string item;
      while (std::getline(in, item, ',')) {
        step.pool.push_back(static_cast<net::IpAddr>(std::strtoull(item.c_str(), nullptr, 10)));
      }
    }
    plan.steps.push_back(std::move(step));
  }
  return plan;
}

ControlJournal::ControlJournal(sim::Simulator* simulator, kv::ReplicatingClient* client,
                               ControlJournalConfig config)
    : sim_(simulator),
      kv_(client),
      cfg_(config),
      changes_ctr_(&simulator->registry().GetCounter("ctl.journal.changes")),
      snapshots_ctr_(&simulator->registry().GetCounter("ctl.journal.snapshots")) {}

void ControlJournal::OnChange(const ControlState& state, const DurableChange& change) {
  ++stats_.changes_logged;
  changes_ctr_->Inc();
  kv_->Set("ctl/log/" + std::to_string(change.epoch), EncodeChange(change), [](bool) {});
  if (++changes_since_snapshot_ >= cfg_.snapshot_every) {
    changes_since_snapshot_ = 0;
    ++stats_.snapshots_written;
    snapshots_ctr_->Inc();
    kv_->Set("ctl/snapshot", EncodeSnapshot(state), [](bool) {});
  }
}

std::uint64_t ControlJournal::NextPlanId() {
  ++plan_seq_;
  kv_->Set("ctl/plan_seq", std::to_string(plan_seq_), [](bool) {});
  return plan_seq_;
}

void ControlJournal::WriteOpenList() {
  std::string list;
  for (std::uint64_t id : open_) {
    if (!list.empty()) {
      list += " ";
    }
    list += std::to_string(id);
  }
  kv_->Set("ctl/plans_open", list, [](bool) {});
}

void ControlJournal::PutPlan(const ExecPlan& plan) {
  ++stats_.plans_journaled;
  open_.insert(plan.plan_id);
  kv_->Set("ctl/plan/" + std::to_string(plan.plan_id), EncodePlan(plan), [](bool) {});
  WriteOpenList();
}

void ControlJournal::PutApplied(const ExecPlan& plan, const ExecStep& step) {
  ++stats_.applied_markers;
  kv_->Set("ctl/applied/" + std::to_string(plan.plan_id) + "/" + StepKey(step), "1",
           [](bool) {});
}

void ControlJournal::PutDone(const ExecPlan& plan) {
  open_.erase(plan.plan_id);
  WriteOpenList();
  // The plan and its markers are left behind: superseded keys are harmless
  // (a restore only walks plans on the open list) and bounded by plan churn.
}

void ControlJournal::AdoptRestored(const RestoredControlPlane& restored) {
  plan_seq_ = restored.plan_seq;
  open_.clear();
  for (const RestoredPlan& p : restored.open_plans) {
    open_.insert(p.plan.plan_id);
    plan_seq_ = std::max(plan_seq_, p.plan.plan_id);
  }
}

// --- restore chain ---

struct ControlJournal::RestoreCtx {
  RestoredControlPlane out;
  std::function<void(RestoredControlPlane)> done;
  std::vector<std::uint64_t> open_ids;
};

void ControlJournal::Restore(std::function<void(RestoredControlPlane)> done) {
  ++stats_.restores;
  auto ctx = std::make_shared<RestoreCtx>();
  ctx->done = std::move(done);
  kv_->Get("ctl/snapshot", [this, ctx](std::optional<std::string> raw) {
    if (raw && DecodeSnapshot(*raw, &ctx->out)) {
      ctx->out.found = true;
    }
    RestoreLogEntry(ctx, ctx->out.epoch + 1);
  });
}

void ControlJournal::RestoreLogEntry(std::shared_ptr<RestoreCtx> ctx, std::uint64_t epoch) {
  kv_->Get("ctl/log/" + std::to_string(epoch),
           [this, ctx, epoch](std::optional<std::string> raw) {
             std::optional<DurableChange> change =
                 raw ? DecodeChange(*raw) : std::nullopt;
             if (!change) {
               // First miss ends the tail: replay stops at the last epoch
               // whose log write fully landed, never across a gap.
               RestorePlanSeq(ctx);
               return;
             }
             ctx->out.found = true;
             ctx->out.tail.push_back(std::move(*change));
             RestoreLogEntry(ctx, epoch + 1);
           });
}

void ControlJournal::RestorePlanSeq(std::shared_ptr<RestoreCtx> ctx) {
  kv_->Get("ctl/plan_seq", [this, ctx](std::optional<std::string> raw) {
    if (raw) {
      ctx->out.plan_seq = std::strtoull(raw->c_str(), nullptr, 10);
    }
    RestoreOpenList(ctx);
  });
}

void ControlJournal::RestoreOpenList(std::shared_ptr<RestoreCtx> ctx) {
  kv_->Get("ctl/plans_open", [this, ctx](std::optional<std::string> raw) {
    if (raw) {
      for (const std::string& tok : SplitWs(*raw)) {
        ctx->open_ids.push_back(std::strtoull(tok.c_str(), nullptr, 10));
      }
    }
    RestorePlan(ctx, 0);
  });
}

void ControlJournal::RestorePlan(std::shared_ptr<RestoreCtx> ctx, std::size_t idx) {
  if (idx >= ctx->open_ids.size()) {
    FinishRestore(ctx);
    return;
  }
  kv_->Get("ctl/plan/" + std::to_string(ctx->open_ids[idx]),
           [this, ctx, idx](std::optional<std::string> raw) {
             std::optional<ExecPlan> plan = raw ? DecodePlan(*raw) : std::nullopt;
             if (!plan) {
               // The open-list write outran the plan body (or the body was
               // lost): nothing to resume for this id.
               RestorePlan(ctx, idx + 1);
               return;
             }
             ctx->out.open_plans.push_back({std::move(*plan), {}});
             RestoreMarkers(ctx, ctx->out.open_plans.size() - 1, 0);
           });
}

void ControlJournal::RestoreMarkers(std::shared_ptr<RestoreCtx> ctx, std::size_t idx,
                                    std::size_t step_idx) {
  RestoredPlan& rp = ctx->out.open_plans[idx];
  // Advance to the next ledgered step (health writes and barriers have no
  // applied markers).
  while (step_idx < rp.plan.steps.size() &&
         (rp.plan.steps[step_idx].kind == ExecStepKind::kSetBackendHealth ||
          rp.plan.steps[step_idx].kind == ExecStepKind::kAwaitConvergence)) {
    ++step_idx;
  }
  if (step_idx >= rp.plan.steps.size()) {
    // Find this plan's position in open_ids to continue the outer walk.
    std::size_t next_open = 0;
    for (std::size_t i = 0; i < ctx->open_ids.size(); ++i) {
      if (ctx->open_ids[i] == rp.plan.plan_id) {
        next_open = i + 1;
        break;
      }
    }
    RestorePlan(ctx, next_open);
    return;
  }
  const std::string key = "ctl/applied/" + std::to_string(rp.plan.plan_id) + "/" +
                          StepKey(rp.plan.steps[step_idx]);
  const std::string step_key = StepKey(rp.plan.steps[step_idx]);
  kv_->Get(key, [this, ctx, idx, step_idx, step_key](std::optional<std::string> raw) {
    if (raw) {
      ctx->out.open_plans[idx].applied.insert(step_key);
    }
    RestoreMarkers(ctx, idx, step_idx + 1);
  });
}

void ControlJournal::FinishRestore(std::shared_ptr<RestoreCtx> ctx) {
  if (ctx->out.plan_seq != 0 || !ctx->out.open_plans.empty()) {
    ctx->out.found = true;
  }
  ctx->done(std::move(ctx->out));
}

}  // namespace yoda
