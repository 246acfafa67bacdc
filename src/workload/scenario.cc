#include "src/workload/scenario.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <functional>
#include <memory>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>

#include "src/sim/sharded_sim.h"

namespace workload {
namespace {

std::vector<std::string> Tokens(const std::string& line) {
  std::vector<std::string> out;
  std::stringstream ss(line);
  std::string tok;
  while (ss >> tok) {
    out.push_back(tok);
  }
  return out;
}

bool ParseInt(const std::string& s, long long* out) {
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && p == s.data() + s.size();
}

void Fail(std::string* error, int line_no, const std::string& msg) {
  if (error != nullptr) {
    *error = "line " + std::to_string(line_no) + ": " + msg;
  }
}

// Joins tokens [from..) back into one string (rule specs contain spaces).
std::string JoinFrom(const std::vector<std::string>& toks, std::size_t from) {
  std::string out;
  for (std::size_t i = from; i < toks.size(); ++i) {
    if (i > from) {
      out += " ";
    }
    out += toks[i];
  }
  return out;
}

// The index argument of an action ParseScenario has already validated.
int IndexArg(const ScenarioEvent& ev) {
  long long idx = 0;
  ParseInt(ev.args[0], &idx);
  return static_cast<int>(idx);
}

// Applies one non-load timeline action to a testbed, on the conductor shard
// at the scripted instant. `ctl` is the control-plane handle — under HA,
// whichever replica currently acts as leader. ParseScenario rejected every
// malformed action, so this trusts its input. Every fail/recover/crash verb
// goes through the fault plane, which records it on the trace.
void ApplyControlEvent(Testbed& tb, const ScenarioEvent& ev, yoda::Controller* ctl,
                       const std::function<void(const std::string&)>& say) {
  constexpr auto kWarm = fault::FaultPlane::RestartMode::kWarm;
  if (ev.action == "fail-instance") {
    say("FAIL instance " + ev.args[0]);
    tb.CrashInstance(IndexArg(ev));
  } else if (ev.action == "recover-instance") {
    say("recover instance " + ev.args[0]);
    tb.RestartInstance(IndexArg(ev), kWarm);
  } else if (ev.action == "fail-backend") {
    say("FAIL backend " + ev.args[0]);
    tb.faults->CrashNode(tb.backend_ip(IndexArg(ev)));
  } else if (ev.action == "recover-backend") {
    say("recover backend " + ev.args[0]);
    tb.faults->RestartNode(tb.backend_ip(IndexArg(ev)), kWarm);
  } else if (ev.action == "fail-kv") {
    say("FAIL kv server " + ev.args[0]);
    tb.faults->CrashNode(tb.kv_ip(IndexArg(ev)));
  } else if (ev.action == "crash-controller") {
    say("CRASH controller " + ev.args[0]);
    tb.CrashController(IndexArg(ev));
  } else if (ev.action == "crash-leader") {
    for (int i = 0; i < tb.controller_count(); ++i) {
      yoda::Controller* c = tb.ControllerAt(i);
      if (c->ActingLeader()) {
        say("CRASH leader controller " + std::to_string(i));
        tb.CrashController(i);
        break;
      }
    }
  } else if (ev.action == "restart-controller") {
    say("restart controller " + ev.args[0]);
    tb.RestartController(IndexArg(ev));
  } else if (ev.action == "add-instance") {
    // The next unused spare: caught up, then pooled by a fenced plan.
    if (ctl->ActivateSpares(1) == 1) {
      say("activated spare instance");
    }
  } else if (ev.action == "assign") {
    say("running many-to-many assignment round");
    ctl->RunAssignmentRoundNow();
  } else if (ev.action == "update-rules") {
    say("update rules for " + ev.args[0]);
    ctl->UpdateVipRules(*ParseIp(ev.args[0]), {*rules::ParseRule(JoinFrom(ev.args, 1))});
  } else if (ev.action == "store-mode") {
    const std::string& mode = ev.args[1];
    say("store mode " + mode + " for " + ev.args[0]);
    ctl->SetStoreMode(*ParseIp(ev.args[0]), mode == "stateless" ? yoda::StoreMode::kStateless
                                                                 : yoda::StoreMode::kStateful);
  }
}

// Checks one `at` action against the whole parsed scenario (component counts
// may be declared after the action). Returns an error message, or nullopt
// when the action is well formed: a known verb with the arguments it needs,
// and an index that names a component the testbed builds.
std::optional<std::string> CheckAction(const Scenario& sc, const ScenarioEvent& ev) {
  const TestbedConfig& tb = sc.testbed;
  // Index verbs: how many components the index ranges over.
  const std::map<std::string, int> indexed = {
      {"fail-instance", tb.yoda_instances + tb.spare_instances},
      {"recover-instance", tb.yoda_instances + tb.spare_instances},
      {"fail-backend", tb.backends},
      {"recover-backend", tb.backends},
      {"fail-kv", tb.kv_servers},
      {"crash-controller", std::max(1, tb.controllers)},
      {"restart-controller", std::max(1, tb.controllers)},
  };
  const std::string& a = ev.action;
  if (auto it = indexed.find(a); it != indexed.end()) {
    long long idx = 0;
    if (ev.args.size() != 1 || !ParseInt(ev.args[0], &idx)) {
      return a + " needs one numeric index";
    }
    if (idx < 0 || idx >= it->second) {
      return a + " index " + ev.args[0] + " names no component (have " +
             std::to_string(it->second) + ")";
    }
    return std::nullopt;
  }
  if (a == "crash-leader" || a == "add-instance" || a == "assign") {
    return ev.args.empty() ? std::nullopt : std::optional<std::string>(a + " takes no argument");
  }
  if (a == "load") {
    // load <vip> rate <r> duration <d> [tls]
    const std::size_t n = ev.args.size();
    char* end = nullptr;
    const double rate = n >= 5 ? std::strtod(ev.args[2].c_str(), &end) : 0;
    if (n < 5 || n > 6 || !ParseIp(ev.args[0]) || ev.args[1] != "rate" || *end != '\0' ||
        !(rate > 0 && std::isfinite(rate)) || ev.args[3] != "duration" ||
        !ParseDuration(ev.args[4]) || (n == 6 && ev.args[5] != "tls")) {
      return "usage: load <vip> rate <r> duration <d> [tls]";
    }
    return std::nullopt;
  }
  if (a == "update-rules") {
    std::string rule_err;
    if (ev.args.size() < 2 || !ParseIp(ev.args[0])) {
      return "usage: update-rules <vip> <rule>";
    }
    if (!rules::ParseRule(JoinFrom(ev.args, 1), &rule_err)) {
      return "bad rule: " + rule_err;
    }
    return std::nullopt;
  }
  if (a == "store-mode") {
    if (ev.args.size() != 2 || !ParseIp(ev.args[0]) ||
        (ev.args[1] != "stateful" && ev.args[1] != "stateless")) {
      return "usage: store-mode <vip> <stateful|stateless>";
    }
    return std::nullopt;
  }
  return "unknown action: " + a;
}

}  // namespace

std::optional<sim::Duration> ParseDuration(const std::string& token) {
  std::size_t i = 0;
  while (i < token.size() && (std::isdigit(static_cast<unsigned char>(token[i])) != 0)) {
    ++i;
  }
  if (i == 0) {
    return std::nullopt;
  }
  long long value = 0;
  if (!ParseInt(token.substr(0, i), &value)) {
    return std::nullopt;
  }
  const std::string unit = token.substr(i);
  if (unit == "ms") {
    return sim::Msec(value);
  }
  if (unit == "s" || unit.empty()) {
    return sim::Sec(value);
  }
  if (unit == "m") {
    return sim::Minutes(value);
  }
  if (unit == "us") {
    return sim::Usec(value);
  }
  return std::nullopt;
}

std::optional<net::IpAddr> ParseIp(const std::string& token) {
  std::uint32_t ip = 0;
  std::size_t start = 0;
  for (int quad = 0; quad < 4; ++quad) {
    const std::size_t dot = token.find('.', start);
    const bool last = quad == 3;
    if (last != (dot == std::string::npos)) {
      return std::nullopt;
    }
    const std::string part = token.substr(start, last ? std::string::npos : dot - start);
    long long v = 0;
    if (!ParseInt(part, &v) || v < 0 || v > 255) {
      return std::nullopt;
    }
    ip = (ip << 8) | static_cast<std::uint32_t>(v);
    start = dot + 1;
  }
  return ip;
}

std::optional<Scenario> ParseScenario(const std::string& text, std::string* error) {
  Scenario sc;
  sc.testbed.yoda_instances = 2;
  sc.testbed.backends = 3;

  // `store-mode <mode>` with no VIP retroactively covers every VIP already
  // defined and seeds the default for VIPs defined after it.
  yoda::StoreMode default_store_mode = yoda::StoreMode::kStateful;

  auto find_vip = [&sc](net::IpAddr vip) -> Scenario::VipDef* {
    for (auto& def : sc.vips) {
      if (def.vip == vip) {
        return &def;
      }
    }
    return nullptr;
  };

  std::stringstream ss(text);
  std::string line;
  int line_no = 0;
  std::vector<int> event_lines;  // Source line of each sc.events entry.
  // (line, shard) of each `place`; checked once the run's shard count is known.
  std::vector<std::pair<int, int>> placed_shards;
  while (std::getline(ss, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    auto toks = Tokens(line);
    if (toks.empty()) {
      continue;
    }
    const std::string& cmd = toks[0];

    auto need = [&](std::size_t n) {
      if (toks.size() < n + 1) {
        Fail(error, line_no, cmd + " needs " + std::to_string(n) + " argument(s)");
        return false;
      }
      return true;
    };

    long long n = 0;
    if (cmd == "threads") {
      if (!need(1) || !ParseInt(toks[1], &n) || n < 1) {
        Fail(error, line_no, "threads needs a count >= 1");
        return std::nullopt;
      }
      sc.threads = static_cast<int>(n);
    } else if (cmd == "intra-threads") {
      if (!need(1) || !ParseInt(toks[1], &n) || n < 1) {
        Fail(error, line_no, "intra-threads needs a count >= 1");
        return std::nullopt;
      }
      sc.intra_threads = static_cast<int>(n);
    } else if (cmd == "place") {
      // place <instance|backend|kv|client|proxy> <idx> <shard>
      // place <controller|fabric> <shard>
      if (!need(2)) {
        return std::nullopt;
      }
      const std::string& kind = toks[1];
      long long a = 0;
      long long b = 0;
      if (kind == "controller" || kind == "fabric") {
        if (!ParseInt(toks[2], &a) || a < 0) {
          Fail(error, line_no, "place " + kind + " needs a shard >= 0");
          return std::nullopt;
        }
        (kind == "controller" ? sc.placement.controller_shard
                              : sc.placement.fabric_shard) = static_cast<int>(a);
        placed_shards.emplace_back(line_no, static_cast<int>(a));
      } else {
        std::vector<int>* overrides = kind == "instance" ? &sc.placement.instance_shards
                                      : kind == "backend" ? &sc.placement.backend_shards
                                      : kind == "kv"      ? &sc.placement.kv_shards
                                      : kind == "client"  ? &sc.placement.client_shards
                                      : kind == "proxy"   ? &sc.placement.proxy_shards
                                                          : nullptr;
        if (overrides == nullptr) {
          Fail(error, line_no,
               "place kind must be instance|backend|kv|client|proxy|controller|fabric");
          return std::nullopt;
        }
        if (!need(3) || !ParseInt(toks[2], &a) || !ParseInt(toks[3], &b) || a < 0 || b < 0) {
          Fail(error, line_no, "usage: place " + kind + " <idx> <shard>");
          return std::nullopt;
        }
        if (static_cast<std::size_t>(a) >= overrides->size()) {
          overrides->resize(static_cast<std::size_t>(a) + 1, -1);
        }
        (*overrides)[static_cast<std::size_t>(a)] = static_cast<int>(b);
        placed_shards.emplace_back(line_no, static_cast<int>(b));
      }
    } else if (cmd == "seed" || cmd == "instances" || cmd == "spares" || cmd == "backends" ||
        cmd == "kv-servers" || cmd == "kv-replicas" || cmd == "clients" || cmd == "muxes" ||
        cmd == "controllers") {
      if (!need(1) || !ParseInt(toks[1], &n) || n < 0) {
        Fail(error, line_no, "bad count for " + cmd);
        return std::nullopt;
      }
      if (cmd == "seed") {
        sc.testbed.seed = static_cast<std::uint64_t>(n);
      } else if (cmd == "instances") {
        sc.testbed.yoda_instances = static_cast<int>(n);
      } else if (cmd == "spares") {
        sc.testbed.spare_instances = static_cast<int>(n);
      } else if (cmd == "backends") {
        sc.testbed.backends = static_cast<int>(n);
      } else if (cmd == "kv-servers") {
        sc.testbed.kv_servers = static_cast<int>(n);
      } else if (cmd == "kv-replicas") {
        sc.testbed.kv_replicas = static_cast<int>(n);
      } else if (cmd == "clients") {
        sc.testbed.clients = static_cast<int>(n);
      } else if (cmd == "controllers") {
        // >1 controller replicas switches the control plane to HA mode
        // (store-backed leader lease, durable journal).
        sc.testbed.controllers = static_cast<int>(n);
      } else {
        sc.testbed.muxes = static_cast<int>(n);
      }
    } else if (cmd == "vip") {
      if (!need(1)) {
        return std::nullopt;
      }
      auto vip = ParseIp(toks[1]);
      if (!vip) {
        Fail(error, line_no, "bad vip address: " + toks[1]);
        return std::nullopt;
      }
      sc.vips.push_back(Scenario::VipDef{*vip, {}, std::nullopt, 0, default_store_mode});
    } else if (cmd == "rule") {
      if (!need(2)) {
        return std::nullopt;
      }
      auto vip = ParseIp(toks[1]);
      Scenario::VipDef* def = vip ? find_vip(*vip) : nullptr;
      if (def == nullptr) {
        Fail(error, line_no, "rule for undefined vip: " + toks[1]);
        return std::nullopt;
      }
      std::string rule_err;
      auto rule = rules::ParseRule(JoinFrom(toks, 2), &rule_err);
      if (!rule) {
        Fail(error, line_no, "bad rule: " + rule_err);
        return std::nullopt;
      }
      def->vip_rules.push_back(*rule);
    } else if (cmd == "tls") {
      // tls <vip> cert <blob> key <n>
      if (!need(5) || toks[2] != "cert" || toks[4] != "key") {
        Fail(error, line_no, "usage: tls <vip> cert <blob> key <n>");
        return std::nullopt;
      }
      auto vip = ParseIp(toks[1]);
      Scenario::VipDef* def = vip ? find_vip(*vip) : nullptr;
      if (def == nullptr || !ParseInt(toks[5], &n)) {
        Fail(error, line_no, "bad tls directive");
        return std::nullopt;
      }
      def->tls_cert = toks[3];
      def->tls_key = static_cast<std::uint64_t>(n);
    } else if (cmd == "store-mode") {
      // store-mode <stateful|stateless>          (every VIP, defined or future)
      // store-mode <vip> <stateful|stateless>    (one VIP)
      auto parse_mode = [](const std::string& tok) -> std::optional<yoda::StoreMode> {
        if (tok == "stateful") {
          return yoda::StoreMode::kStateful;
        }
        if (tok == "stateless") {
          return yoda::StoreMode::kStateless;
        }
        return std::nullopt;
      };
      if (!need(1)) {
        return std::nullopt;
      }
      if (auto mode = parse_mode(toks[1])) {
        default_store_mode = *mode;
        for (auto& def : sc.vips) {
          def.store_mode = *mode;
        }
      } else {
        auto vip = ParseIp(toks[1]);
        Scenario::VipDef* def = vip ? find_vip(*vip) : nullptr;
        std::optional<yoda::StoreMode> vip_mode =
            toks.size() > 2 ? parse_mode(toks[2]) : std::nullopt;
        if (def == nullptr || !vip_mode) {
          Fail(error, line_no, "usage: store-mode [<vip>] <stateful|stateless>");
          return std::nullopt;
        }
        def->store_mode = *vip_mode;
      }
    } else if (cmd == "at") {
      if (!need(2)) {
        return std::nullopt;
      }
      auto when = ParseDuration(toks[1]);
      if (!when) {
        Fail(error, line_no, "bad time: " + toks[1]);
        return std::nullopt;
      }
      ScenarioEvent ev;
      ev.at = *when;
      ev.action = toks[2];
      ev.args.assign(toks.begin() + 3, toks.end());
      ev.raw = JoinFrom(toks, 3);
      sc.events.push_back(std::move(ev));
      event_lines.push_back(line_no);
    } else if (cmd == "run-until") {
      if (!need(1)) {
        return std::nullopt;
      }
      auto until = ParseDuration(toks[1]);
      if (!until) {
        Fail(error, line_no, "bad time: " + toks[1]);
        return std::nullopt;
      }
      sc.run_until = *until;
    } else {
      Fail(error, line_no, "unknown directive: " + cmd);
      return std::nullopt;
    }
  }
  if (sc.vips.empty()) {
    Fail(error, 0, "scenario defines no vip");
    return std::nullopt;
  }
  if (sc.threads > 0 && sc.intra_threads > 0) {
    Fail(error, 0, "threads and intra-threads are mutually exclusive");
    return std::nullopt;
  }
  // Every run is one placed testbed: kScenarioCells shards with
  // intra-threads, one shard otherwise (each `threads` cell included).
  const int shards = sc.intra_threads > 0 ? kScenarioCells : 1;
  for (const auto& [place_line, shard] : placed_shards) {
    if (shard >= shards) {
      Fail(error, place_line,
           "place shard " + std::to_string(shard) + " out of range: the run has " +
               std::to_string(shards) + " shard(s)");
      return std::nullopt;
    }
  }
  for (std::size_t i = 0; i < sc.events.size(); ++i) {
    std::optional<std::string> bad = CheckAction(sc, sc.events[i]);
    // Assignment rollouts aggregate per-instance counters with direct
    // cross-shard reads; unsupported placed (see TestbedConfig::engine).
    if (!bad && sc.intra_threads > 0 && sc.events[i].action == "assign") {
      bad = "assign is not supported with intra-threads";
    }
    if (bad) {
      Fail(error, event_lines[i], *bad);
      return std::nullopt;
    }
  }
  return sc;
}

namespace {

// Per-client load state, owned and mutated only by the client's shard
// (FetchObject and its callback both run there).
struct ClientLoad {
  explicit ClientLoad(std::uint64_t seed) : rng(seed) {}
  sim::Rng rng;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  sim::Histogram latency_ms;
  // Load generators keep per-generator state via shared_ptr closures. The
  // closures capture a weak_ptr to themselves (ownership stays here), so
  // rescheduling cannot form a shared_ptr cycle.
  std::vector<std::shared_ptr<std::function<void()>>> loops;
};

// One placed run, kept alive past the run so after_run can inspect it (and
// even advance it: pending load ticks still point into `loads`). The testbed
// is declared after (and so dies before) the engine it runs on.
struct PlacedRun {
  std::unique_ptr<sim::ShardedSim> engine;
  std::unique_ptr<Testbed> tb;
  std::vector<std::unique_ptr<ClientLoad>> loads;
  ScenarioReport report;
};

// The scenario runner: ONE testbed placed on `shards` shards of an engine
// executed by `workers` threads — every instance, backend, KV server and
// client on its owning shard per the scenario's placement. Load is generated
// per client ON the client's shard (each client loop has its own RNG, a
// function of the scenario seed and client index only). Control events are
// conducted from the controller's shard, which is also the only shard that
// narrates to `log`, so narration is race-free for any worker count.
// Cross-component traffic rides the shard-aware network and cross-shard
// calls. Results merge in fixed (client, then shard) order, so the report is
// byte-identical for any worker count.
std::unique_ptr<PlacedRun> RunPlaced(const Scenario& scenario, int shards, int workers,
                                     std::ostream* log) {
  auto run = std::make_unique<PlacedRun>();
  sim::ShardedSim::Config ecfg;
  ecfg.shards = shards;
  ecfg.workers = workers;
  run->engine = std::make_unique<sim::ShardedSim>(ecfg);
  sim::ShardedSim& engine = *run->engine;
  if (log != nullptr) {
    *log << "  [placed] 1 testbed over " << engine.shards() << " shard(s) on "
         << engine.workers() << " worker thread(s), window " << engine.window() << " ticks\n";
  }

  TestbedConfig cfg = scenario.testbed;
  cfg.engine = &engine;
  cfg.placement = scenario.placement;
  for (const auto& def : scenario.vips) {
    if (def.tls_cert) {
      cfg.server_template.tls_service_key = def.tls_key;
    }
  }
  run->tb = std::make_unique<Testbed>(cfg);
  Testbed& tb = *run->tb;

  // Control-plane handle: with HA the mutating APIs must go through whichever
  // replica currently holds the lease (a standby silently ignores them).
  auto ctl = [&tb]() -> yoda::Controller* {
    if (tb.controller_count() == 1) {
      return tb.controller.get();
    }
    yoda::Controller* leader = tb.LeaderController();
    return leader != nullptr ? leader : tb.controller.get();
  };

  // Setup runs while the engine is idle, so cross-shard construction and
  // config pushes are race-free.
  if (tb.controller_count() > 1) {
    tb.StartAllControllers();
    tb.AwaitLeader();
  }
  for (const auto& def : scenario.vips) {
    ctl()->DefineVip(def.vip, 80, def.vip_rules);
    if (def.store_mode != yoda::StoreMode::kStateful) {
      ctl()->SetStoreMode(def.vip, def.store_mode);
    }
    if (def.tls_cert) {
      for (auto& inst : tb.instances) {
        inst->InstallVipTls(def.vip, *def.tls_cert, def.tls_key);
      }
      for (auto& inst : tb.spares) {
        inst->InstallVipTls(def.vip, *def.tls_cert, def.tls_key);
      }
    }
  }
  if (tb.controller_count() == 1) {
    tb.controller->Start();
  }

  std::vector<std::unique_ptr<ClientLoad>>& loads = run->loads;
  for (std::size_t i = 0; i < tb.clients.size(); ++i) {
    loads.push_back(std::make_unique<ClientLoad>(
        cfg.seed ^ (0xC11E47ULL + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(i))));
  }
  auto start_client_load = [&tb](ClientLoad* cl, BrowserClient* client, net::IpAddr vip,
                                 double rate, sim::Duration duration, bool use_tls) {
    sim::Simulator* csim = tb.SimFor(tb.OwnerShardOf(client->ip()));
    const sim::Time end = csim->now() + duration;
    auto tick = std::make_shared<std::function<void()>>();
    std::weak_ptr<std::function<void()>> weak_tick = tick;
    *tick = [&tb, cl, client, csim, vip, rate, end, use_tls, weak_tick]() {
      if (csim->now() > end) {
        return;
      }
      const auto& objects = tb.catalog->objects();  // Immutable after setup.
      const auto& obj = objects[static_cast<std::size_t>(
          cl->rng.UniformInt(0, static_cast<std::int64_t>(objects.size()) - 1))];
      FetchOptions opts;
      opts.use_tls = use_tls;
      client->FetchObject(vip, 80, obj.url, opts, [cl](const FetchResult& r) {
        if (r.ok) {
          ++cl->ok;
          cl->latency_ms.Add(sim::ToMillis(r.latency));
        } else {
          ++cl->failed;
        }
      });
      if (auto self = weak_tick.lock()) {
        csim->After(sim::FromSeconds(cl->rng.Exponential(1.0 / rate)), *self);
      }
    };
    cl->loops.push_back(tick);
    (*tick)();
  };

  // The controller, the fault plane and this timeline are co-located on the
  // conductor shard, so every ApplyControlEvent mutation is either
  // shard-local or routed by the testbed/fabric hooks.
  sim::Simulator& conductor = engine.shard(cfg.placement.controller_shard);
  const std::function<void(const std::string&)> say = [log, &conductor](const std::string& msg) {
    if (log != nullptr) {
      *log << "  [" << sim::FormatDouble(sim::ToMillis(conductor.now()), 0) << " ms] " << msg
           << "\n";
    }
  };
  for (const ScenarioEvent& ev : scenario.events) {
    if (ev.action != "load") {
      conductor.At(std::max(ev.at, conductor.now()),
                   [&tb, ctl, say, ev]() { ApplyControlEvent(tb, ev, ctl(), say); });
      continue;
    }
    const net::IpAddr vip = *ParseIp(ev.args[0]);
    const sim::Duration duration = *ParseDuration(ev.args[4]);
    const double rate = std::strtod(ev.args[2].c_str(), nullptr);
    const bool use_tls = ev.args.size() > 5;
    conductor.At(std::max(ev.at, conductor.now()), [say, ev]() {
      say("load " + ev.args[0] + " @" + ev.args[2] + "/s for " + ev.args[4]);
    });
    // The scripted rate is the aggregate; each client generates its share on
    // its own shard with its own RNG.
    const double per_client = rate / static_cast<double>(tb.clients.size());
    for (std::size_t i = 0; i < tb.clients.size(); ++i) {
      ClientLoad* cl = loads[i].get();
      BrowserClient* client = tb.clients[i].get();
      sim::Simulator* csim = tb.SimFor(tb.OwnerShardOf(client->ip()));
      csim->At(std::max(ev.at, csim->now()),
               [cl, client, vip, per_client, duration, use_tls, start_client_load]() {
                 start_client_load(cl, client, vip, per_client, duration, use_tls);
               });
    }
  }

  if (scenario.run_until > 0) {
    engine.RunUntil(scenario.run_until);
  } else {
    engine.Run();
  }

  // Merge: per-client tallies in client order, then the per-shard
  // observability lanes in shard order — both fixed, worker-count-invariant.
  ScenarioReport& report = run->report;
  for (auto& cl : loads) {
    report.requests_ok += cl->ok;
    report.requests_failed += cl->failed;
    report.latency_ms.MergeFrom(cl->latency_ms);
  }
  for (auto& inst : tb.instances) {
    report.takeovers +=
        inst->stats().takeovers_client_side + inst->stats().takeovers_server_side;
    report.reswitches += inst->stats().reswitches;
  }
  for (auto& inst : tb.spares) {
    report.takeovers +=
        inst->stats().takeovers_client_side + inst->stats().takeovers_server_side;
  }
  report.failures_detected = tb.controller->detected_failures();
  report.controller_events = tb.controller->events();
  for (int s = 0; s < tb.lane_count(); ++s) {
    const std::string marker = "{\"shard\":" + std::to_string(s) + "}\n";
    report.metrics_table +=
        "--- shard " + std::to_string(s) + " ---\n" + tb.metrics_lane(s).TextTable();
    report.metrics_jsonl += marker + tb.metrics_lane(s).JsonLines();
    std::ostringstream traces;
    tb.flight_lane(s).ExportJsonLines(traces);
    report.traces_jsonl += marker + traces.str();
  }
  return run;
}

}  // namespace

std::uint64_t CellSeed(std::uint64_t seed, int cell) {
  return seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(cell);
}

ScenarioReport RunScenario(const Scenario& scenario, std::ostream* log,
                           const std::function<void(Testbed&)>& after_run) {
  if (scenario.threads == 0) {
    const bool intra = scenario.intra_threads > 0;
    std::unique_ptr<PlacedRun> run = RunPlaced(scenario, intra ? kScenarioCells : 1,
                                               std::max(1, scenario.intra_threads), log);
    if (after_run) {
      after_run(*run->tb);
    }
    return std::move(run->report);
  }

  // `threads N`: kScenarioCells independent cells, each one runner call on a
  // single-shard testbed with the cell's derived seed. N plain threads take
  // the cells round-robin; the cells share nothing, so the per-cell reports
  // (and their cell-ordered merge) are byte-identical for any N. Cells run
  // concurrently, so they do not narrate.
  const int workers = std::clamp(scenario.threads, 1, kScenarioCells);
  if (log != nullptr) {
    *log << "  [cells] " << kScenarioCells << " independent cells on " << workers
         << " thread(s)\n";
  }
  std::vector<std::unique_ptr<PlacedRun>> runs(kScenarioCells);
  std::vector<std::exception_ptr> errors(kScenarioCells);
  {
    std::vector<std::jthread> pool;  // Joined at the end of this block.
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back([&scenario, &runs, &errors, workers, w]() {
        for (int c = w; c < kScenarioCells; c += workers) {
          const auto i = static_cast<std::size_t>(c);
          try {
            Scenario cell = scenario;
            cell.threads = 0;
            cell.testbed.seed = CellSeed(scenario.testbed.seed, c);
            runs[i] = RunPlaced(cell, 1, 1, nullptr);
          } catch (...) {
            errors[i] = std::current_exception();  // Rethrown on the caller.
          }
        }
      });
    }
  }
  for (const std::exception_ptr& e : errors) {
    if (e) {
      std::rethrow_exception(e);
    }
  }

  ScenarioReport report;
  report.cells = kScenarioCells;
  for (int c = 0; c < kScenarioCells; ++c) {
    ScenarioReport& r = runs[static_cast<std::size_t>(c)]->report;
    report.requests_ok += r.requests_ok;
    report.requests_failed += r.requests_failed;
    report.takeovers += r.takeovers;
    report.reswitches += r.reswitches;
    report.failures_detected += r.failures_detected;
    report.latency_ms.MergeFrom(r.latency_ms);
    report.controller_events.insert(report.controller_events.end(),
                                    r.controller_events.begin(), r.controller_events.end());
    const std::string marker = "{\"cell\":" + std::to_string(c) + "}\n";
    report.metrics_table += "--- cell " + std::to_string(c) + " ---\n" + r.metrics_table;
    report.metrics_jsonl += marker + r.metrics_jsonl;
    report.traces_jsonl += marker + r.traces_jsonl;
    report.cell_reports.push_back(std::move(r));
  }
  if (after_run) {
    for (auto& run : runs) {
      after_run(*run->tb);
    }
  }
  return report;
}

}  // namespace workload
