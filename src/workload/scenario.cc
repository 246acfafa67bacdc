#include "src/workload/scenario.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>

#include "src/sim/sharded_sim.h"
#include "src/workload/open_loop.h"

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

// A number written the C locale's way, the whole token; nullopt otherwise.
std::optional<double> ParseNumber(const std::string& s) {
  double v = 0;
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || p != s.data() + s.size() || !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

// The fault verbs. Each form spells one accepted argument list: `C` is a
// component reference `<kind> <i>` (two tokens), `P` a probability in
// (0, 1], `D` a positive duration, `M` warm|cold, and `for` itself.
struct FaultVerb {
  const char* usage;
  std::vector<std::string> forms;
  bool overlay;  // A packet overlay, evaluated per delivery by the plane.
};

const std::map<std::string, FaultVerb>& FaultVerbs() {
  static const std::map<std::string, FaultVerb> verbs = {
      {"crash",
       {"crash <component> <i> [for <d> [warm|cold]]", {"C", "C for D", "C for D M"}, false}},
      {"restart", {"restart <component> <i> [warm|cold]", {"C", "C M"}, false}},
      {"link-loss",
       {"link-loss <component> <i> <component> <j> <p> for <d>", {"C C P for D"}, true}},
      {"partition", {"partition <component> <i> <component> <j> for <d>", {"C C for D"}, true}},
      {"node-delay", {"node-delay <component> <i> <delay> for <d>", {"C D for D"}, true}},
      {"gray-syn", {"gray-syn <component> <i> <p> for <d>", {"C P for D"}, true}},
      {"kv-slow", {"kv-slow kv <i> <delay> for <d>", {"C D for D"}, false}},
  };
  return verbs;
}

// How many components of `kind` the testbed builds; nullopt for no kind.
std::optional<int> ComponentCount(const TestbedConfig& tb, const std::string& kind) {
  const std::map<std::string, int> counts = {{"instance", tb.yoda_instances + tb.spare_instances},
                                             {"backend", tb.backends},
                                             {"kv", tb.kv_servers},
                                             {"controller", std::max(1, tb.controllers)}};
  auto it = counts.find(kind);
  return it == counts.end() ? std::nullopt : std::optional<int>(it->second);
}

// The address of the validated component reference at args[k], args[k + 1].
net::IpAddr ComponentIp(const Testbed& tb, const ScenarioEvent& ev, std::size_t k) {
  const std::string& kind = ev.args[k];
  long long i = 0;
  ParseInt(ev.args[k + 1], &i);
  const int idx = static_cast<int>(i);
  return kind == "instance" ? tb.instance_ip(idx)
         : kind == "backend" ? tb.backend_ip(idx)
         : kind == "kv"      ? tb.kv_ip(idx)
                             : tb.controller_ip(idx);
}

// The `for <d>` of a validated fault action, or 0 when it has none.
sim::Duration ForDuration(const ScenarioEvent& ev) {
  auto it = std::find(ev.args.begin(), ev.args.end(), "for");
  return it == ev.args.end() ? 0 : *ParseDuration(*(it + 1));
}

// Whether `tok` fills a one-token slot of a fault verb form.
bool SlotFits(const std::string& slot, const std::string& tok) {
  if (slot == "P") {
    const std::optional<double> p = ParseNumber(tok);
    return p && *p > 0 && *p <= 1;
  }
  if (slot == "D") {
    const std::optional<sim::Duration> d = ParseDuration(tok);
    return d && *d > 0;
  }
  if (slot == "M") {
    return tok == "warm" || tok == "cold";
  }
  return tok == slot;
}

// Checks a fault action's arguments against its verb's forms. The form is
// picked by argument count; then every argument must fit its slot.
std::optional<std::string> CheckFault(const TestbedConfig& tb, const ScenarioEvent& ev,
                                      const FaultVerb& verb) {
  const std::string usage = std::string("usage: ") + verb.usage;
  for (const std::string& form : verb.forms) {
    const std::vector<std::string> slots = Tokens(form);
    if (slots.size() + static_cast<std::size_t>(std::count(slots.begin(), slots.end(), "C")) !=
        ev.args.size()) {
      continue;
    }
    std::size_t k = 0;
    for (const std::string& slot : slots) {
      const std::string& tok = ev.args[k];
      if (slot == "C") {
        const std::optional<int> have = ComponentCount(tb, tok);
        long long idx = 0;
        if (!have || !ParseInt(ev.args[k + 1], &idx)) {
          return usage;
        }
        if (idx < 0 || idx >= *have) {
          return tok + " " + ev.args[k + 1] + " names no component (have " +
                 std::to_string(*have) + ")";
        }
        k += 2;
        continue;
      }
      if (!SlotFits(slot, tok)) {
        return usage;
      }
      ++k;
    }
    if (ev.action == "kv-slow" && ev.args[0] != "kv") {
      return usage;
    }
    if (ForDuration(ev) > std::numeric_limits<sim::Time>::max() - ev.at) {
      return ev.action + ": its `for` ends past the end of simulated time";
    }
    return std::nullopt;
  }
  return usage;
}

// Applies one fault action through the fault plane or, with `clear`, lifts
// it again: a crash's clear is its restart, an overlay's clear removes it.
void ApplyFault(Testbed& tb, const ScenarioEvent& ev, bool clear) {
  fault::FaultPlane& plane = *tb.faults;
  const std::string& a = ev.action;
  const net::IpAddr x = ComponentIp(tb, ev, 0);
  const auto mode = ev.args.back() == "cold" ? fault::FaultPlane::RestartMode::kCold
                                             : fault::FaultPlane::RestartMode::kWarm;
  if ((a == "crash" && clear) || a == "restart") {
    plane.RestartNode(x, mode);
  } else if (a == "crash") {
    plane.CrashNode(x);
  } else if (a == "link-loss") {
    plane.SetLinkLoss(x, ComponentIp(tb, ev, 2), clear ? 0 : *ParseNumber(ev.args[4]));
  } else if (a == "partition" && clear) {
    plane.Heal(x, ComponentIp(tb, ev, 2));
  } else if (a == "partition") {
    plane.Partition(x, ComponentIp(tb, ev, 2));
  } else if (a == "node-delay") {
    plane.SetNodeDelay(x, clear ? 0 : *ParseDuration(ev.args[2]));
  } else if (a == "gray-syn") {
    // The classic gray failure: pure SYNs toward the target die, while
    // established traffic (and kAck-shaped health probes) pass. One rule per
    // action, so overlapping actions clear independently.
    const std::string id = a + " " + std::to_string(ev.at) + " " + ev.raw;
    if (clear) {
      plane.ClearGray(id);
    } else {
      plane.SetGray(
          id, [x](const net::Packet& p) { return p.dst == x && p.syn() && !p.ack_flag(); },
          *ParseNumber(ev.args[2]), x);
    }
  } else if (a == "kv-slow") {
    plane.SlowKv(x, clear ? 0 : *ParseDuration(ev.args[2]));
  }
}

// Applies one non-load timeline action to a testbed, on the conductor shard
// at the scripted instant. `ctl` is the control-plane handle — under HA,
// whichever replica currently acts as leader. ParseScenario rejected every
// malformed action, so this trusts its input.
void ApplyControlEvent(Testbed& tb, sim::Simulator& conductor, const ScenarioEvent& ev,
                       yoda::Controller* ctl,
                       const std::function<void(const std::string&)>& say) {
  if (FaultVerbs().contains(ev.action)) {
    say(ev.action + " " + ev.raw);
    ApplyFault(tb, ev, /*clear=*/false);
    // The clear runs on this shard too, where the fault plane lives, at the
    // scripted instant `for` after `at` (which ParseScenario checked fits the
    // clock; a setup that ran past `at` does not move it).
    if (const sim::Duration span = ForDuration(ev); span > 0) {
      conductor.At(std::max(ev.at + span, conductor.now()), [&tb, ev, say]() {
        say("end of " + ev.action + " " + ev.raw);
        ApplyFault(tb, ev, /*clear=*/true);
      });
    }
  } else if (ev.action == "crash-leader") {
    for (int i = 0; i < tb.controller_count(); ++i) {
      yoda::Controller* c = tb.ControllerAt(i);
      if (c->ActingLeader()) {
        say("CRASH leader controller " + std::to_string(i));
        tb.CrashController(i);
        break;
      }
    }
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
  const std::string& a = ev.action;
  if (auto it = FaultVerbs().find(a); it != FaultVerbs().end()) {
    return CheckFault(sc.testbed, ev, it->second);
  }
  if (a == "crash-leader" || a == "add-instance" || a == "assign") {
    return ev.args.empty() ? std::nullopt : std::optional<std::string>(a + " takes no argument");
  }
  if (a == "load") {
    // load <vip> rate <r> duration <d> [tls]
    const std::size_t n = ev.args.size();
    const std::optional<double> rate = n >= 5 ? ParseNumber(ev.args[2]) : std::nullopt;
    const std::optional<sim::Duration> duration =
        n >= 5 ? ParseDuration(ev.args[4]) : std::nullopt;
    if (n < 5 || n > 6 || !ParseIp(ev.args[0]) || ev.args[1] != "rate" || !rate ||
        *rate <= 0 || ev.args[3] != "duration" || !duration ||
        (n == 6 && ev.args[5] != "tls")) {
      return "usage: load <vip> rate <r> duration <d> [tls]";
    }
    if (*duration > std::numeric_limits<sim::Time>::max() - ev.at) {
      return "load duration " + ev.args[4] + " ends past the end of simulated time";
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
  long long value = 0;
  if (i == 0 || !ParseInt(token.substr(0, i), &value)) {
    return std::nullopt;
  }
  static const std::map<std::string, sim::Duration> kUnits = {
      {"ns", sim::Nsec(1)}, {"us", sim::Usec(1)}, {"ms", sim::Msec(1)},
      {"s", sim::Sec(1)},   {"", sim::Sec(1)},    {"m", sim::Minutes(1)},
  };
  auto unit = kUnits.find(token.substr(i));
  if (unit == kUnits.end() || value > std::numeric_limits<sim::Duration>::max() / unit->second) {
    return std::nullopt;
  }
  return value * unit->second;
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
    const std::string& action = sc.events[i].action;
    std::optional<std::string> bad = CheckAction(sc, sc.events[i]);
    // Assignment rollouts aggregate per-instance counters with direct
    // cross-shard reads, and packet overlays are evaluated on every shard;
    // both are unsupported placed (see TestbedConfig::engine).
    auto verb = FaultVerbs().find(action);
    if (!bad && sc.intra_threads > 0 &&
        (action == "assign" || (verb != FaultVerbs().end() && verb->second.overlay))) {
      bad = action + " is not supported with intra-threads";
    }
    if (bad) {
      Fail(error, event_lines[i], *bad);
      return std::nullopt;
    }
  }
  return sc;
}

namespace {

// One placed run, kept alive past the run so after_run can inspect it (and
// even advance it: pending load ticks still point into `load`). The testbed
// is declared after (and so dies before) the engine it runs on.
struct PlacedRun {
  std::unique_ptr<sim::ShardedSim> engine;
  std::unique_ptr<Testbed> tb;
  std::unique_ptr<OpenLoop> load;
  ScenarioReport report;
};

// The scenario runner: ONE testbed placed on `shards` shards of an engine
// executed by `workers` threads — every instance, backend, KV server and
// client on its owning shard per the scenario's placement. Load is an
// OpenLoop seeded with the scenario seed, generated per client on the
// client's shard. Control events are
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

  run->load = std::make_unique<OpenLoop>(tb, cfg.seed);

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
      conductor.At(std::max(ev.at, conductor.now()), [&tb, &conductor, ctl, say, ev]() {
        ApplyControlEvent(tb, conductor, ev, ctl(), say);
      });
      continue;
    }
    conductor.At(std::max(ev.at, conductor.now()), [say, ev]() {
      say("load " + ev.args[0] + " @" + ev.args[2] + "/s for " + ev.args[4]);
    });
    // The scripted rate is the aggregate; each client generates its share.
    FetchOptions options;
    options.use_tls = ev.args.size() > 5;
    run->load->Start(ev.at, *ParseIp(ev.args[0]), *ParseNumber(ev.args[2]),
                     *ParseDuration(ev.args[4]), options);
  }

  if (scenario.run_until > 0) {
    engine.RunUntil(scenario.run_until);
  } else {
    engine.Run();
  }

  // Merge: per-client tallies in client order, then the per-shard
  // observability lanes in shard order — both fixed, worker-count-invariant.
  ScenarioReport& report = run->report;
  OpenLoop::Tally load = run->load->Totals();
  report.requests_issued = load.issued;
  report.requests_ok = load.ok;
  report.requests_failed = load.failed;
  report.latency_ms = std::move(load.latency_ms);
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
    report.requests_issued += r.requests_issued;
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
