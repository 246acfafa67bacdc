#include "src/fault/chaos.h"

#include <algorithm>
#include <charconv>
#include <map>
#include <set>
#include <sstream>

#include "src/fault/fault_plane.h"

namespace fault {
namespace {

// Flow label for violation messages.
std::string FlowLabel(const obs::FlowId& id) {
  std::ostringstream os;
  os << net::IpToString(id.vip) << ':' << id.vip_port << '<'
     << net::IpToString(id.client_ip) << ':' << id.client_port;
  return os.str();
}

// A duration as the scenario DSL writes it exactly: in nanoseconds.
std::string Ns(sim::Duration d) { return std::to_string(d) + "ns"; }

// The shortest text that reads back as exactly `v`.
std::string Shortest(double v) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, end);
}

}  // namespace

std::vector<std::string> RandomSchedule(sim::Rng& rng, const ChaosOptions& opts) {
  // Kinds we can draw given the candidate lists.
  std::vector<FaultKind> kinds;
  if (!opts.links.empty()) {
    kinds.push_back(FaultKind::kLinkLoss);
    kinds.push_back(FaultKind::kPartition);
  }
  if (!opts.instances.empty()) {
    kinds.push_back(FaultKind::kNodeDelay);
    kinds.push_back(FaultKind::kGray);
    if (opts.allow_crash) {
      kinds.push_back(FaultKind::kCrash);
    }
  }
  if (!opts.kv_nodes.empty()) {
    kinds.push_back(FaultKind::kKvSlow);
  }

  auto pick = [&rng](const auto& list) -> const auto& {
    return list[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(list.size()) - 1))];
  };
  auto start = [&rng, &opts]() -> sim::Time {
    return opts.window_start + rng.UniformInt(0, opts.window_end - opts.window_start);
  };
  auto length = [&rng, &opts]() -> sim::Duration {
    return opts.min_duration + rng.UniformInt(0, opts.max_duration - opts.min_duration);
  };
  // Crashed targets must not crash again before their restart fires: an
  // overlapping crash shifts past the pending restart (a deterministic
  // adjustment, no extra draws).
  std::map<std::string, sim::Time> crash_busy_until;
  auto crash = [&crash_busy_until](const std::string& target, sim::Time at, sim::Duration len,
                                   bool cold) {
    sim::Time& busy = crash_busy_until[target];
    if (at <= busy) {
      at = busy + sim::Msec(1);
    }
    busy = at + len;
    return "at " + Ns(at) + " crash " + target + " for " + Ns(len) + (cold ? " cold" : " warm");
  };

  std::vector<std::string> lines;
  for (int i = 0; !kinds.empty() && i < opts.episodes; ++i) {
    const FaultKind kind = pick(kinds);
    const sim::Time at = start();
    const sim::Duration len = length();
    const std::string head = "at " + Ns(at) + " ";
    const std::string tail = " for " + Ns(len);
    switch (kind) {
      case FaultKind::kLinkLoss: {
        const auto& link = pick(opts.links);
        const double p = 0.2 + 0.7 * rng.UniformDouble();
        lines.push_back(head + "link-loss " + link.first + " " + link.second + " " +
                        Shortest(p) + tail);
        break;
      }
      case FaultKind::kPartition: {
        const auto& link = pick(opts.links);
        lines.push_back(head + "partition " + link.first + " " + link.second + tail);
        break;
      }
      case FaultKind::kNodeDelay: {
        const std::string& target = pick(opts.instances);
        const sim::Duration d = sim::Msec(1) + rng.UniformInt(0, sim::Msec(9));
        lines.push_back(head + "node-delay " + target + " " + Ns(d) + tail);
        break;
      }
      case FaultKind::kGray: {
        const std::string& target = pick(opts.instances);
        const double p = 0.6 + 0.4 * rng.UniformDouble();
        lines.push_back(head + "gray-syn " + target + " " + Shortest(p) + tail);
        break;
      }
      case FaultKind::kCrash: {
        const std::string& target = pick(opts.instances);
        const bool cold = rng.Bernoulli(0.5);
        lines.push_back(crash(target, at, len, cold));
        break;
      }
      case FaultKind::kKvSlow: {
        const std::string& target = pick(opts.kv_nodes);
        const sim::Duration d = sim::Msec(2) + rng.UniformInt(0, sim::Msec(18));
        lines.push_back(head + "kv-slow " + target + " " + Ns(d) + tail);
        break;
      }
      default:
        break;
    }
  }

  // Controller leader-kill episodes — drawn after (and independent of) the
  // generic loop so existing seeds replay byte-identically with HA off.
  for (int i = 0; i < opts.leader_kills && !opts.controllers.empty(); ++i) {
    const std::string& target = pick(opts.controllers);
    const sim::Time at = start();
    const sim::Duration len = length();
    lines.push_back(crash(target, at, len, /*cold=*/false));
  }
  return lines;
}

SoakReport CheckSoakInvariants(const obs::FlightRecorder& recorder) {
  // Every node the fault plane crashed, read from the trace's system log.
  std::set<net::IpAddr> crashed;
  for (const obs::TraceEvent& ev : recorder.system_events()) {
    if (ev.type == obs::EventType::kFaultInjected &&
        ev.detail == static_cast<std::uint64_t>(FaultKind::kCrash)) {
      crashed.insert(ev.where);
    }
  }
  SoakReport report;
  recorder.ForEachFlow([&](const obs::FlowId& id, const std::vector<obs::TraceEvent>& events) {
    ++report.flows_checked;
    bool terminated = false;
    bool touched_crashed = false;
    bool admitted = false;
    sim::Time prev = 0;
    std::uint64_t pin = 0;
    net::IpAddr pin_where = 0;
    bool switch_since_pin = false;
    bool takeover_since_pin = false;
    for (const obs::TraceEvent& ev : events) {
      if (ev.at < prev) {
        report.violations.push_back("non-monotone timestamps in flow " + FlowLabel(id));
      }
      prev = ev.at;
      if (crashed.contains(ev.where)) {
        touched_crashed = true;
      }
      switch (ev.type) {
        case obs::EventType::kClientSyn:
          // A fresh SYN admission starts a new incarnation of this flow id
          // (e.g. a retransmitted SYN landing on a survivor after its first
          // owner died pre-SYN-ACK). Pin stability is per incarnation.
          pin = 0;
          switch_since_pin = false;
          admitted = true;
          break;
        case obs::EventType::kTakeoverClient:
        case obs::EventType::kTakeoverServer:
          takeover_since_pin = true;
          admitted = true;
          break;
        case obs::EventType::kCleanup:
        case obs::EventType::kFlowReset:
          terminated = true;
          break;
        case obs::EventType::kReSwitch:
        case obs::EventType::kMirrorPromote:
          switch_since_pin = true;
          break;
        case obs::EventType::kBackendPinned: {
          // A pin may move only across an explicit re-switch/promote, or when
          // the flow was taken over off a crashed instance — the pin may have
          // died with the VM before reaching the TCPStore, in which case the
          // adopter legitimately re-runs backend selection.
          const bool crash_repin =
              takeover_since_pin && crashed.contains(pin_where);
          if (pin != 0 && ev.detail != pin && !switch_since_pin && !crash_repin) {
            report.violations.push_back("backend pin changed without re-switch in flow " +
                                        FlowLabel(id));
          }
          pin = ev.detail;
          pin_where = ev.where;
          switch_since_pin = false;
          takeover_since_pin = false;
          break;
        }
        default:
          break;
      }
    }
    if (terminated) {
      ++report.terminated;
    } else if (!admitted) {
      ++report.not_admitted;  // Only mux-scope events: the SYN died en route.
    } else if (touched_crashed) {
      ++report.exempted;
    } else {
      report.violations.push_back("flow never terminated: " + FlowLabel(id));
    }
  });
  // Controller HA: lease-safety invariant. Acquisitions carry their fencing
  // token (detail); the CAS protocol must hand out strictly increasing
  // tokens, so a repeated or out-of-order token means two replicas held the
  // same lease generation — split brain.
  std::uint64_t last_token = 0;
  for (const obs::TraceEvent& ev : recorder.system_events()) {
    if (ev.type != obs::EventType::kLeaseAcquired) {
      continue;
    }
    ++report.lease_acquisitions;
    if (ev.detail <= last_token) {
      std::ostringstream os;
      os << "lease token " << ev.detail << " acquired by " << net::IpToString(ev.where)
         << " at " << sim::ToMillis(ev.at) << "ms does not exceed prior token "
         << last_token;
      report.violations.push_back(os.str());
    }
    last_token = ev.detail;
  }
  return report;
}

PoolContinuityReport CheckPoolContinuity(const obs::FlightRecorder& recorder) {
  PoolContinuityReport report;
  struct VipPool {
    long members = 0;            // Committed member count (adds late, removes early).
    bool ever_nonempty = false;  // The continuity obligation starts here.
    bool removed = false;        // kVipRemoved seen; obligation over.
    std::uint64_t epoch = 0;     // Newest plan epoch replayed (mux watermark).
    std::vector<std::string> pending;  // Empty reprograms awaiting teardown.
  };
  std::map<std::uint32_t, VipPool> pools;

  auto label = [](std::uint32_t vip, sim::Time at) {
    std::ostringstream os;
    os << net::IpToString(vip) << " at " << sim::ToMillis(at) << "ms";
    return os.str();
  };

  for (const obs::TraceEvent& ev : recorder.system_events()) {
    if (ev.type != obs::EventType::kPoolUpdate &&
        ev.type != obs::EventType::kPoolMemberAdd &&
        ev.type != obs::EventType::kPoolMemberRemove &&
        ev.type != obs::EventType::kVipRemoved) {
      continue;
    }
    VipPool& pool = pools[ev.where];
    if (ev.type == obs::EventType::kVipRemoved) {
      pool.removed = true;
      pool.pending.clear();  // The empty reprogram was teardown after all.
      continue;
    }
    const std::uint64_t epoch = ev.detail >> 32;
    if (epoch != 0 && epoch < pool.epoch) {
      ++report.stale_skipped;
      continue;
    }
    pool.epoch = std::max(pool.epoch, epoch);
    ++report.events_replayed;
    switch (ev.type) {
      case obs::EventType::kPoolUpdate:
        pool.members = static_cast<long>(ev.detail & 0xffffffffULL);
        if (pool.members > 0) {
          pool.ever_nonempty = true;
        } else if (pool.ever_nonempty && !pool.removed) {
          pool.pending.push_back("pool reprogrammed empty for vip " +
                                 label(ev.where, ev.at));
        }
        break;
      case obs::EventType::kPoolMemberAdd:
        ++pool.members;
        pool.ever_nonempty = true;
        break;
      case obs::EventType::kPoolMemberRemove:
        --pool.members;
        if (pool.members <= 0 && pool.ever_nonempty && !pool.removed) {
          report.violations.push_back("pool drained to zero mid-update for vip " +
                                      label(ev.where, ev.at));
        }
        break;
      default:
        break;
    }
  }
  for (auto& [vip, pool] : pools) {
    (void)vip;
    if (pool.ever_nonempty) {
      ++report.vips_checked;
    }
    // Empty reprograms never followed by a kVipRemoved are real blackouts.
    for (std::string& v : pool.pending) {
      report.violations.push_back(std::move(v));
    }
  }
  return report;
}

}  // namespace fault
