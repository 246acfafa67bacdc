// Chaos-soak building blocks: randomized (but seed-deterministic) fault
// schedules, and post-hoc invariant checking over flight-recorder traces.
//
// RandomSchedule draws a whole fault timeline up front from the caller's Rng
// — every episode's kind, target, start, duration and parameters — and
// writes it as scenario timeline lines (the fault verbs of
// src/workload/scenario.h), which the scenario runner applies. Because no
// draw happens at fire time, the same seed always produces the same timeline
// no matter how the simulation interleaves, and a soak seed is a script
// anyone can read, edit and re-run.
//
// CheckSoakInvariants replays a FlightRecorder and verifies the properties
// the chaos soak asserts. It needs no side input: the set of crashed nodes
// comes from the trace itself, from the fault plane's kFaultInjected system
// events whose detail is FaultKind::kCrash.
//   - event timestamps are monotone within each flow;
//   - every admitted flow reaches an explicit terminal event (kCleanup or
//     kFlowReset) — flows that touched a crashed node are exempt (their
//     state legitimately vanished with the VM);
//   - a flow's backend pin (kBackendPinned detail) only changes across an
//     intervening kReSwitch / kMirrorPromote — never silently mid-flow. Two
//     exceptions reset the check: a second kClientSyn (a retransmitted SYN
//     admitted by a survivor starts a new incarnation of the flow id), and a
//     takeover off a crashed instance (the pin may have died with the VM
//     before reaching the TCPStore, so the adopter re-runs selection).

#ifndef SRC_FAULT_CHAOS_H_
#define SRC_FAULT_CHAOS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/trace.h"
#include "src/sim/random.h"

namespace fault {

struct ChaosOptions {
  // Injection window: episodes start in [window_start, window_end].
  sim::Time window_start = sim::Msec(50);
  sim::Time window_end = sim::Msec(400);
  // Number of fault episodes to draw.
  int episodes = 6;
  // Episode duration is uniform in [min_duration, max_duration].
  sim::Duration min_duration = sim::Msec(5);
  sim::Duration max_duration = sim::Msec(80);
  // Candidate targets, each a scenario component reference such as
  // "instance 0". Empty lists disable the corresponding fault kinds.
  std::vector<std::string> instances;                      // crash/delay/gray targets
  std::vector<std::string> kv_nodes;                       // slowness targets
  std::vector<std::pair<std::string, std::string>> links;  // loss/partition pairs
  bool allow_crash = true;  // Instance crashes (cold or warm restart after).
  // Controller HA: leader-kill episodes (crash + warm restart of a random
  // controller replica). Drawn AFTER the generic episode loop above, so
  // enabling them never perturbs an existing seed's draw sequence. A kill
  // may land on a standby — that is part of the chaos.
  std::vector<std::string> controllers;
  int leader_kills = 0;
};

// Draws `opts.episodes` fault episodes (then `opts.leader_kills` kills) from
// `rng` and returns them in draw order, one scenario `at` line per episode
// whose `for` schedules its clear. Times are written in ns and probabilities
// in their shortest round-trip form, so the lines parse back to exactly the
// drawn values.
std::vector<std::string> RandomSchedule(sim::Rng& rng, const ChaosOptions& opts);

struct SoakReport {
  std::vector<std::string> violations;
  std::size_t flows_checked = 0;
  std::size_t terminated = 0;    // Flows with an explicit terminal event.
  std::size_t exempted = 0;      // Non-terminated flows excused by a crash.
  std::size_t not_admitted = 0;  // Never reached an instance (SYN died en route);
                                 // the must-terminate invariant does not apply.
  // Controller HA: kLeaseAcquired events replayed from the system log. The
  // checker asserts each acquisition's fencing token is strictly greater
  // than every earlier one — i.e. at most one valid holder per token, ever.
  std::size_t lease_acquisitions = 0;
  bool ok() const { return violations.empty(); }
};

SoakReport CheckSoakInvariants(const obs::FlightRecorder& recorder);

// Pool-continuity check for make-before-break rollouts: replays the system
// event log (kPoolUpdate / kPoolMemberAdd / kPoolMemberRemove / kVipRemoved)
// and verifies that no VIP that ever had >= 1 mux-pool member drops to zero
// members while still attached to the fabric. An explicit empty kPoolUpdate
// is legitimate only as part of VIP teardown (a later kVipRemoved for the
// same VIP). Events carry the plan epoch in detail's high 32 bits; writes
// older than the newest epoch already replayed for a VIP are stragglers from
// an overtaken rollout — the muxes reject them, so the checker skips them
// (epoch 0 = legacy unversioned write, always applied).
struct PoolContinuityReport {
  std::vector<std::string> violations;
  std::size_t vips_checked = 0;
  std::size_t events_replayed = 0;
  std::size_t stale_skipped = 0;  // Straggler writes ignored by epoch gating.
  bool ok() const { return violations.empty(); }
};

PoolContinuityReport CheckPoolContinuity(const obs::FlightRecorder& recorder);

}  // namespace fault

#endif  // SRC_FAULT_CHAOS_H_
