// Deterministic, scriptable fault-injection plane.
//
// The FaultPlane installs itself as the Network's fault observer and
// evaluates a set of live overlays against every delivery attempt, in order:
//
//   1. partitions   — bidirectional total cuts between two addresses;
//   2. link faults  — per-(a,b) loss probability and/or delay spike;
//   3. node faults  — loss/delay applied to any packet to or from an address;
//   4. gray rules   — drop only packets matching a predicate (e.g. only SYNs)
//                     with some probability: the "node looks healthy to
//                     pings, kills real traffic" failure class.
//
// Determinism contract: the plane draws exclusively from its OWN seeded Rng,
// and only when an overlay actually applies to the packet at hand. Installing
// a FaultPlane with no overlays therefore leaves a same-seed run bit-identical
// to a plane-less run (see net_test's determinism regression), and two runs
// with the same seed AND the same fault script replay the exact same fault
// timeline.
//
// Crash / restart / KV-slowness are not packet overlays — they mutate
// component state — so they route through handlers the testbed wires up.
// The handlers are the only crash semantics: the plane has no fallback, and
// calling CrashNode / RestartNode / SlowKv on a plane without the matching
// handler is a programming error (asserted). Restart distinguishes warm
// (state intact — a healed partition) from cold (Node::OnColdRestart — a
// rebooted VM).
//
// The plane applies each fault when it is called; timed fault scripts are
// scenario `at` lines (src/workload/scenario.h), which the scenario runner
// applies on the plane's shard. Every applied or cleared fault is mirrored
// into the system log (kFaultInjected / kFaultCleared) of the simulator's
// flight recorder, so soak invariants can correlate flow timelines with the
// fault timeline.

#ifndef SRC_FAULT_FAULT_PLANE_H_
#define SRC_FAULT_FAULT_PLANE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "src/net/network.h"
#include "src/obs/trace.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"

namespace fault {

// detail payload of kFaultInjected / kFaultCleared system events.
enum class FaultKind : std::uint64_t {
  kLinkLoss = 1,
  kLinkDelay = 2,
  kNodeLoss = 3,
  kNodeDelay = 4,
  kPartition = 5,
  kGray = 6,
  kCrash = 7,
  kRestartWarm = 8,
  kRestartCold = 9,
  kKvSlow = 10,
};

const char* FaultKindName(FaultKind kind);

struct FaultPlaneStats {
  std::uint64_t dropped = 0;  // Packets dropped by overlays.
  std::uint64_t delayed = 0;  // Packets given extra delay.
};

class FaultPlane : public net::FaultObserver {
 public:
  using PacketPredicate = std::function<bool(const net::Packet&)>;

  enum class RestartMode { kWarm, kCold };

  // Installs the plane as `network`'s fault observer. The plane must outlive
  // its installation (the testbed owns both).
  FaultPlane(sim::Simulator* simulator, net::Network* network, std::uint64_t seed);
  FaultPlane(const FaultPlane&) = delete;
  FaultPlane& operator=(const FaultPlane&) = delete;

  // --- packet overlays (immediate; p = 0 / d = 0 clears) --------------------
  // Symmetric per-link loss probability / extra delay between a and b.
  void SetLinkLoss(net::IpAddr a, net::IpAddr b, double p);
  void SetLinkDelay(net::IpAddr a, net::IpAddr b, sim::Duration d);
  // Loss / delay on every packet to or from `node`.
  void SetNodeLoss(net::IpAddr node, double p);
  void SetNodeDelay(net::IpAddr node, sim::Duration d);
  // Bidirectional total cut between a and b.
  void Partition(net::IpAddr a, net::IpAddr b);
  void Heal(net::IpAddr a, net::IpAddr b);
  // Gray failure: drop packets matching `pred` with probability `p`. Rules
  // are keyed by id (re-setting replaces) and evaluated in id order. `where`
  // is the address the rule's inject and clear events name on the trace.
  void SetGray(const std::string& id, PacketPredicate pred, double p, net::IpAddr where = 0);
  void ClearGray(const std::string& id);

  // --- component faults (routed through testbed-wired handlers; required) ---
  using CrashHandler = std::function<void(net::IpAddr)>;
  using RestartHandler = std::function<void(net::IpAddr, RestartMode)>;
  using KvSlowHandler = std::function<void(net::IpAddr, sim::Duration)>;
  void set_crash_handler(CrashHandler h) { crash_handler_ = std::move(h); }
  void set_restart_handler(RestartHandler h) { restart_handler_ = std::move(h); }
  void set_kv_slow_handler(KvSlowHandler h) { kv_slow_handler_ = std::move(h); }

  // Crash: component state is lost and the address blackholes.
  void CrashNode(net::IpAddr ip);
  // Restart a crashed node; kWarm keeps surviving state, kCold clears it.
  void RestartNode(net::IpAddr ip, RestartMode mode);
  // KV replica answers, but `response_delay` late. 0 clears.
  void SlowKv(net::IpAddr ip, sim::Duration response_delay);

  // FaultObserver: the per-delivery verdict, a virtual call with no closure.
  net::FaultVerdict OnSend(const net::Packet& packet, net::IpAddr route_dst) override {
    return Verdict(packet, route_dst);
  }

  // The verdict body (exposed for tests).
  net::FaultVerdict Verdict(const net::Packet& packet, net::IpAddr route_dst);

  sim::Rng& rng() { return rng_; }
  const FaultPlaneStats& stats() const { return stats_; }

 private:
  struct LinkFault {
    double loss = 0;
    sim::Duration delay = 0;
  };
  struct NodeFault {
    double loss = 0;
    sim::Duration delay = 0;
  };
  struct GrayRule {
    PacketPredicate pred;
    double p = 1.0;
    net::IpAddr where = 0;
  };

  static std::uint64_t LinkKey(net::IpAddr a, net::IpAddr b);
  void Note(net::IpAddr where, FaultKind kind, bool injected);

  sim::Simulator* sim_;
  sim::Rng rng_;

  // std::map/set keep overlay evaluation order deterministic.
  std::set<std::uint64_t> partitions_;
  std::map<std::uint64_t, LinkFault> links_;
  std::map<net::IpAddr, NodeFault> node_faults_;
  std::map<std::string, GrayRule> grays_;

  CrashHandler crash_handler_;
  RestartHandler restart_handler_;
  KvSlowHandler kv_slow_handler_;

  FaultPlaneStats stats_;
};

}  // namespace fault

#endif  // SRC_FAULT_FAULT_PLANE_H_
