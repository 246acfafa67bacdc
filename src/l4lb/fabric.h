// L4Fabric: the cloud's L4 load-balancer service as seen by tenants.
//
// It attaches to the network at each VIP, spreads packets across several Mux
// instances (router ECMP), and owns the shared SNAT table. Controller-driven
// mapping changes can be applied on every mux at once or staggered across
// muxes (paper §4.5: "the VIP-to-YODA-instance mapping has to be changed on
// multiple L4 LB instances, which is not atomic"), which is what creates the
// transient mixed-traffic window the assignment ILP budgets for.
//
// The fabric (one Node: all muxes and the SNAT table) lives on the engine
// shard of the simulator it is built on. Mutating calls — controller pool
// writes, SNAT pins — arriving from an event on a *different* shard execute
// on the fabric's shard at the next epoch barrier (fire-and-forget; all such
// writes are void): at most one min-latency link hop late, and always before
// any packet that could observe it (a server->VIP return leg needs two DC
// hops).

#ifndef SRC_L4LB_FABRIC_H_
#define SRC_L4LB_FABRIC_H_

#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/l4lb/mux.h"
#include "src/net/network.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"

namespace l4lb {

struct FabricStats {
  std::uint64_t packets = 0;
  std::uint64_t dropped = 0;
};

class L4Fabric : public net::Node {
 public:
  // `simulator` must be a shard of an engine (see the header comment).
  // Fabric counters go to its registry ("l4.fabric.*"), and every routed
  // client SYN records a kMuxForward event (where = mux id, detail = target
  // instance) in its flight recorder.
  L4Fabric(sim::Simulator* simulator, net::Network* network, int num_muxes);

  // Route the VIP through this fabric (attaches this node at `vip`).
  void AttachVip(net::IpAddr vip);
  void DetachVip(net::IpAddr vip);

  // --- controller API ---
  // Applies the pool one mux at a time, `per_mux_delay` apart (non-atomic
  // update; during the window different muxes route differently). An
  // unversioned ProgramPool: epoch 0, unfenced.
  void SetVipPoolStaggered(net::IpAddr vip, std::vector<net::IpAddr> instances,
                           sim::Duration per_mux_delay);
  // Failure path: removes the instance from every pool on every mux and
  // clears its SNAT pins, so subsequent packets re-ECMP over survivors.
  void RemoveInstanceEverywhere(net::IpAddr instance);

  // --- epoched controller API (reconciliation rollout) ---
  // Every write carries the ControlState epoch that produced it; muxes drop
  // writes from epochs older than the newest they have applied per VIP (see
  // Mux::SetPool), which is what makes in-flight staggered rollouts safe to
  // overtake. `per_mux_delay` staggers application across muxes (0 = all at
  // once); a member write on mux i lands at i * per_mux_delay.
  //
  // `token` is the leader lease's fencing token (0 = unfenced). Muxes reject
  // writes whose token is older than the highest they have seen; each
  // rejection is recorded as a kFencedWrite system event (where=vip,
  // detail=(offered token << 32) | mux watermark) so traces prove a deposed
  // leader's stragglers were dropped.
  void ProgramPool(net::IpAddr vip, std::vector<net::IpAddr> instances, std::uint64_t epoch,
                   sim::Duration per_mux_delay = 0, std::uint64_t token = 0);
  void AddPoolMember(net::IpAddr vip, net::IpAddr instance, std::uint64_t epoch,
                     sim::Duration per_mux_delay = 0, std::uint64_t token = 0);
  void RemovePoolMember(net::IpAddr vip, net::IpAddr instance, std::uint64_t epoch,
                        sim::Duration per_mux_delay = 0, std::uint64_t token = 0);
  // How long after issuing a staggered write the last mux has applied it.
  sim::Duration ConvergenceDelay(sim::Duration per_mux_delay) const {
    return muxes_.empty() ? 0
                          : per_mux_delay * static_cast<sim::Duration>(muxes_.size() - 1);
  }

  // --- SNAT API (used by L7 instances opening VIP-sourced connections) ---
  // `server_side` is the tuple of *return* packets: (server -> VIP).
  void RegisterSnat(const net::FiveTuple& server_side, net::IpAddr owner);
  void UnregisterSnat(const net::FiveTuple& server_side);
  std::optional<net::IpAddr> SnatOwner(const net::FiveTuple& server_side) const;
  // Ablation hook: with pinning disabled, server->VIP return traffic is
  // routed purely by ECMP, forcing non-owner instances to consult TCPStore.
  void set_snat_enabled(bool enabled) { snat_enabled_ = enabled; }

  // net::Node: a packet addressed to a VIP.
  void HandlePacket(const net::Packet& packet) override;

  const FabricStats& stats() const { return stats_; }
  Mux& mux(int i) { return *muxes_[static_cast<std::size_t>(i)]; }
  int mux_count() const { return static_cast<int>(muxes_.size()); }

 private:
  // Records kFencedWrite when a rejected write was a fencing (not epoch)
  // rejection: the offered token sits below the mux's watermark.
  void NoteFenced(net::IpAddr vip, std::uint64_t token, const Mux& mux);
  // The one pool-write loop: on the fabric's shard, applies `write` to every
  // mux — inline when `per_mux_delay` is 0, else mux i at i * per_mux_delay —
  // and notes each rejected write (NoteFenced).
  void WriteMuxes(net::IpAddr vip, std::uint64_t token, sim::Duration per_mux_delay,
                  std::function<bool(Mux&)> write);

  sim::Simulator* sim_;
  net::Network* net_;
  std::vector<std::unique_ptr<Mux>> muxes_;
  bool snat_enabled_ = true;
  std::unordered_map<net::FiveTuple, net::IpAddr, net::FiveTupleHash> snat_;
  FabricStats stats_;
  obs::Counter* packets_ctr_;
  obs::Counter* dropped_ctr_;
};

}  // namespace l4lb

#endif  // SRC_L4LB_FABRIC_H_
