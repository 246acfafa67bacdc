// Intra-cell placement: which ShardedSim shard owns which component.
//
// Every testbed is placed: ONE testbed spread over the shards of one engine
// (a single shard for a plain testbed) — each Yoda instance pipeline, backend
// HTTP server, KV server and client pool is assigned a shard, and every
// cross-component interaction travels as a cross-shard message (Network mail
// or CallOn) instead of a direct call.
//
// The assignment is a pure function of the placement config and the
// component index — never of the worker count — so the shard that executes
// any given event is identical for 1 or 8 workers, which is what keeps trace
// digests byte-identical across worker counts.
//
// Ownership rule: a component's state may only be mutated by an event
// executing on its owning shard — the shard of the simulator it was built on.
// AssertOnOwnerShard (below) checks this in debug builds at the mutation
// entry points (packet delivery, KV ops, instance config writes).

#ifndef SRC_SIM_PLACEMENT_H_
#define SRC_SIM_PLACEMENT_H_

#include <cassert>
#include <cstddef>
#include <vector>

#include "src/sim/sharded_sim.h"

namespace sim {

struct IntraPlacement {
  // Shard count of the engine this placement targets.
  int shards = 8;

  // Control plane stays together: the controller replicas, their store
  // client, and the conductor timeline all run here.
  int controller_shard = 0;
  // The L4 fabric (all muxes) is one Node on one shard; every VIP resolves
  // to it. Per-mux sharding is future work (see DESIGN.md section 14).
  int fabric_shard = 0;

  // Per-index overrides (scenario `place` directive). An entry < 0 — or an
  // index past the vector — falls back to the round-robin default.
  std::vector<int> instance_shards;
  std::vector<int> backend_shards;
  std::vector<int> kv_shards;
  std::vector<int> client_shards;
  std::vector<int> proxy_shards;

  // Round-robin with a per-kind offset so small fleets don't all pile onto
  // the low shards (the controller and fabric already live on shard 0).
  int InstanceShard(int i) const { return Pick(instance_shards, i, 0); }
  int BackendShard(int i) const { return Pick(backend_shards, i, 1); }
  int KvShard(int i) const { return Pick(kv_shards, i, 2); }
  int ClientShard(int i) const { return Pick(client_shards, i, 3); }
  int ProxyShard(int i) const { return Pick(proxy_shards, i, 4); }

 private:
  int Pick(const std::vector<int>& overrides, int i, int offset) const {
    const int s = shards > 0 ? shards : 1;
    if (i >= 0 && static_cast<std::size_t>(i) < overrides.size() && overrides[i] >= 0) {
      return overrides[static_cast<std::size_t>(i)] % s;
    }
    return (i + offset) % s;
  }
};

// Debug-build ownership check for a component built on `owner`: only an
// event executing on another shard trips it. Outside the epoch loop (setup,
// aggregation: current_shard() == -1) every check passes. Release builds
// compile it away.
inline void AssertOnOwnerShard([[maybe_unused]] const Simulator& owner) {
  assert((ShardedSim::current_shard() < 0 ||
          ShardedSim::current_shard() == owner.shard_index()) &&
         "shard ownership violation: component mutated off its owning shard");
}

}  // namespace sim

#endif  // SRC_SIM_PLACEMENT_H_
