// TCPStore facade (paper §4.3, §6): the typed flow-state API Yoda instances
// use, layered on the replicating memcached client.
//
// StoreConnectionState (storage-a in Fig 3) writes the client key only;
// StoreTunnelingState (storage-b) writes the full state under the client key
// and the server-side reverse mapping — the write the instance must complete
// *before* ACKing the server SYN-ACK, so no acknowledged state can be lost.

#ifndef SRC_CORE_TCP_STORE_H_
#define SRC_CORE_TCP_STORE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "src/core/flow_state.h"
#include "src/kv/replicating_client.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"

namespace yoda {

struct TcpStoreStats {
  std::uint64_t connection_writes = 0;
  std::uint64_t tunneling_writes = 0;
  std::uint64_t lookups = 0;
  std::uint64_t lookup_hits = 0;
  std::uint64_t deletes = 0;
};

class TcpStore {
 public:
  using Ack = std::function<void(bool ok)>;
  using Lookup = std::function<void(std::optional<FlowState>)>;

  // Runs on `client`'s simulator: per-flow storage trace events
  // (kStorageAWrite*, kStorageBWrite*, kStoreLookup*) go to its recorder,
  // and the stats struct mirrors into "tcpstore.*" counters in its registry.
  explicit TcpStore(kv::ReplicatingClient* client);
  TcpStore(const TcpStore&) = delete;
  TcpStore& operator=(const TcpStore&) = delete;

  // storage-a: persist the connection-phase state (client SYN capture).
  void StoreConnectionState(const FlowState& state, Ack done);

  // storage-b: persist the full tunneling state plus the server-side reverse
  // key. `done` fires once both writes are acknowledged.
  void StoreTunnelingState(const FlowState& state, Ack done);

  // Lookup by client-side identity.
  void LookupByClient(net::IpAddr vip, net::Port vip_port, net::IpAddr client_ip,
                      net::Port client_port, Lookup done);

  // Lookup by server-side identity (return-path takeover): resolves the
  // reverse mapping, then the flow state. Two gets.
  void LookupByServer(net::IpAddr backend_ip, net::Port backend_port, net::IpAddr vip,
                      net::Port client_port, Lookup done);

  // Flow teardown: removes the client key and (if tunneling) the server key.
  void Remove(const FlowState& state, Ack done);

  const TcpStoreStats& stats() const { return stats_; }
  kv::ReplicatingClient* client() { return client_; }

 private:
  // Registry mirrors of the stats struct.
  struct StatCounters {
    obs::Counter* connection_writes = nullptr;
    obs::Counter* tunneling_writes = nullptr;
    obs::Counter* lookups = nullptr;
    obs::Counter* lookup_hits = nullptr;
    obs::Counter* deletes = nullptr;
  };

  void Trace(const obs::FlowId& flow, obs::EventType type, std::uint64_t detail = 0);
  static obs::FlowId FlowIdOf(const FlowState& state) {
    return obs::FlowId{state.vip, state.vip_port, state.client_ip, state.client_port};
  }

  kv::ReplicatingClient* client_;
  sim::Simulator* sim_;
  StatCounters ctr_;
  TcpStoreStats stats_;
};

}  // namespace yoda

#endif  // SRC_CORE_TCP_STORE_H_
