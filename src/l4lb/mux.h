// Software mux of the cloud L4 LB (Ananta-style), one of several identical
// instances. A mux holds the VIP -> {L7 instance} mapping installed by the
// Yoda controller and forwards VIP traffic by rendezvous (highest-random-
// weight) hashing of the 5-tuple over the live pool, so removing an instance
// only remaps the flows that instance was handling.
//
// Forwarding preserves the original packet (dst stays the VIP) and sets the
// IP-in-IP encapsulation destination, matching how Ananta/Duet deliver VIP
// traffic to a DIP.
//
// The SNAT half (paper §3: Yoda uses "the SNAT functionality of the L4 LB")
// pins server->VIP return traffic to the instance that opened the VIP-sourced
// connection; when that instance dies the pin is dropped and return traffic
// re-ECMPs over the survivors — which is what lets any Yoda instance take
// over via TCPStore.

#ifndef SRC_L4LB_MUX_H_
#define SRC_L4LB_MUX_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/net/network.h"
#include "src/net/packet.h"

namespace l4lb {

struct MuxStats {
  std::uint64_t forwarded_ecmp = 0;
  std::uint64_t forwarded_snat = 0;
  std::uint64_t dropped_no_pool = 0;
  std::uint64_t fenced_writes = 0;  // Control writes rejected: stale lease token.
};

class Mux {
 public:
  explicit Mux(int id) : id_(id) {}

  int id() const { return id_; }

  // Installs/overwrites the instance pool for a VIP on this mux.
  //
  // Epoch semantics (controller make-before-break rollout): every pool write
  // carries the ControlState epoch that produced it. A mux remembers the
  // newest epoch applied per VIP and IGNORES writes from older epochs, so a
  // staggered update still in flight when a newer reconfiguration (e.g. a
  // failure repair) lands cannot clobber it. Epoch 0 is the unversioned
  // escape hatch (applies unconditionally; legacy callers and tests).
  // Returns false when the write was rejected as stale.
  //
  // Fencing-token semantics (controller HA): `token` is the leader lease's
  // monotonically increasing fencing token. A mux remembers the highest token
  // it has ever seen and rejects writes carrying an OLDER one — a deposed
  // leader replaying a plan after a new leader took over cannot corrupt the
  // pools, no matter what epoch its plan carries. Token 0 is the unfenced
  // escape hatch (single-controller mode; applies unconditionally).
  bool SetPool(net::IpAddr vip, std::vector<net::IpAddr> instances, std::uint64_t epoch = 0,
               std::uint64_t token = 0);
  // Idempotent member-level writes (the rollout's add/remove steps). Adding
  // a member that is already pooled, or removing one that is not, is a no-op
  // (returns true: the desired state holds). Stale epochs/tokens return false.
  bool AddMember(net::IpAddr vip, net::IpAddr instance, std::uint64_t epoch = 0,
                 std::uint64_t token = 0);
  bool RemoveMember(net::IpAddr vip, net::IpAddr instance, std::uint64_t epoch = 0,
                    std::uint64_t token = 0);
  void RemoveVip(net::IpAddr vip);
  // Removes one instance from every pool (failure handling).
  void RemoveInstance(net::IpAddr instance);
  // Newest epoch applied to this VIP's pool (0 = only unversioned writes).
  std::uint64_t PoolEpoch(net::IpAddr vip) const;
  // Highest fencing token ever seen (0 = only unfenced writes).
  std::uint64_t FenceToken() const { return fence_token_; }

  const std::vector<net::IpAddr>* PoolFor(net::IpAddr vip) const;

  // Picks the forwarding target for `packet`, or nullopt to drop. `snat_hit`
  // is the pre-resolved SNAT owner, if any (shared table lives in L4Fabric).
  std::optional<net::IpAddr> Route(const net::Packet& packet,
                                   std::optional<net::IpAddr> snat_hit);

  const MuxStats& stats() const { return stats_; }

 private:
  bool StaleEpoch(net::IpAddr vip, std::uint64_t epoch);
  bool StaleToken(std::uint64_t token);

  int id_;
  std::unordered_map<net::IpAddr, std::vector<net::IpAddr>> pools_;
  std::unordered_map<net::IpAddr, std::uint64_t> pool_epochs_;
  std::uint64_t fence_token_ = 0;
  MuxStats stats_;
};

// Rendezvous hash: returns the pool member with the highest hash weight for
// this tuple; stable under removals of other members.
net::IpAddr RendezvousPick(const net::FiveTuple& tuple, const std::vector<net::IpAddr>& pool);

}  // namespace l4lb

#endif  // SRC_L4LB_MUX_H_
