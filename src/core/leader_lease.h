// LeaderLease: store-backed leader election for the controller replicas.
//
// The lease is a single key ("ctl/lease") in the replicated KV ring, mutated
// only through compare-and-set (ReplicatingClient::Cas, majority semantics).
// Its value carries three fields: the holder's ip, a fencing token, and an
// expiry timestamp. A contender may take the lease only when it is absent or
// expired, and MUST increment the fencing token when doing so; the holder
// renews by CAS-ing its own value forward (same token, later expiry). Because
// every transfer goes through a majority CAS, two controllers can never both
// hold valid leases with the same token, and because the token is monotone,
// the data plane (muxes, instances) can reject a deposed leader's straggling
// writes by watermark alone — see Mux::StaleToken.
//
// Failure philosophy (paper §4.4 spirit): safety over liveness. A holder
// whose renewal CAS fails — deposed OR merely cut off from a replica
// majority — steps down immediately and goes back to contending; a contender
// that cannot win keeps retrying on a per-ip staggered cadence. A stalled
// store therefore stalls reconfiguration, never forks it.

#ifndef SRC_CORE_LEADER_LEASE_H_
#define SRC_CORE_LEADER_LEASE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "src/kv/replicating_client.h"
#include "src/net/network.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"

namespace yoda {

// Parsed form of the lease value. Exposed for tests and ctl_dump.
struct LeaseRecord {
  net::IpAddr holder = 0;
  std::uint64_t token = 0;
  sim::Time expires = 0;
};

// "holder=<ip> token=<t> expires=<ns>" round-trip.
std::string EncodeLease(const LeaseRecord& lease);
std::optional<LeaseRecord> ParseLease(const std::string& value);

struct LeaderLeaseConfig {
  net::IpAddr self = 0;               // This controller replica's ip.
  sim::Duration ttl = sim::Msec(300);  // Lease validity from grant/renewal.
  sim::Duration renew_interval = sim::Msec(100);
  // Contender poll cadence while somebody else holds the lease. Each replica
  // adds a small ip-derived offset so contenders do not CAS in lockstep
  // (simultaneous contenders can ALL lose a majority CAS).
  sim::Duration acquire_interval = sim::Msec(50);
};

class LeaderLease {
 public:
  // `on_acquired(token)` fires when this replica wins the lease;
  // `on_lost()` fires when a held lease could not be renewed (step-down).
  // Neither fires after Stop().
  LeaderLease(sim::Simulator* simulator, kv::ReplicatingClient* client,
              LeaderLeaseConfig config, std::function<void(std::uint64_t)> on_acquired,
              std::function<void()> on_lost);

  // Begins contending for the lease (idempotent).
  void Start();
  // Crash/shutdown: stop contending and renewing immediately. The lease (if
  // held) is left to expire on its own — exactly what a real crash does.
  void Stop();

  bool is_leader() const { return is_leader_; }
  std::uint64_t token() const { return token_; }

 private:
  void Tick(std::uint64_t gen);
  void ArmNext(std::uint64_t gen, sim::Duration delay);
  void TryAcquire(std::uint64_t gen, std::optional<std::string> current_raw);
  void Renew(std::uint64_t gen);
  void StepDown();
  // kLeaseAcquired/Renewed/Lost, into the simulator's flight recorder.
  void Note(obs::EventType type, std::uint64_t detail);

  sim::Simulator* sim_;
  kv::ReplicatingClient* kv_;
  LeaderLeaseConfig cfg_;
  std::function<void(std::uint64_t)> on_acquired_;
  std::function<void()> on_lost_;

  bool running_ = false;
  // Bumped by Start/Stop and step-down; parked callbacks from an earlier
  // generation (in-flight KV ops, armed timers) see the mismatch and die.
  std::uint64_t gen_ = 0;
  bool is_leader_ = false;
  std::uint64_t token_ = 0;
  std::string held_raw_;  // Exact value we last wrote (CAS expectation).
};

}  // namespace yoda

#endif  // SRC_CORE_LEADER_LEASE_H_
