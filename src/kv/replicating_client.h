// The modified memcached client library from the paper (§6, "TCPStore"):
// every key-value pair is stored on K servers chosen by K hash functions over
// a consistent-hash ring, operations are issued to all replicas in parallel,
// and long-lived connections are assumed (a fixed one-way network delay per
// op rather than per-connection handshakes).
//
// Completion semantics:
//   - Set/Delete: callback fires when every replica acked or timed out;
//     ok == at least one replica acked.
//   - Get: callback fires with the first hit; a miss is reported only after
//     all queried replicas answered (or timed out) without a hit.
//
// Degraded-mode hardening (off by default so the paper-faithful behavior is
// unchanged):
//   - Read modes: kFanout (paper default — all replicas in parallel),
//     kSingle (one replica at a time, advancing only on answer or full
//     op_timeout: the timeout-only baseline), kHedged (start one replica,
//     launch the next if no answer within hedge_delay — cuts the tail when a
//     replica is slow or dead without doubling steady-state load).
//   - Per-op retry with exponential backoff (max_retries > 0): an op that
//     ends with no definitive answer (no ack / timed-out miss) is re-issued
//     after retry_backoff, doubling per attempt.
//   - Read repair (read_repair = true): a Get hit re-installs the value on
//     replicas that answered "miss", healing a cold-restarted replica.
//
// There is no background re-replication on server failure (paper: "flows
// finish quicker than the replication latency"); read repair is the only —
// request-driven — healing path.

#ifndef SRC_KV_REPLICATING_CLIENT_H_
#define SRC_KV_REPLICATING_CLIENT_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/kv/hash_ring.h"
#include "src/obs/registry.h"
#include "src/kv/kv_server.h"
#include "src/sim/metrics.h"
#include "src/sim/simulator.h"

namespace kv {

// How Get spreads load across the key's replicas.
enum class ReadMode : std::uint8_t {
  kFanout = 0,  // All replicas in parallel; first hit wins (paper behavior).
  kSingle = 1,  // Sequential; each replica gets the full op_timeout.
  kHedged = 2,  // Sequential, but the next replica starts after hedge_delay.
};

struct ReplicatingClientConfig {
  int replicas = 2;
  // One-way client<->server network delay per op message (includes kernel
  // and library overheads; calibrated so one blocking set costs ~0.4 ms and
  // the two storage waits on Yoda's connection path total ~0.9 ms, Fig 9).
  sim::Duration network_delay = sim::Usec(200);
  // Deadline after which an unresponsive replica counts as failed.
  sim::Duration op_timeout = sim::Msec(50);
  // Read spreading; see ReadMode.
  ReadMode read_mode = ReadMode::kFanout;
  // kHedged only: silence interval before the next replica is queried.
  sim::Duration hedge_delay = sim::Msec(5);
  // Re-issues per op after an indefinite outcome (0 = paper behavior).
  int max_retries = 0;
  // First retry delay; doubles per subsequent attempt.
  sim::Duration retry_backoff = sim::Msec(2);
  // Re-install a Get hit on replicas that answered "miss".
  bool read_repair = false;
};

struct ClientOpStats {
  std::uint64_t gets = 0;
  std::uint64_t sets = 0;
  std::uint64_t deletes = 0;
  std::uint64_t cas_ops = 0;
  std::uint64_t cas_wins = 0;      // CAS ops that reached replica majority.
  std::uint64_t cas_repairs = 0;   // Diverged replicas overwritten after a win.
  // Replica attempts (not ops) still unanswered when their op_timeout
  // elapsed — per-replica attribution, counted even when the op itself
  // finished early off another replica.
  std::uint64_t replica_timeouts = 0;
  std::uint64_t retries = 0;       // Re-issued ops (any type).
  std::uint64_t hedged_gets = 0;   // Hedge legs actually launched.
  std::uint64_t hedge_wins = 0;    // Gets whose winning hit came from a hedge leg.
  std::uint64_t read_repairs = 0;  // Replicas healed by read repair.
  sim::Histogram get_latency_us;
  sim::Histogram set_latency_us;
  sim::Histogram delete_latency_us;
};

class ReplicatingClient {
 public:
  using GetCallback = std::function<void(std::optional<std::string>)>;
  using AckCallback = std::function<void(bool ok)>;

  // `simulator` and every server's simulator must be shards of one engine:
  // each op message is an engine hop (see ToServer/ToHome). Op counts and
  // latency histograms mirror into the simulator's registry ("kv.client.*").
  ReplicatingClient(sim::Simulator* simulator, std::vector<KvServer*> servers,
                    ReplicatingClientConfig config = {});
  ReplicatingClient(const ReplicatingClient&) = delete;
  ReplicatingClient& operator=(const ReplicatingClient&) = delete;

  void Set(const std::string& key, std::string value, AckCallback cb);
  void Get(const std::string& key, GetCallback cb);
  void Delete(const std::string& key, AckCallback cb);
  // Replicated compare-and-set (leader-lease substrate): the CAS is issued to
  // every replica of `key` in parallel and SUCCEEDS only when a strict
  // majority of the configured replica count acked the compare — so with 2
  // replicas both must agree, and two contenders racing on the same key can
  // both lose but can never both win. After a win, replicas that answered
  // with a compare conflict (diverged under a previous contested CAS) are
  // force-overwritten with the winning value, restoring convergence. There is
  // no retry layer: lease acquisition retries at its own cadence.
  void Cas(const std::string& key, std::optional<std::string> expected, std::string value,
           AckCallback cb);

  // Replica servers the ring selects for `key` (exposed for tests).
  std::vector<KvServer*> ReplicasFor(const std::string& key) const;

  ClientOpStats& stats() { return stats_; }
  const ReplicatingClientConfig& config() const { return cfg_; }
  sim::Simulator* simulator() const { return sim_; }

 private:
  // One attempt = one round over the replicas. The bool pair is
  // (ok/hit, indefinite): `indefinite` means no replica gave a definitive
  // answer, which is what retries key on.
  void SetAttempt(const std::string& key, const std::string& value,
                  std::function<void(bool ok, bool indefinite)> done);
  void DeleteAttempt(const std::string& key,
                     std::function<void(bool ok, bool indefinite)> done);
  void GetAttempt(const std::string& key,
                  std::function<void(std::optional<std::string>, bool indefinite)> done);

  void RunSet(const std::string& key, const std::string& value, int attempt,
              sim::Time start, AckCallback cb);
  void RunDelete(const std::string& key, int attempt, sim::Time start, AckCallback cb);
  void RunGet(const std::string& key, int attempt, sim::Time start, GetCallback cb);

  // One in-flight Get attempt (defined in the .cc).
  struct GetOp;
  void StartGetSlot(const std::shared_ptr<GetOp>& op, std::size_t i, bool hedged);
  // Arms the next hedge launch; each firing re-arms itself until the op
  // finishes or replicas run out. Captures only `this` and the op, so it
  // cannot form an ownership cycle.
  void ArmHedge(const std::shared_ptr<GetOp>& op);
  void OnGetAnswer(const std::shared_ptr<GetOp>& op, std::size_t i,
                   std::optional<std::string> v);
  void FinishGet(const std::shared_ptr<GetOp>& op);

  sim::Duration BackoffFor(int attempt) const;
  void CountReplicaTimeouts(std::uint64_t n);

  // One op-message hop, timestamped now()+network_delay — which the epoch
  // window (<= network_delay) guarantees is never clamped. ToServer: this
  // client's shard -> the shard of `server`'s simulator (fn then runs where
  // the server lives, typically calling into it). ToHome: back to this
  // client's shard (fn is the answer-side continuation; must be invoked
  // while executing on `server`'s shard). All op bookkeeping (attempt state,
  // timers, retries, stats) stays on this client's shard.
  void ToServer(KvServer* server, std::function<void()> fn);
  void ToHome(KvServer* server, std::function<void()> fn);

  // Registry mirrors of the stats struct.
  struct StatCounters {
    obs::Counter* gets = nullptr;
    obs::Counter* sets = nullptr;
    obs::Counter* deletes = nullptr;
    obs::Counter* cas_ops = nullptr;
    obs::Counter* cas_wins = nullptr;
    obs::Counter* cas_repairs = nullptr;
    obs::Counter* replica_timeouts = nullptr;
    obs::Counter* retries = nullptr;
    obs::Counter* hedged_gets = nullptr;
    obs::Counter* hedge_wins = nullptr;
    obs::Counter* read_repairs = nullptr;
    sim::Histogram* get_latency_us = nullptr;
    sim::Histogram* set_latency_us = nullptr;
    sim::Histogram* delete_latency_us = nullptr;
  };

  sim::Simulator* sim_;
  ReplicatingClientConfig cfg_;
  HashRing ring_;
  std::unordered_map<std::string, KvServer*> by_id_;
  StatCounters ctr_;
  ClientOpStats stats_;
};

}  // namespace kv

#endif  // SRC_KV_REPLICATING_CLIENT_H_
