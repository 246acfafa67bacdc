// Memcached-style in-memory key-value server with a single-queue CPU model.
//
// API is the memcached triple the paper relies on: set/get/delete. The server
// processes operations FIFO with a fixed per-op service time, which yields
// both the latency-vs-load curves of Fig 10 and the CPU-utilization curves of
// Fig 11. A failed server loses its contents (memcached has no persistence —
// that is exactly why TCPStore replicates client-side).

#ifndef SRC_KV_KV_SERVER_H_
#define SRC_KV_KV_SERVER_H_

#include <cstdint>
#include <functional>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>

#include "src/sim/metrics.h"
#include "src/sim/simulator.h"

namespace kv {

struct KvServerConfig {
  // Per-operation CPU service time. Calibrated so one server saturates around
  // 80-90K ops/s (paper §7.1: 80K client req/s at 90% CPU).
  sim::Duration op_service_time = sim::Usec(11);
  // Max resident items before LRU eviction.
  std::size_t max_items = 4'000'000;
};

struct KvServerStats {
  std::uint64_t gets = 0;
  std::uint64_t sets = 0;
  std::uint64_t deletes = 0;
  std::uint64_t cas_ops = 0;
  std::uint64_t cas_conflicts = 0;  // CAS ops whose compare failed.
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t dropped_while_down = 0;
};

class KvServer {
 public:
  using GetCallback = std::function<void(std::optional<std::string>)>;
  using AckCallback = std::function<void(bool ok)>;

  KvServer(sim::Simulator* simulator, std::string id, KvServerConfig config = {});
  KvServer(const KvServer&) = delete;
  KvServer& operator=(const KvServer&) = delete;

  const std::string& id() const { return id_; }
  // The simulator this server runs on; its shard is the server's placement.
  sim::Simulator* simulator() const { return sim_; }

  // Asynchronous operations: the callback fires after queueing + service
  // time. While the server is down, operations are silently dropped (the
  // client library discovers this via its own timeout).
  void Get(const std::string& key, GetCallback cb);
  void Set(const std::string& key, std::string value, AckCallback cb);
  void Delete(const std::string& key, AckCallback cb);
  // Compare-and-set: writes `value` only if the current item equals
  // `expected` (nullopt = the key must be absent). ok=false on a compare
  // mismatch. Memcached's cas-token protocol, modeled on values directly —
  // the leader-lease protocol stores the full lease record per key.
  void Cas(const std::string& key, std::optional<std::string> expected, std::string value,
           AckCallback cb);

  // Crash / recover. Crashing clears the store (RAM contents are gone).
  void Fail();
  void Recover();
  bool failed() const { return failed_; }

  // Gray failure: the server keeps answering, but every response is delayed
  // by `d` on top of queueing + service time (models a replica with a sick
  // disk or a saturated NIC). 0 clears. The queue itself is unaffected, so
  // CPU accounting (Fig 11) stays truthful.
  void set_response_delay(sim::Duration d) { response_delay_ = d; }
  sim::Duration response_delay() const { return response_delay_; }

  std::size_t item_count() const { return items_.size(); }
  const KvServerStats& stats() const { return stats_; }

  // CPU accounting for Fig 11.
  double CpuUtilization(sim::Time now) const { return cpu_.Utilization(now); }
  void ResetCpuWindow(sim::Time now) { cpu_.Reset(now); }

  // Latency of the most recent op completion minus submission (exposed for
  // tests); operational latency measurement lives in the client.
  sim::Duration QueueDelayNow() const;

 private:
  // Returns the completion time for an op submitted now.
  sim::Time ScheduleOp();
  // Delivers a response now, or after response_delay_ when gray-slow.
  void Respond(std::function<void()> deliver);
  void Touch(const std::string& key);
  void EvictIfNeeded();

  sim::Simulator* sim_;
  std::string id_;
  KvServerConfig cfg_;
  bool failed_ = false;

  // Value + LRU position.
  struct Item {
    std::string value;
    std::list<std::string>::iterator lru_pos;
  };
  std::unordered_map<std::string, Item> items_;
  std::list<std::string> lru_;  // Front = most recently used.

  sim::Time busy_until_ = 0;
  sim::Duration response_delay_ = 0;
  sim::UtilizationTracker cpu_{1.0};
  KvServerStats stats_;
};

}  // namespace kv

#endif  // SRC_KV_KV_SERVER_H_
