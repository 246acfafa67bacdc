// Parallel discrete-event engine: S logical shards, W worker threads,
// deterministic epoch-barrier synchronization.
//
// Each shard owns a full sim::Simulator (its own timer wheel, clock and event
// slab). Components are partitioned across shards at build time; within a
// shard everything runs exactly as in the single-threaded simulator. Cross-
// shard interactions never touch another shard's state directly — they post
// mail (a timestamped closure) into a lock-free SPSC mailbox, and mail is
// integrated into the destination shard's event queue only at epoch barriers.
//
// Conservative time-windowed synchronization: the scheduler repeatedly
//   1. computes T = min over shards of the next pending event time,
//   2. lets every shard run independently through the window [T, T + delta),
//      where delta (cfg.window) is no larger than the minimum cross-shard
//      delivery latency,
//   3. at the barrier, drains every mailbox in a fixed order (source shard
//      0..S-1, FIFO within a queue) into the destination simulators.
// Because any mail produced inside a window carries a delivery time
// >= window end (its latency is >= delta), no shard can receive an event in
// its own past — the classic conservative-lookahead argument. Mail with an
// earlier stamp (control-plane CallOn/Broadcast, which model "applies at the
// next config epoch" semantics) is clamped to the barrier time, which is the
// same instant for every worker count.
//
// Determinism: the shard count S is a fixed property of the workload, NOT the
// thread count. W only decides how many OS threads execute the (identical)
// per-shard work; each Simulator is only ever touched by its one owning
// worker, windows and barrier times depend only on event timestamps, and the
// drain order is fixed. Hence the event interleaving — and any trace digest —
// is byte-identical for any W >= 1 given the same seed, and W == 1 executes
// the epoch loop inline with no threads at all.

#ifndef SRC_SIM_SHARDED_SIM_H_
#define SRC_SIM_SHARDED_SIM_H_

#include <atomic>
#include <barrier>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "src/sim/simulator.h"
#include "src/sim/spsc_queue.h"
#include "src/sim/time.h"

namespace sim {

class ShardedSim {
 public:
  struct Config {
    int shards = 8;
    int workers = 1;               // Clamped to [1, shards].
    Duration window = Usec(200);   // Must be <= min cross-shard latency.
  };

  explicit ShardedSim(Config cfg);
  ShardedSim(const ShardedSim&) = delete;
  ShardedSim& operator=(const ShardedSim&) = delete;
  ~ShardedSim();

  int shards() const { return shards_; }
  int workers() const { return workers_; }
  Duration window() const { return window_; }
  Simulator& shard(int i) { return *sims_[static_cast<std::size_t>(i)]; }

  // Shard index of the worker currently executing an event on this thread,
  // or -1 when called outside the epoch loop (setup / between runs).
  static int current_shard();

  // Schedules `fn` on shard `dst` at absolute time `when`. Callable from any
  // shard's running event (posts mail) and from the outside when the engine
  // is idle (schedules directly). `when` is clamped to the epoch barrier if
  // it would land inside the destination's already-executed window; cross-
  // shard senders with latency >= window() are never clamped.
  void Post(int dst, Time when, std::function<void()> fn);

  // Runs `fn` on shard `dst` at the next epoch barrier. Control-plane ops
  // (config pushes, fault injection) use this: the effect lands a bounded
  // <= window() after the call, at an instant deterministic for any W.
  void CallOn(int dst, std::function<void()> fn);

  // Runs `fn(shard)` on every shard at the next epoch barrier, in shard
  // order within each shard's own queue. For replicated-state updates
  // (endpoint maps, link-fault rules).
  void Broadcast(std::function<void(int shard)> fn);

  // Runs `fn` on shard `dst`: inline when the engine is idle or the caller
  // already executes on `dst`, else CallOn (lands at the next barrier). For
  // fire-and-forget writes into a component owned by `dst`.
  template <typename Fn>
  void RunOn(int dst, Fn&& fn) {
    const int cur = current_shard();
    if (cur >= 0 && cur != dst) {
      CallOn(dst, std::forward<Fn>(fn));
      return;
    }
    fn();
  }

  // Runs until no shard holds a pending non-daemon event and no mail is in
  // flight (the multi-shard analogue of Simulator::Run).
  void Run();

  // Runs all events with timestamp <= deadline, then advances every shard's
  // clock to `deadline`.
  void RunUntil(Time deadline);

  // Common barrier time: max over shard clocks (they agree after every run).
  Time now() const;

  // True while the epoch loop is between barriers (worker context).
  bool running() const { return running_; }

 private:
  struct Mail {
    Time when = 0;  // kAtBarrier => clamp to the barrier time.
    std::function<void()> fn;
  };
  static constexpr Time kAtBarrier = -1;

  using MailQueue = SpscQueue<Mail>;

  void EpochLoop(Time deadline);
  // Phase bodies, executed by every worker for the shards it owns.
  void RunPhase(int worker);
  void DrainPhase(int worker);
  void DrainInto(int dst);

  MailQueue& queue(int src, int dst) {
    return *mail_[static_cast<std::size_t>(src * shards_ + dst)];
  }
  std::uint64_t MailInFlight() const;

  void StartWorkers();
  void WorkerMain(int worker);

  const int shards_;
  const int workers_;
  const Duration window_;

  std::vector<std::unique_ptr<Simulator>> sims_;
  std::vector<std::unique_ptr<MailQueue>> mail_;  // [src * shards_ + dst].

  // Worker pool (only materialized when workers_ > 1). The main thread acts
  // as worker 0; workers park on the phase barrier between epochs.
  std::vector<std::thread> threads_;
  std::unique_ptr<std::barrier<>> gate_;
  enum class Phase : int { kRun, kExit };
  std::atomic<Phase> phase_{Phase::kRun};
  Time window_end_ = 0;
  bool running_ = false;
  bool pool_started_ = false;
};

}  // namespace sim

#endif  // SRC_SIM_SHARDED_SIM_H_
