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
// Conservative time-windowed synchronization. Worker w owns the shards
// s % W == w (the calling thread is worker 0), and every epoch each worker
//   1. drains its shards' mailboxes in a fixed order (source shard 0..S-1,
//      FIFO within a queue) into their simulators,
//   2. publishes the earliest pending event time over its shards and
//      whether they hold non-daemon work,
//   3. crosses the barrier, whose last arriver reduces those reports into
//      the next window [T, T + delta) — T the earliest event anywhere, delta
//      (cfg.window) no larger than the minimum cross-shard delivery latency —
//      or into the decision to stop,
//   4. runs its shards through the window,
//   5. crosses the barrier again, after which every mailbox is stable.
// Because any mail produced inside a window carries a delivery time
// >= window end (its latency is >= delta), no shard can receive an event in
// its own past — the classic conservative-lookahead argument. Mail with an
// earlier stamp (control-plane CallOn/Broadcast, which model "applies at the
// next config epoch" semantics) is clamped to the barrier time, which is the
// same instant for every worker count.
//
// The barrier's waiters spin a few dozen pauses, then yield the CPU a bounded
// number of times, then sleep on its generation word. An epoch usually holds
// tens of microseconds of work, so the other workers arrive before a waiter
// would sleep and a crossing costs no futex round trip. Yielding keeps a pool
// with more workers than free cores moving, because the worker that has yet
// to arrive gets the core instead of a spinner; sleeping after a bounded
// number of yields keeps several such pools from crowding the run queues.
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
#include <cstdint>
#include <functional>
#include <limits>
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

  // Runs until no shard holds a pending non-daemon event (the multi-shard
  // analogue of Simulator::Run). Every epoch drains all mail before it
  // decides, so no mail is left in flight.
  void Run();

  // Runs all events with timestamp <= deadline, then advances every shard's
  // clock to `deadline`.
  void RunUntil(Time deadline);

  // Common barrier time: max over shard clocks (they agree after every run).
  Time now() const;

  // True while the epoch loop is between barriers (worker context).
  bool running() const { return running_; }

  // Epoch windows run so far, over every Run and RunUntil. Windows depend
  // only on event timestamps, so the count is the same for any W.
  std::uint64_t epochs() const { return epochs_; }

 private:
  struct Mail {
    Time when = 0;  // kAtBarrier => clamp to the barrier time.
    std::function<void()> fn;
  };
  static constexpr Time kAtBarrier = -1;
  static constexpr Time kNever = std::numeric_limits<Time>::max();

  using MailQueue = SpscQueue<Mail>;

  // The workers' epoch barrier: an arrival count plus a generation word. The
  // last of `parties` arrivers runs the completion step, bumps the generation
  // and wakes the others; a waiter spins, then yields, then sleeps on the
  // generation word (Await, in sharded_sim.cc with the policy's constants).
  class Barrier {
   public:
    explicit Barrier(int parties) : parties_(parties), left_(parties) {}

    template <typename Completion>
    void ArriveAndWait(Completion&& complete) {
      const std::uint32_t gen = gen_.load(std::memory_order_relaxed);
      if (left_.fetch_sub(1, std::memory_order_acq_rel) > 1) {
        Await(gen);
        return;
      }
      left_.store(parties_, std::memory_order_relaxed);
      complete();
      gen_.fetch_add(1);  // seq_cst: a waiter about to sleep sees it or is woken.
      gen_.notify_all();
    }

   private:
    void Await(std::uint32_t gen) const;

    const int parties_;
    alignas(64) std::atomic<int> left_;
    alignas(64) std::atomic<std::uint32_t> gen_{0};
  };

  // What a worker publishes about its shards before the next window is
  // planned; one cache line each.
  struct alignas(64) Report {
    Time next = kNever;  // Lower bound on the earliest pending event.
    bool non_daemon = false;
  };

  void EpochLoop(Time deadline);
  // One worker's epochs over the shards it owns, until the stop decision.
  void RunEpochs(int worker);
  // The first crossing's completion step: reduces the reports into the next
  // window, or into the decision to stop.
  void PlanWindow();
  void DrainInto(int dst);
  void WorkerMain(int worker);

  MailQueue& queue(int src, int dst) {
    return *mail_[static_cast<std::size_t>(src * shards_ + dst)];
  }

  const int shards_;
  const int workers_;
  const Duration window_;

  std::vector<std::unique_ptr<Simulator>> sims_;
  std::vector<std::unique_ptr<MailQueue>> mail_;  // [src * shards_ + dst].

  // The calling thread acts as worker 0; workers 1..W-1 are threads that
  // park on the barrier between runs.
  Barrier gate_;
  std::vector<Report> reports_;  // [worker].
  Time deadline_ = kNever;
  Time window_end_ = 0;
  std::uint64_t epochs_ = 0;
  bool stop_ = false;
  bool exiting_ = false;
  bool running_ = false;
  std::vector<std::thread> threads_;  // Last: the threads use the members above.
};

}  // namespace sim

#endif  // SRC_SIM_SHARDED_SIM_H_
