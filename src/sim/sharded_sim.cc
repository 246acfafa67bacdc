#include "src/sim/sharded_sim.h"

#include <algorithm>
#include <cassert>

namespace sim {

namespace {
// Shard index the current thread is executing an event for; -1 outside the
// epoch loop. Thread-local so worker threads and the main thread each see
// their own shard while windows run concurrently.
thread_local int tls_current_shard = -1;

// The barrier's wait policy. A waiter checks the generation word between
// kSpinPauses pause instructions (about a microsecond), then between up to
// kYields yields of the CPU (about 50 us on an otherwise idle core, which
// covers most of an epoch's imbalance without a futex round trip), and only
// then sleeps on the word. The yields keep a pool with more workers than
// free cores moving: a yield hands the core to a worker that has yet to
// arrive, where a spinner would hold it for its time slice. Sleeping after a
// bounded number keeps several oversubscribed pools (a parallel test run)
// from filling the run queues with yielders.
constexpr int kSpinPauses = 64;
constexpr int kYields = 200;

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}
}  // namespace

void ShardedSim::Barrier::Await(std::uint32_t gen) const {
  for (int i = 0; i < kSpinPauses + kYields; ++i) {
    // Polls relaxed and acquires once: a thread sanitizer's acquire load locks
    // the word's sync state, which the polling workers would contend for.
    if (gen_.load(std::memory_order_relaxed) != gen) {
      gen_.load(std::memory_order_acquire);
      return;
    }
    if (i < kSpinPauses) {
      CpuRelax();
    } else {
      std::this_thread::yield();
    }
  }
  gen_.wait(gen);  // Returns once the generation has moved on.
}

ShardedSim::ShardedSim(Config cfg)
    : shards_(std::max(1, cfg.shards)),
      workers_(std::clamp(cfg.workers, 1, std::max(1, cfg.shards))),
      window_(std::max<Duration>(1, cfg.window)),
      gate_(workers_),
      reports_(static_cast<std::size_t>(workers_)) {
  sims_.reserve(static_cast<std::size_t>(shards_));
  for (int i = 0; i < shards_; ++i) {
    sims_.push_back(std::make_unique<Simulator>());
    sims_.back()->engine_ = this;
    sims_.back()->shard_index_ = i;
  }
  mail_.reserve(static_cast<std::size_t>(shards_) * static_cast<std::size_t>(shards_));
  for (int i = 0; i < shards_ * shards_; ++i) {
    mail_.push_back(std::make_unique<MailQueue>());
  }
}

ShardedSim::~ShardedSim() {
  if (!threads_.empty()) {
    exiting_ = true;
    gate_.ArriveAndWait([] {});  // Release the parked workers into the exit check.
    for (auto& t : threads_) {
      t.join();
    }
  }
}

int ShardedSim::current_shard() { return tls_current_shard; }

void ShardedSim::Post(int dst, Time when, std::function<void()> fn) {
  assert(dst >= 0 && dst < shards_);
  const int src = tls_current_shard;
  if (src < 0) {
    // Outside the epoch loop (setup, or between Run calls): the engine is
    // quiescent, schedule straight into the destination simulator.
    assert(!running_);
    Simulator& s = shard(dst);
    s.At(std::max(when, s.now()), std::move(fn));
    return;
  }
  queue(src, dst).Push(Mail{when, std::move(fn)});
}

void ShardedSim::CallOn(int dst, std::function<void()> fn) {
  Post(dst, kAtBarrier, std::move(fn));
}

void ShardedSim::Broadcast(std::function<void(int shard)> fn) {
  for (int d = 0; d < shards_; ++d) {
    const int dst = d;
    CallOn(dst, [fn, dst]() { fn(dst); });
  }
}

Time ShardedSim::now() const {
  Time t = 0;
  for (const auto& s : sims_) {
    t = std::max(t, s->now());
  }
  return t;
}

void ShardedSim::Run() { EpochLoop(kNever); }

void ShardedSim::RunUntil(Time deadline) {
  EpochLoop(deadline);
  // Advance every clock to the deadline (events <= deadline all fired).
  for (auto& s : sims_) {
    s->RunUntil(deadline);
  }
}

void ShardedSim::DrainInto(int dst) {
  Simulator& sim = shard(dst);
  const Time barrier_time = window_end_;
  Mail m;
  for (int src = 0; src < shards_; ++src) {
    MailQueue& q = queue(src, dst);
    while (q.Pop(&m)) {
      const Time when = m.when == kAtBarrier ? barrier_time : std::max(m.when, barrier_time);
      sim.At(when, std::move(m.fn));
    }
  }
}

void ShardedSim::WorkerMain(int worker) {
  for (;;) {
    gate_.ArriveAndWait([] {});  // Parked until a run starts or the engine closes.
    if (exiting_) {
      return;
    }
    RunEpochs(worker);
  }
}

void ShardedSim::EpochLoop(Time deadline) {
  assert(!running_);
  deadline_ = deadline;
  running_ = true;
  if (workers_ > 1) {
    // The pool starts with the first run, so the setup before it runs in a
    // single-threaded process (a pool started at construction made
    // failover_placed's setup 5% slower).
    if (threads_.empty()) {
      for (int w = 1; w < workers_; ++w) {
        threads_.emplace_back([this, w]() { WorkerMain(w); });
      }
    }
    gate_.ArriveAndWait([] {});  // Release the parked workers into this run.
  }
  RunEpochs(0);
  running_ = false;
}

void ShardedSim::RunEpochs(int worker) {
  Report& mine = reports_[static_cast<std::size_t>(worker)];
  for (;;) {
    // Between the second crossing and the first, this worker alone touches
    // its shards' simulators and is the one consumer of their mailboxes.
    mine = Report{};
    for (int s = worker; s < shards_; s += workers_) {
      DrainInto(s);
      Time t = 0;
      if (shard(s).NextEventLowerBound(&t)) {
        mine.next = std::min(mine.next, t);
      }
      mine.non_daemon = mine.non_daemon || shard(s).pending_non_daemon() > 0;
    }
    gate_.ArriveAndWait([this]() { PlanWindow(); });
    if (stop_) {
      return;
    }
    for (int s = worker; s < shards_; s += workers_) {
      tls_current_shard = s;
      shard(s).RunUntil(window_end_);
    }
    tls_current_shard = -1;
    gate_.ArriveAndWait([] {});  // Every window ran: the mailboxes are stable.
  }
}

void ShardedSim::PlanWindow() {
  Time t = kNever;
  bool non_daemon = false;
  for (const Report& r : reports_) {
    t = std::min(t, r.next);
    non_daemon = non_daemon || r.non_daemon;
  }
  // Run() stops once only daemon housekeeping remains; both stop once
  // nothing is left in range.
  stop_ = (deadline_ == kNever && !non_daemon) || t == kNever || t > deadline_;
  if (stop_) {
    return;
  }
  // t is a lower bound (coarse wheel levels report slot range starts), so a
  // window may fire nothing; the bounded run then cascades the coarse slot
  // and the next bound is strictly tighter — at most a handful of
  // refinement epochs per idle gap.
  window_end_ = std::min(t + window_, deadline_);
  ++epochs_;
}

}  // namespace sim
