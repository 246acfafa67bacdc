#include "src/sim/sharded_sim.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace sim {

namespace {
constexpr Time kNever = std::numeric_limits<Time>::max();
// Shard index the current thread is executing an event for; -1 outside the
// epoch loop. Thread-local so worker threads and the main thread each see
// their own shard while phases run concurrently.
thread_local int tls_current_shard = -1;
}  // namespace

ShardedSim::ShardedSim(Config cfg)
    : shards_(std::max(1, cfg.shards)),
      workers_(std::clamp(cfg.workers, 1, std::max(1, cfg.shards))),
      window_(std::max<Duration>(1, cfg.window)) {
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
  if (pool_started_) {
    phase_.store(Phase::kExit, std::memory_order_relaxed);
    gate_->arrive_and_wait();  // Release parked workers into the exit check.
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

std::uint64_t ShardedSim::MailInFlight() const {
  std::uint64_t n = 0;
  for (const auto& q : mail_) {
    n += q->pushed() - q->popped();
  }
  return n;
}

void ShardedSim::Run() { EpochLoop(kNever); }

void ShardedSim::RunUntil(Time deadline) {
  EpochLoop(deadline);
  // Advance every clock to the deadline (events <= deadline all fired).
  for (auto& s : sims_) {
    s->RunUntil(deadline);
  }
}

void ShardedSim::RunPhase(int worker) {
  for (int s = worker; s < shards_; s += workers_) {
    tls_current_shard = s;
    sims_[static_cast<std::size_t>(s)]->RunUntil(window_end_);
  }
  tls_current_shard = -1;
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

void ShardedSim::DrainPhase(int worker) {
  for (int s = worker; s < shards_; s += workers_) {
    DrainInto(s);
  }
}

void ShardedSim::StartWorkers() {
  if (pool_started_ || workers_ <= 1) {
    return;
  }
  gate_ = std::make_unique<std::barrier<>>(workers_);
  threads_.reserve(static_cast<std::size_t>(workers_ - 1));
  for (int w = 1; w < workers_; ++w) {
    threads_.emplace_back([this, w]() { WorkerMain(w); });
  }
  pool_started_ = true;
}

void ShardedSim::WorkerMain(int worker) {
  for (;;) {
    gate_->arrive_and_wait();  // Park until the coordinator opens a window.
    if (phase_.load(std::memory_order_relaxed) == Phase::kExit) {
      return;
    }
    RunPhase(worker);
    gate_->arrive_and_wait();  // All windows ran; mailboxes now stable.
    DrainPhase(worker);
    gate_->arrive_and_wait();  // Mail integrated; coordinator resumes.
  }
}

void ShardedSim::EpochLoop(Time deadline) {
  assert(!running_);
  const bool bounded = deadline != kNever;
  StartWorkers();
  running_ = true;
  for (;;) {
    // Coordinator section: workers are parked (or W == 1), so reading the
    // shard simulators here is race-free; the barriers order the accesses.
    Time t = kNever;
    bool non_daemon = MailInFlight() > 0;
    for (auto& s : sims_) {
      Time w = 0;
      if (s->NextEventLowerBound(&w)) {
        t = std::min(t, w);
      }
      non_daemon = non_daemon || s->pending_non_daemon() > 0;
    }
    if (!bounded && !non_daemon) {
      break;  // Only daemon housekeeping remains: Run() semantics say stop.
    }
    if (t == kNever || t > deadline) {
      break;  // Nothing left in range.
    }
    // t is a lower bound (coarse wheel levels report slot range starts), so a
    // window may fire nothing; the bounded run then cascades the coarse slot
    // and the next bound is strictly tighter — at most a handful of
    // refinement epochs per idle gap.
    window_end_ = bounded ? std::min(t + window_, deadline) : t + window_;
    if (workers_ == 1) {
      RunPhase(0);
      DrainPhase(0);
    } else {
      gate_->arrive_and_wait();  // Open the window.
      RunPhase(0);
      gate_->arrive_and_wait();  // Run phase done everywhere.
      DrainPhase(0);
      gate_->arrive_and_wait();  // Drain phase done everywhere.
    }
  }
  running_ = false;
}

}  // namespace sim
