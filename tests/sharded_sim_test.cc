// Engine-level tests for the parallel sharded simulator: mailbox FIFO and
// ordering, epoch-window clamping, barrier semantics of CallOn/Broadcast,
// and — the load-bearing property — identical event interleavings for any
// worker count, checked against a recorded execution trace.

#include "src/sim/sharded_sim.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "src/sim/random.h"
#include "src/sim/spsc_queue.h"

namespace {

TEST(SpscQueueTest, FifoAcrossSegments) {
  sim::SpscQueue<int, 4> q;  // Tiny segments to exercise the linking path.
  for (int i = 0; i < 1000; ++i) {
    q.Push(int{i});
  }
  int v = 0;
  int popped = 0;
  while (q.Pop(&v)) {
    EXPECT_EQ(v, popped);
    ++popped;
  }
  EXPECT_EQ(popped, 1000);
  EXPECT_FALSE(q.Pop(&v));
}

TEST(SpscQueueTest, InterleavedPushPop) {
  sim::SpscQueue<std::string, 8> q;
  std::string s;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 7; ++i) {
      q.Push("r" + std::to_string(round) + "-" + std::to_string(i));
    }
    for (int i = 0; i < 7; ++i) {
      ASSERT_TRUE(q.Pop(&s));
      EXPECT_EQ(s, "r" + std::to_string(round) + "-" + std::to_string(i));
    }
    EXPECT_FALSE(q.Pop(&s));
  }
}

TEST(ShardedSimTest, SingleShardMatchesPlainSimulator) {
  sim::ShardedSim ss({.shards = 1, .workers = 1, .window = sim::Usec(100)});
  std::vector<int> order;
  ss.shard(0).At(sim::Msec(2), [&]() { order.push_back(2); });
  ss.shard(0).At(sim::Msec(1), [&]() { order.push_back(1); });
  ss.shard(0).At(sim::Msec(3), [&]() { order.push_back(3); });
  ss.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  // The engine's clock parks at the final epoch barrier, at most one window
  // past the last event.
  EXPECT_GE(ss.now(), sim::Msec(3));
  EXPECT_LE(ss.now(), sim::Msec(3) + sim::Usec(100));
}

TEST(ShardedSimTest, CrossShardMailDeliversAtStampedTime) {
  sim::ShardedSim ss({.shards = 2, .workers = 2, .window = sim::Usec(200)});
  sim::Time delivered_at = -1;
  ss.shard(0).At(sim::Msec(1), [&]() {
    // Shard 0 sends to shard 1 with 250us latency (>= window).
    ss.Post(1, sim::Msec(1) + sim::Usec(250), [&]() { delivered_at = ss.shard(1).now(); });
  });
  ss.Run();
  EXPECT_EQ(delivered_at, sim::Msec(1) + sim::Usec(250));
}

TEST(ShardedSimTest, CallOnLandsWithinOneWindow) {
  sim::ShardedSim ss({.shards = 4, .workers = 2, .window = sim::Usec(200)});
  sim::Time sent_at = 0;
  sim::Time applied_at = -1;
  ss.shard(0).At(sim::Msec(5), [&]() {
    sent_at = ss.shard(0).now();
    ss.CallOn(3, [&]() { applied_at = ss.shard(3).now(); });
  });
  // Keep shard 3 alive past the barrier so the mail can fire.
  ss.shard(3).At(sim::Msec(6), []() {});
  ss.Run();
  ASSERT_GE(applied_at, sent_at);
  EXPECT_LE(applied_at - sent_at, sim::Usec(200));
}

TEST(ShardedSimTest, ShardsKnowTheirEngineAndIndex) {
  sim::ShardedSim ss({.shards = 3, .workers = 1});
  for (int i = 0; i < ss.shards(); ++i) {
    EXPECT_EQ(ss.shard(i).engine(), &ss);
    EXPECT_EQ(ss.shard(i).shard_index(), i);
  }
  const sim::Simulator standalone;
  EXPECT_EQ(standalone.engine(), nullptr);
  EXPECT_EQ(standalone.shard_index(), -1);
}

TEST(ShardedSimTest, RunOnIsInlineWhenIdleOrOnTheShardElseAtTheBarrier) {
  sim::ShardedSim ss({.shards = 2, .workers = 2, .window = sim::Usec(200)});
  bool idle_ran = false;
  ss.RunOn(1, [&]() { idle_ran = true; });
  EXPECT_TRUE(idle_ran);  // Engine idle: runs in the caller, right away.

  sim::Time same = -1;
  sim::Time cross = -1;
  ss.shard(0).At(sim::Msec(1), [&]() {
    ss.RunOn(0, [&]() { same = ss.shard(0).now(); });
    ss.RunOn(1, [&]() { cross = ss.shard(1).now(); });
  });
  ss.Run();
  EXPECT_EQ(same, sim::Msec(1));  // Already on the shard: inline.
  EXPECT_GT(cross, sim::Msec(1));  // Another shard: at the next barrier.
  EXPECT_LE(cross, sim::Msec(1) + ss.window());
}

TEST(ShardedSimTest, BroadcastReachesEveryShard) {
  sim::ShardedSim ss({.shards = 4, .workers = 4, .window = sim::Usec(200)});
  std::vector<int> hits;
  ss.shard(1).At(sim::Msec(1), [&]() {
    ss.Broadcast([&](int shard) {
      // Runs on each shard at the barrier; record under the engine's own
      // determinism guarantee (one worker per shard, but hits is shared —
      // serialize by funnelling through shard 0 mail).
      ss.Post(0, ss.shard(shard).now() + sim::Usec(200), [&hits, shard]() { hits.push_back(shard); });
    });
  });
  ss.shard(0).At(sim::Msec(2), []() {});
  ss.Run();
  EXPECT_EQ(hits, (std::vector<int>{0, 1, 2, 3}));
}

TEST(ShardedSimTest, RunUntilAdvancesAllClocks) {
  sim::ShardedSim ss({.shards = 3, .workers = 1, .window = sim::Usec(200)});
  int fired = 0;
  ss.shard(1).At(sim::Msec(1), [&]() { ++fired; });
  ss.shard(2).At(sim::Msec(9), [&]() { ++fired; });
  ss.RunUntil(sim::Msec(4));
  EXPECT_EQ(fired, 1);
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(ss.shard(s).now(), sim::Msec(4));
  }
  ss.RunUntil(sim::Msec(10));
  EXPECT_EQ(fired, 2);
}

// The determinism workload: a ring of shards exchanging timestamped messages
// with per-shard RNG streams, self-rescheduling local work, and cross-shard
// sends at latencies >= the window. Records a full (shard, time, tag) trace
// and the number of epoch windows the run took.
std::string RingTrace(int shards, int workers, std::uint64_t seed, std::uint64_t* epochs) {
  sim::ShardedSim ss(
      {.shards = shards, .workers = workers, .window = sim::Usec(200)});
  std::ostringstream trace;
  // One recorder per shard, merged at the end in shard order, so recording
  // itself is race-free under any worker count.
  std::vector<std::ostringstream> per_shard(static_cast<std::size_t>(shards));
  std::vector<sim::Rng> rngs;
  std::vector<std::int64_t> credits(static_cast<std::size_t>(shards), 40);
  rngs.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    rngs.emplace_back(seed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(s + 1)));
  }
  std::function<void(int, int)> hop = [&](int shard, int hops) {
    auto& rec = per_shard[static_cast<std::size_t>(shard)];
    rec << shard << ":" << ss.shard(shard).now() << ":" << hops << "\n";
    if (hops <= 0 || credits[static_cast<std::size_t>(shard)]-- <= 0) {
      return;
    }
    auto& rng = rngs[static_cast<std::size_t>(shard)];
    // Local follow-up work inside the window.
    const sim::Duration local = sim::Nsec(rng.UniformInt(10, 50'000));
    ss.shard(shard).After(local, [&hop, shard, hops]() { hop(shard, hops - 1); });
    // Cross-shard message to the next ring member, latency >= window.
    const int dst = (shard + 1) % ss.shards();
    const sim::Duration latency = sim::Usec(200) + sim::Nsec(rng.UniformInt(0, 300'000));
    ss.Post(dst, ss.shard(shard).now() + latency,
            [&hop, dst, hops]() { hop(dst, hops - 1); });
  };
  for (int s = 0; s < shards; ++s) {
    const int shard = s;
    ss.shard(shard).At(sim::Usec(10 * (s + 1)), [&hop, shard]() { hop(shard, 12); });
  }
  ss.Run();
  for (int s = 0; s < shards; ++s) {
    trace << per_shard[static_cast<std::size_t>(s)].str();
  }
  *epochs = ss.epochs();
  return trace.str();
}

TEST(ShardedSimTest, TraceIdenticalAcrossWorkerCounts) {
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    std::uint64_t w1_epochs = 0;
    const std::string w1 = RingTrace(8, 1, seed, &w1_epochs);
    ASSERT_FALSE(w1.empty());
    if (seed == 1) {
      // The count the engine had when a lone coordinator planned each window
      // between three barrier crossings: planning inside the barrier moved
      // no window.
      EXPECT_EQ(w1_epochs, 6u);
    }
    for (int workers : {2, 4, 8}) {
      std::uint64_t epochs = 0;
      EXPECT_EQ(w1, RingTrace(8, workers, seed, &epochs))
          << "divergence at workers=" << workers << " seed=" << seed;
      EXPECT_EQ(epochs, w1_epochs) << "workers=" << workers << " seed=" << seed;
    }
  }
}

// A token hops around 8 shards on 8 workers, one cross-shard mail per 200 us
// window, so each of its 20,000 windows holds one event and the run is all
// barrier crossings. On a machine with fewer than 8 free cores the pool is
// oversubscribed. Measured on 4 vCPUs: the engine's barrier takes 0.2 s
// (0.6 s under TSan); one that spins 16,384 pauses before it sleeps, never
// yielding, takes 12-13 s, and one that only spins over 120 s. The bound
// sits between the two; ctest runs this binary alone (tests/CMakeLists.txt)
// because other suites' pools on the same cores slow any barrier.
TEST(ShardedSimTest, OversubscribedPoolKeepsMoving) {
  constexpr int kShards = 8;
  constexpr int kHops = 20'000;
  sim::ShardedSim ss({.shards = kShards, .workers = kShards, .window = sim::Usec(200)});
  int hops = 0;  // Hops run one at a time; the barrier orders them.
  std::function<void(int)> hop = [&](int shard) {
    if (++hops == kHops) {
      return;
    }
    const int next = (shard + 1) % kShards;
    ss.Post(next, ss.shard(shard).now() + ss.window(), [&hop, next]() { hop(next); });
  };
  ss.shard(0).At(sim::Usec(1), [&hop]() { hop(0); });
  const auto t0 = std::chrono::steady_clock::now();
  ss.Run();
  const double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_EQ(hops, kHops);
  EXPECT_EQ(ss.epochs(), static_cast<std::uint64_t>(kHops));
  EXPECT_LT(wall, 5.0) << "seconds for " << ss.epochs() << " epochs";
}

TEST(ShardedSimTest, ReusesWorkerPoolAcrossRuns) {
  sim::ShardedSim ss({.shards = 4, .workers = 4, .window = sim::Usec(200)});
  // Atomic: the four shards' events run on distinct workers concurrently, so
  // a shared counter is the one thing here that is NOT shard-local state.
  std::atomic<int> fired{0};
  for (int round = 0; round < 5; ++round) {
    for (int s = 0; s < 4; ++s) {
      ss.shard(s).At(ss.shard(s).now() + sim::Msec(1), [&fired]() { ++fired; });
    }
    ss.Run();
  }
  EXPECT_EQ(fired.load(), 20);
}

TEST(SimulatorTest, SlabTrimReleasesBurstMemory) {
  sim::Simulator s;
  // Burst: a large batch of far-out timers, then cancel them all.
  std::vector<sim::TimerHandle> handles;
  constexpr int kBurst = 200'000;
  handles.reserve(kBurst);
  for (int i = 0; i < kBurst; ++i) {
    handles.push_back(s.At(sim::Msec(100) + sim::Usec(i), []() {}));
  }
  const std::size_t peak = s.slab_capacity();
  ASSERT_GE(peak, static_cast<std::size_t>(kBurst));
  for (auto& h : handles) {
    h.Cancel();
  }
  // Churn schedule/cancel pairs past the trim probe stride so the trigger
  // (inside Free) fires with a small live set.
  for (int i = 0; i < 8192; ++i) {
    s.At(sim::Usec(i + 1), []() {}).Cancel();
  }
  EXPECT_LT(s.slab_capacity(), peak / 4) << "slab did not trim after burst";
  // The simulator stays fully functional after trimming (and re-grows).
  int fired = 0;
  for (int i = 0; i < 50'000; ++i) {
    s.At(sim::Usec(i + 1), [&fired]() { ++fired; });
  }
  s.Run();
  EXPECT_EQ(fired, 50'000);
  EXPECT_TRUE(s.AuditConsistency());
}

TEST(SimulatorTest, StaleHandleInertAfterTrimAndRegrow) {
  sim::Simulator s;
  std::vector<sim::TimerHandle> handles;
  for (int i = 0; i < 100'000; ++i) {
    handles.push_back(s.At(sim::Msec(10) + sim::Usec(i), []() {}));
  }
  // Keep handles to events in the high chunks, then cancel everything (the
  // cancels free the records; the trim drops the tail chunks).
  for (auto& h : handles) {
    h.Cancel();
  }
  for (int i = 0; i < 8192; ++i) {
    s.At(sim::Usec(i + 1), []() {}).Cancel();
  }
  // Re-grow and verify the stale handles cannot touch fresh events.
  int fired = 0;
  for (int i = 0; i < 100'000; ++i) {
    s.At(sim::Msec(20) + sim::Usec(i), [&fired]() { ++fired; });
  }
  for (auto& h : handles) {
    EXPECT_FALSE(h.pending());
    h.Cancel();  // Must be a no-op.
  }
  s.Run();
  EXPECT_EQ(fired, 100'000);
}

}  // namespace
