// Unit tests for the discrete-event simulator core, RNG and metrics.

#include <gtest/gtest.h>

#include <vector>

#include "src/obs/registry.h"
#include "src/sim/metrics.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace sim {
namespace {

TEST(Time, Conversions) {
  EXPECT_EQ(Usec(1), 1'000);
  EXPECT_EQ(Msec(1), 1'000'000);
  EXPECT_EQ(Sec(1), 1'000'000'000);
  EXPECT_EQ(Minutes(2), Sec(120));
  EXPECT_EQ(Hours(1), Minutes(60));
  EXPECT_DOUBLE_EQ(ToSeconds(Sec(3)), 3.0);
  EXPECT_DOUBLE_EQ(ToMillis(Msec(7)), 7.0);
  EXPECT_DOUBLE_EQ(ToMicros(Usec(9)), 9.0);
  EXPECT_EQ(FromSeconds(1.5), Msec(1500));
  EXPECT_EQ(FromMillis(2.5), Usec(2500));
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.At(Msec(30), [&order]() { order.push_back(3); });
  sim.At(Msec(10), [&order]() { order.push_back(1); });
  sim.At(Msec(20), [&order]() { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), Msec(30));
}

TEST(Simulator, EqualTimestampsFireInInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.At(Msec(5), [&order, i]() { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(Simulator, AfterSchedulesRelativeToNow) {
  Simulator sim;
  Time fired_at = -1;
  sim.At(Msec(10), [&sim, &fired_at]() {
    sim.After(Msec(5), [&sim, &fired_at]() { fired_at = sim.now(); });
  });
  sim.Run();
  EXPECT_EQ(fired_at, Msec(15));
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim;
  bool fired = false;
  sim.After(-Msec(5), [&fired]() { fired = true; });
  sim.Run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), 0);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  TimerHandle h = sim.At(Msec(10), [&fired]() { fired = true; });
  EXPECT_TRUE(h.pending());
  h.Cancel();
  EXPECT_FALSE(h.pending());
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelAfterFireIsSafe) {
  Simulator sim;
  TimerHandle h = sim.At(Msec(1), []() {});
  sim.Run();
  EXPECT_FALSE(h.pending());
  h.Cancel();  // No crash.
}

TEST(Simulator, DefaultHandleIsSafe) {
  TimerHandle h;
  EXPECT_FALSE(h.pending());
  h.Cancel();
}

TEST(Simulator, RunUntilAdvancesClockToDeadline) {
  Simulator sim;
  int fired = 0;
  sim.At(Msec(10), [&fired]() { ++fired; });
  sim.At(Msec(50), [&fired]() { ++fired; });
  sim.RunUntil(Msec(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), Msec(20));
  sim.RunUntil(Msec(60));
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilIncludesEventsAtDeadline) {
  Simulator sim;
  bool fired = false;
  sim.At(Msec(20), [&fired]() { fired = true; });
  sim.RunUntil(Msec(20));
  EXPECT_TRUE(fired);
}

TEST(Simulator, StepExecutesBoundedEvents) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 5; ++i) {
    sim.At(Msec(i), [&fired]() { ++fired; });
  }
  EXPECT_EQ(sim.Step(2), 2);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Step(10), 3);
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.Step(), 0);
}

TEST(Simulator, EventsScheduledDuringRunExecute) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&]() {
    if (++depth < 100) {
      sim.After(Msec(1), recurse);
    }
  };
  sim.After(Msec(1), recurse);
  sim.Run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.executed_events(), 100u);
}

TEST(Simulator, DaemonEventsDoNotKeepRunAlive) {
  Simulator sim;
  int daemon_ticks = 0;
  // A self-rescheduling daemon (like the controller's health monitor). The
  // closure captures `loop` by reference so each firing can schedule a fresh
  // copy without owning itself (no shared_ptr cycle).
  std::function<void()> loop = [&sim, &daemon_ticks, &loop]() {
    ++daemon_ticks;
    sim.After(Msec(100), loop, /*daemon=*/true);
  };
  sim.After(Msec(100), loop, /*daemon=*/true);
  bool work_done = false;
  sim.At(Msec(450), [&work_done]() { work_done = true; });
  sim.Run();  // Must terminate despite the immortal daemon.
  EXPECT_TRUE(work_done);
  EXPECT_EQ(daemon_ticks, 4);  // 100, 200, 300, 400 ms fired before 450 ms.
  EXPECT_EQ(sim.now(), Msec(450));
}

TEST(Simulator, RunUntilExecutesDaemonEventsInWindow) {
  Simulator sim;
  int ticks = 0;
  std::function<void()> loop = [&sim, &ticks, &loop]() {
    ++ticks;
    sim.After(Msec(100), loop, /*daemon=*/true);
  };
  sim.After(Msec(100), loop, /*daemon=*/true);
  sim.RunUntil(Msec(1000));  // RunUntil drives daemons up to the deadline.
  EXPECT_EQ(ticks, 10);
  EXPECT_EQ(sim.now(), Msec(1000));
}

TEST(Simulator, CancelledNonDaemonEventDoesNotBlockTermination) {
  Simulator sim;
  TimerHandle h = sim.At(Msec(10), []() { FAIL() << "cancelled event ran"; });
  h.Cancel();
  sim.Run();  // Terminates immediately.
  EXPECT_EQ(sim.executed_events(), 0u);
}

TEST(Simulator, QueueHighWaterTracksDeepestQueue) {
  Simulator sim;
  EXPECT_EQ(sim.queue_high_water(), 0u);
  for (int i = 0; i < 5; ++i) {
    sim.At(Msec(i), []() {});
  }
  EXPECT_EQ(sim.queue_high_water(), 5u);
  sim.Run();
  // Draining the queue does not lower the high-water mark.
  EXPECT_EQ(sim.queue_high_water(), 5u);
  EXPECT_EQ(sim.queued_events(), 0u);
}

TEST(Simulator, CancelImmediatelyShrinksQueuedEvents) {
  // Regression for the tombstone era: cancelled events used to linger in the
  // queue (and inflate the gauges) until their timestamp was reached. The
  // wheel frees the record on Cancel, so the gauge drops at once.
  Simulator sim;
  std::vector<TimerHandle> handles;
  handles.reserve(100);
  for (int i = 0; i < 100; ++i) {
    handles.push_back(sim.At(Msec(10 + i), []() {}));
  }
  EXPECT_EQ(sim.queued_events(), 100u);
  for (int i = 0; i < 60; ++i) {
    handles[static_cast<std::size_t>(i)].Cancel();
    EXPECT_EQ(sim.queued_events(), static_cast<std::size_t>(100 - i - 1));
  }
  // High-water reflects the true maximum, not the tombstone-inflated one.
  EXPECT_EQ(sim.queue_high_water(), 100u);
  sim.Run();
  EXPECT_EQ(sim.executed_events(), 40u);
  EXPECT_EQ(sim.queued_events(), 0u);
}

TEST(Simulator, RawEventsFireWithContextAndArg) {
  Simulator sim;
  struct Ctx {
    std::vector<std::uint64_t> args;
    Time last_at = -1;
    Simulator* sim = nullptr;
  } ctx;
  ctx.sim = &sim;
  auto fn = [](void* c, std::uint64_t arg) {
    auto* s = static_cast<Ctx*>(c);
    s->args.push_back(arg);
    s->last_at = s->sim->now();
  };
  sim.AtRaw(Msec(5), fn, &ctx, 7);
  sim.AfterRaw(Msec(10), fn, &ctx, 9);
  TimerHandle cancelled = sim.AtRaw(Msec(7), fn, &ctx, 8);
  cancelled.Cancel();
  sim.Run();
  EXPECT_EQ(ctx.args, (std::vector<std::uint64_t>{7, 9}));
  EXPECT_EQ(ctx.last_at, Msec(10));
}

// Property: equal-timestamp events fire in insertion order even when they are
// admitted from very different states — some directly due, some from level-0
// slots, some cascaded down from high wheel levels, some from the overflow
// list — interleaved with timers at other timestamps.
TEST(Simulator, EqualTimestampFifoHoldsAcrossWheelLevels) {
  Simulator sim;
  std::vector<int> order;
  int next_tag = 0;
  // Schedule bursts at a common timestamp from nested horizons: each burst
  // is admitted at a different sim-time distance from the target, so the
  // records traverse different wheel levels (and the overflow list for the
  // farthest) before converging on the same due tick.
  const Time target = Hours(60 * 24);  // 60 days: beyond the ~52-day wheel horizon at t=0.
  for (int burst = 0; burst < 6; ++burst) {
    // Admission points walk toward the target: 0, T/32, T/16 ... so deltas
    // shrink from "overflow" range down to "level 0" range.
    const Time admit_at = burst == 0 ? 0 : target - target / (1 << (burst * 2));
    sim.At(admit_at, [&sim, &order, &next_tag, target]() {
      for (int i = 0; i < 4; ++i) {
        const int tag = next_tag++;
        sim.At(target, [&order, tag]() { order.push_back(tag); });
      }
    });
    // Noise at unrelated timestamps must not perturb the FIFO.
    sim.At(admit_at + Msec(1), []() {});
  }
  sim.Run();
  ASSERT_EQ(order.size(), 24u);
  for (int i = 0; i < 24; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i) << "FIFO violated at position " << i;
  }
}

// 1M-timer stress: schedule/cancel/fire interleave with deterministic
// pseudo-random deltas spanning every wheel level, verifying exact gauge
// accounting and that every survivor fires exactly once in (when, seq) order.
TEST(Simulator, MillionTimerScheduleCancelFireStress) {
  Simulator sim;
  Rng rng(4242);
  constexpr int kTimers = 1'000'000;
  std::vector<TimerHandle> handles;
  handles.reserve(kTimers);
  std::uint64_t expected_fires = 0;
  std::uint64_t fired = 0;
  Time last_when = 0;
  auto body = [&sim, &fired, &last_when]() {
    EXPECT_GE(sim.now(), last_when);
    last_when = sim.now();
    ++fired;
  };
  for (int i = 0; i < kTimers; ++i) {
    // Deltas from sub-tick to ~17 minutes: exercises due-path, all wheel
    // levels and slot cascades.
    const auto shift = static_cast<int>(rng.UniformInt(0, 40));
    const Time when = 1 + rng.UniformInt(0, (1LL << shift));
    handles.push_back(sim.At(when, body));
    ++expected_fires;
    // Cancel roughly every third previously scheduled timer.
    if (i % 3 == 0) {
      const auto victim = static_cast<std::size_t>(rng.UniformInt(0, i));
      if (handles[victim].pending()) {
        handles[victim].Cancel();
        --expected_fires;
      }
    }
  }
  EXPECT_EQ(sim.queued_events(), expected_fires);
  sim.Run();
  EXPECT_EQ(fired, expected_fires);
  EXPECT_EQ(sim.queued_events(), 0u);
  for (const TimerHandle& h : handles) {
    EXPECT_FALSE(h.pending());
  }
}

// Randomized schedule/cancel/step/run-until mix with a full structural audit
// after every operation. This is the net that caught a real wheel bug during
// development: a cascaded slot can hold next-lap records (same slot index,
// one ring turn ahead) that re-enter the very slot being redistributed.
TEST(Simulator, RandomizedOpsKeepWheelStructurallyConsistent) {
  for (const std::uint64_t seed : {1ull, 7ull, 4242ull}) {
    Simulator sim;
    Rng rng(seed);
    std::vector<TimerHandle> handles;
    for (int op = 0; op < 60'000; ++op) {
      const int kind = static_cast<int>(rng.UniformInt(0, 9));
      if (kind <= 4) {
        const auto shift = static_cast<int>(rng.UniformInt(0, 34));
        const auto delay = static_cast<Duration>(rng.UniformInt(0, 1LL << shift));
        handles.push_back(sim.After(delay, []() {}, rng.UniformInt(0, 4) == 0));
      } else if (kind <= 6 && !handles.empty()) {
        const auto i =
            static_cast<std::size_t>(rng.UniformInt(0, static_cast<std::int64_t>(handles.size()) - 1));
        handles[i].Cancel();
        handles[i] = handles.back();
        handles.pop_back();
      } else if (kind == 7) {
        sim.Step(static_cast<int>(rng.UniformInt(1, 50)));
      } else if (kind == 8) {
        sim.RunUntil(sim.now() + static_cast<Duration>(rng.UniformInt(0, 1 << 20)));
      }
      // Audit every 64 ops (every op would make the test quadratic).
      if ((op & 63) == 0) {
        ASSERT_TRUE(sim.AuditConsistency()) << "seed " << seed << " op " << op;
      }
    }
    sim.Run();
    ASSERT_TRUE(sim.AuditConsistency()) << "seed " << seed << " after drain";
  }
}

TEST(Simulator, EventLoopGaugesReadLiveThroughRegistry) {
  Simulator sim;
  obs::Registry& reg = sim.registry();
  EXPECT_DOUBLE_EQ(reg.GetGauge("sim.events_executed").value(), 0.0);
  for (int i = 0; i < 3; ++i) {
    sim.At(Msec(i), []() {});
  }
  sim.Run();
  EXPECT_DOUBLE_EQ(reg.GetGauge("sim.events_executed").value(), 3.0);
  EXPECT_DOUBLE_EQ(reg.GetGauge("sim.queue_depth_high_water").value(), 3.0);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1'000'000), b.UniformInt(0, 1'000'000));
  }
}

TEST(Rng, UniformIntStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    std::int64_t v = rng.UniformInt(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(3);
  double total = 0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) {
    total += rng.Exponential(4.0);
  }
  EXPECT_NEAR(total / n, 4.0, 0.1);
}

TEST(Rng, LogNormalMedianApproximatelyCorrect) {
  Rng rng(4);
  std::vector<double> v;
  for (int i = 0; i < 50'001; ++i) {
    v.push_back(rng.LogNormalFromMedian(46'000, 1.1));
  }
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  EXPECT_NEAR(v[v.size() / 2], 46'000, 2'500);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(5);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  EXPECT_FALSE(rng.Bernoulli(-1.0));
  EXPECT_TRUE(rng.Bernoulli(2.0));
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(6);
  std::vector<double> weights{1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 40'000; ++i) {
    counts[rng.WeightedIndex(weights)] += 1;
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.25);
}

TEST(Zipf, MostPopularRankDominates) {
  Rng rng(7);
  ZipfDistribution zipf(100, 1.2);
  int rank0 = 0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Sample(rng) == 0) {
      ++rank0;
    }
  }
  EXPECT_NEAR(static_cast<double>(rank0) / n, zipf.Pmf(0), 0.02);
  EXPECT_GT(zipf.Pmf(0), zipf.Pmf(1));
  EXPECT_GT(zipf.Pmf(1), zipf.Pmf(50));
}

TEST(Zipf, PmfSumsToOne) {
  ZipfDistribution zipf(50, 0.9);
  double total = 0;
  for (std::size_t i = 0; i < zipf.size(); ++i) {
    total += zipf.Pmf(i);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Histogram, MeanMinMax) {
  Histogram h;
  h.Add(1);
  h.Add(5);
  h.Add(3);
  EXPECT_DOUBLE_EQ(h.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(h.Min(), 1.0);
  EXPECT_DOUBLE_EQ(h.Max(), 5.0);
  EXPECT_EQ(h.count(), 3u);
}

TEST(Histogram, EmptyIsSafe) {
  Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_DOUBLE_EQ(h.Mean(), 0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0);
  EXPECT_TRUE(h.Cdf().empty());
}

TEST(Histogram, PercentilesInterpolate) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) {
    h.Add(i);
  }
  EXPECT_NEAR(h.Percentile(0), 1, 1e-9);
  EXPECT_NEAR(h.Percentile(100), 100, 1e-9);
  EXPECT_NEAR(h.Percentile(50), 50.5, 0.01);
  EXPECT_NEAR(h.Percentile(90), 90.1, 0.2);
}

TEST(Histogram, PercentileSingleSampleIsThatSample) {
  Histogram h;
  h.Add(7.5);
  EXPECT_DOUBLE_EQ(h.Percentile(0), 7.5);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 7.5);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 7.5);
}

TEST(Histogram, PercentileEndpointsAreMinAndMax) {
  Histogram h;
  h.Add(3);
  h.Add(1);
  h.Add(2);
  EXPECT_DOUBLE_EQ(h.Percentile(0), 1);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 3);
}

TEST(Histogram, PercentileClampsOutOfRangeRequests) {
  Histogram h;
  h.Add(1);
  h.Add(2);
  h.Add(3);
  EXPECT_DOUBLE_EQ(h.Percentile(-10), 1);
  EXPECT_DOUBLE_EQ(h.Percentile(250), 3);
}

TEST(Histogram, CdfIsMonotone) {
  Histogram h;
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    h.Add(rng.UniformDouble());
  }
  auto cdf = h.Cdf(50);
  ASSERT_EQ(cdf.size(), 50u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].first, cdf[i - 1].first);
    EXPECT_GT(cdf[i].second, cdf[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(Histogram, ClearResets) {
  Histogram h;
  h.Add(1);
  h.Clear();
  EXPECT_TRUE(h.empty());
}

TEST(WindowedRate, ComputesPerSecondRates) {
  WindowedRate rate(Sec(1));
  for (int i = 0; i < 10; ++i) {
    rate.Record(Msec(i * 100));  // 10 events in the first second.
  }
  rate.Record(Msec(1500));  // 1 event in the second second.
  rate.FlushUpTo(Sec(3));
  ASSERT_GE(rate.Windows().size(), 2u);
  EXPECT_DOUBLE_EQ(rate.Windows()[0].second, 10.0);
  EXPECT_DOUBLE_EQ(rate.Windows()[1].second, 1.0);
  EXPECT_DOUBLE_EQ(rate.Windows()[2].second, 0.0);
}

TEST(UtilizationTracker, ComputesBusyFraction) {
  UtilizationTracker t(1.0);
  t.Reset(0);
  t.AddBusy(Msec(250));
  EXPECT_NEAR(t.Utilization(Sec(1)), 0.25, 1e-9);
}

TEST(UtilizationTracker, MultiCoreCapacityScales) {
  UtilizationTracker t(4.0);
  t.Reset(0);
  t.AddBusy(Sec(2));
  EXPECT_NEAR(t.Utilization(Sec(1)), 0.5, 1e-9);
}

TEST(UtilizationTracker, ResetStartsNewWindow) {
  UtilizationTracker t(1.0);
  t.AddBusy(Msec(500));
  t.Reset(Sec(1));
  EXPECT_NEAR(t.Utilization(Sec(2)), 0.0, 1e-9);
}

TEST(FormatDouble, Formats) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
}

}  // namespace
}  // namespace sim
