// HealthMonitor tests: probe hysteresis, readmission streaks, flap
// suppression and backend edge-triggered transitions — as pure transitions,
// independent of the reconciler that consumes them.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/core/health_monitor.h"
#include "src/workload/testbed.h"

namespace yoda {
namespace {

using workload::Testbed;
using workload::TestbedConfig;

constexpr auto kWarm = fault::FaultPlane::RestartMode::kWarm;

class HealthMonitorTest : public ::testing::Test {
 protected:
  void Build(HealthMonitorConfig mcfg, int instances = 3) {
    TestbedConfig cfg;
    cfg.yoda_instances = instances;
    cfg.build_catalog = false;
    tb = std::make_unique<Testbed>(cfg);
    monitor = std::make_unique<HealthMonitor>(&tb->network, mcfg);
    for (auto& inst : tb->instances) {
      monitor->AddActive(inst.get());
    }
  }

  std::vector<HealthTransition> TickKinds(HealthTransition::Kind kind) {
    std::vector<HealthTransition> out;
    for (const HealthTransition& t : monitor->Tick()) {
      if (t.kind == kind) {
        out.push_back(t);
      }
    }
    return out;
  }

  std::unique_ptr<Testbed> tb;
  std::unique_ptr<HealthMonitor> monitor;
};

TEST_F(HealthMonitorTest, HysteresisSuspectsBeforeDeclaringDead) {
  Build({.fail_after_misses = 3});
  tb->CrashInstance(0);

  auto suspected = TickKinds(HealthTransition::Kind::kInstanceSuspected);
  ASSERT_EQ(suspected.size(), 1u);
  EXPECT_EQ(suspected[0].addr, tb->instance_ip(0));
  EXPECT_EQ(suspected[0].detail, 1);
  EXPECT_EQ(monitor->active().size(), 3u);  // Still pooled during hysteresis.

  EXPECT_EQ(TickKinds(HealthTransition::Kind::kInstanceSuspected).size(), 1u);
  auto failed = TickKinds(HealthTransition::Kind::kInstanceFailed);
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0].addr, tb->instance_ip(0));
  EXPECT_EQ(monitor->active().size(), 2u);
  EXPECT_EQ(monitor->detected_failures(), 1);
  EXPECT_TRUE(monitor->suspended().empty());  // Readmission disabled.
}

TEST_F(HealthMonitorTest, RecoveryBetweenMissesResetsTheStreak) {
  Build({.fail_after_misses = 2});
  tb->CrashInstance(0);
  EXPECT_EQ(TickKinds(HealthTransition::Kind::kInstanceSuspected).size(), 1u);
  tb->RestartInstance(0, kWarm);
  EXPECT_TRUE(monitor->Tick().empty());
  tb->CrashInstance(0);
  // The earlier miss no longer counts: suspected again, not failed.
  EXPECT_EQ(TickKinds(HealthTransition::Kind::kInstanceFailed).size(), 0u);
  EXPECT_EQ(monitor->active().size(), 3u);
}

TEST_F(HealthMonitorTest, ReadmissionAfterHealthyStreak) {
  Build({.fail_after_misses = 1, .readmit_instances = true, .readmit_after_successes = 2});
  tb->CrashInstance(0);
  ASSERT_EQ(TickKinds(HealthTransition::Kind::kInstanceFailed).size(), 1u);
  EXPECT_EQ(monitor->suspended().size(), 1u);

  tb->RestartInstance(0, kWarm);
  EXPECT_TRUE(monitor->Tick().empty());  // Streak 1 of 2.
  auto readmitted = TickKinds(HealthTransition::Kind::kInstanceReadmitted);
  ASSERT_EQ(readmitted.size(), 1u);
  EXPECT_EQ(readmitted[0].detail, 2);  // Required streak reported.
  EXPECT_EQ(monitor->active().size(), 3u);
  EXPECT_TRUE(monitor->suspended().empty());
  EXPECT_EQ(monitor->readmissions(), 1);
}

TEST_F(HealthMonitorTest, FlapSuppressionDoublesRequiredStreakUpToCap) {
  Build({.fail_after_misses = 1,
         .readmit_instances = true,
         .readmit_after_successes = 2,
         .readmit_penalty_cap = 4});
  // First failure: 2 healthy probes readmit.
  tb->CrashInstance(0);
  monitor->Tick();
  tb->RestartInstance(0, kWarm);
  monitor->Tick();
  ASSERT_EQ(TickKinds(HealthTransition::Kind::kInstanceReadmitted).size(), 1u);

  // Second failure (a flap): the requirement doubles to 4 = the cap.
  tb->CrashInstance(0);
  monitor->Tick();
  tb->RestartInstance(0, kWarm);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(TickKinds(HealthTransition::Kind::kInstanceReadmitted).empty()) << i;
  }
  auto readmitted = TickKinds(HealthTransition::Kind::kInstanceReadmitted);
  ASSERT_EQ(readmitted.size(), 1u);
  EXPECT_EQ(readmitted[0].detail, 4);
}

TEST_F(HealthMonitorTest, BackendTransitionsAreEdgeTriggered) {
  Build({.fail_after_misses = 1});
  monitor->AddBackend(tb->backend_ip(0));
  EXPECT_TRUE(monitor->IsBackendUp(tb->backend_ip(0)));
  EXPECT_TRUE(monitor->Tick().empty());  // No edge while healthy.

  tb->network.SetNodeDown(tb->backend_ip(0), true);
  auto down = TickKinds(HealthTransition::Kind::kBackendDown);
  ASSERT_EQ(down.size(), 1u);
  EXPECT_EQ(down[0].addr, tb->backend_ip(0));
  EXPECT_FALSE(monitor->IsBackendUp(tb->backend_ip(0)));
  EXPECT_TRUE(monitor->Tick().empty());  // Level does not re-fire.

  tb->network.SetNodeDown(tb->backend_ip(0), false);
  EXPECT_EQ(TickKinds(HealthTransition::Kind::kBackendUp).size(), 1u);
  EXPECT_TRUE(monitor->IsBackendUp(tb->backend_ip(0)));
}

}  // namespace
}  // namespace yoda
