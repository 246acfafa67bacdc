// Controller tests: monitor, VIP lifecycle ordering, health propagation,
// elastic scaling and the many-to-many assignment path.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/workload/testbed.h"

namespace yoda {
namespace {

using workload::Testbed;
using workload::TestbedConfig;

constexpr auto kWarm = fault::FaultPlane::RestartMode::kWarm;

class ControllerTest : public ::testing::Test {
 protected:
  std::unique_ptr<Testbed> tb;

  void Build(TestbedConfig cfg = {}) {
    cfg.build_catalog = false;  // Pure control-plane tests.
    tb = std::make_unique<Testbed>(cfg);
  }
};

TEST_F(ControllerTest, DefineVipInstallsRulesOnAllActiveInstances) {
  Build();
  tb->controller->DefineVip(tb->vip(), 80, tb->EqualSplitRules(0, 3));
  for (auto& inst : tb->instances) {
    EXPECT_TRUE(inst->ServesVip(tb->vip()));
    EXPECT_EQ(inst->RuleCount(tb->vip()), 1);
  }
  const auto* pool = tb->fabric.mux(0).PoolFor(tb->vip());
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->size(), tb->instances.size());
}

TEST_F(ControllerTest, RemoveVipUnmapsBeforeDroppingRules) {
  Build();
  tb->controller->DefineVip(tb->vip(), 80, tb->EqualSplitRules(0, 3));
  tb->controller->RemoveVip(tb->vip());
  EXPECT_FALSE(tb->network.IsAttached(tb->vip()));
  for (auto& inst : tb->instances) {
    EXPECT_FALSE(inst->ServesVip(tb->vip()));
  }
}

TEST_F(ControllerTest, UpdateRulesReplacesTables) {
  Build();
  tb->controller->DefineVip(tb->vip(), 80, tb->EqualSplitRules(0, 3));
  auto wider = tb->EqualSplitRules(0, 6);
  auto extra = tb->EqualSplitRules(0, 2, "r-extra", "*.css");
  wider.push_back(extra[0]);
  tb->controller->UpdateVipRules(tb->vip(), wider);
  for (auto& inst : tb->instances) {
    EXPECT_EQ(inst->RuleCount(tb->vip()), 2);
  }
}

TEST_F(ControllerTest, UpdateRulesForUnknownVipIsNoop) {
  Build();
  tb->controller->UpdateVipRules(tb->vip(3), tb->EqualSplitRules(0, 1));
  for (auto& inst : tb->instances) {
    EXPECT_FALSE(inst->ServesVip(tb->vip(3)));
  }
}

TEST_F(ControllerTest, MonitorDetectsInstanceFailureWithin600ms) {
  Build();
  tb->DefineDefaultVipAndStart();
  tb->CrashInstance(1);
  tb->sim.RunUntil(tb->sim.now() + sim::Msec(650));
  EXPECT_EQ(tb->controller->detected_failures(), 1);
  EXPECT_EQ(tb->controller->ActiveInstances().size(), tb->instances.size() - 1);
  const auto* pool = tb->fabric.mux(0).PoolFor(tb->vip());
  for (net::IpAddr ip : *pool) {
    EXPECT_NE(ip, tb->instance_ip(1));
  }
}

TEST_F(ControllerTest, CrashedLoneControllerActsOnlyAfterRestart) {
  TestbedConfig cfg;
  cfg.yoda_instances = 3;
  Build(cfg);
  tb->DefineDefaultVipAndStart();
  const obs::Counter& ticks = tb->metrics.GetCounter("controller.monitor_ticks");
  tb->sim.RunUntil(sim::Sec(1));
  tb->CrashController(0);
  const std::uint64_t epoch = tb->controller->state().epoch();
  const std::uint64_t ticks_at_crash = ticks.value();
  tb->CrashInstance(0);
  tb->sim.RunUntil(sim::Sec(2));
  auto wider = tb->EqualSplitRules(0, 6);
  wider.push_back(tb->EqualSplitRules(0, 2, "r-extra", "*.css")[0]);
  tb->controller->UpdateVipRules(tb->vip(), wider);
  tb->sim.RunUntil(sim::Sec(4));

  // Down: no monitor pass, no eviction, no rule change.
  EXPECT_EQ(ticks.value(), ticks_at_crash);
  EXPECT_EQ(tb->controller->detected_failures(), 0);
  EXPECT_EQ(tb->controller->state().epoch(), epoch);
  auto pooled = [this](int i) {
    const std::vector<net::IpAddr>* pool = tb->fabric.mux(0).PoolFor(tb->vip());
    return pool != nullptr &&
           std::find(pool->begin(), pool->end(), tb->instance_ip(i)) != pool->end();
  };
  EXPECT_TRUE(pooled(0));
  for (int i = 1; i < 3; ++i) {
    EXPECT_EQ(tb->instances[static_cast<std::size_t>(i)]->RuleCount(tb->vip()), 1);
  }

  // Restarted: the next monitor pass evicts the dead instance.
  tb->RestartController(0);
  tb->sim.RunUntil(sim::Sec(5));
  EXPECT_GT(ticks.value(), ticks_at_crash);
  EXPECT_EQ(tb->controller->detected_failures(), 1);
  EXPECT_FALSE(pooled(0));
  EXPECT_TRUE(pooled(1));
}

TEST_F(ControllerTest, MonitorTickIsIdempotentForSameFailure) {
  Build();
  tb->DefineDefaultVipAndStart();
  tb->CrashInstance(0);
  tb->controller->MonitorTick();
  tb->controller->MonitorTick();
  EXPECT_EQ(tb->controller->detected_failures(), 1);
}

TEST_F(ControllerTest, BackendHealthPropagatesDownAndUp) {
  Build();
  tb->DefineDefaultVipAndStart();
  tb->faults->CrashNode(tb->backend_ip(2));
  tb->controller->MonitorTick();
  // Health is pushed into every instance's selection oracle: verify via a
  // selection that skips the dead backend (probabilistically exercised in
  // integration tests; here check the controller saw it).
  bool logged_fail = false;
  for (const auto& ev : tb->controller->events()) {
    logged_fail = logged_fail || ev.what.find("failed") != std::string::npos;
  }
  EXPECT_TRUE(logged_fail);
  tb->faults->RestartNode(tb->backend_ip(2), kWarm);
  tb->controller->MonitorTick();
  bool logged_recover = false;
  for (const auto& ev : tb->controller->events()) {
    logged_recover = logged_recover || ev.what.find("recovered") != std::string::npos;
  }
  EXPECT_TRUE(logged_recover);
}

TEST_F(ControllerTest, LateInstanceReceivesExistingVips) {
  TestbedConfig cfg;
  cfg.spare_instances = 1;
  Build(cfg);
  tb->controller->DefineVip(tb->vip(), 80, tb->EqualSplitRules(0, 3));
  tb->controller->DefineVip(tb->vip(1), 80, tb->EqualSplitRules(3, 3));
  YodaInstance* spare = tb->spares[0].get();
  EXPECT_FALSE(spare->ServesVip(tb->vip()));
  tb->controller->AddInstance(spare);
  EXPECT_TRUE(spare->ServesVip(tb->vip()));
  EXPECT_TRUE(spare->ServesVip(tb->vip(1)));
}

TEST_F(ControllerTest, AutoScaleConsumesSparesUnderSyntheticLoad) {
  TestbedConfig cfg;
  cfg.yoda_instances = 2;
  cfg.spare_instances = 2;
  cfg.controller.auto_scale = true;
  cfg.controller.scale_out_cpu = 0.5;
  cfg.controller.scale_out_step = 1;
  Build(cfg);
  tb->DefineDefaultVipAndStart();
  // Synthetically saturate the CPU model.
  for (auto& inst : tb->instances) {
    for (int i = 0; i < 100'000; ++i) {
      inst->cpu().ChargeConnection();
    }
  }
  tb->sim.RunUntil(sim::Msec(700));
  EXPECT_EQ(tb->controller->ActiveInstances().size(), 3u);
  tb->sim.RunUntil(tb->sim.now() + sim::Msec(700));
  // CPU windows were reset after scaling; no further scale-out.
  EXPECT_LE(tb->controller->ActiveInstances().size(), 4u);
}

TEST_F(ControllerTest, ManyToManyAssignsSubsetsAndProgramsPools) {
  TestbedConfig cfg;
  cfg.yoda_instances = 6;
  Build(cfg);
  // Three VIPs with different demands.
  tb->controller->DefineVip(tb->vip(0), 80, tb->EqualSplitRules(0, 2, "r0"));
  tb->controller->DefineVip(tb->vip(1), 80, tb->EqualSplitRules(2, 2, "r1"));
  tb->controller->DefineVip(tb->vip(2), 80, tb->EqualSplitRules(4, 2, "r2"));
  std::map<net::IpAddr, Controller::VipDemand> demand;
  demand[tb->vip(0)] = {0.6, 3, 1};
  demand[tb->vip(1)] = {0.3, 2, 0};
  demand[tb->vip(2)] = {0.1, 1, 0};
  ASSERT_TRUE(tb->controller->ApplyManyToMany(demand, 1.0, 2000));
  tb->sim.RunUntil(tb->sim.now() + sim::Sec(1));  // Staggered pools converge.

  EXPECT_EQ(tb->controller->AssignedInstances(tb->vip(0)).size(), 3u);
  EXPECT_EQ(tb->controller->AssignedInstances(tb->vip(1)).size(), 2u);
  EXPECT_EQ(tb->controller->AssignedInstances(tb->vip(2)).size(), 1u);

  // Rules live only on assigned instances; pools match the assignment.
  for (int v = 0; v < 3; ++v) {
    const auto assigned = tb->controller->AssignedInstances(tb->vip(v));
    const std::set<net::IpAddr> assigned_set(assigned.begin(), assigned.end());
    int serving = 0;
    for (auto& inst : tb->instances) {
      if (inst->ServesVip(tb->vip(v))) {
        ++serving;
        EXPECT_TRUE(assigned_set.contains(inst->ip()));
      }
    }
    EXPECT_EQ(serving, static_cast<int>(assigned.size()));
    const auto* pool = tb->fabric.mux(tb->fabric.mux_count() - 1).PoolFor(tb->vip(v));
    ASSERT_NE(pool, nullptr);
    EXPECT_EQ(std::set<net::IpAddr>(pool->begin(), pool->end()), assigned_set);
  }
}

TEST_F(ControllerTest, ManyToManySecondRoundLimitsMigration) {
  TestbedConfig cfg;
  cfg.yoda_instances = 6;
  Build(cfg);
  tb->controller->DefineVip(tb->vip(0), 80, tb->EqualSplitRules(0, 2, "r0"));
  tb->controller->DefineVip(tb->vip(1), 80, tb->EqualSplitRules(2, 2, "r1"));
  std::map<net::IpAddr, Controller::VipDemand> demand;
  demand[tb->vip(0)] = {0.5, 2, 0};
  demand[tb->vip(1)] = {0.4, 2, 0};
  ASSERT_TRUE(tb->controller->ApplyManyToMany(demand, 1.0, 2000));
  const auto before0 = tb->controller->AssignedInstances(tb->vip(0));
  // Slightly different demand: assignment should barely move.
  demand[tb->vip(0)] = {0.55, 2, 0};
  ASSERT_TRUE(tb->controller->ApplyManyToMany(demand, 1.0, 2000));
  const auto after0 = tb->controller->AssignedInstances(tb->vip(0));
  EXPECT_EQ(before0, after0);
}

TEST_F(ControllerTest, ManyToManyInfeasibleWhenDemandExceedsFleet) {
  TestbedConfig cfg;
  cfg.yoda_instances = 2;
  Build(cfg);
  tb->controller->DefineVip(tb->vip(0), 80, tb->EqualSplitRules(0, 2, "r0"));
  std::map<net::IpAddr, Controller::VipDemand> demand;
  demand[tb->vip(0)] = {5.0, 2, 1};  // 5 instance-capacities over 2 instances.
  EXPECT_FALSE(tb->controller->ApplyManyToMany(demand, 1.0, 2000));
}

TEST_F(ControllerTest, FailureInManyToManyModeShrinksOnlyAffectedPools) {
  TestbedConfig cfg;
  cfg.yoda_instances = 4;
  Build(cfg);
  tb->controller->DefineVip(tb->vip(0), 80, tb->EqualSplitRules(0, 2, "r0"));
  std::map<net::IpAddr, Controller::VipDemand> demand;
  demand[tb->vip(0)] = {0.4, 2, 0};
  ASSERT_TRUE(tb->controller->ApplyManyToMany(demand, 1.0, 2000));
  tb->sim.RunUntil(tb->sim.now() + sim::Sec(1));
  const auto assigned = tb->controller->AssignedInstances(tb->vip(0));
  ASSERT_EQ(assigned.size(), 2u);
  // Fail one assigned instance.
  int victim = -1;
  for (std::size_t i = 0; i < tb->instances.size(); ++i) {
    if (tb->instances[i]->ip() == assigned[0]) {
      victim = static_cast<int>(i);
    }
  }
  ASSERT_GE(victim, 0);
  const net::IpAddr dead = assigned[0];
  tb->CrashInstance(victim);
  tb->controller->MonitorTick();
  // The dead instance is scrubbed from the assignment immediately, and the
  // repair reconcile tops the pool back up to its n_v = 2 replicas from the
  // survivors (the VIP was provisioned with zero failure headroom).
  const auto after = tb->controller->AssignedInstances(tb->vip(0));
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(std::count(after.begin(), after.end(), dead), 0);
  EXPECT_NE(std::find(after.begin(), after.end(), assigned[1]), after.end());
}

TEST_F(ControllerTest, InstanceKilledMidRolloutIsScrubbedAndRepaired) {
  TestbedConfig cfg;
  cfg.yoda_instances = 4;
  Build(cfg);
  tb->controller->DefineVip(tb->vip(0), 80, tb->EqualSplitRules(0, 2, "r0"));
  std::map<net::IpAddr, Controller::VipDemand> demand;
  demand[tb->vip(0)] = {0.4, 2, 0};
  ASSERT_TRUE(tb->controller->ApplyManyToMany(demand, 1.0, 2000));

  // The staggered rollout is still in flight: kill an assigned instance NOW,
  // before the muxes converge and before the break phase runs.
  const auto assigned = tb->controller->AssignedInstances(tb->vip(0));
  ASSERT_EQ(assigned.size(), 2u);
  const net::IpAddr dead = assigned[0];
  int victim = -1;
  for (std::size_t i = 0; i < tb->instances.size(); ++i) {
    if (tb->instances[i]->ip() == dead) {
      victim = static_cast<int>(i);
    }
  }
  ASSERT_GE(victim, 0);
  tb->CrashInstance(victim);
  tb->controller->MonitorTick();

  // The failure scrubs the dead instance from the desired assignment at once:
  // AssignedInstances must never hand it out again, and the repair reconcile
  // restores the VIP to its n_v = 2 replicas from the survivors.
  const auto after = tb->controller->AssignedInstances(tb->vip(0));
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(std::count(after.begin(), after.end(), dead), 0);

  // Let the interrupted rollout's stragglers and the repair rollout land.
  // Epoch gating makes the overtaken plan's late writes harmless.
  tb->sim.RunUntil(tb->sim.now() + sim::Sec(2));
  const auto settled = tb->controller->AssignedInstances(tb->vip(0));
  ASSERT_EQ(settled.size(), 2u);
  EXPECT_EQ(std::count(settled.begin(), settled.end(), dead), 0);
  for (int m = 0; m < tb->fabric.mux_count(); ++m) {
    const auto* pool = tb->fabric.mux(m).PoolFor(tb->vip(0));
    ASSERT_NE(pool, nullptr);
    EXPECT_EQ(std::count(pool->begin(), pool->end(), dead), 0) << "mux " << m;
    EXPECT_EQ(std::set<net::IpAddr>(pool->begin(), pool->end()),
              std::set<net::IpAddr>(settled.begin(), settled.end()))
        << "mux " << m;
  }
  EXPECT_EQ(tb->controller->actuator().plans_in_flight(), 0);
}

TEST_F(ControllerTest, LiveReconfigurationFlowsThroughEpochedPlans) {
  TestbedConfig cfg;
  cfg.yoda_instances = 4;
  Build(cfg);
  tb->controller->DefineVip(tb->vip(0), 80, tb->EqualSplitRules(0, 2, "r0"));
  std::map<net::IpAddr, Controller::VipDemand> demand;
  demand[tb->vip(0)] = {0.4, 2, 0};
  ASSERT_TRUE(tb->controller->ApplyManyToMany(demand, 1.0, 2000));
  tb->sim.RunUntil(tb->sim.now() + sim::Sec(1));
  tb->CrashInstance(0);
  tb->controller->MonitorTick();
  tb->sim.RunUntil(tb->sim.now() + sim::Sec(1));
  tb->controller->RemoveVip(tb->vip(0));

  // Every live reconfiguration above went through the actuator as an
  // epoch-stamped plan step — nothing touched the fabric out of band.
  const auto& journal = tb->controller->actuator().journal();
  ASSERT_FALSE(journal.empty());
  const std::uint64_t newest = tb->controller->state().epoch();
  std::set<std::uint64_t> epochs_seen;
  std::map<std::pair<std::uint64_t, net::IpAddr>, bool> broke;
  for (const ExecutedStep& e : journal) {
    EXPECT_GT(e.epoch, 0u);
    EXPECT_LE(e.epoch, newest);
    epochs_seen.insert(e.epoch);
    // Make-before-break within each (epoch, vip): once a break-phase step
    // ran, no make-phase step for the same pair may follow.
    const auto key = std::make_pair(e.epoch, e.step.vip);
    switch (e.step.kind) {
      case ExecStepKind::kRemovePoolMember:
      case ExecStepKind::kScrubRules:
      case ExecStepKind::kDetachVip:
        broke[key] = true;
        break;
      case ExecStepKind::kInstallRules:
      case ExecStepKind::kAddPoolMember:
      case ExecStepKind::kAttachVip:
        EXPECT_FALSE(broke[key])
            << ExecStepKindName(e.step.kind) << " after break in epoch " << e.epoch;
        break;
      default:
        break;
    }
  }
  // Distinct reconfigurations carried distinct epochs (define, rollout,
  // failure scrub + repair, removal).
  EXPECT_GE(epochs_seen.size(), 4u);
  EXPECT_GE(tb->metrics.GetCounter("controller.reconcile.plans").value(), 4u);
  EXPECT_EQ(tb->metrics.GetCounter("controller.reconcile.plans").value(),
            static_cast<std::uint64_t>(
                tb->flight.system_events().size() > 0
                    ? std::count_if(tb->flight.system_events().begin(),
                                    tb->flight.system_events().end(),
                                    [](const obs::TraceEvent& ev) {
                                      return ev.type == obs::EventType::kReconcilePlan;
                                    })
                    : 0));
}

TEST_F(ControllerTest, PeriodicAssignmentFollowsMeasuredTraffic) {
  TestbedConfig cfg;
  cfg.yoda_instances = 6;
  cfg.build_catalog = true;
  tb = std::make_unique<Testbed>(cfg);
  tb->controller->DefineVip(tb->vip(0), 80, tb->EqualSplitRules(0, 3, "r0"));
  tb->controller->DefineVip(tb->vip(1), 80, tb->EqualSplitRules(3, 3, "r1"));
  tb->controller->Start();
  Controller::PeriodicAssignmentConfig pcfg;
  pcfg.interval = sim::Sec(10);
  pcfg.traffic_capacity = 20.0;  // 20 new conns/s per instance.
  tb->controller->EnablePeriodicAssignment(pcfg);

  // Drive heavy traffic at vip(0) and a trickle at vip(1) for 25 s.
  sim::Rng rng(4);
  std::function<void(sim::Time, int, double)> drive = [&](sim::Time when, int vip_idx,
                                                          double rate) {
    if (when > sim::Sec(25)) {
      return;
    }
    tb->SimFor(0)->At(when, [&, vip_idx, rate]() {
      tb->clients[0]->FetchObject(tb->vip(vip_idx), 80, tb->catalog->objects()[0].url, {},
                                  [](const workload::FetchResult&) {});
      drive(tb->sim.now() + sim::FromSeconds(rng.Exponential(1.0 / rate)), vip_idx, rate);
    });
  };
  drive(sim::Msec(1), 0, 60.0);  // 60 conns/s => n_v capped at the 6-instance fleet.
  drive(sim::Msec(2), 1, 2.0);   // 2 conns/s  => n_v = 1.

  // Inspect the assignment while traffic is flowing (a later idle round
  // would legitimately shrink everything back down).
  tb->sim.RunUntil(sim::Sec(21));
  EXPECT_GE(tb->controller->assignment_rounds(), 2);
  const auto hot = tb->controller->AssignedInstances(tb->vip(0));
  const auto cold = tb->controller->AssignedInstances(tb->vip(1));
  ASSERT_FALSE(hot.empty());
  ASSERT_FALSE(cold.empty());
  EXPECT_GT(hot.size(), cold.size());
  EXPECT_EQ(cold.size(), 1u);
  tb->sim.Run();
  // Idle rounds after the load ends consolidate back to few instances.
  EXPECT_LE(tb->controller->AssignedInstances(tb->vip(0)).size(), hot.size());
}

TEST_F(ControllerTest, EventsCarryTimestamps) {
  Build();
  tb->controller->DefineVip(tb->vip(), 80, tb->EqualSplitRules(0, 1));
  ASSERT_FALSE(tb->controller->events().empty());
  EXPECT_GE(tb->controller->events().back().when, 0);
  EXPECT_FALSE(tb->controller->events().back().what.empty());
}

// ---------------------------------------------------------------------------
// Health-check hysteresis, readmission and flap suppression.
// ---------------------------------------------------------------------------

TEST_F(ControllerTest, HysteresisKeepsInstancePooledThroughTransientMisses) {
  TestbedConfig cfg;
  cfg.controller.fail_after_misses = 3;
  Build(cfg);
  tb->DefineDefaultVipAndStart();
  const net::IpAddr ip = tb->instance_ip(1);

  // Unreachable but not dead: probes miss, the process is fine.
  tb->network.SetNodeDown(ip, true);
  tb->controller->MonitorTick();
  tb->controller->MonitorTick();
  EXPECT_EQ(tb->controller->detected_failures(), 0);
  EXPECT_EQ(tb->controller->ActiveInstances().size(), tb->instances.size());

  // Link heals before the third miss: the streak resets, nothing happened.
  tb->network.SetNodeDown(ip, false);
  tb->controller->MonitorTick();
  tb->network.SetNodeDown(ip, true);
  tb->controller->MonitorTick();
  tb->controller->MonitorTick();
  EXPECT_EQ(tb->controller->detected_failures(), 0);

  // Third CONSECUTIVE miss kills it.
  tb->controller->MonitorTick();
  EXPECT_EQ(tb->controller->detected_failures(), 1);
  EXPECT_EQ(tb->controller->ActiveInstances().size(), tb->instances.size() - 1);
}

TEST_F(ControllerTest, SuspectedInstancesLandInSystemEventLog) {
  TestbedConfig cfg;
  cfg.controller.fail_after_misses = 2;
  Build(cfg);
  tb->DefineDefaultVipAndStart();
  tb->network.SetNodeDown(tb->instance_ip(0), true);
  tb->controller->MonitorTick();
  bool suspected = false;
  for (const auto& ev : tb->flight.system_events()) {
    suspected = suspected || ev.type == obs::EventType::kInstanceSuspected;
  }
  EXPECT_TRUE(suspected);
}

TEST_F(ControllerTest, GraySynFilterDoesNotBlindTheMonitor) {
  Build();
  tb->DefineDefaultVipAndStart();
  const net::IpAddr ip = tb->instance_ip(0);
  // The classic gray failure: SYNs to the instance die, probes (kAck-shaped)
  // pass. The monitor must NOT remove it; detection is the data path's job.
  tb->faults->SetGray("syn-filter",
                      [ip](const net::Packet& p) {
                        return p.dst == ip && p.syn() && !p.ack_flag();
                      },
                      1.0);
  tb->controller->MonitorTick();
  EXPECT_EQ(tb->controller->detected_failures(), 0);
  // A partition on the probe path, by contrast, does cost probes.
  tb->faults->Partition(0, ip);
  tb->controller->MonitorTick();
  EXPECT_EQ(tb->controller->detected_failures(), 1);
}

TEST_F(ControllerTest, ReadmissionAfterConsecutiveHealthyProbes) {
  TestbedConfig cfg;
  cfg.controller.readmit_instances = true;
  cfg.controller.readmit_after_successes = 2;
  Build(cfg);
  tb->DefineDefaultVipAndStart();
  const net::IpAddr ip = tb->instance_ip(2);

  tb->network.SetNodeDown(ip, true);
  tb->controller->MonitorTick();
  EXPECT_EQ(tb->controller->ActiveInstances().size(), tb->instances.size() - 1);
  ASSERT_EQ(tb->controller->SuspendedInstances().size(), 1u);

  tb->network.SetNodeDown(ip, false);
  tb->controller->MonitorTick();  // Healthy probe 1 of 2.
  EXPECT_EQ(tb->controller->readmissions(), 0);
  tb->controller->MonitorTick();  // Healthy probe 2: readmitted.
  EXPECT_EQ(tb->controller->readmissions(), 1);
  EXPECT_EQ(tb->controller->ActiveInstances().size(), tb->instances.size());
  EXPECT_TRUE(tb->controller->SuspendedInstances().empty());
  // Back in the muxes' VIP pool.
  const auto* pool = tb->fabric.mux(0).PoolFor(tb->vip());
  ASSERT_NE(pool, nullptr);
  bool pooled = false;
  for (net::IpAddr p : *pool) {
    pooled = pooled || p == ip;
  }
  EXPECT_TRUE(pooled);
  // The readmitted instance still serves the VIP's rules.
  EXPECT_TRUE(tb->instances[2]->ServesVip(tb->vip()));
}

TEST_F(ControllerTest, InterruptedHealthStreakDoesNotReadmit) {
  TestbedConfig cfg;
  cfg.controller.readmit_instances = true;
  cfg.controller.readmit_after_successes = 3;
  Build(cfg);
  tb->DefineDefaultVipAndStart();
  const net::IpAddr ip = tb->instance_ip(0);
  tb->network.SetNodeDown(ip, true);
  tb->controller->MonitorTick();
  tb->network.SetNodeDown(ip, false);
  tb->controller->MonitorTick();
  tb->controller->MonitorTick();  // 2 of 3...
  tb->network.SetNodeDown(ip, true);
  tb->controller->MonitorTick();  // ...interrupted: streak resets.
  tb->network.SetNodeDown(ip, false);
  tb->controller->MonitorTick();
  tb->controller->MonitorTick();
  EXPECT_EQ(tb->controller->readmissions(), 0);
  tb->controller->MonitorTick();
  EXPECT_EQ(tb->controller->readmissions(), 1);
}

TEST_F(ControllerTest, FlapSuppressionDoublesRequiredStreakUpToCap) {
  TestbedConfig cfg;
  cfg.controller.readmit_instances = true;
  cfg.controller.readmit_after_successes = 2;
  cfg.controller.readmit_penalty_cap = 4;
  Build(cfg);
  tb->DefineDefaultVipAndStart();
  const net::IpAddr ip = tb->instance_ip(1);

  auto fail_once = [&]() {
    tb->network.SetNodeDown(ip, true);
    tb->controller->MonitorTick();
    tb->network.SetNodeDown(ip, false);
  };
  auto healthy_ticks = [&](int n) {
    for (int i = 0; i < n; ++i) {
      tb->controller->MonitorTick();
    }
  };

  fail_once();
  healthy_ticks(2);  // First readmission: base requirement.
  EXPECT_EQ(tb->controller->readmissions(), 1);

  fail_once();       // Flap: requirement doubles to 4.
  healthy_ticks(2);
  EXPECT_EQ(tb->controller->readmissions(), 1);
  healthy_ticks(2);
  EXPECT_EQ(tb->controller->readmissions(), 2);

  fail_once();       // Another flap: would be 8, capped at 4.
  healthy_ticks(4);
  EXPECT_EQ(tb->controller->readmissions(), 3);

  bool readmitted_event = false;
  for (const auto& ev : tb->flight.system_events()) {
    readmitted_event = readmitted_event || ev.type == obs::EventType::kInstanceReadmitted;
  }
  EXPECT_TRUE(readmitted_event);
}

}  // namespace
}  // namespace yoda
