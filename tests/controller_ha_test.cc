// Controller HA tests: leader election over the replicated KV ring, standby
// API gating, fencing of a deposed leader's stragglers at muxes AND
// instances, bounded actuator step retry with stall accounting, and the
// tentpole scenario — leader crash mid-rollout, standby restores the durable
// journal, resumes the in-flight plan without double-applying any step, and
// no VIP ever blacks out.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/control_journal.h"
#include "src/fault/chaos.h"
#include "src/workload/testbed.h"

namespace workload {
namespace {

using yoda::ChangeKind;
using yoda::Controller;
using yoda::ExecStepKind;

constexpr auto kWarm = fault::FaultPlane::RestartMode::kWarm;

TestbedConfig HaConfig(int controllers = 2) {
  TestbedConfig cfg;
  cfg.build_catalog = false;  // Control-plane tests: no HTTP load.
  cfg.controllers = controllers;
  return cfg;
}

int IndexOf(Testbed& tb, Controller* c) {
  for (int i = 0; i < tb.controller_count(); ++i) {
    if (tb.ControllerAt(i) == c) {
      return i;
    }
  }
  return -1;
}

int CountActingLeaders(Testbed& tb) {
  int n = 0;
  for (int i = 0; i < tb.controller_count(); ++i) {
    if (!tb.ControllerAt(i)->crashed() && tb.ControllerAt(i)->ActingLeader()) {
      ++n;
    }
  }
  return n;
}

std::size_t CountSystemEvents(const obs::FlightRecorder& flight, obs::EventType type) {
  std::size_t n = 0;
  for (const obs::TraceEvent& ev : flight.system_events()) {
    if (ev.type == type) {
      ++n;
    }
  }
  return n;
}

TEST(ControllerHa, ElectionProducesExactlyOneLeader) {
  Testbed tb(HaConfig(3));
  tb.StartAllControllers();
  Controller* leader = tb.AwaitLeader();
  ASSERT_NE(leader, nullptr);
  EXPECT_EQ(CountActingLeaders(tb), 1);
  EXPECT_EQ(leader->fencing_token(), 1u);
  // Run on: the leader renews, nobody else ever acquires.
  tb.sim.RunUntil(tb.sim.now() + sim::Sec(1));
  EXPECT_EQ(CountActingLeaders(tb), 1);
  EXPECT_EQ(tb.LeaderController(), leader);
  EXPECT_EQ(CountSystemEvents(tb.flight, obs::EventType::kLeaseAcquired), 1u);
  EXPECT_GT(CountSystemEvents(tb.flight, obs::EventType::kLeaseRenewed), 0u);
}

TEST(ControllerHa, StandbyIgnoresControlPlaneApi) {
  Testbed tb(HaConfig(2));
  tb.StartAllControllers();
  Controller* leader = tb.AwaitLeader();
  ASSERT_NE(leader, nullptr);
  Controller* standby = tb.ControllerAt(IndexOf(tb, leader) == 0 ? 1 : 0);
  ASSERT_FALSE(standby->ActingLeader());

  standby->DefineVip(tb.vip(), 80, tb.EqualSplitRules(0, 2));
  tb.sim.RunUntil(tb.sim.now() + sim::Msec(100));
  EXPECT_FALSE(standby->state().HasVip(tb.vip()));
  EXPECT_EQ(tb.fabric.mux(0).PoolFor(tb.vip()), nullptr);

  leader->DefineVip(tb.vip(), 80, tb.EqualSplitRules(0, 2));
  tb.sim.RunUntil(tb.sim.now() + sim::Msec(100));
  EXPECT_TRUE(leader->state().HasVip(tb.vip()));
  ASSERT_NE(tb.fabric.mux(0).PoolFor(tb.vip()), nullptr);
}

TEST(ControllerHa, LeaderMutationsAreJournaledDurably) {
  Testbed tb(HaConfig(2));
  tb.StartAllControllers();
  Controller* leader = tb.AwaitLeader();
  ASSERT_NE(leader, nullptr);
  leader->DefineVip(tb.vip(), 80, tb.EqualSplitRules(0, 2));
  tb.sim.RunUntil(tb.sim.now() + sim::Msec(200));
  ASSERT_NE(leader->journal(), nullptr);
  EXPECT_GT(leader->journal()->stats().changes_logged, 0u);
  EXPECT_GT(leader->journal()->stats().plans_journaled, 0u);
  EXPECT_GT(leader->journal()->stats().applied_markers, 0u);

  // An independent journal client sees the persisted state.
  yoda::ControlJournal reader(tb.SimFor(0), tb.ctl_kv_client.get(), {});
  yoda::RestoredControlPlane restored;
  bool done = false;
  reader.Restore([&](yoda::RestoredControlPlane r) {
    restored = std::move(r);
    done = true;
  });
  tb.sim.RunUntil(tb.sim.now() + sim::Msec(200));
  ASSERT_TRUE(done);
  ASSERT_TRUE(restored.found);
  yoda::ControlState rebuilt(tb.SimFor(0));
  rebuilt.LoadSnapshot(restored.epoch, restored.vips, restored.assignment);
  for (const yoda::DurableChange& c : restored.tail) {
    rebuilt.ApplyDurable(c);
  }
  EXPECT_TRUE(rebuilt.HasVip(tb.vip()));
  EXPECT_EQ(rebuilt.epoch(), leader->state().epoch());
  EXPECT_TRUE(restored.open_plans.empty());  // The define plan completed.
}

// Satellite: fencing regression — a deposed leader's stragglers are rejected
// at every layer even when stamped with a NEWER epoch than the mux watermark
// (fencing is checked before epochs: a stale token must never advance epoch
// state).
TEST(ControllerHa, DeposedLeaderWritesAreFencedAtMuxAndInstance) {
  Testbed tb(HaConfig(2));
  tb.StartAllControllers();
  Controller* first = tb.AwaitLeader();
  ASSERT_NE(first, nullptr);
  const std::uint64_t old_token = first->fencing_token();
  first->DefineVip(tb.vip(), 80, tb.EqualSplitRules(0, 2));
  tb.sim.RunUntil(tb.sim.now() + sim::Msec(100));
  const std::vector<net::IpAddr> pool_before = *tb.fabric.mux(0).PoolFor(tb.vip());

  tb.CrashController(IndexOf(tb, first));
  Controller* second = tb.AwaitLeader(sim::Sec(2));
  ASSERT_NE(second, nullptr);
  ASSERT_NE(second, first);
  EXPECT_GT(second->fencing_token(), old_token);
  tb.sim.RunUntil(tb.sim.now() + sim::Msec(300));  // Takeover resync lands.

  // The dead leader's straggler: a pool write with its old token and an
  // epoch far beyond anything the muxes have seen. Every mux must drop it.
  const std::uint64_t future_epoch = second->state().epoch() + 100;
  const std::uint64_t fenced_before = tb.fabric.mux(0).stats().fenced_writes;
  tb.fabric.ProgramPool(tb.vip(), {tb.instance_ip(0)}, future_epoch, /*per_mux_delay=*/0,
                        old_token);
  tb.sim.RunUntil(tb.sim.now() + sim::Msec(50));
  for (int m = 0; m < tb.cfg.muxes; ++m) {
    EXPECT_GT(tb.fabric.mux(m).stats().fenced_writes, 0u) << "mux " << m;
  }
  EXPECT_GT(tb.fabric.mux(0).stats().fenced_writes, fenced_before);
  EXPECT_EQ(*tb.fabric.mux(0).PoolFor(tb.vip()), pool_before);  // Unchanged.

  // Instance-level straggler: install of a new VIP under the old token.
  yoda::YodaInstance* inst = tb.instances[0].get();
  EXPECT_FALSE(inst->InstallVip(tb.vip(1), 80, tb.EqualSplitRules(0, 1), old_token));
  EXPECT_FALSE(inst->ServesVip(tb.vip(1)));
  EXPECT_FALSE(inst->SetBackendHealth(tb.backend_ip(0), false, old_token));
  EXPECT_GT(inst->stats().fenced_writes, 0u);

  // The trace proves the drops: kFencedWrite carries (token << 32) | watermark.
  EXPECT_GT(CountSystemEvents(tb.flight, obs::EventType::kFencedWrite), 0u);

  // And the deposed leader's own API is inert after restart (still standby).
  tb.RestartController(IndexOf(tb, first));
  tb.sim.RunUntil(tb.sim.now() + sim::Msec(200));
  EXPECT_FALSE(first->ActingLeader());
  first->DefineVip(tb.vip(2), 80, tb.EqualSplitRules(0, 1));
  EXPECT_FALSE(first->state().HasVip(tb.vip(2)));
  EXPECT_EQ(CountActingLeaders(tb), 1);
}

// Satellite: bounded per-step retry. A registered-but-failed instance makes
// its kInstallRules step retry with backoff and then stall; the round is
// marked failed but the remaining steps still run.
TEST(ActuatorRetry, StalledStepFailsRoundButDoesNotWedgeIt) {
  TestbedConfig cfg;
  cfg.build_catalog = false;
  cfg.controller.max_step_retries = 2;
  cfg.controller.step_retry_backoff = sim::Msec(5);
  Testbed tb(cfg);
  tb.CrashInstance(2);  // Registered with the actuator, currently dead.

  tb.controller->DefineVip(tb.vip(), 80, tb.EqualSplitRules(0, 3));
  tb.sim.Run();  // Drain the backoff retries.

  EXPECT_EQ(tb.metrics.GetCounter("controller.reconcile.step_retries").value(), 2u);
  EXPECT_EQ(tb.metrics.GetCounter("controller.reconcile.step_stalled").value(), 1u);
  EXPECT_EQ(tb.metrics.GetCounter("controller.reconcile.rounds_failed").value(), 1u);
  EXPECT_GT(CountSystemEvents(tb.flight, obs::EventType::kReconcileStalled), 0u);
  // The healthy instances were configured despite the stall.
  EXPECT_TRUE(tb.instances[0]->ServesVip(tb.vip()));
  EXPECT_TRUE(tb.instances[1]->ServesVip(tb.vip()));
  EXPECT_FALSE(tb.instances[2]->ServesVip(tb.vip()));
  // The stalled step is journaled as replayed (skipped), not applied.
  bool saw_stall = false;
  for (const yoda::ExecutedStep& es : tb.controller->actuator().journal()) {
    if (es.step.kind == ExecStepKind::kInstallRules &&
        es.step.instance == tb.instance_ip(2)) {
      saw_stall = true;
      EXPECT_TRUE(es.replayed);
    }
  }
  EXPECT_TRUE(saw_stall);
}

TEST(ActuatorRetry, RecoveryDuringBackoffLetsTheRetrySucceed) {
  TestbedConfig cfg;
  cfg.build_catalog = false;
  cfg.controller.max_step_retries = 3;
  cfg.controller.step_retry_backoff = sim::Msec(5);
  Testbed tb(cfg);
  tb.CrashInstance(2);
  tb.SimFor(0)->After(sim::Msec(2), [&tb]() { tb.RestartInstance(2, kWarm); });

  tb.controller->DefineVip(tb.vip(), 80, tb.EqualSplitRules(0, 3));
  tb.sim.Run();

  EXPECT_GE(tb.metrics.GetCounter("controller.reconcile.step_retries").value(), 1u);
  EXPECT_EQ(tb.metrics.GetCounter("controller.reconcile.step_stalled").value(), 0u);
  EXPECT_EQ(tb.metrics.GetCounter("controller.reconcile.rounds_failed").value(), 0u);
  EXPECT_TRUE(tb.instances[2]->ServesVip(tb.vip()));
}

// ---------------------------------------------------------------------------
// Tentpole: leader crash mid-rollout; standby restores, resumes, completes.
// ---------------------------------------------------------------------------

// Ledgered effective steps (the kinds the replay ledger tracks, excluding
// barriers and backend health) applied by this actuator — the set that must
// be unique across the old and new leader for "no step applies twice".
std::multiset<std::tuple<std::uint64_t, int, net::IpAddr, net::IpAddr>> EffectiveSteps(
    const Controller& c) {
  std::multiset<std::tuple<std::uint64_t, int, net::IpAddr, net::IpAddr>> out;
  for (const yoda::ExecutedStep& es : c.actuator().journal()) {
    if (es.replayed || es.step.kind == ExecStepKind::kAwaitConvergence ||
        es.step.kind == ExecStepKind::kSetBackendHealth) {
      continue;
    }
    out.insert({es.epoch, static_cast<int>(es.step.kind), es.step.vip, es.step.instance});
  }
  return out;
}

TEST(ControllerHa, LeaderCrashMidRolloutIsResumedWithoutDoubleApply) {
  Testbed tb(HaConfig(2));
  tb.StartAllControllers();
  Controller* first = tb.AwaitLeader();
  ASSERT_NE(first, nullptr);
  first->DefineVip(tb.vip(0), 80, tb.EqualSplitRules(0, 3, "r0"));
  first->DefineVip(tb.vip(1), 80, tb.EqualSplitRules(3, 3, "r1"));
  tb.sim.RunUntil(tb.sim.now() + sim::Msec(100));

  // Round 1 establishes an assignment (add-only: no barrier, completes
  // synchronously). Round 2 shifts it — vip0 grows, vip1 shrinks — which
  // yields a genuine make/barrier/break plan: the make phase applies now,
  // the break phase is parked behind the mux-convergence barrier.
  std::map<net::IpAddr, Controller::VipDemand> demand;
  demand[tb.vip(0)] = {0.4, 2, 0};
  demand[tb.vip(1)] = {0.4, 2, 0};
  ASSERT_TRUE(first->ApplyManyToMany(demand, 1.0, 2000));
  tb.sim.RunUntil(tb.sim.now() + sim::Sec(1));
  demand[tb.vip(0)] = {0.4, 3, 0};
  demand[tb.vip(1)] = {0.4, 1, 0};
  ASSERT_TRUE(first->ApplyManyToMany(demand, 1.0, 2000, /*migration_limit=*/1.0));
  const std::uint64_t rollout_epoch = first->state().epoch();
  ASSERT_GT(first->actuator().plans_in_flight(), 0);  // Break phase pending.

  // Kill the leader 10ms in: journal has the plan + make-phase markers, the
  // break phase dies with the leader.
  tb.sim.RunUntil(tb.sim.now() + sim::Msec(10));
  tb.CrashController(IndexOf(tb, first));

  Controller* second = tb.AwaitLeader(sim::Sec(2));
  ASSERT_NE(second, nullptr);
  ASSERT_NE(second, first);
  tb.sim.RunUntil(tb.sim.now() + sim::Sec(2));  // Restore + resume + settle.

  // The standby restored the durable state and resumed the open plan.
  ASSERT_NE(second->journal(), nullptr);
  EXPECT_GE(second->journal()->stats().restores, 1u);
  EXPECT_EQ(CountSystemEvents(tb.flight, obs::EventType::kPlanResumed), 1u);
  // The dead leader's parked barrier fired and disarmed itself.
  EXPECT_GT(CountSystemEvents(tb.flight, obs::EventType::kReconcileAbort), 0u);

  // Desired state carried over: the new leader sees the rollout's assignment.
  EXPECT_GE(second->state().epoch(), rollout_epoch);
  EXPECT_EQ(second->AssignedInstances(tb.vip(0)).size(), 3u);
  EXPECT_EQ(second->AssignedInstances(tb.vip(1)).size(), 1u);

  // Fleet converged to it: every mux pool equals the desired assignment.
  for (int v = 0; v < 2; ++v) {
    const auto assigned = second->AssignedInstances(tb.vip(v));
    const std::set<net::IpAddr> want(assigned.begin(), assigned.end());
    for (int m = 0; m < tb.cfg.muxes; ++m) {
      const auto* pool = tb.fabric.mux(m).PoolFor(tb.vip(v));
      ASSERT_NE(pool, nullptr) << "mux " << m << " vip " << v;
      EXPECT_EQ(std::set<net::IpAddr>(pool->begin(), pool->end()), want)
          << "mux " << m << " vip " << v;
    }
  }

  // No ledgered step applied twice across the failover: the union of both
  // leaders' effective steps has no duplicate (epoch, kind, vip, instance).
  auto steps = EffectiveSteps(*first);
  for (const auto& s : EffectiveSteps(*second)) {
    steps.insert(s);
  }
  for (const auto& s : steps) {
    EXPECT_EQ(steps.count(s), 1u)
        << "step applied twice: epoch " << std::get<0>(s) << " kind " << std::get<1>(s);
  }

  // No VIP ever blacked out across crash + failover + resumption.
  const fault::PoolContinuityReport continuity = fault::CheckPoolContinuity(tb.flight);
  EXPECT_TRUE(continuity.ok()) << continuity.violations.front();

  // Exactly one acting leader, holding a strictly newer token.
  EXPECT_EQ(CountActingLeaders(tb), 1);
  EXPECT_GT(second->fencing_token(), 1u);

  // The resumed plan completed durably: a fresh restore finds nothing open.
  yoda::ControlJournal reader(tb.SimFor(0), tb.ctl_kv_client.get(), {});
  yoda::RestoredControlPlane restored;
  bool done = false;
  reader.Restore([&](yoda::RestoredControlPlane r) {
    restored = std::move(r);
    done = true;
  });
  tb.sim.RunUntil(tb.sim.now() + sim::Msec(200));
  ASSERT_TRUE(done);
  EXPECT_TRUE(restored.open_plans.empty());
}

TEST(ControllerHa, CrashedLeaderRestartRejoinsAsStandbyAndCanLeadAgain) {
  Testbed tb(HaConfig(2));
  tb.StartAllControllers();
  Controller* first = tb.AwaitLeader();
  ASSERT_NE(first, nullptr);
  first->DefineVip(tb.vip(), 80, tb.EqualSplitRules(0, 2));
  tb.sim.RunUntil(tb.sim.now() + sim::Msec(100));

  tb.CrashController(IndexOf(tb, first));
  Controller* second = tb.AwaitLeader(sim::Sec(2));
  ASSERT_NE(second, nullptr);
  tb.RestartController(IndexOf(tb, first));
  tb.sim.RunUntil(tb.sim.now() + sim::Sec(1));
  EXPECT_EQ(CountActingLeaders(tb), 1);  // Restart never splits the brain.

  // Second failover, back to the restarted replica: it restores the state it
  // originally authored (plus the interregnum's takeover changes).
  tb.CrashController(IndexOf(tb, second));
  Controller* third = tb.AwaitLeader(sim::Sec(2));
  ASSERT_EQ(third, first);
  tb.sim.RunUntil(tb.sim.now() + sim::Sec(1));
  EXPECT_TRUE(third->state().HasVip(tb.vip()));
  EXPECT_GT(third->fencing_token(), second->fencing_token());
  EXPECT_EQ(CountActingLeaders(tb), 1);
}

}  // namespace
}  // namespace workload
