// AssignmentEngine tests: index-space rounds with previous-round alignment,
// fleet rounds against the desired ControlState (bootstrap all-to-all
// removal, solver continuity), and the failure-headroom repair path.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "src/core/assignment_engine.h"
#include "src/workload/testbed.h"

namespace yoda {
namespace {

using workload::Testbed;
using workload::TestbedConfig;

TEST(AssignmentEngineRound, BootstrapRoundIsAddsOnlyAndBecomesBaseline) {
  AssignmentEngine engine;
  assign::Problem p;
  p.max_instances = 4;
  p.traffic_capacity = 1.0;
  p.vips.push_back({1, 0.4, 10, 2, 0});
  p.vips.push_back({2, 0.4, 10, 2, 0});

  const auto r1 = engine.PlanRound(p, true, true);
  ASSERT_TRUE(r1.feasible);
  EXPECT_EQ(r1.plan.instances_before, 0);
  for (const assign::VipDelta& d : r1.plan.deltas) {
    EXPECT_TRUE(d.removed_instances.empty());
  }
  EXPECT_TRUE(assign::IsMakeBeforeBreak(r1.steps));

  // Same problem again: continuity holds, nothing migrates.
  const auto r2 = engine.PlanRound(p, true, true);
  ASSERT_TRUE(r2.feasible);
  EXPECT_TRUE(r2.plan.deltas.empty());
  EXPECT_EQ(r2.plan.migrated_fraction, 0.0);
}

class AssignmentEngineFleetTest : public ::testing::Test {
 protected:
  void Build(int instances = 4) {
    TestbedConfig cfg;
    cfg.yoda_instances = instances;
    cfg.build_catalog = false;
    tb = std::make_unique<Testbed>(cfg);
    state = std::make_unique<ControlState>(tb->SimFor(0));
  }

  std::vector<YodaInstance*> Active() const {
    std::vector<YodaInstance*> out;
    for (auto& i : tb->instances) {
      out.push_back(i.get());
    }
    return out;
  }

  std::unique_ptr<Testbed> tb;
  std::unique_ptr<ControlState> state;
  AssignmentEngine engine;
};

TEST_F(AssignmentEngineFleetTest, FirstFleetRoundRemovesBootstrapMembers) {
  Build();
  const net::IpAddr vip = tb->vip(0);
  state->DefineVip(vip, 80, tb->EqualSplitRules(0, 2));
  // Desired state is all-to-all (bootstrap): the executed plan must remove
  // the bootstrap members the solver does not keep, behind a barrier.
  std::map<net::IpAddr, VipDemand> demand;
  demand[vip] = {0.4, 2, 0};
  const auto fr = engine.PlanFleetRound(*state, Active(), demand, {});
  ASSERT_TRUE(fr.round.feasible);
  ASSERT_EQ(fr.pools.size(), 1u);
  EXPECT_EQ(fr.pools.at(vip).size(), 2u);

  bool any_remove = false;
  bool any_add = false;
  for (const assign::PlanStep& s : fr.round.steps) {
    any_remove = any_remove || s.kind == assign::PlanStepKind::kRemovePoolMember;
    any_add = any_add || s.kind == assign::PlanStepKind::kAddPoolMember;
  }
  EXPECT_TRUE(any_remove) << "bootstrap all-to-all members were not removed";
  // Shrinking out of all-to-all is pure-remove: the kept members already
  // serve, so no adds and no convergence barrier.
  EXPECT_FALSE(any_add);
  EXPECT_TRUE(assign::IsMakeBeforeBreak(fr.round.steps));
  // The executed plan honestly reports the bootstrap shrink as migration
  // (half the fleet stops serving) — and the fact that this EXCEEDS the
  // default 10% migration limit proves the solver was not migration-
  // constrained by the bootstrap pool (it would have been infeasible).
  EXPECT_GT(fr.round.plan.migrated_fraction, AssignmentRoundConfig{}.migration_limit);
}

TEST_F(AssignmentEngineFleetTest, SecondRoundReconcilesAgainstDesiredPools) {
  Build();
  const net::IpAddr vip = tb->vip(0);
  state->DefineVip(vip, 80, tb->EqualSplitRules(0, 2));
  std::map<net::IpAddr, VipDemand> demand;
  demand[vip] = {0.4, 2, 0};
  const auto r1 = engine.PlanFleetRound(*state, Active(), demand, {});
  ASSERT_TRUE(r1.round.feasible);
  state->SetAssignments(r1.pools);

  // Unchanged demand: the next round is a no-op plan.
  const auto r2 = engine.PlanFleetRound(*state, Active(), demand, {});
  ASSERT_TRUE(r2.round.feasible);
  EXPECT_TRUE(r2.round.plan.deltas.empty());
  EXPECT_TRUE(r2.round.steps.empty());
}

TEST_F(AssignmentEngineFleetTest, UnderHeadroomAndRepairAfterScrub) {
  Build();
  const net::IpAddr vip = tb->vip(0);
  state->DefineVip(vip, 80, tb->EqualSplitRules(0, 2));
  std::map<net::IpAddr, VipDemand> demand;
  demand[vip] = {0.4, 2, 0};
  const auto r1 = engine.PlanFleetRound(*state, Active(), demand, {});
  ASSERT_TRUE(r1.round.feasible);
  state->SetAssignments(r1.pools);
  EXPECT_TRUE(engine.UnderHeadroom(*state).empty());

  // An assigned instance dies: n_v = 2, f_v = 0 -> below headroom.
  const net::IpAddr dead = r1.pools.at(vip)[0];
  state->ScrubInstance(dead);
  EXPECT_EQ(engine.UnderHeadroom(*state), (std::vector<net::IpAddr>{vip}));

  std::vector<YodaInstance*> survivors;
  for (auto& i : tb->instances) {
    if (i->ip() != dead) {
      survivors.push_back(i.get());
    }
  }
  const auto repair = engine.PlanRepair(*state, survivors);
  ASSERT_TRUE(repair.round.feasible);
  ASSERT_EQ(repair.pools.size(), 1u);
  EXPECT_EQ(repair.pools.at(vip).size(), 2u);
  EXPECT_EQ(std::count(repair.pools.at(vip).begin(), repair.pools.at(vip).end(), dead), 0);
  // Adds-only: a repair never shrinks a pool and never needs a barrier.
  for (const assign::PlanStep& s : repair.round.steps) {
    EXPECT_NE(s.kind, assign::PlanStepKind::kRemovePoolMember);
    EXPECT_NE(s.kind, assign::PlanStepKind::kAwaitConvergence);
    EXPECT_NE(s.kind, assign::PlanStepKind::kScrubRules);
  }
}

TEST_F(AssignmentEngineFleetTest, DemandFromCountersFloorsIdleVips) {
  Build();
  const net::IpAddr vip = tb->vip(0);
  state->DefineVip(vip, 80, tb->EqualSplitRules(0, 2));
  const auto demand =
      AssignmentEngine::DemandFromCounters(*state, Active(), /*interval_seconds=*/10.0, {});
  ASSERT_TRUE(demand.contains(vip));
  // No traffic flowed: demand floors at 1% of capacity with one replica.
  EXPECT_DOUBLE_EQ(demand.at(vip).traffic, 0.01);
  EXPECT_EQ(demand.at(vip).replicas, 1);
  EXPECT_EQ(demand.at(vip).failures, 0);
}

}  // namespace
}  // namespace yoda
