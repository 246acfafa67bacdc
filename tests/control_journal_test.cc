// ControlJournal durability tests (controller HA): serializer round-trips,
// snapshot + changelog-tail restore equivalence against the live state, open
// plans with applied-step markers, log truncation at a lost entry, and
// restore under a slow KV replica.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/control_journal.h"
#include "src/core/control_state.h"
#include "src/kv/kv_server.h"
#include "src/kv/replicating_client.h"
#include "src/sim/sharded_sim.h"
#include "src/sim/simulator.h"

namespace yoda {
namespace {

rules::Rule FancyRule() {
  rules::Rule r;
  r.name = "api v2 (50%)";  // Spaces + specials: exercises percent-escaping.
  r.priority = 7;
  r.match.url_glob = "/api/*";
  r.match.host_glob = "example.com";
  r.match.header_name = "X-Canary";
  r.match.header_value_glob = "on";
  // cookie_name/cookie_value/method left unset: optionals must round-trip
  // as absent, not as empty strings.
  r.action.type = rules::ActionType::kWeightedSplit;
  r.action.backends.push_back(rules::Backend{net::MakeIp(10, 3, 0, 1), 8080, 1.0 / 3.0});
  r.action.backends.push_back(rules::Backend{net::MakeIp(10, 3, 0, 2), 80, 2.0 / 3.0});
  r.action.sticky_cookie = "session=sticky; Path=/";
  return r;
}

TEST(JournalSerializers, RuleRoundTripsExactly) {
  const rules::Rule r = FancyRule();
  const std::string line = ControlJournal::EncodeRule(r);
  const std::optional<rules::Rule> back = ControlJournal::DecodeRule(line);
  ASSERT_TRUE(back.has_value());
  // Re-encoding the decoded rule must be byte-identical — this catches any
  // field (weights included: %.17g) that failed to round-trip exactly.
  EXPECT_EQ(ControlJournal::EncodeRule(*back), line);
  EXPECT_EQ(back->name, r.name);
  EXPECT_EQ(back->match.host_glob, r.match.host_glob);
  EXPECT_FALSE(back->match.cookie_name.has_value());
  ASSERT_EQ(back->action.backends.size(), 2u);
  EXPECT_EQ(back->action.backends[0].weight, 1.0 / 3.0);
  EXPECT_EQ(back->action.sticky_cookie, r.action.sticky_cookie);
}

TEST(JournalSerializers, ChangeRoundTripsWithPayload) {
  DurableChange c;
  c.epoch = 42;
  c.at = sim::Msec(123);
  c.kind = ChangeKind::kVipDefined;
  c.subject = net::MakeIp(10, 200, 0, 1);
  c.detail = 1;
  c.port = 443;
  c.rules.push_back(FancyRule());
  const std::string text = ControlJournal::EncodeChange(c);
  const std::optional<DurableChange> back = ControlJournal::DecodeChange(text);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(ControlJournal::EncodeChange(*back), text);
  EXPECT_EQ(back->epoch, 42u);
  EXPECT_EQ(back->at, sim::Msec(123));
  EXPECT_EQ(back->kind, ChangeKind::kVipDefined);
  EXPECT_EQ(back->port, 443);
  ASSERT_EQ(back->rules.size(), 1u);
}

TEST(JournalSerializers, AssignmentChangeCarriesWholeRound) {
  DurableChange c;
  c.kind = ChangeKind::kAssignmentSet;
  c.epoch = 9;
  c.pools[net::MakeIp(10, 200, 0, 1)] = {net::MakeIp(10, 1, 0, 1), net::MakeIp(10, 1, 0, 2)};
  c.pools[net::MakeIp(10, 200, 0, 2)] = {net::MakeIp(10, 1, 0, 3)};
  const std::optional<DurableChange> back =
      ControlJournal::DecodeChange(ControlJournal::EncodeChange(c));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->pools, c.pools);
}

TEST(JournalSerializers, PlanRoundTripsStepsAndStamps) {
  ExecPlan plan;
  plan.epoch = 17;
  plan.plan_id = 5;
  plan.fencing_token = 3;
  plan.staggered = true;
  plan.reason = "assignment rollout";
  plan.steps.push_back(
      {ExecStepKind::kInstallRules, net::MakeIp(10, 200, 0, 1), net::MakeIp(10, 1, 0, 1)});
  ExecStep pool_step;
  pool_step.kind = ExecStepKind::kProgramPool;
  pool_step.vip = net::MakeIp(10, 200, 0, 1);
  pool_step.pool = {net::MakeIp(10, 1, 0, 1), net::MakeIp(10, 1, 0, 2)};
  plan.steps.push_back(pool_step);
  ExecStep health;
  health.kind = ExecStepKind::kSetBackendHealth;
  health.instance = net::MakeIp(10, 3, 0, 1);
  health.healthy = false;
  plan.steps.push_back(health);
  plan.steps.push_back({ExecStepKind::kAwaitConvergence});

  const std::string text = ControlJournal::EncodePlan(plan);
  const std::optional<ExecPlan> back = ControlJournal::DecodePlan(text);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(ControlJournal::EncodePlan(*back), text);
  EXPECT_EQ(back->epoch, 17u);
  EXPECT_EQ(back->plan_id, 5u);
  EXPECT_EQ(back->fencing_token, 3u);
  EXPECT_TRUE(back->staggered);
  EXPECT_EQ(back->reason, "assignment rollout");
  ASSERT_EQ(back->steps.size(), 4u);
  EXPECT_EQ(back->steps[1].pool, pool_step.pool);
  EXPECT_FALSE(back->steps[2].healthy);
}

// ---------------------------------------------------------------------------
// Live journal -> restore equivalence.
// ---------------------------------------------------------------------------

class ControlJournalTest : public ::testing::Test {
 protected:
  sim::ShardedSim engine{{.shards = 1}};
  sim::Simulator& simulator = engine.shard(0);
  std::vector<std::unique_ptr<kv::KvServer>> servers;
  std::unique_ptr<kv::ReplicatingClient> client;

  void SetUp() override {
    for (int i = 0; i < 3; ++i) {
      servers.push_back(
          std::make_unique<kv::KvServer>(&simulator, "kv-" + std::to_string(i)));
    }
    std::vector<kv::KvServer*> ptrs;
    for (auto& s : servers) {
      ptrs.push_back(s.get());
    }
    kv::ReplicatingClientConfig cfg;
    cfg.replicas = 2;
    client = std::make_unique<kv::ReplicatingClient>(&simulator, ptrs, cfg);
  }

  // Drives a live ControlState journaling through `journal` with a spread of
  // mutations; returns the state for comparison.
  std::unique_ptr<ControlState> DriveLiveState(ControlJournal& journal) {
    auto state = std::make_unique<ControlState>(&simulator);
    state->SetChangeSink(
        [&journal, s = state.get()](const DurableChange& c) { journal.OnChange(*s, c); });
    state->DefineVip(net::MakeIp(10, 200, 0, 1), 80, {FancyRule()});
    state->DefineVip(net::MakeIp(10, 200, 0, 2), 443, {FancyRule()});
    state->NoteInstance(ChangeKind::kInstanceAdmitted, net::MakeIp(10, 1, 0, 1));
    std::map<net::IpAddr, std::vector<net::IpAddr>> pools;
    pools[net::MakeIp(10, 200, 0, 1)] = {net::MakeIp(10, 1, 0, 1), net::MakeIp(10, 1, 0, 2)};
    pools[net::MakeIp(10, 200, 0, 2)] = {net::MakeIp(10, 1, 0, 2)};
    state->SetAssignments(pools);
    state->UpdateRules(net::MakeIp(10, 200, 0, 1), {FancyRule(), FancyRule()});
    state->NoteInstance(ChangeKind::kInstanceFailed, net::MakeIp(10, 1, 0, 2));
    state->ScrubInstance(net::MakeIp(10, 1, 0, 2));
    state->RemoveVip(net::MakeIp(10, 200, 0, 2));
    simulator.Run();  // Let every journal write land.
    return state;
  }

  RestoredControlPlane RestoreVia(ControlJournal& journal) {
    RestoredControlPlane out;
    bool done = false;
    journal.Restore([&](RestoredControlPlane r) {
      out = std::move(r);
      done = true;
    });
    simulator.Run();
    EXPECT_TRUE(done);
    return out;
  }

  static void ExpectStateEqual(const ControlState& a, const ControlState& b) {
    EXPECT_EQ(a.epoch(), b.epoch());
    EXPECT_EQ(a.assignment(), b.assignment());
    ASSERT_EQ(a.vips().size(), b.vips().size());
    for (const auto& [vip, desired] : a.vips()) {
      const ControlState::VipDesired* other = b.Desired(vip);
      ASSERT_NE(other, nullptr) << net::IpToString(vip);
      EXPECT_EQ(other->port, desired.port);
      ASSERT_EQ(other->rules.size(), desired.rules.size());
      for (std::size_t i = 0; i < desired.rules.size(); ++i) {
        EXPECT_EQ(ControlJournal::EncodeRule(other->rules[i]),
                  ControlJournal::EncodeRule(desired.rules[i]));
      }
    }
  }
};

TEST_F(ControlJournalTest, RestoreRebuildsLiveStateExactly) {
  ControlJournal journal(&simulator, client.get(), {/*snapshot_every=*/4});
  auto live = DriveLiveState(journal);
  EXPECT_GT(journal.stats().snapshots_written, 0u);

  const RestoredControlPlane restored = RestoreVia(journal);
  ASSERT_TRUE(restored.found);
  ControlState rebuilt(&simulator);
  rebuilt.LoadSnapshot(restored.epoch, restored.vips, restored.assignment);
  for (const DurableChange& c : restored.tail) {
    rebuilt.ApplyDurable(c);
  }
  ExpectStateEqual(*live, rebuilt);
}

TEST_F(ControlJournalTest, ChangelogReplayMatchesLiveSuffix) {
  // A cadence that does NOT divide the number of mutations DriveLiveState
  // makes, so the final snapshot leaves a non-empty tail to replay.
  ControlJournal journal(&simulator, client.get(), {/*snapshot_every=*/5});
  auto live = DriveLiveState(journal);

  const RestoredControlPlane restored = RestoreVia(journal);
  ASSERT_TRUE(restored.found);
  ControlState rebuilt(&simulator);
  rebuilt.LoadSnapshot(restored.epoch, restored.vips, restored.assignment);
  for (const DurableChange& c : restored.tail) {
    rebuilt.ApplyDurable(c);
  }
  // Replayed changelog records must equal the live changelog's records for
  // the same epochs — original epoch, timestamp, kind, subject and detail.
  ASSERT_FALSE(rebuilt.changelog().empty());
  std::map<std::uint64_t, std::vector<ChangeRecord>> live_by_epoch;
  for (const ChangeRecord& r : live->changelog()) {
    live_by_epoch[r.epoch].push_back(r);
  }
  std::map<std::uint64_t, std::vector<ChangeRecord>> replay_by_epoch;
  for (const ChangeRecord& r : rebuilt.changelog()) {
    replay_by_epoch[r.epoch].push_back(r);
  }
  for (const auto& [epoch, records] : replay_by_epoch) {
    const auto it = live_by_epoch.find(epoch);
    ASSERT_NE(it, live_by_epoch.end()) << "epoch " << epoch;
    ASSERT_EQ(it->second.size(), records.size()) << "epoch " << epoch;
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(records[i].at, it->second[i].at);
      EXPECT_EQ(records[i].kind, it->second[i].kind);
      EXPECT_EQ(records[i].subject, it->second[i].subject);
      EXPECT_EQ(records[i].detail, it->second[i].detail);
    }
  }
}

TEST_F(ControlJournalTest, TightSnapshotCadenceShortensTheTail) {
  ControlJournal every1(&simulator, client.get(), {/*snapshot_every=*/1});
  DriveLiveState(every1);
  const RestoredControlPlane restored = RestoreVia(every1);
  ASSERT_TRUE(restored.found);
  // A snapshot after every change leaves nothing to replay.
  EXPECT_TRUE(restored.tail.empty());
}

TEST_F(ControlJournalTest, LostLogEntryTruncatesTheTailConsistently) {
  ControlJournal journal(&simulator, client.get(), {/*snapshot_every=*/100});
  auto live = DriveLiveState(journal);
  // Simulate a log write lost with the crashed leader: delete one entry in
  // the middle of the tail. Restore must stop at the gap — a shorter but
  // consistent prefix, never a state with a hole in its history.
  client->Delete("ctl/log/3", [](bool) {});
  simulator.Run();
  const RestoredControlPlane restored = RestoreVia(journal);
  ASSERT_TRUE(restored.found);
  for (const DurableChange& c : restored.tail) {
    EXPECT_LT(c.epoch, 3u);
  }
  EXPECT_LT(restored.epoch + restored.tail.size(), live->epoch());
}

TEST_F(ControlJournalTest, RestoreSurvivesSlowKvReplica) {
  ControlJournal journal(&simulator, client.get(), {/*snapshot_every=*/4});
  auto live = DriveLiveState(journal);
  servers[0]->set_response_delay(sim::Msec(15));  // Sick disk on one replica.
  servers[1]->set_response_delay(sim::Msec(5));
  const sim::Time before = simulator.now();
  const RestoredControlPlane restored = RestoreVia(journal);
  ASSERT_TRUE(restored.found);
  EXPECT_GT(simulator.now(), before);  // The slowness was actually paid.
  ControlState rebuilt(&simulator);
  rebuilt.LoadSnapshot(restored.epoch, restored.vips, restored.assignment);
  for (const DurableChange& c : restored.tail) {
    rebuilt.ApplyDurable(c);
  }
  ExpectStateEqual(*live, rebuilt);
}

TEST_F(ControlJournalTest, OpenPlansRestoreWithAppliedMarkers) {
  ControlJournal journal(&simulator, client.get(), {/*snapshot_every=*/4});
  DriveLiveState(journal);

  ExecPlan plan;
  plan.epoch = 3;
  plan.plan_id = journal.NextPlanId();
  plan.fencing_token = 1;
  plan.reason = "mid-flight rollout";
  plan.steps.push_back(
      {ExecStepKind::kInstallRules, net::MakeIp(10, 200, 0, 1), net::MakeIp(10, 1, 0, 1)});
  plan.steps.push_back(
      {ExecStepKind::kAddPoolMember, net::MakeIp(10, 200, 0, 1), net::MakeIp(10, 1, 0, 1)});
  plan.steps.push_back({ExecStepKind::kAwaitConvergence});
  plan.steps.push_back(
      {ExecStepKind::kRemovePoolMember, net::MakeIp(10, 200, 0, 1), net::MakeIp(10, 1, 0, 2)});
  journal.PutPlan(plan);
  journal.PutApplied(plan, plan.steps[0]);  // Crashed after the make phase...
  journal.PutApplied(plan, plan.steps[1]);  // ...with the break phase parked.

  ExecPlan finished = plan;
  finished.plan_id = journal.NextPlanId();
  journal.PutPlan(finished);
  journal.PutDone(finished);  // Completed plans must NOT be restored.
  simulator.Run();

  const RestoredControlPlane restored = RestoreVia(journal);
  ASSERT_TRUE(restored.found);
  EXPECT_EQ(restored.plan_seq, 2u);
  ASSERT_EQ(restored.open_plans.size(), 1u);
  const RestoredPlan& open = restored.open_plans[0];
  EXPECT_EQ(open.plan.plan_id, plan.plan_id);
  EXPECT_EQ(open.plan.fencing_token, 1u);
  ASSERT_EQ(open.plan.steps.size(), 4u);
  EXPECT_EQ(open.applied.size(), 2u);
  EXPECT_TRUE(open.applied.contains(ControlJournal::StepKey(plan.steps[0])));
  EXPECT_TRUE(open.applied.contains(ControlJournal::StepKey(plan.steps[1])));
  EXPECT_FALSE(open.applied.contains(ControlJournal::StepKey(plan.steps[3])));
}

TEST_F(ControlJournalTest, EmptyStoreRestoresCold) {
  ControlJournal journal(&simulator, client.get(), {});
  const RestoredControlPlane restored = RestoreVia(journal);
  EXPECT_FALSE(restored.found);
  EXPECT_TRUE(restored.open_plans.empty());
}

}  // namespace
}  // namespace yoda
