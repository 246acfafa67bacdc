// TCPStore substrate tests: consistent hashing, the memcached-style server
// and the replicating client library.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/kv/hash_ring.h"
#include "src/kv/kv_server.h"
#include "src/kv/replicating_client.h"
#include "src/sim/sharded_sim.h"

namespace kv {
namespace {

TEST(Hashing, Deterministic) {
  EXPECT_EQ(HashBytes("abc"), HashBytes("abc"));
  EXPECT_NE(HashBytes("abc"), HashBytes("abd"));
  EXPECT_EQ(Mix64(42), Mix64(42));
}

TEST(HashRing, LookupConsistentAcrossCalls) {
  HashRing ring;
  ring.AddServer("s1");
  ring.AddServer("s2");
  ring.AddServer("s3");
  for (int i = 0; i < 20; ++i) {
    const std::string key = "k" + std::to_string(i);
    EXPECT_EQ(ring.Lookup(key), ring.Lookup(key));
  }
}

TEST(HashRing, KeysSpreadAcrossServers) {
  HashRing ring;
  for (int i = 0; i < 10; ++i) {
    ring.AddServer("server-" + std::to_string(i));
  }
  std::map<std::string, int> counts;
  const int keys = 10'000;
  for (int i = 0; i < keys; ++i) {
    counts[ring.Lookup("key-" + std::to_string(i))] += 1;
  }
  EXPECT_EQ(counts.size(), 10u);
  for (const auto& [server, n] : counts) {
    EXPECT_GT(n, keys / 10 / 3) << server;  // No server starved badly.
    EXPECT_LT(n, keys / 10 * 3) << server;  // No server hogging.
  }
}

TEST(HashRing, RemovalOnlyMovesRemovedServersKeys) {
  HashRing ring;
  for (int i = 0; i < 8; ++i) {
    ring.AddServer("s" + std::to_string(i));
  }
  std::map<std::string, std::string> before;
  for (int i = 0; i < 2000; ++i) {
    const std::string key = "key-" + std::to_string(i);
    before[key] = ring.Lookup(key);
  }
  ring.RemoveServer("s3");
  int moved_not_from_s3 = 0;
  for (const auto& [key, owner] : before) {
    const std::string now = ring.Lookup(key);
    if (owner != "s3") {
      if (now != owner) {
        ++moved_not_from_s3;
      }
    } else {
      EXPECT_NE(now, "s3");
    }
  }
  EXPECT_EQ(moved_not_from_s3, 0);  // Consistent hashing property.
}

TEST(HashRing, ReplicasAreDistinct) {
  HashRing ring;
  for (int i = 0; i < 6; ++i) {
    ring.AddServer("s" + std::to_string(i));
  }
  for (int i = 0; i < 500; ++i) {
    auto reps = ring.Replicas("k" + std::to_string(i), 3);
    ASSERT_EQ(reps.size(), 3u);
    std::set<std::string> uniq(reps.begin(), reps.end());
    EXPECT_EQ(uniq.size(), 3u);
  }
}

TEST(HashRing, ReplicasCappedByServerCount) {
  HashRing ring;
  ring.AddServer("only");
  auto reps = ring.Replicas("k", 3);
  ASSERT_EQ(reps.size(), 1u);
  EXPECT_EQ(reps[0], "only");
}

TEST(HashRing, EmptyRingReturnsEmpty) {
  HashRing ring;
  EXPECT_EQ(ring.Lookup("k"), "");
  EXPECT_TRUE(ring.Replicas("k", 2).empty());
}

TEST(HashRing, DuplicateAddIsIdempotent) {
  HashRing ring;
  ring.AddServer("s");
  ring.AddServer("s");
  EXPECT_EQ(ring.server_count(), 1u);
  ring.RemoveServer("s");
  EXPECT_EQ(ring.server_count(), 0u);
  ring.RemoveServer("s");  // No crash.
}

// Property: for any fleet size, K=2 replica sets stay balanced and distinct.
class RingBalanceSweep : public ::testing::TestWithParam<int> {};

TEST_P(RingBalanceSweep, ReplicaLoadStaysBalanced) {
  const int servers = GetParam();
  HashRing ring;
  for (int i = 0; i < servers; ++i) {
    ring.AddServer("kv-" + std::to_string(i));
  }
  std::map<std::string, int> load;
  const int keys = 6'000;
  for (int i = 0; i < keys; ++i) {
    for (const std::string& r : ring.Replicas("flow:" + std::to_string(i), 2)) {
      load[r] += 1;
    }
  }
  const double expected = 2.0 * keys / servers;
  for (const auto& [server, n] : load) {
    EXPECT_GT(n, expected * 0.5) << server;
    EXPECT_LT(n, expected * 1.6) << server;
  }
}

INSTANTIATE_TEST_SUITE_P(FleetSizes, RingBalanceSweep, ::testing::Values(2, 3, 5, 8, 16, 32));

class KvServerTest : public ::testing::Test {
 protected:
  sim::Simulator simulator;
  KvServer server{&simulator, "kv-0"};
};

TEST_F(KvServerTest, SetThenGet) {
  bool set_ok = false;
  std::optional<std::string> got;
  server.Set("k", "v", [&set_ok](bool ok) { set_ok = ok; });
  simulator.Run();
  EXPECT_TRUE(set_ok);
  server.Get("k", [&got](std::optional<std::string> v) { got = std::move(v); });
  simulator.Run();
  EXPECT_EQ(got, "v");
  EXPECT_EQ(server.stats().hits, 1u);
}

TEST_F(KvServerTest, GetMissingIsMiss) {
  std::optional<std::string> got = "sentinel";
  server.Get("nope", [&got](std::optional<std::string> v) { got = std::move(v); });
  simulator.Run();
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(server.stats().misses, 1u);
}

TEST_F(KvServerTest, DeleteRemoves) {
  server.Set("k", "v", [](bool) {});
  simulator.Run();
  bool deleted = false;
  server.Delete("k", [&deleted](bool ok) { deleted = ok; });
  simulator.Run();
  EXPECT_TRUE(deleted);
  EXPECT_EQ(server.item_count(), 0u);
  bool deleted_again = true;
  server.Delete("k", [&deleted_again](bool ok) { deleted_again = ok; });
  simulator.Run();
  EXPECT_FALSE(deleted_again);
}

TEST_F(KvServerTest, OverwriteUpdatesValue) {
  server.Set("k", "v1", [](bool) {});
  server.Set("k", "v2", [](bool) {});
  simulator.Run();
  std::optional<std::string> got;
  server.Get("k", [&got](std::optional<std::string> v) { got = std::move(v); });
  simulator.Run();
  EXPECT_EQ(got, "v2");
  EXPECT_EQ(server.item_count(), 1u);
}

TEST(KvServerLru, EvictsLeastRecentlyUsed) {
  sim::Simulator simulator;
  KvServerConfig cfg;
  cfg.max_items = 3;
  KvServer server(&simulator, "kv", cfg);
  server.Set("a", "1", [](bool) {});
  server.Set("b", "2", [](bool) {});
  server.Set("c", "3", [](bool) {});
  simulator.Run();
  // Touch "a" so "b" becomes the LRU victim.
  server.Get("a", [](std::optional<std::string>) {});
  simulator.Run();
  server.Set("d", "4", [](bool) {});
  simulator.Run();
  EXPECT_EQ(server.stats().evictions, 1u);
  std::optional<std::string> b = std::nullopt;
  bool b_answered = false;
  server.Get("b", [&](std::optional<std::string> v) {
    b = std::move(v);
    b_answered = true;
  });
  simulator.Run();
  EXPECT_TRUE(b_answered);
  EXPECT_FALSE(b.has_value());
}

TEST_F(KvServerTest, FailClearsContentsAndDropsOps) {
  server.Set("k", "v", [](bool) {});
  simulator.Run();
  server.Fail();
  EXPECT_EQ(server.item_count(), 0u);
  bool answered = false;
  server.Get("k", [&answered](std::optional<std::string>) { answered = true; });
  simulator.Run();
  EXPECT_FALSE(answered);
  EXPECT_EQ(server.stats().dropped_while_down, 1u);
  server.Recover();
  server.Set("k2", "v2", [](bool) {});
  simulator.Run();
  EXPECT_EQ(server.item_count(), 1u);
}

TEST_F(KvServerTest, QueueingDelaysOpsUnderLoad) {
  // 1000 ops submitted at t=0 with ~11 us service: completion spreads out.
  int completed = 0;
  for (int i = 0; i < 1000; ++i) {
    server.Set("k" + std::to_string(i), "v", [&completed](bool) { ++completed; });
  }
  simulator.RunUntil(sim::Msec(1));
  EXPECT_LT(completed, 1000);
  simulator.Run();
  EXPECT_EQ(completed, 1000);
  EXPECT_GT(server.QueueDelayNow(), -1);  // API smoke.
}

TEST_F(KvServerTest, CpuUtilizationTracksLoad) {
  server.ResetCpuWindow(0);
  for (int i = 0; i < 10'000; ++i) {
    server.Set("k" + std::to_string(i), "v", [](bool) {});
  }
  simulator.Run();
  // 10K ops * 11 us = 110 ms busy; over the elapsed window it must be > 0.
  EXPECT_GT(server.CpuUtilization(simulator.now()), 0.5);
}

class ReplicatingClientTest : public ::testing::Test {
 protected:
  sim::ShardedSim engine{{.shards = 1}};
  sim::Simulator& simulator = engine.shard(0);
  std::vector<std::unique_ptr<KvServer>> servers;
  std::unique_ptr<ReplicatingClient> client;

  void SetUp() override {
    for (int i = 0; i < 5; ++i) {
      servers.push_back(std::make_unique<KvServer>(&simulator, "kv-" + std::to_string(i)));
    }
    std::vector<KvServer*> ptrs;
    for (auto& s : servers) {
      ptrs.push_back(s.get());
    }
    ReplicatingClientConfig cfg;
    cfg.replicas = 2;
    client = std::make_unique<ReplicatingClient>(&simulator, ptrs, cfg);
  }
};

TEST_F(ReplicatingClientTest, SetWritesToTwoServers) {
  bool ok = false;
  client->Set("flow-1", "state", [&ok](bool v) { ok = v; });
  simulator.Run();
  EXPECT_TRUE(ok);
  int copies = 0;
  for (auto& s : servers) {
    copies += static_cast<int>(s->item_count());
  }
  EXPECT_EQ(copies, 2);
}

TEST_F(ReplicatingClientTest, GetAfterSet) {
  client->Set("k", "v", [](bool) {});
  simulator.Run();
  std::optional<std::string> got;
  client->Get("k", [&got](std::optional<std::string> v) { got = std::move(v); });
  simulator.Run();
  EXPECT_EQ(got, "v");
}

TEST_F(ReplicatingClientTest, GetMissAfterAllReplicasAnswer) {
  std::optional<std::string> got = "sentinel";
  bool answered = false;
  client->Get("missing", [&](std::optional<std::string> v) {
    got = std::move(v);
    answered = true;
  });
  simulator.Run();
  EXPECT_TRUE(answered);
  EXPECT_FALSE(got.has_value());
}

TEST_F(ReplicatingClientTest, SurvivesOneReplicaFailure) {
  client->Set("flow", "precious", [](bool) {});
  simulator.Run();
  // Kill exactly the replicas' first server.
  auto replicas = client->ReplicasFor("flow");
  ASSERT_EQ(replicas.size(), 2u);
  replicas[0]->Fail();
  std::optional<std::string> got;
  client->Get("flow", [&got](std::optional<std::string> v) { got = std::move(v); });
  simulator.Run();
  EXPECT_EQ(got, "precious");  // Second replica still has it.
}

TEST_F(ReplicatingClientTest, LosesDataWhenAllReplicasFail) {
  client->Set("flow", "gone", [](bool) {});
  simulator.Run();
  for (KvServer* s : client->ReplicasFor("flow")) {
    s->Fail();
  }
  std::optional<std::string> got = "sentinel";
  bool answered = false;
  client->Get("flow", [&](std::optional<std::string> v) {
    got = std::move(v);
    answered = true;
  });
  simulator.Run();
  EXPECT_TRUE(answered);  // Timeout fired.
  EXPECT_FALSE(got.has_value());
}

TEST_F(ReplicatingClientTest, DeleteRemovesAllReplicas) {
  client->Set("k", "v", [](bool) {});
  simulator.Run();
  bool ok = false;
  client->Delete("k", [&ok](bool v) { ok = v; });
  simulator.Run();
  EXPECT_TRUE(ok);
  for (auto& s : servers) {
    EXPECT_EQ(s->item_count(), 0u);
  }
}

TEST_F(ReplicatingClientTest, LatencyHistogramsPopulated) {
  for (int i = 0; i < 100; ++i) {
    client->Set("k" + std::to_string(i), "v", [](bool) {});
  }
  simulator.Run();
  EXPECT_EQ(client->stats().set_latency_us.count(), 100u);
  // Two network hops (~120 us each) plus ~11 us service.
  EXPECT_GT(client->stats().set_latency_us.Mean(), 200.0);
  EXPECT_LT(client->stats().set_latency_us.Mean(), 2'000.0);
}

TEST_F(ReplicatingClientTest, ReplicaChoiceIsStable) {
  auto a = client->ReplicasFor("some-key");
  auto b = client->ReplicasFor("some-key");
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i]->id(), b[i]->id());
  }
}

// ---------------------------------------------------------------------------
// Degraded-mode hardening: slow replicas, retries, hedging, read repair.
// ---------------------------------------------------------------------------

TEST_F(KvServerTest, ResponseDelayDefersAnswerNotStoreState) {
  KvServer slow(&simulator, "slow");
  slow.set_response_delay(sim::Msec(10));
  slow.Set("k", "v", [](bool) {});
  simulator.RunUntil(sim::Msec(1));
  EXPECT_EQ(slow.item_count(), 1u);  // Mutation landed at op completion...
  sim::Time acked_at = -1;
  bool got_hit = false;
  slow.Get("k", [&](std::optional<std::string> v) { got_hit = v.has_value(); });
  slow.Set("k2", "v2", [&](bool) { acked_at = simulator.now(); });
  simulator.Run();
  EXPECT_TRUE(got_hit);
  EXPECT_GE(acked_at, sim::Msec(11));  // ...but the answer came back late.
}

class DegradedModeTest : public ReplicatingClientTest {
 protected:
  // Fresh client over the fixture's servers with hardened config.
  std::unique_ptr<ReplicatingClient> Make(ReplicatingClientConfig cfg) {
    std::vector<KvServer*> ptrs;
    for (auto& s : servers) {
      ptrs.push_back(s.get());
    }
    cfg.replicas = 2;
    return std::make_unique<ReplicatingClient>(&simulator, ptrs, cfg);
  }

  // Runs one Get and returns (value, completion time).
  std::pair<std::optional<std::string>, sim::Time> GetAndRun(ReplicatingClient& c,
                                                             const std::string& key) {
    std::optional<std::string> got;
    sim::Time done_at = -1;
    const sim::Time start = simulator.now();
    c.Get(key, [&](std::optional<std::string> v) {
      got = std::move(v);
      done_at = simulator.now();
    });
    simulator.Run();
    return {got, done_at - start};
  }
};

TEST_F(DegradedModeTest, AllReplicasDownSetGetDeleteAllResolve) {
  client->Set("k", "v", [](bool) {});
  simulator.Run();
  for (auto& s : servers) {
    s->Fail();
  }
  bool set_done = false, set_ok = true;
  client->Set("k", "v2", [&](bool ok) {
    set_done = true;
    set_ok = ok;
  });
  simulator.Run();
  EXPECT_TRUE(set_done);  // op_timeout resolved it; no hang.
  EXPECT_FALSE(set_ok);

  bool get_done = false;
  std::optional<std::string> got = "sentinel";
  client->Get("k", [&](std::optional<std::string> v) {
    get_done = true;
    got = std::move(v);
  });
  simulator.Run();
  EXPECT_TRUE(get_done);
  EXPECT_FALSE(got.has_value());

  bool del_done = false, del_ok = true;
  client->Delete("k", [&](bool ok) {
    del_done = true;
    del_ok = ok;
  });
  simulator.Run();
  EXPECT_TRUE(del_done);
  EXPECT_FALSE(del_ok);
  // Every op left its full replica set unanswered.
  EXPECT_EQ(client->stats().replica_timeouts, 6u);
}

TEST_F(DegradedModeTest, RetriesAreBoundedAndCounted) {
  ReplicatingClientConfig cfg;
  cfg.max_retries = 2;
  cfg.retry_backoff = sim::Msec(2);
  auto hardened = Make(cfg);
  for (auto& s : servers) {
    s->Fail();
  }
  bool ok = true;
  hardened->Set("k", "v", [&ok](bool v) { ok = v; });
  simulator.Run();
  EXPECT_FALSE(ok);
  EXPECT_EQ(hardened->stats().retries, 2u);  // Initial + 2 retries, then give up.
}

TEST_F(DegradedModeTest, RetryRecoversFromTransientOutage) {
  ReplicatingClientConfig cfg;
  cfg.max_retries = 3;
  cfg.retry_backoff = sim::Msec(5);
  auto hardened = Make(cfg);
  for (KvServer* s : hardened->ReplicasFor("flow")) {
    s->Fail();
  }
  // Replicas come back while the first attempt is still timing out.
  simulator.At(sim::Msec(30), [this]() {
    for (auto& s : servers) {
      s->Recover();
    }
  });
  bool ok = false;
  hardened->Set("flow", "state", [&ok](bool v) { ok = v; });
  simulator.Run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(hardened->stats().retries, 1u);
  EXPECT_EQ(hardened->ReplicasFor("flow")[0]->item_count(), 1u);
}

TEST_F(DegradedModeTest, UnanimousMissIsDefinitiveAndNotRetried) {
  ReplicatingClientConfig cfg;
  cfg.max_retries = 3;
  auto hardened = Make(cfg);
  auto [got, latency] = GetAndRun(*hardened, "never-written");
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(hardened->stats().retries, 0u);  // Miss != indefinite.
  EXPECT_LT(latency, sim::Msec(5));          // Answered, not timed out.
}

TEST_F(DegradedModeTest, HedgedReadCutsDeadReplicaLatencyVsTimeoutBaseline) {
  client->Set("flow", "precious", [](bool) {});
  simulator.Run();
  auto replicas = client->ReplicasFor("flow");
  replicas[0]->Fail();  // First-choice replica dead: the worst case for kSingle.

  ReplicatingClientConfig single;
  single.read_mode = ReadMode::kSingle;
  auto baseline = Make(single);
  auto [got_single, t_single] = GetAndRun(*baseline, "flow");
  EXPECT_EQ(got_single, "precious");
  // Timeout-only baseline burned the full op_timeout on the dead replica.
  EXPECT_GE(t_single, baseline->config().op_timeout);

  ReplicatingClientConfig hedged;
  hedged.read_mode = ReadMode::kHedged;
  hedged.hedge_delay = sim::Msec(5);
  auto fast = Make(hedged);
  auto [got_hedged, t_hedged] = GetAndRun(*fast, "flow");
  EXPECT_EQ(got_hedged, "precious");
  EXPECT_LT(t_hedged, sim::Msec(10));  // hedge_delay + round trip.
  EXPECT_LT(t_hedged * 4, t_single);
  EXPECT_EQ(fast->stats().hedged_gets, 1u);
  EXPECT_EQ(fast->stats().hedge_wins, 1u);
}

TEST_F(DegradedModeTest, HedgeNotLaunchedWhenPrimaryAnswersInTime) {
  client->Set("flow", "v", [](bool) {});
  simulator.Run();
  ReplicatingClientConfig hedged;
  hedged.read_mode = ReadMode::kHedged;
  hedged.hedge_delay = sim::Msec(5);
  auto fast = Make(hedged);
  auto [got, latency] = GetAndRun(*fast, "flow");
  EXPECT_EQ(got, "v");
  EXPECT_EQ(fast->stats().hedged_gets, 0u);  // Primary answered within 5 ms.
  EXPECT_EQ(fast->stats().hedge_wins, 0u);
}

TEST_F(DegradedModeTest, ReplicaTimeoutAttributedEvenWhenOpFinishesEarly) {
  client->Set("flow", "v", [](bool) {});
  simulator.Run();
  auto replicas = client->ReplicasFor("flow");
  // Slower than op_timeout: this replica answers, but only after the deadline.
  replicas[0]->set_response_delay(sim::Msec(80));

  auto [got, latency] = GetAndRun(*client, "flow");
  EXPECT_EQ(got, "v");                   // Fanout: the healthy replica won...
  EXPECT_LT(latency, sim::Msec(5));      // ...immediately.
  simulator.Run();
  EXPECT_EQ(client->stats().replica_timeouts, 1u);  // Slow one still attributed.

  // A replica slower than the fast one but inside op_timeout is NOT counted.
  replicas[0]->set_response_delay(sim::Msec(10));
  auto [got2, latency2] = GetAndRun(*client, "flow");
  EXPECT_EQ(got2, "v");
  simulator.Run();
  EXPECT_EQ(client->stats().replica_timeouts, 1u);
}

TEST_F(DegradedModeTest, ReadRepairHealsColdRestartedReplica) {
  ReplicatingClientConfig cfg;
  cfg.read_repair = true;
  auto healing = Make(cfg);
  healing->Set("flow", "precious", [](bool) {});
  simulator.Run();
  auto replicas = healing->ReplicasFor("flow");
  replicas[0]->Fail();     // Cold restart: contents gone...
  replicas[0]->Recover();  // ...but the server is back and answering.
  EXPECT_EQ(replicas[0]->item_count(), 0u);

  auto [got, latency] = GetAndRun(*healing, "flow");
  EXPECT_EQ(got, "precious");
  simulator.Run();  // Let the repair write land.
  EXPECT_EQ(healing->stats().read_repairs, 1u);
  EXPECT_EQ(replicas[0]->item_count(), 1u);  // Healed.

  // Re-read now hits on the healed replica too; no further repairs.
  auto [got2, latency2] = GetAndRun(*healing, "flow");
  EXPECT_EQ(got2, "precious");
  EXPECT_EQ(healing->stats().read_repairs, 1u);
}

// ---------------------------------------------------------------------------
// Compare-and-swap (the leader-lease substrate).
// ---------------------------------------------------------------------------

TEST_F(KvServerTest, CasCreatesOnlyWhenAbsent) {
  bool first = false;
  bool second = true;
  server.Cas("lease", std::nullopt, "holder=a", [&first](bool ok) { first = ok; });
  server.Cas("lease", std::nullopt, "holder=b", [&second](bool ok) { second = ok; });
  simulator.Run();
  EXPECT_TRUE(first);
  EXPECT_FALSE(second);  // Key exists now; create-if-absent must fail.
  std::optional<std::string> got;
  server.Get("lease", [&got](std::optional<std::string> v) { got = std::move(v); });
  simulator.Run();
  EXPECT_EQ(got, "holder=a");
}

TEST_F(KvServerTest, CasSwapsOnExactMatchOnly) {
  server.Set("lease", "holder=a", [](bool) {});
  simulator.Run();
  bool stale = true;
  bool fresh = false;
  server.Cas("lease", "holder=zzz", "holder=b", [&stale](bool ok) { stale = ok; });
  server.Cas("lease", "holder=a", "holder=c", [&fresh](bool ok) { fresh = ok; });
  simulator.Run();
  EXPECT_FALSE(stale);
  EXPECT_TRUE(fresh);
  std::optional<std::string> got;
  server.Get("lease", [&got](std::optional<std::string> v) { got = std::move(v); });
  simulator.Run();
  EXPECT_EQ(got, "holder=c");
}

TEST_F(ReplicatingClientTest, CasContendersNeverBothWin) {
  // Two controllers race to create the same lease key. The win condition is
  // a strict majority of the CONFIGURED replica count (2-of-2 here), so at
  // most one contender can win — both losing is allowed, split wins are not.
  bool a_won = false;
  bool b_won = false;
  client->Cas("ctl/lease", std::nullopt, "holder=a", [&a_won](bool ok) { a_won = ok; });
  client->Cas("ctl/lease", std::nullopt, "holder=b", [&b_won](bool ok) { b_won = ok; });
  simulator.Run();
  EXPECT_FALSE(a_won && b_won);
  EXPECT_TRUE(a_won || b_won);  // Uncontested replicas: someone must win.
  // Post-win repair converged every replica on the winner's value.
  const std::string winner = a_won ? "holder=a" : "holder=b";
  std::optional<std::string> got;
  client->Get("ctl/lease", [&got](std::optional<std::string> v) { got = std::move(v); });
  simulator.Run();
  EXPECT_EQ(got, winner);
  for (KvServer* s : client->ReplicasFor("ctl/lease")) {
    std::optional<std::string> copy;
    s->Get("ctl/lease", [&copy](std::optional<std::string> v) { copy = std::move(v); });
    simulator.Run();
    EXPECT_EQ(copy, winner);
  }
}

TEST_F(ReplicatingClientTest, CasFailsWithoutMajority) {
  // With one of the two replicas down, a 2-of-2 majority is unreachable: the
  // CAS must fail (no lease handed out on a split ring) even though the
  // surviving replica accepted the write.
  client->ReplicasFor("ctl/lease")[1]->Fail();
  bool won = true;
  client->Cas("ctl/lease", std::nullopt, "holder=a", [&won](bool ok) { won = ok; });
  simulator.Run();
  EXPECT_FALSE(won);
}

// ---------------------------------------------------------------------------
// Client and replicas on different shards of one engine.
// ---------------------------------------------------------------------------

// Latency, outcome and answering shard of each op in a Set -> Get -> Cas
// chain issued at 1 ms by a client on shard 0, with every replica on the
// engine's last shard.
struct ChainResult {
  sim::Duration set_latency = -1, get_latency = -1, cas_latency = -1;
  std::vector<int> answer_shards;
  bool set_ok = false, cas_ok = false;
  std::optional<std::string> got;
};

ChainResult RunChain(int shards, int workers) {
  sim::ShardedSim engine({.shards = shards, .workers = workers});
  sim::Simulator& home = engine.shard(0);
  std::vector<std::unique_ptr<KvServer>> servers;
  std::vector<KvServer*> ptrs;
  for (int i = 0; i < 3; ++i) {
    servers.push_back(
        std::make_unique<KvServer>(&engine.shard(shards - 1), "kv-" + std::to_string(i)));
    ptrs.push_back(servers.back().get());
  }
  ReplicatingClientConfig cfg;
  cfg.replicas = 2;
  ReplicatingClient client(&home, ptrs, cfg);
  ChainResult r;
  home.At(sim::Msec(1), [&]() {
    const sim::Time t0 = home.now();
    client.Set("flow", "state", [&, t0](bool ok) {
      r.set_ok = ok;
      r.set_latency = home.now() - t0;
      r.answer_shards.push_back(sim::ShardedSim::current_shard());
      const sim::Time t1 = home.now();
      client.Get("flow", [&, t1](std::optional<std::string> v) {
        r.got = std::move(v);
        r.get_latency = home.now() - t1;
        r.answer_shards.push_back(sim::ShardedSim::current_shard());
        const sim::Time t2 = home.now();
        client.Cas("flow", "state", "state2", [&, t2](bool won) {
          r.cas_ok = won;
          r.cas_latency = home.now() - t2;
          r.answer_shards.push_back(sim::ShardedSim::current_shard());
        });
      });
    });
  });
  engine.Run();
  return r;
}

TEST(ReplicatingClientTwoShards, OpsCompleteOnClientShardWithOneShardLatencies) {
  const ChainResult two = RunChain(/*shards=*/2, /*workers=*/2);
  const ChainResult one = RunChain(/*shards=*/1, /*workers=*/1);
  EXPECT_TRUE(two.set_ok);
  EXPECT_EQ(two.got, "state");
  EXPECT_TRUE(two.cas_ok);
  EXPECT_EQ(two.answer_shards, (std::vector<int>{0, 0, 0}));
  // Two network delays plus service time each, the same on one shard.
  EXPECT_GE(two.set_latency, 2 * ReplicatingClientConfig{}.network_delay);
  EXPECT_EQ(two.set_latency, one.set_latency);
  EXPECT_EQ(two.get_latency, one.get_latency);
  EXPECT_EQ(two.cas_latency, one.cas_latency);
}

}  // namespace
}  // namespace kv
