// StoreSession tests: the ACK-point writes are counted and timed into the
// stage histogram, write-behind refreshes coalesce instead of stacking
// overlapping writes, and teardown drops a queued refresh so it can never
// resurrect a deleted key.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "src/core/store_session.h"
#include "src/kv/kv_server.h"
#include "src/kv/replicating_client.h"
#include "src/sim/sharded_sim.h"

namespace yoda {
namespace {

class StoreSessionTest : public ::testing::Test {
 protected:
  sim::ShardedSim engine{{.shards = 1}};
  sim::Simulator& simulator = engine.shard(0);
  std::vector<std::unique_ptr<kv::KvServer>> servers;
  std::unique_ptr<kv::ReplicatingClient> client;
  std::unique_ptr<TcpStore> store;
  sim::Histogram store_wait_ms;
  sim::Histogram journal_flush_depth;
  std::unique_ptr<StoreSession> session;

  void SetUp() override {
    for (int i = 0; i < 4; ++i) {
      servers.push_back(std::make_unique<kv::KvServer>(&simulator, "kv-" + std::to_string(i)));
    }
    std::vector<kv::KvServer*> ptrs;
    for (auto& s : servers) {
      ptrs.push_back(s.get());
    }
    kv::ReplicatingClientConfig cfg;
    cfg.replicas = 2;
    client = std::make_unique<kv::ReplicatingClient>(&simulator, ptrs, cfg);
    store = std::make_unique<TcpStore>(client.get());
    session = std::make_unique<StoreSession>(store.get(), &simulator, store_wait_ms,
                                             journal_flush_depth);
  }

  FlowState Tunneling() {
    FlowState s;
    s.stage = FlowStage::kTunneling;
    s.client_ip = net::MakeIp(9, 9, 9, 9);
    s.client_port = 40'000;
    s.vip = net::MakeIp(10, 200, 0, 1);
    s.vip_port = 80;
    s.client_isn = 100;
    s.lb_isn = 200;
    s.backend_ip = net::MakeIp(10, 3, 0, 2);
    s.backend_port = 80;
    s.server_isn = 300;
    s.seq_delta_s2c = s.lb_isn - s.server_isn;
    return s;
  }

  std::optional<FlowState> LookupNow(const FlowState& s) {
    std::optional<FlowState> got;
    session->LookupByClient(s.vip, s.vip_port, s.client_ip, s.client_port,
                            [&got](std::optional<FlowState> v) { got = std::move(v); });
    simulator.Run();
    return got;
  }
};

TEST_F(StoreSessionTest, AckPointWritesAreCountedAndTimed) {
  FlowState a = Tunneling();
  a.stage = FlowStage::kConnection;
  bool a_done = false;
  session->WriteSynState(a, [&a_done](bool ok) { a_done = ok; });
  simulator.Run();
  ASSERT_TRUE(a_done);
  EXPECT_EQ(session->stats().ack_point_writes, 1u);
  EXPECT_EQ(store_wait_ms.count(), 1u);

  FlowState b = Tunneling();
  bool b_done = false;
  session->WriteEstablishedState(b, [&b_done](bool ok) { b_done = ok; });
  simulator.Run();
  ASSERT_TRUE(b_done);
  EXPECT_EQ(session->stats().ack_point_writes, 2u);
  EXPECT_EQ(store_wait_ms.count(), 2u);
  // The blocking wait crosses the simulated kv round trip, so it is > 0 and
  // lands in the histogram in milliseconds.
  EXPECT_GT(store_wait_ms.Min(), 0.0);

  std::optional<FlowState> got = LookupNow(b);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, b);
}

TEST_F(StoreSessionTest, RefreshesCoalesceWhileOneIsInFlight) {
  FlowState v1 = Tunneling();
  session->Refresh(v1);  // Issues immediately.
  FlowState v2 = Tunneling();
  v2.backend_ip = net::MakeIp(10, 3, 0, 3);
  session->Refresh(v2);  // Queues behind the in-flight write.
  FlowState v3 = Tunneling();
  v3.backend_ip = net::MakeIp(10, 3, 0, 4);
  session->Refresh(v3);  // Replaces the queued v2 — never hits the wire.

  EXPECT_EQ(session->stats().refreshes, 3u);
  EXPECT_EQ(session->stats().refreshes_coalesced, 2u);
  EXPECT_EQ(session->pending_refreshes(), 1u);

  simulator.Run();
  EXPECT_EQ(session->pending_refreshes(), 0u);
  // The store holds the newest state: v1 landed, then queued v3 (not v2).
  std::optional<FlowState> got = LookupNow(v1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->backend_ip, v3.backend_ip);
  // Exactly two tunneling writes went out for the three refreshes.
  EXPECT_EQ(store->stats().tunneling_writes, 2u);

  // Refreshes never gate protocol progress, so they are not ACK-point writes.
  EXPECT_EQ(session->stats().ack_point_writes, 0u);
  EXPECT_EQ(store_wait_ms.count(), 0u);
}

TEST_F(StoreSessionTest, RemoveDropsQueuedRefresh) {
  FlowState v1 = Tunneling();
  session->Refresh(v1);  // In flight.
  FlowState v2 = Tunneling();
  v2.backend_ip = net::MakeIp(10, 3, 0, 3);
  session->Refresh(v2);  // Queued.
  session->Remove(v1);   // Must cancel the queued v2 before deleting.
  EXPECT_EQ(session->stats().removes, 1u);

  simulator.Run();
  // The queued v2 never reached the store: only v1's in-flight write issued.
  EXPECT_EQ(store->stats().tunneling_writes, 1u);
  // And the deleted key stays deleted — nothing resurrected it.
  std::optional<FlowState> got = LookupNow(v1);
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(session->pending_refreshes(), 0u);
}

TEST_F(StoreSessionTest, SequentialRefreshesDoNotCoalesce) {
  FlowState v1 = Tunneling();
  session->Refresh(v1);
  simulator.Run();
  FlowState v2 = Tunneling();
  v2.backend_ip = net::MakeIp(10, 3, 0, 3);
  session->Refresh(v2);
  simulator.Run();
  EXPECT_EQ(session->stats().refreshes, 2u);
  EXPECT_EQ(session->stats().refreshes_coalesced, 0u);
  std::optional<FlowState> got = LookupNow(v1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->backend_ip, v2.backend_ip);
}

TEST_F(StoreSessionTest, ServerSideLookupResolvesTunnelingState) {
  FlowState s = Tunneling();
  bool done = false;
  session->WriteEstablishedState(s, [&done](bool ok) { done = ok; });
  simulator.Run();
  ASSERT_TRUE(done);
  std::optional<FlowState> got;
  session->LookupByServer(s.backend_ip, s.backend_port, s.vip, s.client_port,
                          [&got](std::optional<FlowState> v) { got = std::move(v); });
  simulator.Run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, s);
}

}  // namespace
}  // namespace yoda
