// TcpStore facade tests: storage-a / storage-b semantics, reverse lookup,
// removal and persistence across memcached failures.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/core/tcp_store.h"
#include "src/kv/kv_server.h"
#include "src/kv/replicating_client.h"
#include "src/sim/sharded_sim.h"

namespace yoda {
namespace {

class TcpStoreTest : public ::testing::Test {
 protected:
  sim::ShardedSim engine{{.shards = 1}};
  sim::Simulator& simulator = engine.shard(0);
  std::vector<std::unique_ptr<kv::KvServer>> servers;
  std::unique_ptr<kv::ReplicatingClient> client;
  std::unique_ptr<TcpStore> store;

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
};

TEST_F(TcpStoreTest, ConnectionStateRoundTrip) {
  FlowState s = Tunneling();
  s.stage = FlowStage::kConnection;
  bool stored = false;
  store->StoreConnectionState(s, [&stored](bool ok) { stored = ok; });
  simulator.Run();
  ASSERT_TRUE(stored);
  std::optional<FlowState> got;
  store->LookupByClient(s.vip, s.vip_port, s.client_ip, s.client_port,
                        [&got](std::optional<FlowState> v) { got = std::move(v); });
  simulator.Run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, s);
  EXPECT_EQ(store->stats().connection_writes, 1u);
  EXPECT_EQ(store->stats().lookup_hits, 1u);
}

TEST_F(TcpStoreTest, TunnelingStateReachableFromBothSides) {
  FlowState s = Tunneling();
  bool stored = false;
  store->StoreTunnelingState(s, [&stored](bool ok) { stored = ok; });
  simulator.Run();
  ASSERT_TRUE(stored);

  std::optional<FlowState> by_client;
  store->LookupByClient(s.vip, s.vip_port, s.client_ip, s.client_port,
                        [&by_client](std::optional<FlowState> v) { by_client = std::move(v); });
  std::optional<FlowState> by_server;
  store->LookupByServer(s.backend_ip, s.backend_port, s.vip, s.client_port,
                        [&by_server](std::optional<FlowState> v) { by_server = std::move(v); });
  simulator.Run();
  ASSERT_TRUE(by_client.has_value());
  ASSERT_TRUE(by_server.has_value());
  EXPECT_EQ(*by_client, s);
  EXPECT_EQ(*by_server, s);
}

TEST_F(TcpStoreTest, LookupMissReportsNullopt) {
  std::optional<FlowState> got;
  bool answered = false;
  store->LookupByClient(1, 80, 2, 3, [&](std::optional<FlowState> v) {
    got = std::move(v);
    answered = true;
  });
  simulator.Run();
  EXPECT_TRUE(answered);
  EXPECT_FALSE(got.has_value());
}

TEST_F(TcpStoreTest, ServerLookupMissWhenOnlyConnectionState) {
  FlowState s = Tunneling();
  s.stage = FlowStage::kConnection;
  store->StoreConnectionState(s, [](bool) {});
  simulator.Run();
  std::optional<FlowState> got;
  bool answered = false;
  store->LookupByServer(s.backend_ip, s.backend_port, s.vip, s.client_port,
                        [&](std::optional<FlowState> v) {
                          got = std::move(v);
                          answered = true;
                        });
  simulator.Run();
  EXPECT_TRUE(answered);
  EXPECT_FALSE(got.has_value());  // storage-b never happened.
}

TEST_F(TcpStoreTest, RemoveDeletesBothKeys) {
  FlowState s = Tunneling();
  store->StoreTunnelingState(s, [](bool) {});
  simulator.Run();
  bool removed = false;
  store->Remove(s, [&removed](bool ok) { removed = ok; });
  simulator.Run();
  EXPECT_TRUE(removed);
  std::optional<FlowState> by_client = Tunneling();
  store->LookupByClient(s.vip, s.vip_port, s.client_ip, s.client_port,
                        [&by_client](std::optional<FlowState> v) { by_client = std::move(v); });
  std::optional<FlowState> by_server = Tunneling();
  store->LookupByServer(s.backend_ip, s.backend_port, s.vip, s.client_port,
                        [&by_server](std::optional<FlowState> v) { by_server = std::move(v); });
  simulator.Run();
  EXPECT_FALSE(by_client.has_value());
  EXPECT_FALSE(by_server.has_value());
}

TEST_F(TcpStoreTest, SurvivesSingleMemcachedFailure) {
  // The whole point of TCPStore: flow state outlives one kv server.
  FlowState s = Tunneling();
  store->StoreTunnelingState(s, [](bool) {});
  simulator.Run();
  const std::string ckey = ClientFlowKey(s.vip, s.vip_port, s.client_ip, s.client_port);
  client->ReplicasFor(ckey)[0]->Fail();
  std::optional<FlowState> got;
  store->LookupByClient(s.vip, s.vip_port, s.client_ip, s.client_port,
                        [&got](std::optional<FlowState> v) { got = std::move(v); });
  simulator.Run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, s);
}

TEST_F(TcpStoreTest, ManyConcurrentFlowsRoundTrip) {
  // A burst of flows written at the same instant, then looked up — the fan
  // out must never cross-wire callbacks or keys.
  std::vector<FlowState> states;
  for (int i = 0; i < 200; ++i) {
    FlowState s = Tunneling();
    s.client_ip = net::MakeIp(9, 9, 0, static_cast<std::uint8_t>(i % 250));
    s.client_port = static_cast<net::Port>(40'000 + i);
    s.client_isn = static_cast<std::uint32_t>(1000 + i);
    states.push_back(s);
    store->StoreTunnelingState(s, [](bool) {});
  }
  simulator.Run();
  int hits = 0;
  for (const FlowState& s : states) {
    store->LookupByClient(s.vip, s.vip_port, s.client_ip, s.client_port,
                          [&hits, expect = s](std::optional<FlowState> got) {
                            ASSERT_TRUE(got.has_value());
                            EXPECT_EQ(*got, expect);
                            ++hits;
                          });
  }
  simulator.Run();
  EXPECT_EQ(hits, 200);
}

TEST_F(TcpStoreTest, OverwriteUpgradesConnectionToTunneling) {
  FlowState s = Tunneling();
  FlowState conn = s;
  conn.stage = FlowStage::kConnection;
  conn.backend_ip = 0;
  conn.server_isn = 0;
  store->StoreConnectionState(conn, [](bool) {});
  simulator.Run();
  store->StoreTunnelingState(s, [](bool) {});
  simulator.Run();
  std::optional<FlowState> got;
  store->LookupByClient(s.vip, s.vip_port, s.client_ip, s.client_port,
                        [&got](std::optional<FlowState> v) { got = std::move(v); });
  simulator.Run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->stage, FlowStage::kTunneling);
  EXPECT_EQ(got->backend_ip, s.backend_ip);
}

TEST_F(TcpStoreTest, StorageBIssuesTwoWrites) {
  // Tunneling state = full state under client key + reverse server key.
  FlowState s = Tunneling();
  store->StoreTunnelingState(s, [](bool) {});
  simulator.Run();
  EXPECT_EQ(client->stats().sets, 2u);
  EXPECT_EQ(store->stats().tunneling_writes, 1u);
}

}  // namespace
}  // namespace yoda
