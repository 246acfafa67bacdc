// FlowTable tests: CRUD + reverse index behavior and the idle/VIP collection
// sweeps.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/core/flow_table.h"
#include "src/net/packet.h"

namespace yoda {
namespace {

FlowKey Key(std::uint32_t client_lo, net::Port client_port = 40'000,
            net::IpAddr vip = net::MakeIp(10, 200, 0, 1)) {
  FlowKey k;
  k.vip = vip;
  k.vip_port = 80;
  k.client_ip = net::MakeIp(9, 0, 0, 0) + client_lo;
  k.client_port = client_port;
  return k;
}

TEST(FlowTable, InsertFindErase) {
  FlowTable table;
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.Find(Key(1)), nullptr);

  LocalFlow& f = table.Insert(Key(1), std::make_unique<LocalFlow>());
  f.st.client_isn = 123;
  EXPECT_EQ(table.size(), 1u);
  ASSERT_NE(table.Find(Key(1)), nullptr);
  EXPECT_EQ(table.Find(Key(1))->st.client_isn, 123u);

  // Insert on an existing key replaces (port-wrap reuse), size stays 1.
  LocalFlow& g = table.Insert(Key(1), std::make_unique<LocalFlow>());
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(g.st.client_isn, 0u);

  table.Erase(Key(1));
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.Find(Key(1)), nullptr);
  table.Erase(Key(1));  // Erasing a missing key is a no-op.
  EXPECT_EQ(table.size(), 0u);
}

TEST(FlowTable, ForEachVisitsEveryFlow) {
  FlowTable table;
  for (std::uint32_t i = 0; i < 100; ++i) {
    table.Insert(Key(i), std::make_unique<LocalFlow>());
  }
  std::size_t seen = 0;
  table.ForEach([&](const FlowKey&, LocalFlow&) { ++seen; });
  EXPECT_EQ(seen, 100u);
}

TEST(FlowTable, CollectIdleSkipsActiveAndLookupPendingFlows) {
  FlowTable table;
  LocalFlow& idle = table.Insert(Key(1), std::make_unique<LocalFlow>());
  idle.last_packet = sim::Msec(10);
  LocalFlow& fresh = table.Insert(Key(2), std::make_unique<LocalFlow>());
  fresh.last_packet = sim::Msec(900);
  // A takeover lookup in flight pins the flow even when it looks idle.
  LocalFlow& pending =
      table.Insert(Key(3), std::make_unique<LocalFlow>(FlowPhase::kTakeoverLookup));
  pending.last_packet = sim::Msec(10);

  const std::vector<FlowKey> collected = table.CollectIdle(sim::Msec(500));
  ASSERT_EQ(collected.size(), 1u);
  EXPECT_EQ(collected[0], Key(1));
}

TEST(FlowTable, CollectVipSelectsOnlyThatVip) {
  FlowTable table;
  const net::IpAddr vip_a = net::MakeIp(10, 200, 0, 1);
  const net::IpAddr vip_b = net::MakeIp(10, 200, 0, 2);
  for (std::uint32_t i = 0; i < 10; ++i) {
    table.Insert(Key(i, 40'000, i % 2 == 0 ? vip_a : vip_b),
                 std::make_unique<LocalFlow>());
  }
  const std::vector<FlowKey> drained = table.CollectVip(vip_a);
  EXPECT_EQ(drained.size(), 5u);
  for (const FlowKey& k : drained) {
    EXPECT_EQ(k.vip, vip_a);
  }
  EXPECT_TRUE(table.CollectVip(net::MakeIp(10, 200, 0, 3)).empty());
}

TEST(FlowTable, ServerIndexRoundTrip) {
  FlowTable table;
  const FlowKey key = Key(7);
  table.Insert(key, std::make_unique<LocalFlow>());
  const net::FiveTuple server_side{net::MakeIp(10, 3, 0, 2), key.vip, 80, key.client_port};

  EXPECT_FALSE(table.HasServer(server_side));
  EXPECT_EQ(table.FindServer(server_side), nullptr);

  table.BindServer(server_side, key);
  EXPECT_TRUE(table.HasServer(server_side));
  ASSERT_NE(table.FindServer(server_side), nullptr);
  EXPECT_EQ(*table.FindServer(server_side), key);
  EXPECT_EQ(table.server_index_size(), 1u);

  table.UnbindServer(server_side);
  EXPECT_FALSE(table.HasServer(server_side));
  EXPECT_EQ(table.server_index_size(), 0u);
}

TEST(FlowTable, ClearDropsFlowsAndIndex) {
  FlowTable table;
  for (std::uint32_t i = 0; i < 20; ++i) {
    const FlowKey key = Key(i);
    table.Insert(key, std::make_unique<LocalFlow>());
    table.BindServer({net::MakeIp(10, 3, 0, 2), key.vip, 80, key.client_port}, key);
  }
  EXPECT_EQ(table.size(), 20u);
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.server_index_size(), 0u);
  EXPECT_EQ(table.Find(Key(0)), nullptr);
  std::size_t seen = 0;
  table.ForEach([&](const FlowKey&, LocalFlow&) { ++seen; });
  EXPECT_EQ(seen, 0u);
}

}  // namespace
}  // namespace yoda
