// L4 LB tests: rendezvous hashing, mux pools, SNAT pinning and non-atomic
// (staggered) mapping updates.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "src/l4lb/fabric.h"
#include "src/l4lb/mux.h"
#include "src/sim/sharded_sim.h"

namespace l4lb {
namespace {

net::FiveTuple Tuple(int i) {
  return net::FiveTuple{net::MakeIp(1, 2, 3, 4), net::MakeIp(10, 200, 0, 1),
                        static_cast<net::Port>(10'000 + i), 80};
}

std::vector<net::IpAddr> Pool(int n) {
  std::vector<net::IpAddr> pool;
  for (int i = 0; i < n; ++i) {
    pool.push_back(net::MakeIp(10, 1, 0, static_cast<std::uint8_t>(i + 1)));
  }
  return pool;
}

TEST(Rendezvous, DeterministicAndStable) {
  auto pool = Pool(8);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(RendezvousPick(Tuple(i), pool), RendezvousPick(Tuple(i), pool));
  }
}

TEST(Rendezvous, SpreadsAcrossPool) {
  auto pool = Pool(8);
  std::map<net::IpAddr, int> counts;
  const int n = 8'000;
  for (int i = 0; i < n; ++i) {
    counts[RendezvousPick(Tuple(i), pool)] += 1;
  }
  EXPECT_EQ(counts.size(), 8u);
  for (const auto& [ip, c] : counts) {
    EXPECT_GT(c, n / 8 / 2);
    EXPECT_LT(c, n / 8 * 2);
  }
}

TEST(Rendezvous, RemovalOnlyMovesVictimsFlows) {
  auto pool = Pool(8);
  std::map<int, net::IpAddr> before;
  for (int i = 0; i < 4000; ++i) {
    before[i] = RendezvousPick(Tuple(i), pool);
  }
  const net::IpAddr removed = pool[3];
  pool.erase(pool.begin() + 3);
  for (const auto& [i, owner] : before) {
    const net::IpAddr now = RendezvousPick(Tuple(i), pool);
    if (owner != removed) {
      EXPECT_EQ(now, owner) << "flow " << i << " moved though its instance survived";
    } else {
      EXPECT_NE(now, removed);
    }
  }
}

TEST(Rendezvous, EmptyPoolYieldsZero) {
  EXPECT_EQ(RendezvousPick(Tuple(0), {}), 0u);
}

TEST(Mux, RoutesByPoolAndDropsUnknownVip) {
  Mux mux(0);
  mux.SetPool(net::MakeIp(10, 200, 0, 1), Pool(4));
  net::Packet p;
  p.src = net::MakeIp(1, 2, 3, 4);
  p.dst = net::MakeIp(10, 200, 0, 1);
  p.sport = 10'000;
  p.dport = 80;
  auto target = mux.Route(p, std::nullopt);
  ASSERT_TRUE(target.has_value());
  EXPECT_EQ(mux.stats().forwarded_ecmp, 1u);

  p.dst = net::MakeIp(10, 200, 0, 99);  // Unmapped VIP.
  EXPECT_FALSE(mux.Route(p, std::nullopt).has_value());
  EXPECT_EQ(mux.stats().dropped_no_pool, 1u);
}

TEST(Mux, SnatHitOverridesEcmp) {
  Mux mux(0);
  mux.SetPool(net::MakeIp(10, 200, 0, 1), Pool(4));
  net::Packet p;
  p.dst = net::MakeIp(10, 200, 0, 1);
  const net::IpAddr pinned = net::MakeIp(10, 1, 0, 9);
  auto target = mux.Route(p, pinned);
  ASSERT_TRUE(target.has_value());
  EXPECT_EQ(*target, pinned);
  EXPECT_EQ(mux.stats().forwarded_snat, 1u);
}

TEST(Mux, RemoveInstanceDrainsItFromAllPools) {
  Mux mux(0);
  auto pool = Pool(4);
  mux.SetPool(net::MakeIp(10, 200, 0, 1), pool);
  mux.SetPool(net::MakeIp(10, 200, 0, 2), pool);
  mux.RemoveInstance(pool[0]);
  for (int v = 1; v <= 2; ++v) {
    const auto* got = mux.PoolFor(net::MakeIp(10, 200, 0, static_cast<std::uint8_t>(v)));
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->size(), 3u);
    for (net::IpAddr ip : *got) {
      EXPECT_NE(ip, pool[0]);
    }
  }
}

class FabricTest : public ::testing::Test {
 protected:
  class Sink : public net::Node {
   public:
    void HandlePacket(const net::Packet& p) override { got.push_back(p); }
    std::vector<net::Packet> got;
  };

  sim::ShardedSim engine{{.shards = 1}};
  sim::Simulator& simulator = engine.shard(0);
  net::Network network{&engine, 5};
  L4Fabric fabric{&simulator, &network, 4};
  Sink instances[3];
  const net::IpAddr vip = net::MakeIp(10, 200, 0, 1);

  void SetUp() override {
    for (int i = 0; i < 3; ++i) {
      network.Attach(net::MakeIp(10, 1, 0, static_cast<std::uint8_t>(i + 1)), &instances[i]);
    }
    fabric.AttachVip(vip);
    fabric.ProgramPool(vip, Pool(3), /*epoch=*/0);
  }

  net::Packet ClientPacket(int flow) {
    net::Packet p;
    p.src = net::MakeIp(1, 2, 3, 4);
    p.dst = vip;
    p.sport = static_cast<net::Port>(10'000 + flow);
    p.dport = 80;
    return p;
  }
};

TEST_F(FabricTest, DeliversVipTrafficToExactlyOneInstance) {
  network.Send(ClientPacket(1));
  simulator.Run();
  int total = 0;
  for (const auto& inst : instances) {
    total += static_cast<int>(inst.got.size());
  }
  EXPECT_EQ(total, 1);
  EXPECT_EQ(fabric.stats().packets, 1u);
}

TEST_F(FabricTest, SameFlowAlwaysSameInstance) {
  for (int i = 0; i < 10; ++i) {
    network.Send(ClientPacket(7));
  }
  simulator.Run();
  int nonzero = 0;
  for (const auto& inst : instances) {
    if (!inst.got.empty()) {
      ++nonzero;
      EXPECT_EQ(inst.got.size(), 10u);
    }
  }
  EXPECT_EQ(nonzero, 1);
}

TEST_F(FabricTest, InnerHeaderPreservedThroughEncap) {
  network.Send(ClientPacket(1));
  simulator.Run();
  for (const auto& inst : instances) {
    for (const auto& p : inst.got) {
      EXPECT_EQ(p.dst, vip);
      EXPECT_NE(p.encap_dst, 0u);
    }
  }
}

TEST_F(FabricTest, SnatPinsReturnPathAndFailureClearsIt) {
  const net::IpAddr backend = net::MakeIp(10, 3, 0, 1);
  const net::FiveTuple server_side{backend, vip, 80, 10'001};
  const net::IpAddr owner = net::MakeIp(10, 1, 0, 2);
  fabric.RegisterSnat(server_side, owner);
  EXPECT_EQ(fabric.SnatOwner(server_side), owner);

  net::Packet ret;
  ret.src = backend;
  ret.dst = vip;
  ret.sport = 80;
  ret.dport = 10'001;
  network.Send(net::Packet(ret));
  simulator.Run();
  EXPECT_EQ(instances[1].got.size(), 1u);  // Pinned to owner 10.1.0.2.

  // Owner dies: pin cleared, return traffic re-ECMPs to a survivor.
  fabric.RemoveInstanceEverywhere(owner);
  EXPECT_FALSE(fabric.SnatOwner(server_side).has_value());
  network.SetNodeDown(owner, true);
  network.Send(std::move(ret));
  simulator.Run();
  EXPECT_EQ(instances[1].got.size(), 1u);  // Nothing new at the dead owner.
  EXPECT_EQ(instances[0].got.size() + instances[2].got.size(), 1u);
}

TEST_F(FabricTest, UnregisterSnatRestoresEcmp) {
  const net::FiveTuple t{net::MakeIp(10, 3, 0, 1), vip, 80, 10'002};
  fabric.RegisterSnat(t, net::MakeIp(10, 1, 0, 3));
  fabric.UnregisterSnat(t);
  EXPECT_FALSE(fabric.SnatOwner(t).has_value());
}

TEST_F(FabricTest, StaggeredUpdateConvergesOverTime) {
  // Shrink pool to instance 0 only, staggered across 4 muxes 100 ms apart.
  fabric.SetVipPoolStaggered(vip, {net::MakeIp(10, 1, 0, 1)}, sim::Msec(100));
  simulator.RunUntil(sim::Msec(1));
  // Mux 0 updated immediately; mux 3 not yet.
  EXPECT_EQ(fabric.mux(0).PoolFor(vip)->size(), 1u);
  EXPECT_EQ(fabric.mux(3).PoolFor(vip)->size(), 3u);
  simulator.RunUntil(sim::Msec(500));
  for (int m = 0; m < fabric.mux_count(); ++m) {
    EXPECT_EQ(fabric.mux(m).PoolFor(vip)->size(), 1u) << m;
  }
}

TEST_F(FabricTest, EmptyPoolDropsTraffic) {
  fabric.ProgramPool(vip, {}, /*epoch=*/0);
  network.Send(ClientPacket(1));
  simulator.Run();
  EXPECT_EQ(fabric.stats().dropped, 1u);
}

// A fabric on shard 1 of a 2-shard engine: a controller write issued from
// shard 0 lands on the fabric's shard at the next epoch barrier. One worker
// runs shard 0's window before shard 1's, so a write applied early would be
// seen; two workers run them concurrently.
TEST(FabricTwoShards, ProgramPoolFromAnotherShardLandsAtTheNextBarrier) {
  for (const int workers : {1, 2}) {
    SCOPED_TRACE(workers);
    sim::ShardedSim engine({.shards = 2, .workers = workers});
    net::Network network(&engine, 5);
    L4Fabric fabric(&engine.shard(1), &network, 2);
    const net::IpAddr vip = net::MakeIp(10, 200, 0, 1);
    const net::IpAddr instance = net::MakeIp(10, 1, 0, 1);
    const sim::Time t0 = sim::Msec(1);
    sim::Time barrier = -1;
    engine.shard(0).At(t0, [&]() {
      fabric.ProgramPool(vip, {instance}, /*epoch=*/1);
      // Mail issued in the same event lands at the same barrier.
      engine.CallOn(1, [&]() { barrier = engine.shard(1).now(); });
    });
    // The fabric's own shard counts the muxes holding the pool every 50 us.
    std::vector<std::pair<sim::Time, int>> programmed;
    for (int k = 1; k <= 8; ++k) {
      const sim::Time at = t0 + k * sim::Usec(50);
      engine.shard(1).At(at, [&, at]() {
        int muxes = 0;
        for (int m = 0; m < fabric.mux_count(); ++m) {
          const std::vector<net::IpAddr>* pool = fabric.mux(m).PoolFor(vip);
          muxes += pool != nullptr && *pool == std::vector<net::IpAddr>{instance} ? 1 : 0;
        }
        programmed.emplace_back(at, muxes);
      });
    }
    engine.Run();

    ASSERT_GT(barrier, t0);
    ASSERT_LE(barrier, t0 + engine.window());
    ASSERT_EQ(programmed.size(), 8u);
    for (const auto& [at, muxes] : programmed) {
      if (at != barrier) {
        EXPECT_EQ(muxes, at > barrier ? 2 : 0) << "at " << at;
      }
    }
  }
}

}  // namespace
}  // namespace l4lb
