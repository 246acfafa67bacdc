// PipelineContext tests: the engines' shared context is exercised as a unit,
// away from YodaInstance — the Advance guard turns an illegal packet-driven
// FSM edge into the explicit kFlowReset path (counter bumped, RST emitted,
// flow state fully dropped) instead of undefined behavior, and CleanupFlow
// releases every side table a flow touches.

#include <gtest/gtest.h>

#include <memory>
#include <unordered_map>
#include <vector>

#include "src/core/pipeline.h"
#include "src/kv/kv_server.h"
#include "src/kv/replicating_client.h"
#include "src/l4lb/fabric.h"
#include "src/net/network.h"
#include "src/obs/registry.h"
#include "src/sim/sharded_sim.h"

namespace yoda {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  sim::ShardedSim engine{{.shards = 1}};
  sim::Simulator& simulator = engine.shard(0);
  net::Network network{&engine, /*seed=*/1};
  l4lb::L4Fabric fabric{&simulator, &network, /*num_muxes=*/1};
  std::vector<std::unique_ptr<kv::KvServer>> servers;
  std::unique_ptr<kv::ReplicatingClient> client;
  std::unique_ptr<TcpStore> store;
  sim::Histogram store_wait_ms;
  sim::Histogram journal_flush_depth;
  std::unique_ptr<StoreSession> session;

  YodaInstanceConfig cfg;
  sim::Rng rng{7};
  CpuModel cpu{CpuCosts{}};
  bool failed = false;
  FlowTable flows;
  std::unordered_map<net::IpAddr, VipState> vips;
  std::unordered_map<net::IpAddr, bool> backend_health;
  std::unordered_map<net::IpAddr, int> backend_load;
  obs::Registry registry;
  PipelineCounters ctr;
  PipelineStageMetrics stage;
  PipelineContext pipe;

  void SetUp() override {
    for (int i = 0; i < 2; ++i) {
      servers.push_back(std::make_unique<kv::KvServer>(&simulator, "kv-" + std::to_string(i)));
    }
    std::vector<kv::KvServer*> ptrs;
    for (auto& s : servers) {
      ptrs.push_back(s.get());
    }
    client = std::make_unique<kv::ReplicatingClient>(&simulator, ptrs,
                                                     kv::ReplicatingClientConfig{});
    store = std::make_unique<TcpStore>(client.get());
    session = std::make_unique<StoreSession>(store.get(), &simulator, store_wait_ms,
                                             journal_flush_depth);

    ctr.packets_tunneled = &registry.GetCounter("yoda.packets_tunneled");
    ctr.bad_transition_resets = &registry.GetCounter("yoda.bad_transition_resets");

    pipe.sim = &simulator;
    pipe.net = &network;
    pipe.fabric = &fabric;
    pipe.store = session.get();
    pipe.rng = &rng;
    pipe.cpu = &cpu;
    pipe.cfg = &cfg;
    pipe.self_ip = net::MakeIp(10, 1, 0, 1);
    pipe.failed = &failed;
    pipe.flows = &flows;
    pipe.vips = &vips;
    pipe.backend_health = &backend_health;
    pipe.backend_load = &backend_load;
    pipe.ctr = &ctr;
    pipe.stage = &stage;
  }

  FlowKey DefaultKey() {
    FlowKey k;
    k.vip = net::MakeIp(10, 200, 0, 1);
    k.vip_port = 80;
    k.client_ip = net::MakeIp(9, 0, 0, 1);
    k.client_port = 40'000;
    return k;
  }

  LocalFlow& MakeFlow(const FlowKey& key, FlowPhase phase) {
    LocalFlow& f = flows.Insert(key, std::make_unique<LocalFlow>(phase));
    f.st.vip = key.vip;
    f.st.vip_port = key.vip_port;
    f.st.client_ip = key.client_ip;
    f.st.client_port = key.client_port;
    return f;
  }
};

TEST_F(PipelineTest, AdvanceTakesLegalEdge) {
  const FlowKey key = DefaultKey();
  LocalFlow& f = MakeFlow(key, FlowPhase::kServerSynSent);
  EXPECT_TRUE(pipe.Advance(key, f, FlowPhase::kStorageBWait));
  EXPECT_EQ(f.phase(), FlowPhase::kStorageBWait);
  EXPECT_EQ(ctr.bad_transition_resets->value(), 0u);
  EXPECT_NE(flows.Find(key), nullptr);
}

TEST_F(PipelineTest, AdvanceIllegalEdgeResetsInsteadOfCorrupting) {
  // A server SYN-ACK arriving for a flow still assembling its client header
  // is an illegal kSynAckSent -> kEstablished edge: the pipeline must count
  // it, RST the client and drop the flow — and tell the caller to stop.
  const FlowKey key = DefaultKey();
  LocalFlow& f = MakeFlow(key, FlowPhase::kSynAckSent);
  f.st.lb_isn = 5'000;

  const std::uint64_t sent_before = network.stats().sent;
  EXPECT_FALSE(pipe.Advance(key, f, FlowPhase::kEstablished));
  EXPECT_EQ(ctr.bad_transition_resets->value(), 1u);
  EXPECT_EQ(flows.Find(key), nullptr);
  EXPECT_EQ(flows.size(), 0u);
  // The client got an explicit RST rather than a silent drop.
  EXPECT_EQ(network.stats().sent, sent_before + 1);
  simulator.Run();  // Any queued store removal settles without touching the flow.
}

TEST_F(PipelineTest, ResetFlowSurvivesMissingFlow) {
  // Resetting a key with no local state still RSTs the client (e.g. a
  // takeover miss after the lookup already dropped the placeholder).
  const FlowKey key = DefaultKey();
  const std::uint64_t sent_before = network.stats().sent;
  pipe.ResetFlowToClient(key, obs::FlowResetReason::kTakeoverMiss);
  EXPECT_EQ(network.stats().sent, sent_before + 1);
  EXPECT_EQ(flows.size(), 0u);
}

TEST_F(PipelineTest, CleanupReleasesServerIndexAndBackendLoad) {
  const FlowKey key = DefaultKey();
  LocalFlow& f = MakeFlow(key, FlowPhase::kEstablished);
  f.st.stage = FlowStage::kTunneling;
  f.st.backend_ip = net::MakeIp(10, 3, 0, 2);
  f.st.backend_port = 80;
  const net::FiveTuple server_side{f.st.backend_ip, key.vip, f.st.backend_port,
                                   key.client_port};
  flows.BindServer(server_side, key);
  fabric.RegisterSnat(server_side, pipe.self_ip);
  backend_load[f.st.backend_ip] = 1;

  const net::IpAddr backend = f.st.backend_ip;
  pipe.CleanupFlow(key, /*remove_from_store=*/true);
  EXPECT_EQ(flows.Find(key), nullptr);
  EXPECT_FALSE(flows.HasServer(server_side));
  EXPECT_EQ(backend_load[backend], 0);
  simulator.Run();
}

TEST_F(PipelineTest, CleanupConnectionPhaseFlowLeavesBackendLoadAlone) {
  const FlowKey key = DefaultKey();
  MakeFlow(key, FlowPhase::kSynAckSent);  // No backend selected yet.
  backend_load[net::MakeIp(10, 3, 0, 2)] = 1;
  pipe.CleanupFlow(key, /*remove_from_store=*/false);
  EXPECT_EQ(flows.Find(key), nullptr);
  EXPECT_EQ(backend_load[net::MakeIp(10, 3, 0, 2)], 1);
}

}  // namespace
}  // namespace yoda
