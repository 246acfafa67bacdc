// Unit tests for the fault-injection plane: overlay verdicts, partitions,
// gray failures, crash/restart routing, timed faults and the seeded-RNG
// determinism of randomized chaos schedules, read back from their scenario
// lines. Warm/cold restart semantics are covered by net_test's
// NetworkRestart.* and workload_test's testbed restart test, since the plane
// has no crash semantics of its own.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/fault/chaos.h"
#include "src/fault/fault_plane.h"
#include "src/net/network.h"
#include "src/net/packet.h"
#include "src/obs/trace.h"
#include "src/sim/random.h"
#include "src/sim/sharded_sim.h"
#include "src/sim/simulator.h"
#include "src/workload/scenario.h"

namespace fault {
namespace {

class Sink : public net::Node {
 public:
  explicit Sink(const sim::Simulator* clock) : clock_(clock) {}
  void HandlePacket(const net::Packet& p) override {
    received.push_back(p);
    last_at = clock_->now();
  }
  std::vector<net::Packet> received;
  sim::Time last_at = -1;  // Delivery instant of the latest packet.

 private:
  const sim::Simulator* clock_;
};

class FaultPlaneTest : public ::testing::Test {
 protected:
  sim::ShardedSim engine{{.shards = 1}};
  sim::Simulator& simulator = engine.shard(0);
  net::Network network{&engine, 1};
  FaultPlane plane{&simulator, &network, 99};
  Sink a{&simulator}, b{&simulator}, c{&simulator};
  const net::IpAddr ip_a = net::MakeIp(10, 0, 0, 1);
  const net::IpAddr ip_b = net::MakeIp(10, 0, 0, 2);
  const net::IpAddr ip_c = net::MakeIp(10, 0, 0, 3);

  void SetUp() override {
    network.Attach(ip_a, &a);
    network.Attach(ip_b, &b);
    network.Attach(ip_c, &c);
    network.SetLatency(net::Region::kDatacenter, net::Region::kDatacenter, sim::Usec(100), 0);
  }

  net::Packet Make(net::IpAddr src, net::IpAddr dst, std::uint8_t flags = net::kAck) {
    net::Packet p;
    p.src = src;
    p.dst = dst;
    p.flags = flags;
    return p;
  }

  void SendAndRun(net::IpAddr src, net::IpAddr dst, int n = 1) {
    for (int i = 0; i < n; ++i) {
      network.Send(Make(src, dst));
    }
    simulator.Run();
  }
};

TEST_F(FaultPlaneTest, NoOverlaysPassesEverything) {
  SendAndRun(ip_a, ip_b, 10);
  EXPECT_EQ(b.received.size(), 10u);
  EXPECT_EQ(plane.stats().dropped, 0u);
  EXPECT_EQ(network.stats().dropped_fault, 0u);
}

TEST_F(FaultPlaneTest, LinkLossAtOneDropsAllAndClearRestores) {
  plane.SetLinkLoss(ip_a, ip_b, 1.0);
  SendAndRun(ip_a, ip_b, 5);
  SendAndRun(ip_b, ip_a, 5);  // Symmetric: both directions die.
  EXPECT_TRUE(b.received.empty());
  EXPECT_TRUE(a.received.empty());
  EXPECT_EQ(network.stats().dropped_fault, 10u);
  SendAndRun(ip_a, ip_c, 1);  // Other links unaffected.
  EXPECT_EQ(c.received.size(), 1u);

  plane.SetLinkLoss(ip_a, ip_b, 0);
  SendAndRun(ip_a, ip_b, 5);
  EXPECT_EQ(b.received.size(), 5u);
}

TEST_F(FaultPlaneTest, LinkLossIsApproximatelyBernoulli) {
  plane.SetLinkLoss(ip_a, ip_b, 0.5);
  SendAndRun(ip_a, ip_b, 2000);
  EXPECT_NEAR(static_cast<double>(b.received.size()), 1000, 120);
}

TEST_F(FaultPlaneTest, LinkDelaySpikesDeliveryTime) {
  plane.SetLinkDelay(ip_a, ip_b, sim::Msec(20));
  SendAndRun(ip_a, ip_b);
  EXPECT_EQ(b.last_at, sim::Msec(20) + sim::Usec(100));
  EXPECT_EQ(plane.stats().delayed, 1u);
}

TEST_F(FaultPlaneTest, PartitionCutsBothDirectionsAndHealRestores) {
  plane.Partition(ip_a, ip_b);
  SendAndRun(ip_a, ip_b, 3);
  SendAndRun(ip_b, ip_a, 3);
  EXPECT_TRUE(a.received.empty());
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(plane.stats().dropped, 6u);
  // The partitioned pair still reaches third parties.
  SendAndRun(ip_a, ip_c, 1);
  SendAndRun(ip_b, ip_c, 1);
  EXPECT_EQ(c.received.size(), 2u);

  plane.Heal(ip_a, ip_b);
  SendAndRun(ip_a, ip_b, 3);
  EXPECT_EQ(b.received.size(), 3u);
}

TEST_F(FaultPlaneTest, PartitionBlindsProbesButGraySynFilterDoesNot) {
  EXPECT_TRUE(network.ProbePath(ip_a, ip_b));
  plane.Partition(ip_a, ip_b);
  EXPECT_FALSE(network.ProbePath(ip_a, ip_b));
  plane.Heal(ip_a, ip_b);

  plane.SetGray("syn-filter",
                [](const net::Packet& p) { return p.syn() && !p.ack_flag(); }, 1.0);
  // Probes are kAck-shaped: the gray node still looks healthy to the monitor.
  EXPECT_TRUE(network.ProbePath(ip_a, ip_b));
  // ...while real connection attempts die.
  network.Send(Make(ip_a, ip_b, net::kSyn));
  network.Send(Make(ip_a, ip_b, net::kAck));
  simulator.Run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_FALSE(b.received[0].syn());
}

TEST_F(FaultPlaneTest, NodeLossAppliesToAndFromTheNode) {
  plane.SetNodeLoss(ip_b, 1.0);
  SendAndRun(ip_a, ip_b, 2);  // Toward the node.
  SendAndRun(ip_b, ip_c, 2);  // From the node.
  SendAndRun(ip_a, ip_c, 2);  // Unrelated traffic flows.
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(c.received.size(), 2u);
}

TEST_F(FaultPlaneTest, NodeDelayChargedOncePerPacket) {
  plane.SetNodeDelay(ip_b, sim::Msec(3));
  SendAndRun(ip_a, ip_b);
  EXPECT_EQ(b.last_at, sim::Msec(3) + sim::Usec(100));
}

TEST_F(FaultPlaneTest, GrayRuleWithProbabilityOneSkipsRngDraw) {
  plane.SetGray("all", [](const net::Packet&) { return true; }, 1.0);
  SendAndRun(ip_a, ip_b, 50);
  EXPECT_TRUE(b.received.empty());
  // p >= 1 fires without consuming a draw: the plane's RNG is still at its
  // seed position, in lockstep with a fresh same-seed plane.
  sim::ShardedSim engine2({.shards = 1});
  net::Network net2(&engine2, 1);
  FaultPlane fresh(&engine2.shard(0), &net2, 99);
  EXPECT_EQ(plane.rng().UniformInt(0, 1 << 30), fresh.rng().UniformInt(0, 1 << 30));
}

TEST_F(FaultPlaneTest, ClearGrayRemovesOnlyThatRule) {
  plane.SetGray("syns", [](const net::Packet& p) { return p.syn(); }, 1.0);
  plane.SetGray("to-b", [this](const net::Packet& p) { return p.dst == ip_b; }, 1.0);
  plane.ClearGray("syns");
  network.Send(Make(ip_a, ip_b, net::kSyn));
  network.Send(Make(ip_a, ip_c, net::kSyn));
  simulator.Run();
  EXPECT_TRUE(b.received.empty());        // "to-b" still live.
  EXPECT_EQ(c.received.size(), 1u);       // "syns" gone.
}

TEST_F(FaultPlaneTest, HandlersOverrideDefaultCrashRouting) {
  net::IpAddr crashed = 0;
  net::IpAddr restarted = 0;
  bool cold = false;
  plane.set_crash_handler([&crashed](net::IpAddr ip) { crashed = ip; });
  plane.set_restart_handler([&](net::IpAddr ip, FaultPlane::RestartMode mode) {
    restarted = ip;
    cold = mode == FaultPlane::RestartMode::kCold;
  });
  plane.CrashNode(ip_c);
  plane.RestartNode(ip_c, FaultPlane::RestartMode::kCold);
  EXPECT_EQ(crashed, ip_c);
  EXPECT_EQ(restarted, ip_c);
  EXPECT_TRUE(cold);
  EXPECT_FALSE(network.IsDown(ip_c));  // The handler is the whole crash.
}

TEST_F(FaultPlaneTest, ScheduleFiresAtAbsoluteTimeAsDaemon) {
  // A timed fault is a daemon event that calls the plane when it fires.
  simulator.At(sim::Msec(10), [this]() { plane.Partition(ip_a, ip_b); }, /*daemon=*/true);
  simulator.At(sim::Msec(20), [this]() { plane.Heal(ip_a, ip_b); }, /*daemon=*/true);
  // Daemon events alone must not keep the simulation alive.
  simulator.Run();
  EXPECT_EQ(simulator.now(), 0);

  // With real traffic bracketing the window, the script fires on time.
  simulator.At(sim::Msec(15), [this]() { network.Send(Make(ip_a, ip_b)); });
  simulator.At(sim::Msec(25), [this]() { network.Send(Make(ip_a, ip_b)); });
  simulator.Run();
  EXPECT_EQ(b.received.size(), 1u);  // Mid-partition send died, later one passed.
  const auto& events = simulator.recorder().system_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].at, sim::Msec(10));
  EXPECT_EQ(events[0].type, obs::EventType::kFaultInjected);
  EXPECT_EQ(events[1].at, sim::Msec(20));
  EXPECT_EQ(events[1].type, obs::EventType::kFaultCleared);
}

TEST_F(FaultPlaneTest, FaultEventsMirroredIntoRecorder) {
  plane.SetLinkLoss(ip_a, ip_b, 0.5);
  plane.Partition(ip_a, ip_c);
  plane.Heal(ip_a, ip_c);
  plane.SetLinkLoss(ip_a, ip_b, 0);
  const auto& events = simulator.recorder().system_events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].type, obs::EventType::kFaultInjected);
  EXPECT_EQ(events[0].detail, static_cast<std::uint64_t>(FaultKind::kLinkLoss));
  EXPECT_EQ(events[1].type, obs::EventType::kFaultInjected);
  EXPECT_EQ(events[1].detail, static_cast<std::uint64_t>(FaultKind::kPartition));
  EXPECT_EQ(events[2].type, obs::EventType::kFaultCleared);
  EXPECT_EQ(events[3].type, obs::EventType::kFaultCleared);
}

TEST(FaultKindNames, AllNamed) {
  EXPECT_STREQ(FaultKindName(FaultKind::kLinkLoss), "LinkLoss");
  EXPECT_STREQ(FaultKindName(FaultKind::kGray), "Gray");
  EXPECT_STREQ(FaultKindName(FaultKind::kKvSlow), "KvSlow");
}

// ---------------------------------------------------------------------------
// Randomized chaos schedules.
// ---------------------------------------------------------------------------

ChaosOptions SmallOptions() {
  ChaosOptions opts;
  opts.episodes = 12;
  opts.instances = {"instance 0", "instance 1"};
  opts.kv_nodes = {"kv 0"};
  opts.links = {{"instance 0", "kv 0"}};
  return opts;
}

// One drawn episode, read back from its scenario line:
// `at <t> <verb> <kind> <i> ... for <d> ...`.
struct Drawn {
  sim::Time at = 0;
  std::string verb;
  std::string target;
  sim::Duration span = 0;
};

Drawn ReadBack(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> toks;
  for (std::string tok; in >> tok;) {
    toks.push_back(tok);
  }
  Drawn d;
  EXPECT_GE(toks.size(), 7u) << line;
  if (toks.size() < 7) {
    return d;
  }
  EXPECT_EQ(toks[0], "at") << line;
  d.at = workload::ParseDuration(toks[1]).value_or(-1);
  d.verb = toks[2];
  d.target = toks[3] + " " + toks[4];
  auto it = std::find(toks.begin(), toks.end(), "for");
  EXPECT_TRUE(it != toks.end() && it + 1 != toks.end()) << line;
  if (it != toks.end() && it + 1 != toks.end()) {
    d.span = workload::ParseDuration(*(it + 1)).value_or(-1);
  }
  return d;
}

TEST(ChaosSchedule, SameSeedSameTimeline) {
  auto draw = [](std::uint64_t seed) {
    sim::Rng rng(seed);
    return RandomSchedule(rng, SmallOptions());
  };
  EXPECT_EQ(draw(1234), draw(1234));
  EXPECT_NE(draw(1234), draw(4321));
}

TEST(ChaosSchedule, EpisodesStayInsideWindowAndDurations) {
  sim::Rng rng(9);
  ChaosOptions opts = SmallOptions();
  const std::vector<std::string> lines = RandomSchedule(rng, opts);
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(opts.episodes));
  for (const std::string& line : lines) {
    const Drawn ep = ReadBack(line);
    EXPECT_GE(ep.at, opts.window_start) << line;
    // Crash episodes may be shifted right to avoid overlapping an earlier
    // crash of the same target; everything else stays inside the window.
    if (ep.verb != "crash") {
      EXPECT_LE(ep.at, opts.window_end) << line;
    }
    EXPECT_GE(ep.span, opts.min_duration) << line;
    EXPECT_LE(ep.span, opts.max_duration) << line;
  }
}

TEST(ChaosSchedule, CrashEpisodesNeverOverlapPerTarget) {
  ChaosOptions opts = SmallOptions();
  opts.episodes = 40;  // Plenty of crash draws on two targets.
  sim::Rng rng(77);
  std::map<std::string, sim::Time> last_until;
  for (const std::string& line : RandomSchedule(rng, opts)) {
    const Drawn ep = ReadBack(line);
    if (ep.verb != "crash") {
      continue;
    }
    auto it = last_until.find(ep.target);
    if (it != last_until.end()) {
      EXPECT_GT(ep.at, it->second) << line;
    }
    last_until[ep.target] = ep.at + ep.span;
  }
}

TEST(ChaosSchedule, EmptyCandidateListsYieldNoEpisodes) {
  sim::Rng rng(3);
  EXPECT_TRUE(RandomSchedule(rng, ChaosOptions{}).empty());
}

// ---------------------------------------------------------------------------
// Soak invariant checker (on synthetic traces).
// ---------------------------------------------------------------------------

obs::FlowId FlowN(std::uint16_t n) {
  return obs::FlowId{net::MakeIp(10, 200, 0, 1), 80, net::MakeIp(10, 9, 0, 1), n};
}

TEST(SoakInvariants, CleanTraceHasNoViolations) {
  obs::FlightRecorder rec;
  const obs::FlowId f = FlowN(1);
  rec.Record(f, sim::Msec(1), obs::EventType::kClientSyn, 1);
  rec.Record(f, sim::Msec(2), obs::EventType::kBackendPinned, 1, 42);
  rec.Record(f, sim::Msec(3), obs::EventType::kCleanup, 1);
  const SoakReport report = CheckSoakInvariants(rec);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.flows_checked, 1u);
  EXPECT_EQ(report.terminated, 1u);
}

TEST(SoakInvariants, FlagsUnterminatedFlow) {
  obs::FlightRecorder rec;
  rec.Record(FlowN(1), sim::Msec(1), obs::EventType::kClientSyn, 1);
  // Only a crash exempts a flow; another injected fault at its node does not.
  rec.RecordSystem(sim::Msec(2), obs::EventType::kFaultInjected, 1,
                   static_cast<std::uint64_t>(FaultKind::kRestartWarm));
  const SoakReport report = CheckSoakInvariants(rec);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_NE(report.violations[0].find("never terminated"), std::string::npos);
}

TEST(SoakInvariants, CrashExemptsUnterminatedFlow) {
  obs::FlightRecorder rec;
  const std::uint32_t inst = net::MakeIp(10, 1, 0, 2);
  rec.Record(FlowN(1), sim::Msec(1), obs::EventType::kClientSyn, inst);
  // The crash is read from the trace: the fault plane's kFaultInjected event.
  rec.RecordSystem(sim::Msec(2), obs::EventType::kFaultInjected, inst,
                   static_cast<std::uint64_t>(FaultKind::kCrash));
  const SoakReport report = CheckSoakInvariants(rec);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.exempted, 1u);
}

TEST(SoakInvariants, FlagsSilentPinChange) {
  obs::FlightRecorder rec;
  const obs::FlowId f = FlowN(1);
  rec.Record(f, sim::Msec(1), obs::EventType::kBackendPinned, 1, 42);
  rec.Record(f, sim::Msec(2), obs::EventType::kBackendPinned, 1, 43);  // No ReSwitch!
  rec.Record(f, sim::Msec(3), obs::EventType::kCleanup, 1);
  const SoakReport report = CheckSoakInvariants(rec);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_NE(report.violations[0].find("pin changed"), std::string::npos);
}

TEST(SoakInvariants, PinChangeAfterReSwitchIsLegal) {
  obs::FlightRecorder rec;
  const obs::FlowId f = FlowN(1);
  rec.Record(f, sim::Msec(1), obs::EventType::kBackendPinned, 1, 42);
  rec.Record(f, sim::Msec(2), obs::EventType::kReSwitch, 1, 43);
  rec.Record(f, sim::Msec(3), obs::EventType::kBackendPinned, 1, 43);
  rec.Record(f, sim::Msec(4), obs::EventType::kCleanup, 1);
  EXPECT_TRUE(CheckSoakInvariants(rec).ok());
}

}  // namespace
}  // namespace fault
