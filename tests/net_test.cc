// Unit tests for packets, sequence arithmetic, the wire codec and the fabric.

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/net/network.h"
#include "src/net/packet.h"
#include "src/net/wire.h"
#include "src/sim/random.h"
#include "src/sim/sharded_sim.h"

namespace net {
namespace {

TEST(IpAddr, MakeAndFormat) {
  IpAddr ip = MakeIp(10, 1, 0, 7);
  EXPECT_EQ(ip, 0x0a010007u);
  EXPECT_EQ(IpToString(ip), "10.1.0.7");
  EXPECT_EQ(IpToString(MakeIp(255, 255, 255, 255)), "255.255.255.255");
}

TEST(FiveTuple, ReversedSwapsEndpoints) {
  FiveTuple t{MakeIp(1, 2, 3, 4), MakeIp(5, 6, 7, 8), 100, 200};
  FiveTuple r = t.Reversed();
  EXPECT_EQ(r.src, t.dst);
  EXPECT_EQ(r.dst, t.src);
  EXPECT_EQ(r.sport, t.dport);
  EXPECT_EQ(r.dport, t.sport);
  EXPECT_EQ(r.Reversed(), t);
}

TEST(FiveTuple, HashDistinguishesPorts) {
  FiveTupleHash h;
  FiveTuple a{1, 2, 10, 20};
  FiveTuple b{1, 2, 10, 21};
  EXPECT_NE(h(a), h(b));
}

TEST(Packet, FlagsAndSeqSpace) {
  Packet p;
  p.flags = kSyn;
  EXPECT_TRUE(p.syn());
  EXPECT_FALSE(p.ack_flag());
  EXPECT_EQ(p.SeqSpace(), 1u);
  p.flags = kFin | kAck;
  p.payload = "abc";
  EXPECT_EQ(p.SeqSpace(), 4u);
  p.flags = kAck;
  EXPECT_EQ(p.SeqSpace(), 3u);
}

TEST(SeqArithmetic, HandlesWraparound) {
  EXPECT_TRUE(SeqLt(0xfffffff0u, 0x10u));  // Wrapped comparison.
  EXPECT_TRUE(SeqGt(0x10u, 0xfffffff0u));
  EXPECT_TRUE(SeqLeq(5u, 5u));
  EXPECT_TRUE(SeqGeq(5u, 5u));
  EXPECT_FALSE(SeqLt(5u, 5u));
  EXPECT_TRUE(SeqLt(1u, 2u));
}

TEST(PacketFactories, SynSynAckAckRst) {
  Packet syn = MakeSyn(1, 10, 2, 80, 1000);
  EXPECT_TRUE(syn.syn());
  EXPECT_FALSE(syn.ack_flag());
  EXPECT_EQ(syn.seq, 1000u);

  Packet synack = MakeSynAck(syn, 5000);
  EXPECT_TRUE(synack.syn());
  EXPECT_TRUE(synack.ack_flag());
  EXPECT_EQ(synack.ack, 1001u);
  EXPECT_EQ(synack.src, syn.dst);
  EXPECT_EQ(synack.dport, syn.sport);

  Packet ack = MakeAck(1, 10, 2, 80, 1001, 5001);
  EXPECT_TRUE(ack.ack_flag());
  EXPECT_FALSE(ack.syn());

  Packet rst = MakeRst(syn);
  EXPECT_TRUE(rst.rst());
  EXPECT_EQ(rst.dst, syn.src);
}

TEST(Wire, RoundTripPlainPacket) {
  Packet p;
  p.src = MakeIp(10, 0, 0, 1);
  p.dst = MakeIp(10, 0, 0, 2);
  p.sport = 12345;
  p.dport = 80;
  p.seq = 0xdeadbeef;
  p.ack = 0xfeedface;
  p.flags = kAck | kPsh;
  p.window = 4096;
  p.payload = "GET / HTTP/1.0\r\n\r\n";
  auto bytes = SerializePacket(p);
  std::string error;
  auto parsed = ParsePacket(bytes, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->src, p.src);
  EXPECT_EQ(parsed->dst, p.dst);
  EXPECT_EQ(parsed->sport, p.sport);
  EXPECT_EQ(parsed->dport, p.dport);
  EXPECT_EQ(parsed->seq, p.seq);
  EXPECT_EQ(parsed->ack, p.ack);
  EXPECT_EQ(parsed->flags, p.flags);
  EXPECT_EQ(parsed->window, p.window);
  EXPECT_EQ(parsed->payload, p.payload);
}

TEST(Wire, RoundTripEmptyPayload) {
  Packet p = MakeSyn(MakeIp(1, 1, 1, 1), 1, MakeIp(2, 2, 2, 2), 2, 42);
  auto parsed = ParsePacket(SerializePacket(p));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->payload, "");
  EXPECT_TRUE(parsed->syn());
}

TEST(Wire, DetectsCorruptedPayload) {
  Packet p;
  p.src = 1;
  p.dst = 2;
  p.payload = "hello world";
  auto bytes = SerializePacket(p);
  bytes[45] ^= 0xff;  // Flip a payload byte.
  std::string error;
  EXPECT_FALSE(ParsePacket(bytes, &error).has_value());
  EXPECT_EQ(error, "bad TCP checksum");
}

TEST(Wire, DetectsCorruptedIpHeader) {
  Packet p;
  p.src = 1;
  p.dst = 2;
  auto bytes = SerializePacket(p);
  bytes[12] ^= 0x01;  // Source IP byte.
  std::string error;
  EXPECT_FALSE(ParsePacket(bytes, &error).has_value());
  EXPECT_EQ(error, "bad IPv4 header checksum");
}

TEST(Wire, RejectsTruncatedDatagram) {
  std::vector<std::uint8_t> bytes(10, 0);
  std::string error;
  EXPECT_FALSE(ParsePacket(bytes, &error).has_value());
  EXPECT_EQ(error, "datagram too short");
}

TEST(Wire, RejectsLengthMismatch) {
  Packet p;
  p.src = 1;
  p.dst = 2;
  p.payload = "abc";
  auto bytes = SerializePacket(p);
  bytes.push_back(0);  // Trailing garbage.
  std::string error;
  EXPECT_FALSE(ParsePacket(bytes, &error).has_value());
  EXPECT_EQ(error, "IP total length mismatch");
}

TEST(Wire, ChecksumOfZeroesIsAllOnes) {
  std::uint8_t zeroes[8] = {0};
  EXPECT_EQ(InternetChecksum(zeroes, 8), 0xffff);
}

// Property: random packets round-trip byte-exactly through the wire codec.
class WireFuzz : public ::testing::TestWithParam<int> {};

TEST_P(WireFuzz, RandomPacketRoundTrip) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  Packet p;
  p.src = static_cast<IpAddr>(rng.UniformInt(0, 0xffffffffLL));
  p.dst = static_cast<IpAddr>(rng.UniformInt(0, 0xffffffffLL));
  p.sport = static_cast<Port>(rng.UniformInt(0, 65535));
  p.dport = static_cast<Port>(rng.UniformInt(0, 65535));
  p.seq = static_cast<std::uint32_t>(rng.UniformInt(0, 0xffffffffLL));
  p.ack = static_cast<std::uint32_t>(rng.UniformInt(0, 0xffffffffLL));
  p.flags = static_cast<std::uint8_t>(rng.UniformInt(0, 31));
  p.window = static_cast<std::uint16_t>(rng.UniformInt(0, 65535));
  const auto len = static_cast<std::size_t>(rng.UniformInt(0, 1400));
  std::string bytes;
  bytes.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    bytes.push_back(static_cast<char>(rng.UniformInt(0, 255)));
  }
  p.payload = std::move(bytes);
  auto parsed = ParsePacket(SerializePacket(p));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->src, p.src);
  EXPECT_EQ(parsed->dst, p.dst);
  EXPECT_EQ(parsed->sport, p.sport);
  EXPECT_EQ(parsed->dport, p.dport);
  EXPECT_EQ(parsed->seq, p.seq);
  EXPECT_EQ(parsed->ack, p.ack);
  EXPECT_EQ(parsed->flags, p.flags);
  EXPECT_EQ(parsed->payload, p.payload);
}

INSTANTIATE_TEST_SUITE_P(Fuzz, WireFuzz, ::testing::Range(0, 20));

TEST(Wire, EverySingleByteFlipIsDetected) {
  Packet p;
  p.src = MakeIp(10, 0, 0, 1);
  p.dst = MakeIp(10, 0, 0, 2);
  p.sport = 1234;
  p.dport = 80;
  p.seq = 42;
  p.flags = kAck | kPsh;
  p.payload = "integrity matters";
  const auto bytes = SerializePacket(p);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    auto corrupted = bytes;
    corrupted[i] ^= 0x01;
    auto parsed = ParsePacket(corrupted);
    // Either rejected outright, or (for non-covered fields like TTL) the
    // parse differs... but our codec covers everything with one of the two
    // checksums, so every flip must be caught.
    EXPECT_FALSE(parsed.has_value()) << "flip at byte " << i << " went undetected";
  }
}

TEST(Wire, ByteWriterReaderRoundTrip) {
  ByteWriter w;
  w.U8(0xab);
  w.U16(0x1234);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefULL);
  w.Str("hello");
  auto data = w.Take();
  ByteReader r(data);
  EXPECT_EQ(r.U8(), 0xab);
  EXPECT_EQ(r.U16(), 0x1234);
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.Str(), "hello");
  EXPECT_TRUE(r.AtEnd());
  EXPECT_FALSE(r.U8().has_value());  // Past the end.
}

// ---------------------------------------------------------------------------
// Network fabric.
// ---------------------------------------------------------------------------

class Collector : public Node {
 public:
  explicit Collector(const sim::Simulator* clock = nullptr) : clock_(clock) {}
  void HandlePacket(const Packet& p) override {
    received.push_back(p);
    if (clock_ != nullptr) {
      arrived_at.push_back(clock_->now());
    }
  }
  std::vector<Packet> received;
  std::vector<sim::Time> arrived_at;  // Delivery instants, when given a clock.

 private:
  const sim::Simulator* clock_;
};

class NetworkTest : public ::testing::Test {
 protected:
  sim::ShardedSim engine{{.shards = 1}};
  sim::Simulator& simulator = engine.shard(0);
  Network network{&engine, 99};
  Collector a{&simulator}, b{&simulator};
  const IpAddr ip_a = MakeIp(10, 0, 0, 1);
  const IpAddr ip_b = MakeIp(10, 0, 0, 2);

  void SetUp() override {
    network.Attach(ip_a, &a);
    network.Attach(ip_b, &b);
  }

  Packet PacketAB() {
    Packet p;
    p.src = ip_a;
    p.dst = ip_b;
    p.payload = "x";
    return p;
  }
};

TEST_F(NetworkTest, DeliversToAttachedNode) {
  network.Send(PacketAB());
  simulator.Run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].payload, "x");
  EXPECT_EQ(network.stats().delivered, 1u);
}

TEST_F(NetworkTest, AppliesRegionLatency) {
  network.SetLatency(Region::kDatacenter, Region::kDatacenter, sim::Msec(5), 0);
  network.Send(PacketAB());
  simulator.Run();
  ASSERT_EQ(b.arrived_at.size(), 1u);
  EXPECT_EQ(b.arrived_at[0], sim::Msec(5));
}

TEST_F(NetworkTest, CrossRegionLatencyDiffers) {
  Collector c;
  const IpAddr ip_c = MakeIp(10, 9, 0, 1);
  network.Attach(ip_c, &c, Region::kInternet);
  network.SetLatency(Region::kDatacenter, Region::kInternet, sim::Msec(33), 0);
  network.SetLatency(Region::kDatacenter, Region::kDatacenter, sim::Usec(250), 0);
  Packet p = PacketAB();
  p.dst = ip_c;
  network.Send(std::move(p));
  simulator.Run();
  EXPECT_EQ(simulator.now(), sim::Msec(33));
}

TEST_F(NetworkTest, DownNodeBlackholes) {
  network.SetNodeDown(ip_b, true);
  network.Send(PacketAB());
  simulator.Run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(network.stats().dropped_down, 1u);
  network.SetNodeDown(ip_b, false);
  network.Send(PacketAB());
  simulator.Run();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST_F(NetworkTest, UnroutableDropsSilently) {
  Packet p = PacketAB();
  p.dst = MakeIp(99, 99, 99, 99);
  network.Send(std::move(p));
  simulator.Run();
  EXPECT_EQ(network.stats().dropped_unroutable, 1u);
}

TEST_F(NetworkTest, LossRateDropsApproximately) {
  network.set_loss_rate(0.5);
  for (int i = 0; i < 2000; ++i) {
    network.Send(PacketAB());
  }
  simulator.Run();
  EXPECT_NEAR(static_cast<double>(b.received.size()), 1000, 120);
}

TEST_F(NetworkTest, EncapRoutesOnOuterDestination) {
  Packet p = PacketAB();
  p.encap_dst = ip_a;  // Inner dst is b, outer says deliver to a.
  network.Send(std::move(p));
  simulator.Run();
  ASSERT_EQ(a.received.size(), 1u);
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(a.received[0].dst, ip_b);  // Inner header preserved.
}

TEST_F(NetworkTest, DetachMakesUnroutable) {
  network.Detach(ip_b);
  EXPECT_FALSE(network.IsAttached(ip_b));
  network.Send(PacketAB());
  simulator.Run();
  EXPECT_EQ(network.stats().dropped_unroutable, 1u);
}

TEST_F(NetworkTest, TraceIdsAssignedMonotonically) {
  network.Send(PacketAB());
  network.Send(PacketAB());
  simulator.Run();
  ASSERT_EQ(b.received.size(), 2u);
  EXPECT_LT(b.received[0].trace_id, b.received[1].trace_id);
}

// ---------------------------------------------------------------------------
// RNG draw contract + restart semantics.
// ---------------------------------------------------------------------------

// A no-op fault observer: never drops, never delays, draws nothing.
class NoOpFaultObserver : public FaultObserver {
 public:
  FaultVerdict OnSend(const Packet&, IpAddr) override { return FaultVerdict{}; }
};

// Regression for the determinism contract (network.h): the network's own RNG
// draws are conditional — loss only when loss_rate_ > 0, jitter only when the
// region pair's jitter > 0 — so installing a fault observer that never drops
// or delays anything must leave a same-seed run's delivery times bit-identical.
TEST(NetworkDeterminism, NoOpFaultObserverLeavesDeliveryTimesIdentical) {
  auto run = [](bool with_hook) {
    sim::ShardedSim engine({.shards = 1});
    sim::Simulator& simulator = engine.shard(0);
    Network network(&engine, 2024);
    Collector a, b(&simulator);
    network.Attach(MakeIp(10, 0, 0, 1), &a);
    network.Attach(MakeIp(10, 0, 0, 2), &b);
    // Jitter > 0 and loss > 0: both conditional draws are live.
    network.SetLatency(Region::kDatacenter, Region::kDatacenter, sim::Usec(250),
                       sim::Usec(100));
    network.set_loss_rate(0.1);
    NoOpFaultObserver noop;
    if (with_hook) {
      network.set_fault_observer(&noop);
    }
    for (int i = 0; i < 200; ++i) {
      Packet p;
      p.src = MakeIp(10, 0, 0, 1);
      p.dst = MakeIp(10, 0, 0, 2);
      p.payload = "x";
      network.Send(std::move(p));
    }
    simulator.Run();
    return b.arrived_at;  // Every packet goes a -> b.
  };
  EXPECT_EQ(run(false), run(true));
}

// A node with volatile state, for restart-semantics tests.
class StatefulNode : public Node {
 public:
  void HandlePacket(const Packet&) override { ++packets; }
  void OnColdRestart() override {
    packets = 0;
    ++cold_restarts;
  }
  int packets = 0;
  int cold_restarts = 0;
};

TEST(NetworkRestart, WarmReviveKeepsNodeState) {
  sim::ShardedSim engine({.shards = 1});
  sim::Simulator& simulator = engine.shard(0);
  Network network(&engine, 7);
  StatefulNode node;
  Collector peer;
  const IpAddr ip = MakeIp(10, 0, 0, 9);
  network.Attach(ip, &node);
  network.Attach(MakeIp(10, 0, 0, 1), &peer);

  Packet p;
  p.src = MakeIp(10, 0, 0, 1);
  p.dst = ip;
  network.Send(Packet(p));
  simulator.Run();
  ASSERT_EQ(node.packets, 1);

  network.SetNodeDown(ip, true);
  EXPECT_TRUE(network.IsDown(ip));
  network.SetNodeDown(ip, false);  // Warm revive: healed partition.
  EXPECT_FALSE(network.IsDown(ip));
  EXPECT_EQ(node.packets, 1);        // State intact.
  EXPECT_EQ(node.cold_restarts, 0);  // No reboot happened.

  network.Send(std::move(p));
  simulator.Run();
  EXPECT_EQ(node.packets, 2);
}

TEST(NetworkRestart, ColdRestartClearsStateAndRevives) {
  sim::ShardedSim engine({.shards = 1});
  sim::Simulator& simulator = engine.shard(0);
  Network network(&engine, 7);
  StatefulNode node;
  Collector peer;
  const IpAddr ip = MakeIp(10, 0, 0, 9);
  network.Attach(ip, &node);
  network.Attach(MakeIp(10, 0, 0, 1), &peer);

  Packet p;
  p.src = MakeIp(10, 0, 0, 1);
  p.dst = ip;
  network.Send(Packet(p));
  simulator.Run();
  ASSERT_EQ(node.packets, 1);

  network.SetNodeDown(ip, true);
  network.RestartNode(ip);  // Cold: rebooted VM, volatile state gone.
  EXPECT_FALSE(network.IsDown(ip));
  EXPECT_EQ(node.packets, 0);
  EXPECT_EQ(node.cold_restarts, 1);

  network.Send(std::move(p));  // The attachment survived the reboot.
  simulator.Run();
  EXPECT_EQ(node.packets, 1);
}

TEST(NetworkRestart, RestartOfUnattachedAddressIsNoOp) {
  sim::ShardedSim engine({.shards = 1});
  Network network(&engine, 7);
  network.RestartNode(MakeIp(99, 0, 0, 1));  // Must not crash.
  EXPECT_FALSE(network.IsDown(MakeIp(99, 0, 0, 1)));
}

TEST(NetworkProbe, ProbePathSeesDownAndHookButDrawsNothing) {
  sim::ShardedSim engine({.shards = 1});
  Network network(&engine, 11);
  Collector a, b;
  const IpAddr ip_a = MakeIp(10, 0, 0, 1);
  const IpAddr ip_b = MakeIp(10, 0, 0, 2);
  network.Attach(ip_a, &a);
  network.Attach(ip_b, &b);

  EXPECT_TRUE(network.ProbePath(ip_a, ip_b));
  EXPECT_FALSE(network.ProbePath(ip_a, MakeIp(99, 0, 0, 1)));  // Unattached.

  network.SetNodeDown(ip_b, true);
  EXPECT_FALSE(network.ProbePath(ip_a, ip_b));
  network.SetNodeDown(ip_b, false);

  // An observer that drops everything blinds the probe; probes are
  // kAck-shaped so a SYN-only filter does not.
  class SynFilter : public FaultObserver {
   public:
    FaultVerdict OnSend(const Packet& p, IpAddr) override {
      return FaultVerdict{/*drop=*/p.syn() && !p.ack_flag(), 0};
    }
  } syn_filter;
  class DropAll : public FaultObserver {
   public:
    FaultVerdict OnSend(const Packet&, IpAddr) override { return FaultVerdict{true, 0}; }
  } drop_all;
  network.set_fault_observer(&syn_filter);
  EXPECT_TRUE(network.ProbePath(ip_a, ip_b));
  network.set_fault_observer(&drop_all);
  EXPECT_FALSE(network.ProbePath(ip_a, ip_b));
}

// ---------------------------------------------------------------------------
// Packet pool.
// ---------------------------------------------------------------------------

TEST_F(NetworkTest, PacketPoolReusesSlotsAcrossDeliveries) {
  // Sequential sends never overlap in flight, so the pool should stabilize
  // at one slot and reuse it for every delivery.
  for (int i = 0; i < 100; ++i) {
    network.Send(PacketAB());
    simulator.Run();
  }
  EXPECT_EQ(b.received.size(), 100u);
  EXPECT_EQ(network.packet_pool_slots(), 1u);
  EXPECT_EQ(network.packets_in_flight(), 0u);
}

TEST_F(NetworkTest, PacketPoolGrowsToConcurrentInFlight) {
  for (int i = 0; i < 64; ++i) {
    network.Send(PacketAB());
  }
  EXPECT_EQ(network.packets_in_flight(), 64u);
  simulator.Run();
  // All slots returned after delivery; a second burst reuses them.
  EXPECT_EQ(network.packet_pool_slots(), 64u);
  EXPECT_EQ(network.packet_pool_free(), 64u);
  for (int i = 0; i < 64; ++i) {
    network.Send(PacketAB());
  }
  EXPECT_EQ(network.packet_pool_slots(), 64u);  // No growth.
  simulator.Run();
  EXPECT_EQ(network.packets_in_flight(), 0u);
}

TEST_F(NetworkTest, PacketPoolReturnsSlotOnEveryDropPath) {
  // Unroutable drop (decided at delivery time).
  Packet p = PacketAB();
  p.dst = MakeIp(99, 99, 99, 99);
  network.Send(std::move(p));
  simulator.Run();
  EXPECT_EQ(network.stats().dropped_unroutable, 1u);
  EXPECT_EQ(network.packets_in_flight(), 0u);

  // Down-node drop (decided at delivery time).
  network.SetNodeDown(ip_b, true);
  network.Send(PacketAB());
  simulator.Run();
  EXPECT_EQ(network.stats().dropped_down, 1u);
  EXPECT_EQ(network.packets_in_flight(), 0u);
  network.SetNodeDown(ip_b, false);

  // Loss drop (decided at send time).
  network.set_loss_rate(1.0);
  network.Send(PacketAB());
  EXPECT_EQ(network.stats().dropped_loss, 1u);
  EXPECT_EQ(network.packets_in_flight(), 0u);
  network.set_loss_rate(0.0);

  // Fault-observer drop (decided at send time).
  class DropAll : public FaultObserver {
   public:
    FaultVerdict OnSend(const Packet&, IpAddr) override { return FaultVerdict{true, 0}; }
  } drop_all;
  network.set_fault_observer(&drop_all);
  network.Send(PacketAB());
  EXPECT_EQ(network.stats().dropped_fault, 1u);
  EXPECT_EQ(network.packets_in_flight(), 0u);
  network.set_fault_observer(nullptr);

  simulator.Run();
  EXPECT_EQ(network.stats().delivered, 0u);
}

// ---------------------------------------------------------------------------
// One network over a 2-shard engine.
// ---------------------------------------------------------------------------

// Two nodes on different shards of one engine: kShard0Ip lives on shard 0,
// kShard1Ip on shard 1 (the resolver reads the host octet). Each node logs
// the time and the executing shard of every delivery, and answers every
// packet whose payload is a positive count with count - 1, so traffic
// ping-pongs across the shard boundary.
class TwoShardNet {
 public:
  static constexpr IpAddr kShard0Ip = MakeIp(10, 0, 0, 1);
  static constexpr IpAddr kShard1Ip = MakeIp(10, 0, 0, 2);

  struct Delivery {
    sim::Time at;
    int shard;
    std::string payload;
    bool operator==(const Delivery&) const = default;
    friend void PrintTo(const Delivery& d, std::ostream* os) {
      *os << "{at=" << d.at << " shard=" << d.shard << " payload=" << d.payload << "}";
    }
  };

  class PingNode : public Node {
   public:
    PingNode(Network* net, sim::Simulator* sim, IpAddr self) : net_(net), sim_(sim), self_(self) {}
    void HandlePacket(const Packet& p) override {
      const std::string payload(p.payload);
      log.push_back({sim_->now(), sim::ShardedSim::current_shard(), payload});
      const int count = std::stoi(payload);
      if (count > 0) {
        net_->Send(Make(self_, p.src, count - 1));
      }
    }
    static Packet Make(IpAddr src, IpAddr dst, int count) {
      Packet out;
      out.src = src;
      out.dst = dst;
      out.payload = std::to_string(count);
      return out;
    }
    std::vector<Delivery> log;

   private:
    Network* net_;
    sim::Simulator* sim_;
    IpAddr self_;
  };

  TwoShardNet(int workers, sim::Duration jitter)
      : engine({.shards = 2, .workers = workers, .window = sim::Usec(200)}),
        network(&engine, 5, [](IpAddr ip) { return static_cast<int>(ip & 0xff) - 1; }),
        node0(&network, &engine.shard(0), kShard0Ip),
        node1(&network, &engine.shard(1), kShard1Ip) {
    network.SetLatency(Region::kDatacenter, Region::kDatacenter, sim::Usec(250), jitter);
    network.Attach(kShard0Ip, &node0);
    network.Attach(kShard1Ip, &node1);
  }

  sim::ShardedSim engine;
  Network network;
  PingNode node0, node1;
};

TEST(NetworkTwoShards, CrossShardSendLandsOnDestinationLaneAtSendPlusLatency) {
  TwoShardNet t(/*workers=*/2, /*jitter=*/0);
  t.engine.shard(0).At(sim::Msec(1), [&t]() {
    t.network.Send(TwoShardNet::PingNode::Make(TwoShardNet::kShard0Ip, TwoShardNet::kShard1Ip, 1));
  });
  t.engine.Run();
  using D = TwoShardNet::Delivery;
  // The request runs on shard 1 exactly one latency after it left shard 0;
  // the answer comes back to shard 0 one latency later.
  EXPECT_EQ(t.node1.log, (std::vector<D>{{sim::Msec(1) + sim::Usec(250), 1, "1"}}));
  EXPECT_EQ(t.node0.log, (std::vector<D>{{sim::Msec(1) + sim::Usec(500), 0, "0"}}));
  EXPECT_EQ(t.network.stats().delivered, 2u);
  EXPECT_EQ(t.network.packets_in_flight(), 0u);
}

TEST(NetworkTwoShards, NodeDownIssuedInsideTheEpochLoopReachesEveryLaneAtTheNextBarrier) {
  // One worker runs shard 0's window before shard 1's, so a write applied
  // early would be seen; two workers run them concurrently.
  for (const int workers : {1, 2}) {
    SCOPED_TRACE(workers);
    TwoShardNet t(workers, /*jitter=*/0);
    const sim::Time t0 = sim::Msec(1);
    sim::Time barrier = -1;
    bool down_on_issuing_lane = true;
    t.engine.shard(0).At(t0, [&]() {
      t.network.SetNodeDown(TwoShardNet::kShard1Ip, true);
      down_on_issuing_lane = t.network.IsDown(TwoShardNet::kShard1Ip);
      // Mail issued in the same event lands at the same barrier.
      t.engine.CallOn(1, [&]() { barrier = t.engine.shard(1).now(); });
    });
    // Each lane reads its own replica of the down flag every 50 us.
    std::vector<std::pair<sim::Time, bool>> seen[2];
    for (int s = 0; s < 2; ++s) {
      for (int k = 1; k <= 8; ++k) {
        const sim::Time at = t0 + k * sim::Usec(50);
        t.engine.shard(s).At(at, [&t, &seen, s, at]() {
          seen[s].emplace_back(at, t.network.IsDown(TwoShardNet::kShard1Ip));
        });
      }
    }
    t.engine.Run();

    EXPECT_FALSE(down_on_issuing_lane);  // Not even the issuing lane before the barrier.
    ASSERT_GT(barrier, t0);
    ASSERT_LE(barrier, t0 + t.engine.window());
    for (int s = 0; s < 2; ++s) {
      ASSERT_EQ(seen[s].size(), 8u);
      for (const auto& [at, down] : seen[s]) {
        if (at != barrier) {
          EXPECT_EQ(down, at > barrier) << "shard " << s << " at " << at;
        }
      }
    }
  }
}

TEST(NetworkTwoShards, DeliveriesIdenticalOnOneAndTwoWorkers) {
  using D = TwoShardNet::Delivery;
  auto run = [](int workers) {
    // Jitter draws come from each lane's own RNG stream; the down window
    // drops part of the ping-pong mid-run.
    TwoShardNet t(workers, /*jitter=*/sim::Usec(40));
    for (int s = 0; s < 2; ++s) {
      const IpAddr self = s == 0 ? TwoShardNet::kShard0Ip : TwoShardNet::kShard1Ip;
      const IpAddr peer = s == 0 ? TwoShardNet::kShard1Ip : TwoShardNet::kShard0Ip;
      for (int i = 0; i < 5; ++i) {
        t.engine.shard(s).At(sim::Msec(1) + i * sim::Usec(70), [&t, self, peer]() {
          t.network.Send(TwoShardNet::PingNode::Make(self, peer, 30));
        });
      }
    }
    t.engine.shard(0).At(sim::Msec(4), [&t]() { t.network.SetNodeDown(TwoShardNet::kShard1Ip, true); });
    t.engine.shard(1).At(sim::Msec(6), [&t]() { t.network.SetNodeDown(TwoShardNet::kShard1Ip, false); });
    t.engine.Run();
    return std::make_pair(std::make_pair(t.node0.log, t.node1.log),
                          std::make_pair(t.network.stats().delivered, t.network.stats().dropped_down));
  };
  const auto one = run(1);
  const auto two = run(2);
  EXPECT_FALSE(one.first.first.empty());
  EXPECT_FALSE(one.first.second.empty());
  EXPECT_GT(one.second.second, 0u);  // The down window dropped something.
  for (const D& d : one.first.first) {
    EXPECT_EQ(d.shard, 0);
  }
  for (const D& d : one.first.second) {
    EXPECT_EQ(d.shard, 1);
  }
  EXPECT_EQ(one, two);
}

}  // namespace
}  // namespace net
