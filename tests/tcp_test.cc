// TcpEndpoint state-machine tests: two endpoints talking across the
// simulated fabric, including loss, reordering-by-jitter, teardown and abort.

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/net/network.h"
#include "src/net/tcp_endpoint.h"
#include "src/sim/sharded_sim.h"

namespace net {
namespace {

class EndpointNode : public Node {
 public:
  void HandlePacket(const Packet& p) override {
    if (ep != nullptr) {
      ep->HandlePacket(p);
    }
  }
  TcpEndpoint* ep = nullptr;
};

class TcpTest : public ::testing::Test {
 protected:
  static constexpr IpAddr kClientIp = MakeIp(10, 0, 0, 1);
  static constexpr IpAddr kServerIp = MakeIp(10, 0, 0, 2);

  sim::ShardedSim engine{{.shards = 1}};
  sim::Simulator& simulator = engine.shard(0);
  Network network{&engine, 17};
  EndpointNode client_node, server_node;
  std::unique_ptr<TcpEndpoint> client, server;
  std::string client_received, server_received;
  bool client_connected = false, server_connected = false;
  bool client_closed = false, server_closed = false;
  bool client_reset = false, client_failed = false;
  // When each of the client's data-bearing segments left, retransmissions
  // included.
  std::vector<sim::Time> client_data_tx;

  void SetUp() override {
    network.Attach(kClientIp, &client_node);
    network.Attach(kServerIp, &server_node);
    network.SetLatency(Region::kDatacenter, Region::kDatacenter, sim::Msec(1), 0);

    TcpConfig cfg;
    client = std::make_unique<TcpEndpoint>(
        &simulator,
        [this](Packet p) {
          if (!p.payload.empty()) {
            client_data_tx.push_back(simulator.now());
          }
          network.Send(std::move(p));
        },
        cfg);
    server = std::make_unique<TcpEndpoint>(
        &simulator, [this](Packet p) { network.Send(std::move(p)); }, cfg);
    client_node.ep = client.get();
    server_node.ep = server.get();

    client->set_on_data([this](std::string_view d) { client_received.append(d); });
    server->set_on_data([this](std::string_view d) { server_received.append(d); });
    client->set_on_connected([this]() { client_connected = true; });
    server->set_on_connected([this]() { server_connected = true; });
    client->set_on_closed([this]() { client_closed = true; });
    server->set_on_closed([this]() { server_closed = true; });
    client->set_on_reset([this]() { client_reset = true; });
    client->set_on_failed([this]() { client_failed = true; });

    // Server adopts the first SYN it sees.
    server_node.ep = nullptr;
    server_syn_hook_.ep = server.get();
    network.Attach(kServerIp, &server_syn_hook_);
  }

  // Wrapper node that passively opens on SYN, then delegates.
  class AcceptingNode : public Node {
   public:
    void HandlePacket(const Packet& p) override {
      if (p.syn() && !p.ack_flag() && ep->state() == TcpState::kClosed) {
        ep->AcceptFrom(p, 777'000);
        return;
      }
      ep->HandlePacket(p);
    }
    TcpEndpoint* ep = nullptr;
  };
  AcceptingNode server_syn_hook_;

  void Connect() { client->Connect(kClientIp, 5555, kServerIp, 80, 111'000); }
};

TEST_F(TcpTest, ThreeWayHandshake) {
  Connect();
  simulator.Run();
  EXPECT_TRUE(client_connected);
  EXPECT_TRUE(server_connected);
  EXPECT_EQ(client->state(), TcpState::kEstablished);
  EXPECT_EQ(server->state(), TcpState::kEstablished);
  EXPECT_EQ(client->snd_isn(), 111'000u);
  EXPECT_EQ(client->rcv_isn(), 777'000u);
}

TEST_F(TcpTest, ClientToServerData) {
  Connect();
  client->Send("hello tcp");
  simulator.Run();
  EXPECT_EQ(server_received, "hello tcp");
}

TEST_F(TcpTest, ServerToClientDataAfterConnect) {
  server->set_on_connected([this]() { server->Send("welcome"); });
  Connect();
  simulator.Run();
  EXPECT_EQ(client_received, "welcome");
}

TEST_F(TcpTest, BidirectionalEcho) {
  server->set_on_data([this](std::string_view d) {
    server_received.append(d);
    server->Send("echo:" + std::string(d));
  });
  Connect();
  client->Send("ping");
  simulator.Run();
  EXPECT_EQ(server_received, "ping");
  EXPECT_EQ(client_received, "echo:ping");
}

TEST_F(TcpTest, LargeTransferSegmentsAndReassembles) {
  Connect();
  std::string big(100'000, 'a');
  for (std::size_t i = 0; i < big.size(); i += 1000) {
    big[i] = static_cast<char>('A' + (i / 1000) % 26);
  }
  client->Send(big);
  simulator.Run();
  EXPECT_EQ(server_received, big);
  EXPECT_GT(client->stats().segments_sent, big.size() / 1400);
}

TEST_F(TcpTest, SendBeforeEstablishedIsBuffered) {
  Connect();
  client->Send("early");  // Still in SYN_SENT.
  simulator.Run();
  EXPECT_EQ(server_received, "early");
}

TEST_F(TcpTest, SurvivesHeavyLoss) {
  network.set_loss_rate(0.15);
  Connect();
  std::string payload(30'000, 'z');
  client->Send(payload);
  simulator.Run();
  EXPECT_EQ(server_received, payload);
  EXPECT_GT(client->stats().retransmits, 0u);
}

TEST_F(TcpTest, GracefulCloseFromClient) {
  Connect();
  client->Send("bye");
  simulator.RunUntil(sim::Msec(100));
  client->Close();
  simulator.Run();
  EXPECT_EQ(server_received, "bye");
  // Server saw the FIN and closed; client cycled through TIME_WAIT.
  EXPECT_TRUE(server_closed);
  EXPECT_EQ(server->state(), TcpState::kCloseWait);
  server->Close();
  simulator.Run();
  EXPECT_EQ(server->state(), TcpState::kClosed);
  EXPECT_EQ(client->state(), TcpState::kClosed);
}

TEST_F(TcpTest, CloseWithPendingDataDrainsFirst) {
  Connect();
  std::string payload(20'000, 'q');
  client->Send(payload);
  client->Close();  // FIN must trail the data.
  simulator.Run();
  EXPECT_EQ(server_received, payload);
  EXPECT_TRUE(server_closed);
}

TEST_F(TcpTest, ServerInitiatedClose) {
  server->set_on_connected([this]() {
    server->Send("done");
    server->Close();
  });
  Connect();
  simulator.Run();
  EXPECT_EQ(client_received, "done");
  EXPECT_TRUE(client_closed);
  client->Close();
  simulator.Run();
  EXPECT_EQ(server->state(), TcpState::kClosed);
}

TEST_F(TcpTest, AbortSendsRst) {
  Connect();
  simulator.RunUntil(sim::Msec(50));
  ASSERT_TRUE(server_connected);
  server->Abort();
  simulator.Run();
  EXPECT_TRUE(client_reset);
  EXPECT_EQ(client->state(), TcpState::kReset);
}

TEST_F(TcpTest, SynRetransmitsWhenServerUnreachable) {
  network.SetNodeDown(kServerIp, true);
  Connect();
  simulator.RunUntil(sim::Sec(4));
  EXPECT_EQ(client->state(), TcpState::kSynSent);
  EXPECT_GT(client->stats().retransmits, 0u);
  // Recover before retries exhaust: the connection completes.
  network.SetNodeDown(kServerIp, false);
  simulator.Run();
  EXPECT_TRUE(client_connected);
}

TEST_F(TcpTest, ConnectFailsAfterRetriesExhaust) {
  network.SetNodeDown(kServerIp, true);
  Connect();
  simulator.Run();
  EXPECT_TRUE(client_failed);
  EXPECT_EQ(client->state(), TcpState::kReset);
}

TEST_F(TcpTest, DataRetransmitGivesUpEventually) {
  Connect();
  simulator.RunUntil(sim::Msec(50));
  ASSERT_TRUE(client_connected);
  network.SetNodeDown(kServerIp, true);
  client->Send("lost into the void");
  simulator.Run();
  EXPECT_TRUE(client_failed);
}

TEST_F(TcpTest, RetransmissionTimelineFollows300msBackoff) {
  // Fig 12(b): the lost segment goes out again 300 ms after it left (the
  // initial RTO), then 600 ms after that (the RTO doubled).
  Connect();
  simulator.RunUntil(sim::Msec(50));
  network.SetNodeDown(kServerIp, true);
  const sim::Time sent_at = simulator.now();
  client_data_tx.clear();
  client->Send("x");
  simulator.RunUntil(sent_at + sim::Msec(1000));
  EXPECT_EQ(client_data_tx, (std::vector<sim::Time>{sent_at, sent_at + sim::Msec(300),
                                                    sent_at + sim::Msec(900)}));
  // stats.timeouts counts RTO fires: the two above.
  EXPECT_EQ(client->stats().timeouts, 2u);
}

TEST_F(TcpTest, DuplicateSynAckIsReAcked) {
  Connect();
  simulator.RunUntil(sim::Msec(100));
  ASSERT_TRUE(client_connected);
  // Replay the server's SYN-ACK at the client.
  Packet dup;
  dup.src = kServerIp;
  dup.dst = kClientIp;
  dup.sport = 80;
  dup.dport = 5555;
  dup.seq = 777'000;
  dup.ack = 111'001;
  dup.flags = kSyn | kAck;
  client->HandlePacket(dup);
  simulator.Run();
  EXPECT_EQ(client->state(), TcpState::kEstablished);
}

TEST_F(TcpTest, StatsCountBytes) {
  Connect();
  client->Send("12345");
  simulator.Run();
  EXPECT_EQ(server->stats().bytes_delivered, 5u);
  EXPECT_GE(client->stats().bytes_sent, 5u);
}

TEST_F(TcpTest, StateNamesAreStable) {
  EXPECT_STREQ(TcpStateName(TcpState::kClosed), "CLOSED");
  EXPECT_STREQ(TcpStateName(TcpState::kEstablished), "ESTABLISHED");
  EXPECT_STREQ(TcpStateName(TcpState::kTimeWait), "TIME_WAIT");
  EXPECT_STREQ(TcpStateName(TcpState::kReset), "RESET");
}

// Jitter shuffles delivery order; reassembly must still produce the stream.
TEST_F(TcpTest, ReorderingToleratedViaJitter) {
  network.SetLatency(Region::kDatacenter, Region::kDatacenter, sim::Usec(100), sim::Usec(900));
  Connect();
  std::string payload;
  for (int i = 0; i < 5000; ++i) {
    payload += static_cast<char>('a' + i % 26);
  }
  client->Send(payload);
  simulator.Run();
  EXPECT_EQ(server_received, payload);
}

// Property sweep: the byte stream survives any loss rate / seed combination,
// whether it is queued by one Send or by many of uneven size. Many pieces make
// segments straddle Send boundaries and make retransmissions after a partial
// ACK start in the middle of a queued chunk.
struct LossCase {
  const char* name;
  double loss;
  int seed;
  int pieces;  // Send calls the 40,000-byte payload is split into.
};

// Without this gtest prints the raw bytes of the case, padding and pointers
// included, so the test names that ctest discovers would not be stable.
void PrintTo(const LossCase& c, std::ostream* os) { *os << c.name; }

class TcpLossSweep : public ::testing::TestWithParam<LossCase> {};

TEST_P(TcpLossSweep, StreamIntegrityUnderLoss) {
  const LossCase c = GetParam();
  sim::ShardedSim engine({.shards = 1});
  sim::Simulator& simulator = engine.shard(0);
  Network network(&engine, static_cast<std::uint64_t>(c.seed));
  network.SetLatency(Region::kDatacenter, Region::kDatacenter, sim::Msec(1), sim::Usec(500));
  network.set_loss_rate(c.loss);

  EndpointNode a_node, b_node;
  network.Attach(MakeIp(10, 0, 0, 1), &a_node);
  TcpEndpoint a(&simulator, [&network](Packet p) { network.Send(std::move(p)); }, {});
  TcpEndpoint b(&simulator, [&network](Packet p) { network.Send(std::move(p)); }, {});
  a_node.ep = &a;
  std::string received;
  b.set_on_data([&received](std::string_view d) { received.append(d); });
  // Accept-on-SYN shim.
  class Acceptor : public Node {
   public:
    void HandlePacket(const Packet& p) override {
      if (p.syn() && !p.ack_flag() && ep->state() == TcpState::kClosed) {
        ep->AcceptFrom(p, 1'000'000);
        return;
      }
      ep->HandlePacket(p);
    }
    TcpEndpoint* ep = nullptr;
  } acceptor;
  acceptor.ep = &b;
  network.Attach(MakeIp(10, 0, 0, 2), &acceptor);

  a.Connect(MakeIp(10, 0, 0, 1), 999, MakeIp(10, 0, 0, 2), 80, 5'000);
  std::string payload;
  sim::Rng rng(static_cast<std::uint64_t>(c.seed) + 1);
  for (int i = 0; i < 40'000; ++i) {
    payload.push_back(static_cast<char>('a' + rng.UniformInt(0, 25)));
  }
  // Distinct cut points, so every piece is non-empty and the sizes vary.
  std::set<std::size_t> cuts{0, payload.size()};
  while (cuts.size() < static_cast<std::size_t>(c.pieces) + 1) {
    cuts.insert(static_cast<std::size_t>(
        rng.UniformInt(1, static_cast<std::int64_t>(payload.size()) - 1)));
  }
  for (auto it = cuts.begin(); std::next(it) != cuts.end(); ++it) {
    a.Send(payload.substr(*it, *std::next(it) - *it));
  }
  simulator.Run();
  EXPECT_EQ(received, payload) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TcpLossSweep,
    ::testing::Values(LossCase{"loss1_seed1", 0.01, 1, 1}, LossCase{"loss5_seed2", 0.05, 2, 1},
                      LossCase{"loss10_seed3", 0.10, 3, 1}, LossCase{"loss20_seed4", 0.20, 4, 1},
                      LossCase{"loss30_seed5", 0.30, 5, 1}, LossCase{"loss10_seed6", 0.10, 6, 1},
                      LossCase{"loss10_seed7", 0.10, 7, 1}, LossCase{"loss5_seed8", 0.05, 8, 1},
                      LossCase{"loss5_seed9_7pieces", 0.05, 9, 7},
                      LossCase{"loss10_seed10_37pieces", 0.10, 10, 37},
                      LossCase{"loss20_seed11_97pieces", 0.20, 11, 97},
                      LossCase{"loss30_seed12_400pieces", 0.30, 12, 400}));

// One Send of several MSS goes out as slices of that one buffer: the endpoint
// neither copies the bytes nor allocates a buffer per segment.
TEST(TcpSendQueue, SegmentsAreSlicesOfTheSendBuffer) {
  sim::Simulator simulator;
  std::vector<Packet> sent;
  TcpEndpoint ep(&simulator, [&sent](Packet p) { sent.push_back(std::move(p)); }, {});
  ep.Connect(MakeIp(10, 0, 0, 1), 999, MakeIp(10, 0, 0, 2), 80, 5'000);
  ASSERT_EQ(sent.size(), 1u);
  ep.HandlePacket(MakeSynAck(sent[0], 9'000));
  ASSERT_TRUE(ep.established());
  sent.clear();

  const std::uint32_t mss = TcpConfig{}.mss;
  std::string data(3 * mss, '\0');
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>('a' + i % 26);
  }
  const std::string expected = data;
  ep.Send(std::move(data));

  std::vector<const Packet*> segments;
  for (const Packet& p : sent) {
    if (!p.payload.empty()) {
      segments.push_back(&p);
    }
  }
  ASSERT_EQ(segments.size(), 3u);
  for (std::size_t i = 0; i < segments.size(); ++i) {
    EXPECT_EQ(segments[i]->payload, std::string_view(expected).substr(i * mss, mss));
    EXPECT_EQ(segments[i]->has(kPsh), i + 1 == segments.size());
  }
  for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
    EXPECT_EQ(segments[i + 1]->payload.data(), segments[i]->payload.data() + mss);
  }
}

// An endpoint that has completed an active open toward 10.0.0.2:80 (its own
// ISN 5,000, the peer's 9,000), with the handshake's packets cleared from
// `sent`.
std::unique_ptr<TcpEndpoint> EstablishedEndpoint(sim::Simulator* simulator,
                                                 std::vector<Packet>* sent) {
  auto ep = std::make_unique<TcpEndpoint>(
      simulator, [sent](Packet p) { sent->push_back(std::move(p)); }, TcpConfig{});
  ep->Connect(MakeIp(10, 0, 0, 1), 999, MakeIp(10, 0, 0, 2), 80, 5'000);
  ep->HandlePacket(MakeSynAck(sent->at(0), 9'000));
  sent->clear();
  return ep;
}

// Queuing a message as pieces in one call must cut it into exactly the
// segments the joined string gives: same sequence numbers, lengths, bytes
// and PSH flags, the segment that straddles the two pieces included. (Two
// Send calls would not: the first piece would leave as a short segment of
// its own.)
TEST(TcpSendQueue, PiecesSegmentLikeOneString) {
  const std::uint32_t mss = TcpConfig{}.mss;
  std::string a(2'000, 'a');
  std::string b(3'200, 'b');
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<char>('A' + i % 26);
  }
  const Payload head(a);
  const Payload body(b);

  sim::Simulator simulator;
  std::vector<Packet> joined_sent;
  std::vector<Packet> pieces_sent;
  auto joined = EstablishedEndpoint(&simulator, &joined_sent);
  auto pieces = EstablishedEndpoint(&simulator, &pieces_sent);
  ASSERT_TRUE(joined->established());
  ASSERT_TRUE(pieces->established());
  joined->Send(a + b);
  pieces->Send({head, body});

  ASSERT_EQ(pieces_sent.size(), joined_sent.size());
  ASSERT_EQ(pieces_sent.size(), 4u);  // 5,200 bytes in 1,400-byte segments.
  for (std::size_t i = 0; i < pieces_sent.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(pieces_sent[i].seq, joined_sent[i].seq);
    EXPECT_EQ(pieces_sent[i].payload.size(), joined_sent[i].payload.size());
    EXPECT_EQ(pieces_sent[i].payload, joined_sent[i].payload.view());
    EXPECT_EQ(pieces_sent[i].flags, joined_sent[i].flags);
    EXPECT_EQ(pieces_sent[i].has(kPsh), i + 1 == pieces_sent.size());
  }
  // Segment 1 spans bytes 1,400..2,800, across the 2,000-byte head. The
  // others are slices of the pieces themselves.
  EXPECT_EQ(pieces_sent[0].payload.data(), head.data());
  EXPECT_EQ(pieces_sent[2].payload.data(), body.data() + 2 * mss - a.size());
  EXPECT_EQ(pieces_sent[3].payload.data(), body.data() + 3 * mss - a.size());
}

// The bytes handed to on_data are slices of the received segment, for an
// in-order segment, an overlapping one (trimmed) and a stashed out-of-order
// one drained later.
TEST(TcpReceive, DeliveredBytesShareTheSegmentBuffer) {
  sim::Simulator simulator;
  std::vector<Packet> sent;
  auto ep = EstablishedEndpoint(&simulator, &sent);
  ASSERT_TRUE(ep->established());
  std::vector<Payload> delivered;
  ep->set_on_data([&delivered](const Payload& bytes) { delivered.push_back(bytes); });

  auto segment = [](std::uint32_t seq, std::string bytes) {
    Packet p;
    p.src = MakeIp(10, 0, 0, 2);
    p.dst = MakeIp(10, 0, 0, 1);
    p.sport = 80;
    p.dport = 999;
    p.seq = seq;
    p.ack = 5'001;
    p.flags = kAck;
    p.payload = std::move(bytes);
    return p;
  };
  const Packet first = segment(9'001, "0123456789");
  const Packet overlap = segment(9'006, "56789abcde");  // Its first 5 bytes are old.
  const Packet later = segment(9'021, "klmnopqrst");    // Arrives before the gap.
  const Packet gap = segment(9'016, "fghij");

  ep->HandlePacket(first);
  ep->HandlePacket(overlap);
  ep->HandlePacket(later);
  ASSERT_EQ(delivered.size(), 2u);  // The future segment is stashed.
  ep->HandlePacket(gap);

  ASSERT_EQ(delivered.size(), 4u);
  EXPECT_EQ(delivered[0], "0123456789");
  EXPECT_EQ(delivered[0].data(), first.payload.data());
  EXPECT_EQ(delivered[1], "abcde");
  EXPECT_EQ(delivered[1].data(), overlap.payload.data() + 5);
  EXPECT_EQ(delivered[2], "fghij");
  EXPECT_EQ(delivered[2].data(), gap.payload.data());
  EXPECT_EQ(delivered[3], "klmnopqrst");
  EXPECT_EQ(delivered[3].data(), later.payload.data());
}

TEST_F(TcpTest, FastRetransmitOnDupAcks) {
  // Lossy enough to trigger dup-acks on a long transfer.
  network.set_loss_rate(0.03);
  Connect();
  std::string payload(200'000, 'f');
  client->Send(payload);
  simulator.Run();
  EXPECT_EQ(server_received, payload);
  EXPECT_GT(client->stats().fast_retransmits + client->stats().timeouts, 0u);
}

}  // namespace
}  // namespace net
