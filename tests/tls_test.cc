// TLS-lite tests: record framing, handshake determinism, tickets, cipher —
// and end-to-end SSL termination through the Yoda service (§5.2), including
// the failure-during-certificate-transfer case the paper calls out.

#include <gtest/gtest.h>

#include "src/tls/tls.h"
#include "src/workload/testbed.h"

namespace tls {
namespace {

TEST(Record, EncodeDecodeRoundTrip) {
  Record r{RecordType::kApplicationData, "hello records"};
  RecordReader reader;
  reader.Feed(EncodeRecord(r));
  auto got = reader.Next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, RecordType::kApplicationData);
  EXPECT_EQ(got->payload, "hello records");
  EXPECT_FALSE(reader.Next().has_value());
}

TEST(Record, ByteAtATimeFraming) {
  Record r{RecordType::kClientHello, std::string(100, 'x')};
  const std::string wire = EncodeRecord(r);
  RecordReader reader;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    reader.Feed(std::string_view(&wire[i], 1));
    EXPECT_FALSE(reader.Next().has_value());
  }
  reader.Feed(std::string_view(&wire.back(), 1));
  auto got = reader.Next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload.size(), 100u);
}

TEST(Record, MultipleRecordsInOneFeed) {
  RecordReader reader;
  reader.Feed(EncodeRecord({RecordType::kClientHello, "a"}) +
              EncodeRecord({RecordType::kClientFinished, ""}) +
              EncodeRecord({RecordType::kApplicationData, "bb"}));
  EXPECT_EQ(reader.Next()->type, RecordType::kClientHello);
  EXPECT_EQ(reader.Next()->type, RecordType::kClientFinished);
  EXPECT_EQ(reader.Next()->payload, "bb");
  EXPECT_FALSE(reader.Next().has_value());
}

TEST(Handshake, HelloAndCertificateRoundTrip) {
  ClientHello hello{0xdeadbeefcafef00dULL};
  auto parsed = ClientHello::Parse(hello.Serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->client_random, hello.client_random);

  ServerCertificate cert;
  cert.server_random = 42;
  cert.certificate = std::string(2'000, 'C');
  auto parsed_cert = ServerCertificate::Parse(cert.Serialize());
  ASSERT_TRUE(parsed_cert.has_value());
  EXPECT_EQ(parsed_cert->server_random, 42u);
  EXPECT_EQ(parsed_cert->certificate, cert.certificate);
  EXPECT_FALSE(ClientHello::Parse("short").has_value());
  EXPECT_FALSE(ServerCertificate::Parse("junk").has_value());
}

TEST(Handshake, DeterministicAcrossInstances) {
  // The property Yoda's takeover relies on: same cert + same hello => same
  // server random and same session key, on ANY instance.
  const std::string cert = "----CERT mysite.com----";
  const std::uint64_t client_random = 777;
  const std::uint64_t sr1 = DeriveServerRandom(cert, client_random);
  const std::uint64_t sr2 = DeriveServerRandom(cert, client_random);
  EXPECT_EQ(sr1, sr2);
  EXPECT_EQ(DeriveSessionKey(client_random, sr1), DeriveSessionKey(client_random, sr2));
  EXPECT_NE(DeriveServerRandom(cert, 778), sr1);
  EXPECT_NE(DeriveServerRandom("other cert", client_random), sr1);
}

TEST(Ticket, SealOpenRoundTrip) {
  const std::uint64_t service_key = 0x5e1ec7ed;
  auto opened = OpenTicket(SealTicket(0xabcdef, service_key), service_key);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, 0xabcdefULL);
}

TEST(Ticket, WrongServiceKeyRejected) {
  EXPECT_FALSE(OpenTicket(SealTicket(1, 100), 101).has_value());
  EXPECT_FALSE(OpenTicket("garbage", 100).has_value());
}

TEST(Cipher, SymmetricRoundTrip) {
  const std::string msg = "GET /secret HTTP/1.1\r\n\r\n";
  const std::string enc = Crypt(99, 0, msg);
  EXPECT_NE(enc, msg);
  EXPECT_EQ(Crypt(99, 0, enc), msg);
}

TEST(Cipher, OffsetsMatter) {
  const std::string msg = "aaaaaaaa";
  EXPECT_NE(Crypt(7, 0, msg), Crypt(7, 8, msg));
  EXPECT_NE(Crypt(7, 0, msg), Crypt(8, 0, msg));
}

TEST(Cipher, StreamChunkingEquivalentToWhole) {
  const std::string msg = "the quick brown fox jumps over the lazy dog";
  CipherStream whole(5);
  const std::string enc_whole = whole.Process(msg);
  CipherStream chunked(5);
  std::string enc_chunks;
  for (std::size_t i = 0; i < msg.size(); i += 7) {
    enc_chunks += chunked.Process(std::string_view(msg).substr(i, 7));
  }
  EXPECT_EQ(enc_whole, enc_chunks);
}

// ---------------------------------------------------------------------------
// End-to-end SSL termination through Yoda.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kServiceKey = 0xfee1900d;
const char kCert[] = "-----BEGIN CERT mysite.com (2048-bit, sim)-----";

class TlsE2E : public ::testing::Test {
 protected:
  std::unique_ptr<workload::Testbed> tb;

  void Build(int instances = 4) {
    workload::TestbedConfig cfg;
    cfg.yoda_instances = instances;
    cfg.server_template.tls_service_key = kServiceKey;
    tb = std::make_unique<workload::Testbed>(cfg);
    tb->DefineDefaultVipAndStart();
    for (auto& inst : tb->instances) {
      inst->InstallVipTls(tb->vip(), kCert, kServiceKey);
    }
  }
};

TEST_F(TlsE2E, HttpsFetchRoundTrips) {
  Build();
  const workload::WebObject& obj = tb->catalog->objects()[0];
  workload::FetchOptions opts;
  opts.use_tls = true;
  workload::FetchResult result;
  bool done = false;
  tb->clients[0]->FetchObject(tb->vip(), 80, obj.url, opts,
                              [&](const workload::FetchResult& r) {
                                result = r;
                                done = true;
                              });
  tb->sim.Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.bytes, obj.size);
  EXPECT_EQ(result.tls_certificate, kCert);
}

TEST_F(TlsE2E, RequestIsEncryptedOnTheWire) {
  Build();
  bool saw_plaintext_request = false;
  bool saw_client_payload = false;
  // Every client packet enters through the VIP: watch the fabric there.
  net::TapNode tap(&tb->fabric, [&](const net::Packet& p) {
    if (p.src == tb->client_ip(0) && !p.payload.empty()) {
      saw_client_payload = true;
      if (p.payload.find("GET /") != std::string::npos) {
        saw_plaintext_request = true;
      }
    }
  });
  tb->network.Attach(tb->vip(), &tap);
  workload::FetchOptions opts;
  opts.use_tls = true;
  bool done = false;
  tb->clients[0]->FetchObject(tb->vip(), 80, tb->catalog->objects()[0].url, opts,
                              [&](const workload::FetchResult& r) {
                                EXPECT_TRUE(r.ok);
                                done = true;
                              });
  tb->sim.Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(saw_client_payload);
  EXPECT_FALSE(saw_plaintext_request);  // SSL means no cleartext HTTP.
}

TEST_F(TlsE2E, FailureDuringCertificateTransferResendsFlight) {
  // Paper §5.2: "On failure during certificate transfer, another YODA
  // instance resends the entire certificate (TCP buffer at the client will
  // remove duplicate packets)."
  Build();
  workload::FetchOptions opts;
  opts.use_tls = true;
  workload::FetchResult result;
  bool done = false;
  tb->clients[0]->FetchObject(tb->vip(), 80, tb->catalog->objects()[0].url, opts,
                              [&](const workload::FetchResult& r) {
                                result = r;
                                done = true;
                              });
  // SYN ~33 ms, SYN-ACK ~67, hello ~100 arrives, cert flight goes out
  // ~100.5: kill the instance while the flight is in the air.
  tb->sim.RunUntil(sim::Msec(101));
  int owner = -1;
  for (std::size_t i = 0; i < tb->instances.size(); ++i) {
    if (tb->instances[i]->active_flows() > 0) {
      owner = static_cast<int>(i);
    }
  }
  ASSERT_GE(owner, 0);
  tb->CrashInstance(owner);
  tb->sim.Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.ok) << "timed_out=" << result.timed_out;
  EXPECT_EQ(result.tls_certificate, kCert);
  EXPECT_EQ(result.retries_used, 0);  // Transparent: no browser retry.
}

TEST_F(TlsE2E, FailureDuringEncryptedTransferIsTransparent) {
  Build();
  const workload::WebObject* big = nullptr;
  for (const auto& o : tb->catalog->objects()) {
    if (o.size > 150'000) {
      big = &o;
      break;
    }
  }
  ASSERT_NE(big, nullptr);
  workload::FetchOptions opts;
  opts.use_tls = true;
  workload::FetchResult result;
  bool done = false;
  tb->clients[0]->FetchObject(tb->vip(), 80, big->url, opts,
                              [&](const workload::FetchResult& r) {
                                result = r;
                                done = true;
                              });
  tb->sim.RunUntil(sim::Msec(200));
  int owner = -1;
  for (std::size_t i = 0; i < tb->instances.size(); ++i) {
    if (tb->instances[i]->active_flows() > 0) {
      owner = static_cast<int>(i);
    }
  }
  ASSERT_GE(owner, 0);
  tb->CrashInstance(owner);
  tb->sim.Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.bytes, big->size);
}

TEST_F(TlsE2E, PlaintextVipStillWorksAlongsideTlsVip) {
  Build();
  // vip(1) has no TLS config: plain HTTP continues to work.
  tb->controller->DefineVip(tb->vip(1), 80, tb->EqualSplitRules(0, tb->cfg.backends, "r-v1"));
  bool done = false;
  tb->clients[0]->FetchObject(tb->vip(1), 80, tb->catalog->objects()[0].url, {},
                              [&](const workload::FetchResult& r) {
                                EXPECT_TRUE(r.ok);
                                EXPECT_TRUE(r.tls_certificate.empty());
                                done = true;
                              });
  tb->sim.Run();
  EXPECT_TRUE(done);
}

TEST_F(TlsE2E, ForgedTicketIsRejectedByBackend) {
  Build();
  // Reconfigure one instance with the wrong service key: its tickets are
  // garbage and the backend aborts the connection.
  workload::TestbedConfig cfg;
  cfg.yoda_instances = 1;
  cfg.server_template.tls_service_key = kServiceKey;
  workload::Testbed tb2(cfg);
  tb2.DefineDefaultVipAndStart();
  tb2.instances[0]->InstallVipTls(tb2.vip(), kCert, kServiceKey + 1);  // Wrong key.
  workload::FetchOptions opts;
  opts.use_tls = true;
  opts.http_timeout = sim::Sec(5);
  bool done = false;
  workload::FetchResult result;
  tb2.clients[0]->FetchObject(tb2.vip(), 80, tb2.catalog->objects()[0].url, opts,
                              [&](const workload::FetchResult& r) {
                                result = r;
                                done = true;
                              });
  tb2.sim.Run();
  ASSERT_TRUE(done);
  EXPECT_FALSE(result.ok);
}

}  // namespace
}  // namespace tls
