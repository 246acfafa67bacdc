// Stateless fast path (signed SYN-cookie flow tokens): the cookie codec
// units (round-trip, forgery, stale epoch), the zero-synchronous-write
// contract, the scenario DSL's `store-mode` directive, and the Table 1 /
// Fig 12 takeover matrix parameterized over BOTH store modes plus a mid-run
// make-before-break flip.

#include <gtest/gtest.h>

#include <set>

#include "src/core/flow_state.h"
#include "src/workload/scenario.h"
#include "src/workload/testbed.h"

namespace yoda {
namespace {

using workload::FetchResult;
using workload::Testbed;
using workload::TestbedConfig;

// --- cookie codec units -----------------------------------------------------

constexpr std::uint64_t kSecret = 0x59eda11c00c1e5ecULL;
constexpr net::IpAddr kVip = (10u << 24) | (200u << 16) | 1u;
constexpr net::IpAddr kClient = (10u << 24) | (2u << 16) | 7u;
constexpr net::IpAddr kBackend1 = (10u << 24) | (3u << 16) | 1u;
constexpr net::IpAddr kBackend2 = (10u << 24) | (3u << 16) | 2u;
constexpr net::Port kClientPort = 40'001;

FlowState TunnelingFlow() {
  FlowState st;
  st.stage = FlowStage::kTunneling;
  st.client_ip = kClient;
  st.client_port = kClientPort;
  st.vip = kVip;
  st.vip_port = 80;
  st.client_isn = 123'456;
  st.lb_isn = DeterministicLbIsn(kVip, 80, kClient, kClientPort);
  st.backend_ip = kBackend1;
  st.backend_port = 80;
  st.seq_delta_s2c = 777;
  st.server_isn = st.lb_isn - st.seq_delta_s2c;
  return st;
}

TEST(CookieCodec, RoundTripsTunnelingClaimsAndRebuildsFlowState) {
  const FlowState st = TunnelingFlow();
  const std::uint64_t cookie = MintFlowCookie(st, /*store_epoch=*/5, kSecret);
  ASSERT_NE(cookie, 0u);

  CookieClaims claims;
  ASSERT_EQ(DecodeCookie(cookie, kVip, 80, kClient, kClientPort, kSecret, 5, &claims),
            CookieVerdict::kOk);
  EXPECT_TRUE(claims.tunneling);
  EXPECT_EQ(claims.store_epoch, 5);
  EXPECT_EQ(claims.backend_id, 1);  // Last octet of 10.3.0.1.
  EXPECT_EQ(claims.offset, st.seq_delta_s2c);

  auto rebuilt = FlowStateFromCookie(claims, kVip, 80, kClient, kClientPort,
                                     {kBackend1, kBackend2}, 80);
  ASSERT_TRUE(rebuilt.has_value());
  EXPECT_EQ(rebuilt->stage, FlowStage::kTunneling);
  EXPECT_EQ(rebuilt->backend_ip, st.backend_ip);
  EXPECT_EQ(rebuilt->lb_isn, st.lb_isn);
  EXPECT_EQ(rebuilt->server_isn, st.server_isn);
  EXPECT_EQ(rebuilt->seq_delta_s2c, st.seq_delta_s2c);
}

TEST(CookieCodec, EveryBitFlipIsRejected) {
  const std::uint64_t cookie = MintFlowCookie(TunnelingFlow(), 5, kSecret);
  CookieClaims claims;
  for (int bit = 0; bit < 64; ++bit) {
    EXPECT_NE(DecodeCookie(cookie ^ (1ULL << bit), kVip, 80, kClient, kClientPort, kSecret, 5,
                           &claims),
              CookieVerdict::kOk)
        << "forged bit " << bit << " was accepted";
  }
}

TEST(CookieCodec, WrongIdentityOrSecretIsForged) {
  const std::uint64_t cookie = MintFlowCookie(TunnelingFlow(), 5, kSecret);
  CookieClaims claims;
  EXPECT_EQ(DecodeCookie(cookie, kVip, 80, kClient + 1, kClientPort, kSecret, 5, &claims),
            CookieVerdict::kBadMac);
  EXPECT_EQ(DecodeCookie(cookie, kVip, 80, kClient, kClientPort + 1, kSecret, 5, &claims),
            CookieVerdict::kBadMac);
  EXPECT_EQ(DecodeCookie(cookie, kVip + 1, 80, kClient, kClientPort, kSecret, 5, &claims),
            CookieVerdict::kBadMac);
  EXPECT_EQ(DecodeCookie(cookie, kVip, 80, kClient, kClientPort, kSecret ^ 1, 5, &claims),
            CookieVerdict::kBadMac);
  EXPECT_EQ(DecodeCookie(0, kVip, 80, kClient, kClientPort, kSecret, 5, &claims),
            CookieVerdict::kBadMac);
}

TEST(CookieCodec, CookieMintedBeforeModeFlipIsStaleNotForged) {
  const std::uint64_t cookie = MintFlowCookie(TunnelingFlow(), 5, kSecret);
  CookieClaims claims;
  // The VIP re-installed its store mode (epoch bumped): the MAC still
  // verifies, so the verdict distinguishes "stale" (fall back to the
  // journal) from "forged" (drop).
  EXPECT_EQ(DecodeCookie(cookie, kVip, 80, kClient, kClientPort, kSecret, 6, &claims),
            CookieVerdict::kStaleEpoch);
}

TEST(CookieCodec, ReSwitchedFlowMintsJournalPinnedToken) {
  FlowState st = TunnelingFlow();
  st.seq_delta_c2s = 42;  // Re-switch displacement: not cookie-codable.
  const std::uint64_t cookie = MintFlowCookie(st, 5, kSecret);
  CookieClaims claims;
  ASSERT_EQ(DecodeCookie(cookie, kVip, 80, kClient, kClientPort, kSecret, 5, &claims),
            CookieVerdict::kOk);
  EXPECT_EQ(claims.backend_id, 0);  // Journal-pinned: adopter skips rebuild.
  EXPECT_FALSE(FlowStateFromCookie(claims, kVip, 80, kClient, kClientPort,
                                   {kBackend1, kBackend2}, 80)
                   .has_value());
}

// --- scenario DSL -----------------------------------------------------------

TEST(StoreModeDsl, GlobalAndPerVipDirectivesParse) {
  const char* text =
      "instances 2\n"
      "vip 10.200.0.1\n"
      "rule 10.200.0.1 name=r1 priority=1 url=* split=10.3.0.1\n"
      "store-mode stateless\n"
      "vip 10.200.0.2\n"
      "rule 10.200.0.2 name=r2 priority=1 url=* split=10.3.0.1\n"
      "store-mode 10.200.0.2 stateful\n"
      "at 1s store-mode 10.200.0.1 stateful\n"
      "run-until 2s\n";
  std::string error;
  auto sc = workload::ParseScenario(text, &error);
  ASSERT_TRUE(sc.has_value()) << error;
  ASSERT_EQ(sc->vips.size(), 2u);
  EXPECT_EQ(sc->vips[0].store_mode, StoreMode::kStateless);  // Global sweep.
  EXPECT_EQ(sc->vips[1].store_mode, StoreMode::kStateful);   // Per-VIP override.
  ASSERT_EQ(sc->events.size(), 1u);
  EXPECT_EQ(sc->events[0].action, "store-mode");
}

TEST(StoreModeDsl, BadModeIsAParseError) {
  std::string error;
  EXPECT_FALSE(workload::ParseScenario("vip 10.200.0.1\nstore-mode 10.200.0.1 turbo\n", &error)
                   .has_value());
  EXPECT_NE(error.find("store-mode"), std::string::npos);
}

// --- end-to-end: both modes through the full testbed ------------------------

class StoreModeE2E : public ::testing::TestWithParam<StoreMode> {
 protected:
  std::unique_ptr<Testbed> tb;

  void Build(TestbedConfig cfg = {}) {
    tb = std::make_unique<Testbed>(cfg);
    tb->DefineDefaultVipAndStart();
    if (GetParam() == StoreMode::kStateless) {
      // Install through the controller so the make-before-break plan
      // (instances -> convergence barrier -> muxes) is what flips the mode.
      tb->controller->SetStoreMode(tb->vip(), StoreMode::kStateless);
      tb->sim.RunUntil(tb->sim.now() + sim::Msec(300));
      for (auto& inst : tb->instances) {
        ASSERT_EQ(inst->VipStoreMode(tb->vip()), StoreMode::kStateless);
      }
    }
  }

  const workload::WebObject* BigObject() const {
    for (const auto& o : tb->catalog->objects()) {
      if (o.size > 150'000) {
        return &o;
      }
    }
    return nullptr;
  }

  int OwnerWithActiveFlows() const {
    int owner = -1;
    for (std::size_t i = 0; i < tb->instances.size(); ++i) {
      if (tb->instances[i]->active_flows() > 0) {
        owner = static_cast<int>(i);
      }
    }
    return owner;
  }

  std::uint64_t TotalTakeovers() const {
    std::uint64_t n = 0;
    for (auto& inst : tb->instances) {
      n += inst->stats().takeovers_client_side + inst->stats().takeovers_server_side;
    }
    return n;
  }

  std::uint64_t TotalCookieTakeovers() const {
    std::uint64_t n = 0;
    for (auto& inst : tb->instances) {
      n += inst->stats().takeovers_cookie;
    }
    return n;
  }

  std::uint64_t TotalSyncWrites() const {
    std::uint64_t n = 0;
    for (auto& inst : tb->instances) {
      const StoreSessionStats& st = inst->store_session().stats();
      n += st.ack_point_writes + st.sync_removes;
    }
    return n;
  }
};

// Fig 12 / Table 1 row "failure during data transfer": kill the owner mid-
// transfer; a survivor adopts the flow — from the cookie echo in stateless
// mode, from TCPStore in stateful mode — and the fetch completes byte-exact.
TEST_P(StoreModeE2E, FlowSurvivesInstanceFailureDuringTunneling) {
  TestbedConfig cfg;
  cfg.yoda_instances = 4;
  Build(cfg);
  const workload::WebObject* big = BigObject();
  ASSERT_NE(big, nullptr);

  FetchResult result;
  bool done = false;
  tb->clients[0]->FetchObject(tb->vip(), 80, big->url, {}, [&](const FetchResult& r) {
    result = r;
    done = true;
  });
  tb->sim.RunUntil(tb->sim.now() + sim::Msec(160));
  const int owner = OwnerWithActiveFlows();
  ASSERT_GE(owner, 0);
  tb->CrashInstance(owner);
  tb->sim.Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.ok) << "timed_out=" << result.timed_out << " reset=" << result.reset;
  EXPECT_EQ(result.bytes, big->size);
  EXPECT_GE(TotalTakeovers(), 1u);
  if (GetParam() == StoreMode::kStateless) {
    // The adoption was served by the signed cookie, not a store lookup.
    EXPECT_GE(TotalCookieTakeovers(), 1u);
  }
}

// Table 1 row "failure in connection phase" (Fig 5a): crash after the
// SYN-ACK but before the server handshake completes.
TEST_P(StoreModeE2E, FlowSurvivesFailureInConnectionPhase) {
  TestbedConfig cfg;
  cfg.instance_template.rule_scan_base_delay = sim::Msec(250);
  Build(cfg);

  FetchResult result;
  bool done = false;
  tb->clients[0]->FetchObject(tb->vip(), 80, tb->catalog->objects()[0].url, {},
                              [&](const FetchResult& r) {
                                result = r;
                                done = true;
                              });
  tb->sim.RunUntil(tb->sim.now() + sim::Msec(170));
  const int owner = OwnerWithActiveFlows();
  ASSERT_GE(owner, 0);
  tb->CrashInstance(owner);
  tb->sim.Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.ok);
  EXPECT_GE(TotalTakeovers(), 1u);
}

// Table 1 row "concurrent failures": 2 of 6 instances die at once.
TEST_P(StoreModeE2E, SimultaneousDoubleFailureStillRecovers) {
  TestbedConfig cfg;
  cfg.yoda_instances = 6;
  Build(cfg);
  const workload::WebObject* big = BigObject();
  ASSERT_NE(big, nullptr);

  FetchResult result;
  bool done = false;
  tb->clients[0]->FetchObject(tb->vip(), 80, big->url, {}, [&](const FetchResult& r) {
    result = r;
    done = true;
  });
  tb->sim.RunUntil(tb->sim.now() + sim::Msec(160));
  tb->CrashInstance(0);
  tb->CrashInstance(1);
  tb->sim.Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.ok);
}

// Teardown leaves no residue in either mode: sync removes (stateful) and
// journaled tombstones (stateless) both drain the store to empty.
TEST_P(StoreModeE2E, FlowStateRemovedAfterTeardown) {
  Build();
  FetchResult result;
  bool done = false;
  tb->clients[0]->FetchObject(tb->vip(), 80, tb->catalog->objects()[0].url, {},
                              [&](const FetchResult& r) {
                                result = r;
                                done = true;
                              });
  tb->sim.Run();
  ASSERT_TRUE(done);
  ASSERT_TRUE(result.ok);
  tb->sim.RunUntil(tb->sim.now() + sim::Sec(10));
  std::size_t items = 0;
  for (auto& s : tb->kv_servers) {
    items += s->item_count();
  }
  EXPECT_EQ(items, 0u);
}

INSTANTIATE_TEST_SUITE_P(BothModes, StoreModeE2E,
                         ::testing::Values(StoreMode::kStateful, StoreMode::kStateless),
                         [](const ::testing::TestParamInfo<StoreMode>& info) {
                           return std::string(StoreModeName(info.param));
                         });

// --- the headline contract: write counts per mode ---------------------------

class StoreWriteContract : public ::testing::Test {
 protected:
  std::unique_ptr<Testbed> tb;

  void Build(StoreMode mode) {
    tb = std::make_unique<Testbed>();
    tb->DefineDefaultVipAndStart();
    if (mode == StoreMode::kStateless) {
      tb->controller->SetStoreMode(tb->vip(), StoreMode::kStateless);
      tb->sim.RunUntil(tb->sim.now() + sim::Msec(300));
    }
  }

  int FetchMany(int n) {
    int ok = 0;
    for (int i = 0; i < n; ++i) {
      const auto& obj = tb->catalog->objects()[static_cast<std::size_t>(i * 7) %
                                               tb->catalog->objects().size()];
      tb->clients[static_cast<std::size_t>(i) % tb->clients.size()]->FetchObject(
          tb->vip(), 80, obj.url, {}, [&ok](const FetchResult& r) { ok += r.ok ? 1 : 0; });
    }
    tb->sim.Run();
    tb->sim.RunUntil(tb->sim.now() + sim::Sec(10));  // Teardowns + final flush.
    return ok;
  }
};

// The paper's tax (Fig 3): storage-a before the SYN-ACK, storage-b before
// ACKing the server SYN-ACK, a remove at teardown — 3 synchronous sets per
// request, unchanged by this PR.
TEST_F(StoreWriteContract, StatefulIssuesThreeSyncWritesPerRequest) {
  Build(StoreMode::kStateful);
  const int ok = FetchMany(20);
  EXPECT_EQ(ok, 20);
  std::uint64_t writes = 0;
  std::uint64_t removes = 0;
  std::uint64_t journal_appends = 0;
  for (auto& inst : tb->instances) {
    const StoreSessionStats& st = inst->store_session().stats();
    writes += st.ack_point_writes;
    removes += st.sync_removes;
    journal_appends += st.journal_appends;
  }
  EXPECT_EQ(writes, 40u);   // 2 ACK-point writes per flow.
  EXPECT_EQ(removes, 20u);  // 1 sync remove per flow.
  EXPECT_EQ(journal_appends, 0u);
}

// The tentpole: the stateless fast path issues ZERO synchronous store writes
// — every ACK point completes inline and the journal absorbs the state.
TEST_F(StoreWriteContract, StatelessIssuesZeroSyncWrites) {
  Build(StoreMode::kStateless);
  const int ok = FetchMany(20);
  EXPECT_EQ(ok, 20);
  std::uint64_t sync = 0;
  std::uint64_t journal_appends = 0;
  std::uint64_t journal_flushes = 0;
  for (auto& inst : tb->instances) {
    const StoreSessionStats& st = inst->store_session().stats();
    sync += st.ack_point_writes + st.sync_removes;
    journal_appends += st.journal_appends;
    journal_flushes += st.journal_flushes;
  }
  EXPECT_EQ(sync, 0u);
  EXPECT_GE(journal_appends, 20u);  // The state still reaches the journal...
  EXPECT_GE(journal_flushes, 1u);   // ...and the journal reaches the store.
  // The per-instance gauge agrees and is visible through the registry.
  EXPECT_NE(tb->metrics.TextTable().find("yoda.store.sets_per_request"), std::string::npos);
}

// --- mid-run flip (make-before-break) ---------------------------------------

TEST_F(StoreWriteContract, MidRunFlipKeepsInFlightFlowsAlive) {
  TestbedConfig cfg;
  cfg.yoda_instances = 4;
  tb = std::make_unique<Testbed>(cfg);
  tb->DefineDefaultVipAndStart();
  tb->controller->SetStoreMode(tb->vip(), StoreMode::kStateless);
  tb->sim.RunUntil(tb->sim.now() + sim::Msec(300));

  const workload::WebObject* big = nullptr;
  for (const auto& o : tb->catalog->objects()) {
    if (o.size > 150'000) {
      big = &o;
      break;
    }
  }
  ASSERT_NE(big, nullptr);

  // A long transfer latches kStateless at creation...
  FetchResult result;
  bool done = false;
  tb->clients[0]->FetchObject(tb->vip(), 80, big->url, {}, [&](const FetchResult& r) {
    result = r;
    done = true;
  });
  tb->sim.RunUntil(tb->sim.now() + sim::Msec(160));

  // ...then the VIP flips back to stateful mid-flight (epoch bump: the
  // in-flight flow's cookies go stale) and the owner dies.
  tb->controller->SetStoreMode(tb->vip(), StoreMode::kStateful);
  tb->sim.RunUntil(tb->sim.now() + sim::Msec(300));
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
  EXPECT_TRUE(result.ok) << "timed_out=" << result.timed_out << " reset=" << result.reset;
  EXPECT_EQ(result.bytes, big->size);

  // New flows after the flip pay the paper's synchronous writes again.
  const std::uint64_t sync_before = [&] {
    std::uint64_t n = 0;
    for (auto& inst : tb->instances) {
      const StoreSessionStats& st = inst->store_session().stats();
      n += st.ack_point_writes + st.sync_removes;
    }
    return n;
  }();
  int ok = 0;
  bool fetched = false;
  tb->clients[1]->FetchObject(tb->vip(), 80, tb->catalog->objects()[0].url, {},
                              [&](const FetchResult& r) {
                                ok = r.ok ? 1 : 0;
                                fetched = true;
                              });
  tb->sim.Run();
  ASSERT_TRUE(fetched);
  EXPECT_EQ(ok, 1);
  std::uint64_t sync_after = 0;
  for (auto& inst : tb->instances) {
    const StoreSessionStats& st = inst->store_session().stats();
    sync_after += st.ack_point_writes + st.sync_removes;
  }
  EXPECT_GT(sync_after, sync_before);
}

}  // namespace
}  // namespace yoda
