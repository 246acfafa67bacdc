// Workload-layer tests: catalog statistics, server node, browser client
// behaviours (timeout/retry), trace generation and per-bin problems.

#include <gtest/gtest.h>

#include "src/assign/validator.h"
#include "src/workload/browser_client.h"
#include "src/workload/http_server_node.h"
#include "src/workload/object_catalog.h"
#include "src/workload/open_loop.h"
#include "src/workload/testbed.h"
#include "src/workload/trace.h"

namespace workload {
namespace {

constexpr auto kWarm = fault::FaultPlane::RestartMode::kWarm;

TEST(ObjectCatalog, MatchesPaperSetup) {
  sim::Rng rng(1);
  ObjectCatalog catalog(rng);
  EXPECT_GE(catalog.objects().size(), 10'000u);
  std::size_t min_size = SIZE_MAX;
  std::size_t max_size = 0;
  for (const auto& o : catalog.objects()) {
    min_size = std::min(min_size, o.size);
    max_size = std::max(max_size, o.size);
  }
  EXPECT_GE(min_size, 1'000u);
  EXPECT_LE(max_size, 442'000u);
  // Median ~46 KB.
  EXPECT_NEAR(static_cast<double>(catalog.MedianSize()), 46'000.0, 6'000.0);
}

TEST(ObjectCatalog, LookupAndBody) {
  sim::Rng rng(2);
  CatalogConfig cfg;
  cfg.objects = 100;
  cfg.pages = 10;
  ObjectCatalog catalog(rng, cfg);
  const WebObject& obj = catalog.objects()[5];
  const WebObject* found = catalog.Find(obj.url);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->url, obj.url);
  const ObjectCatalog::Body body = catalog.BodyOf(obj);
  EXPECT_EQ(body.tag.size() + body.filler.size(), obj.size);
  EXPECT_EQ(body.tag, obj.url + "\n");
  EXPECT_EQ(body.filler.view().find_first_not_of('x'), std::string_view::npos);
  // Every body's filler is a slice of one buffer, not a copy per object.
  EXPECT_EQ(catalog.BodyOf(catalog.objects()[6]).filler.data(), body.filler.data());
  EXPECT_EQ(catalog.Find("/no/such/object"), nullptr);
}

TEST(ObjectCatalog, PagesReferenceRealObjects) {
  sim::Rng rng(3);
  CatalogConfig cfg;
  cfg.objects = 200;
  cfg.pages = 50;
  ObjectCatalog catalog(rng, cfg);
  EXPECT_EQ(catalog.pages().size(), 50u);
  for (const Page& page : catalog.pages()) {
    EXPECT_NE(catalog.Find(page.html_url), nullptr);
    EXPECT_GE(page.embedded.size(), 2u);
    EXPECT_LE(page.embedded.size(), 12u);
    for (const std::string& url : page.embedded) {
      EXPECT_NE(catalog.Find(url), nullptr);
    }
  }
}

// Direct client<->server fetch (no LB): exercises server node + client.
class DirectFetchTest : public ::testing::Test {
 protected:
  TestbedConfig cfg;
  std::unique_ptr<Testbed> tb;
  void SetUp() override {
    cfg.yoda_instances = 1;
    cfg.backends = 2;
    tb = std::make_unique<Testbed>(cfg);
  }
};

TEST_F(DirectFetchTest, FetchObjectDirectlyFromServer) {
  const WebObject& obj = tb->catalog->objects()[0];
  FetchResult result;
  bool done = false;
  tb->clients[0]->FetchObject(tb->backend_ip(0), 80, obj.url, {},
                              [&](const FetchResult& r) {
                                result = r;
                                done = true;
                              });
  tb->sim.Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.bytes, obj.size);
  EXPECT_EQ(tb->servers[0]->stats().requests, 1u);
}

TEST_F(DirectFetchTest, UnknownUrlIs404) {
  FetchResult result;
  bool done = false;
  tb->clients[0]->FetchObject(tb->backend_ip(0), 80, "/missing.html", {},
                              [&](const FetchResult& r) {
                                result = r;
                                done = true;
                              });
  tb->sim.Run();
  ASSERT_TRUE(done);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.status, 404);
}

TEST_F(DirectFetchTest, TimeoutWhenServerDown) {
  tb->faults->CrashNode(tb->backend_ip(0));
  FetchResult result;
  bool done = false;
  FetchOptions opts;
  opts.http_timeout = sim::Sec(5);
  tb->clients[0]->FetchObject(tb->backend_ip(0), 80, "/x", opts, [&](const FetchResult& r) {
    result = r;
    done = true;
  });
  tb->sim.Run();
  ASSERT_TRUE(done);
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.timed_out);
  EXPECT_GE(result.latency, sim::Sec(5));
}

TEST_F(DirectFetchTest, RetrySucceedsAfterServerRecovers) {
  tb->faults->CrashNode(tb->backend_ip(0));
  FetchResult result;
  bool done = false;
  FetchOptions opts;
  opts.http_timeout = sim::Sec(3);
  opts.retries = 1;
  tb->clients[0]->FetchObject(tb->backend_ip(0), 80, tb->catalog->objects()[0].url, opts,
                              [&](const FetchResult& r) {
                                result = r;
                                done = true;
                              });
  tb->sim.RunUntil(sim::Sec(2));
  tb->faults->RestartNode(tb->backend_ip(0), kWarm);
  tb->sim.Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.retries_used, 1);
}

TEST_F(DirectFetchTest, FetchPageAggregatesObjects) {
  const Page& page = tb->catalog->PageAt(0);
  FetchResult result;
  bool done = false;
  tb->clients[0]->FetchPage(tb->backend_ip(0), 80, page.html_url, page.embedded, {},
                            [&](const FetchResult& r) {
                              result = r;
                              done = true;
                            });
  tb->sim.Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(tb->servers[0]->stats().requests, 1u + page.embedded.size());
  std::size_t expected = tb->catalog->Find(page.html_url)->size;
  for (const auto& url : page.embedded) {
    expected += tb->catalog->Find(url)->size;
  }
  EXPECT_EQ(result.bytes, expected);
}

TEST_F(DirectFetchTest, DrainRequestCounterResets) {
  FetchResult result;
  bool done = false;
  tb->clients[0]->FetchObject(tb->backend_ip(0), 80, tb->catalog->objects()[0].url, {},
                              [&](const FetchResult& r) {
                                result = r;
                                done = true;
                              });
  tb->sim.Run();
  EXPECT_EQ(tb->servers[0]->DrainRequestCounter(), 1u);
  EXPECT_EQ(tb->servers[0]->DrainRequestCounter(), 0u);
}

// Crash and restart through the fault plane, at the testbed level: a warm
// restart keeps an instance's flow table and a cold one empties it; a KV
// server lives off-network, so its crash and restart touch no endpoint; and
// an address that names no component is a no-op.
TEST(TestbedFaults, RestartModesAndOffNetworkComponents) {
  TestbedConfig cfg;
  cfg.yoda_instances = 2;
  cfg.backends = 2;
  cfg.clients = 1;
  Testbed tb(cfg);
  tb.DefineDefaultVipAndStart();
  const WebObject* big = nullptr;
  for (const WebObject& o : tb.catalog->objects()) {
    if (o.size > 150'000) {
      big = &o;
      break;
    }
  }
  ASSERT_NE(big, nullptr);
  tb.clients[0]->FetchObject(tb.vip(), 80, big->url, {}, [](const FetchResult&) {});
  tb.sim.RunUntil(sim::Msec(150));  // Mid-transfer.
  int owner = -1;
  for (int i = 0; i < cfg.yoda_instances; ++i) {
    if (tb.instances[static_cast<std::size_t>(i)]->active_flows() > 0) {
      owner = i;
    }
  }
  ASSERT_GE(owner, 0);
  yoda::YodaInstance& inst = *tb.instances[static_cast<std::size_t>(owner)];
  const std::size_t flows = inst.active_flows();

  tb.RestartInstance(owner, kWarm);
  EXPECT_EQ(inst.active_flows(), flows);  // Warm: state intact.
  tb.RestartInstance(owner, fault::FaultPlane::RestartMode::kCold);
  EXPECT_EQ(inst.active_flows(), 0u);  // Cold: the flow table is gone.
  EXPECT_FALSE(tb.network.IsDown(tb.instance_ip(owner)));

  tb.faults->CrashNode(tb.kv_ip(0));
  EXPECT_TRUE(tb.kv_servers[0]->failed());
  EXPECT_FALSE(tb.network.IsDown(tb.kv_ip(0)));
  tb.faults->RestartNode(tb.kv_ip(0), kWarm);
  EXPECT_FALSE(tb.kv_servers[0]->failed());
  EXPECT_FALSE(tb.network.IsDown(tb.kv_ip(0)));

  // Past the last instance, off the address plan, a client, the VIP.
  for (const net::IpAddr nobody : {net::MakeIp(10, 1, 0, 9), net::MakeIp(10, 1, 7, 1),
                                   tb.client_ip(0), tb.vip()}) {
    tb.faults->CrashNode(nobody);
    EXPECT_FALSE(tb.network.IsDown(nobody)) << net::IpToString(nobody);
  }
  for (const auto& i : tb.instances) {
    EXPECT_FALSE(i->failed());
  }
}

TEST(OpenLoop, GeneratesApproximatelyTargetRate) {
  TestbedConfig cfg;
  cfg.yoda_instances = 2;
  Testbed tb(cfg);
  tb.DefineDefaultVipAndStart();
  OpenLoop load(tb, 3);
  load.Start(0, tb.vip(), 200, sim::Sec(5));
  tb.sim.Run();
  const OpenLoop::Tally t = load.Totals();
  EXPECT_NEAR(static_cast<double>(t.issued), 1000.0, 120.0);
  EXPECT_GT(t.ok, t.issued * 95 / 100);
  EXPECT_GT(t.latency_ms.Mean(), 50.0);
}

TEST(TraceGen, MatchesPaperScale) {
  sim::Rng rng(11);
  Trace trace = GenerateTrace(rng);
  EXPECT_GE(trace.vips.size(), 100u);
  EXPECT_EQ(trace.bins(), 144u);
  EXPECT_GE(trace.TotalRules(), 30'000);
  for (const auto& v : trace.vips) {
    for (double rate : v.series) {
      EXPECT_GT(rate, 0.0);
    }
    EXPECT_GE(v.MaxToAvgRatio(), 1.0);
  }
}

TEST(TraceGen, MaxToAvgSpreadMatchesFig15) {
  sim::Rng rng(12);
  Trace trace = GenerateTrace(rng);
  double total_ratio = 0;
  double max_ratio = 0;
  double min_ratio = 1e9;
  for (const auto& v : trace.vips) {
    const double r = v.MaxToAvgRatio();
    total_ratio += r;
    max_ratio = std::max(max_ratio, r);
    min_ratio = std::min(min_ratio, r);
  }
  const double avg = total_ratio / static_cast<double>(trace.vips.size());
  // Paper: 1.07x-50.3x, average 3.7x. Accept a band around that shape.
  EXPECT_GT(avg, 2.0);
  EXPECT_LT(avg, 6.5);
  EXPECT_GT(max_ratio, 15.0);
  EXPECT_LT(min_ratio, 1.6);
}

TEST(TraceGen, SortedByVolumeDescending) {
  sim::Rng rng(13);
  Trace trace = GenerateTrace(rng);
  for (std::size_t i = 1; i < trace.vips.size(); ++i) {
    EXPECT_GE(trace.vips[i - 1].TotalVolume(), trace.vips[i].TotalVolume());
  }
}

TEST(TraceGen, ProblemForBinIsSolvable) {
  sim::Rng rng(14);
  Trace trace = GenerateTrace(rng);
  assign::Problem p = ProblemForBin(trace, 12);
  EXPECT_EQ(p.vips.size(), trace.vips.size());
  for (const auto& v : p.vips) {
    EXPECT_GE(v.replicas, 1);
    EXPECT_LT(v.failures, v.replicas);
    EXPECT_LE(v.ShareAfterFailures(), p.traffic_capacity + 1e-9);
    EXPECT_LE(v.rules, p.rule_capacity);
  }
}

TEST(TraceGen, DeterministicForSeed) {
  sim::Rng a(15);
  sim::Rng b(15);
  Trace ta = GenerateTrace(a);
  Trace tb_trace = GenerateTrace(b);
  ASSERT_EQ(ta.vips.size(), tb_trace.vips.size());
  for (std::size_t i = 0; i < ta.vips.size(); ++i) {
    EXPECT_EQ(ta.vips[i].series, tb_trace.vips[i].series);
    EXPECT_EQ(ta.vips[i].rules, tb_trace.vips[i].rules);
  }
}

}  // namespace
}  // namespace workload
