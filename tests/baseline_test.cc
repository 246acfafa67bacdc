// Baseline (HAProxy-style) proxy tests: normal proxying works, and —
// the paper's Problem 1 — an instance crash breaks every flow it carried.

#include <gtest/gtest.h>

#include "src/workload/testbed.h"

namespace baseline {
namespace {

using workload::FetchOptions;
using workload::FetchResult;
using workload::Testbed;
using workload::TestbedConfig;

class BaselineTest : public ::testing::Test {
 protected:
  std::unique_ptr<Testbed> tb;

  void Build() {
    TestbedConfig cfg;
    cfg.yoda_instances = 1;  // Unused here.
    cfg.baseline_proxies = 3;
    tb = std::make_unique<Testbed>(cfg);
    tb->InstallProxyRules(tb->EqualSplitRules(0, tb->cfg.backends));
  }

  FetchResult FetchVia(int proxy, const std::string& url, FetchOptions opts = {}) {
    FetchResult out;
    bool done = false;
    tb->clients[0]->FetchObject(tb->proxy_ip(proxy), 80, url, opts,
                                [&](const FetchResult& r) {
                                  out = r;
                                  done = true;
                                });
    tb->sim.Run();
    EXPECT_TRUE(done);
    return out;
  }
};

TEST_F(BaselineTest, ProxiesRequestEndToEnd) {
  Build();
  const workload::WebObject& obj = tb->catalog->objects()[0];
  FetchResult r = FetchVia(0, obj.url);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.bytes, obj.size);
  EXPECT_EQ(tb->proxies[0]->stats().requests_proxied, 1u);
}

TEST_F(BaselineTest, SpreadsBackendsViaRules) {
  Build();
  int done = 0;
  for (int i = 0; i < 30; ++i) {
    tb->clients[0]->FetchObject(tb->proxy_ip(0), 80, tb->catalog->objects()[0].url, {},
                                [&done](const FetchResult& r) {
                                  EXPECT_TRUE(r.ok);
                                  ++done;
                                });
  }
  tb->sim.Run();
  EXPECT_EQ(done, 30);
  int used = 0;
  for (auto& s : tb->servers) {
    used += s->stats().requests > 0 ? 1 : 0;
  }
  EXPECT_GE(used, 2);
}

TEST_F(BaselineTest, CrashBreaksInFlightFlowWithoutRetry) {
  Build();
  const workload::WebObject* big = nullptr;
  for (const auto& o : tb->catalog->objects()) {
    if (o.size > 150'000) {
      big = &o;
      break;
    }
  }
  ASSERT_NE(big, nullptr);
  FetchResult result;
  bool done = false;
  FetchOptions opts;
  opts.http_timeout = sim::Sec(30);
  opts.retries = 0;  // HAProxy-noretry mode.
  tb->clients[0]->FetchObject(tb->proxy_ip(0), 80, big->url, opts,
                              [&](const FetchResult& r) {
                                result = r;
                                done = true;
                              });
  tb->sim.RunUntil(sim::Msec(150));  // Mid-transfer.
  tb->faults->CrashNode(tb->proxy_ip(0));
  tb->sim.Run();
  ASSERT_TRUE(done);
  EXPECT_FALSE(result.ok);  // The flow broke: the paper's Problem 1.
  // The client waited out its HTTP timeout (or close to it), not a quick
  // transparent failover.
  EXPECT_GE(result.latency, sim::Sec(29));
}

TEST_F(BaselineTest, RetryModeRecoversAfterHttpTimeout) {
  Build();
  const workload::WebObject* big = nullptr;
  for (const auto& o : tb->catalog->objects()) {
    if (o.size > 150'000) {
      big = &o;
      break;
    }
  }
  FetchResult result;
  bool done = false;
  FetchOptions opts;
  opts.http_timeout = sim::Sec(30);
  opts.retries = 1;  // HAProxy-retry mode: browser re-issues the request.
  tb->clients[0]->FetchObject(tb->proxy_ip(1), 80, big->url, opts,
                              [&](const FetchResult& r) {
                                result = r;
                                done = true;
                              });
  tb->sim.RunUntil(sim::Msec(150));
  tb->faults->CrashNode(tb->proxy_ip(1));
  // "DNS"/L4 is updated: the retry goes to a live proxy. Emulate by
  // recovering the address onto proxy 2's handler? Simpler: the retry
  // targets the same address, so bring the address back up, backed by a
  // fresh (state-less) proxy process.
  tb->sim.RunUntil(sim::Sec(2));
  tb->faults->RestartNode(tb->proxy_ip(1), fault::FaultPlane::RestartMode::kWarm);
  tb->sim.Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.retries_used, 1);
  EXPECT_GE(result.latency, sim::Sec(30));  // Paid the full HTTP timeout.
}

TEST_F(BaselineTest, FreshProxyResetsUnknownFlows) {
  Build();
  const workload::WebObject* big = nullptr;
  for (const auto& o : tb->catalog->objects()) {
    if (o.size > 150'000) {
      big = &o;
      break;
    }
  }
  FetchResult result;
  bool done = false;
  tb->clients[0]->FetchObject(tb->proxy_ip(2), 80, big->url, {},
                              [&](const FetchResult& r) {
                                result = r;
                                done = true;
                              });
  tb->sim.RunUntil(sim::Msec(150));
  // Crash and immediately restart: the new process has no TCP state, so
  // in-flight packets get RST (visible connection reset at the client).
  tb->proxies[2]->Fail();
  tb->proxies[2]->Recover();
  tb->sim.Run();
  ASSERT_TRUE(done);
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.reset);
}

TEST_F(BaselineTest, NoBackendRuleAborts) {
  Build();
  rules::Rule r;
  r.name = "none";
  r.priority = 1;
  r.match.url_glob = "/nowhere/*";
  r.action.backends = {};
  tb->proxies[0]->InstallRules({r});
  FetchOptions opts;
  opts.http_timeout = sim::Sec(5);
  FetchResult result = FetchVia(0, "/nowhere/x");
  EXPECT_FALSE(result.ok);
}

}  // namespace
}  // namespace baseline
