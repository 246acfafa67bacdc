// End-to-end tests of the Yoda L7 LB on the full simulated testbed:
// normal operation, every failure window of Fig 3/5, elastic scaling,
// policy updates and the §5.x feature set.

#include <gtest/gtest.h>

#include <map>

#include "src/kv/hash_ring.h"
#include "src/rules/policy.h"
#include "src/workload/open_loop.h"
#include "src/workload/testbed.h"

namespace yoda {
namespace {

using workload::FetchOptions;
using workload::FetchResult;
using workload::Testbed;
using workload::TestbedConfig;

class YodaE2E : public ::testing::Test {
 protected:
  std::unique_ptr<Testbed> tb;

  void Build(TestbedConfig cfg = {}) {
    tb = std::make_unique<Testbed>(cfg);
    tb->DefineDefaultVipAndStart();
  }

  // Fetches one URL through the VIP, running the sim to completion.
  FetchResult FetchAndRun(const std::string& url, FetchOptions opts = {}, int client = 0) {
    FetchResult out;
    bool done = false;
    tb->clients[static_cast<std::size_t>(client)]->FetchObject(
        tb->vip(), 80, url, opts, [&out, &done](const FetchResult& r) {
          out = r;
          done = true;
        });
    tb->sim.Run();
    EXPECT_TRUE(done);
    return out;
  }

  std::string AnyUrl() const { return tb->catalog->objects()[0].url; }
};

TEST_F(YodaE2E, SingleRequestRoundTrips) {
  Build();
  const workload::WebObject& obj = tb->catalog->objects()[0];
  FetchResult r = FetchAndRun(obj.url);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.bytes, obj.size);
  EXPECT_EQ(r.status, 200);
  // End-to-end latency is 2 RTTs + processing: tens of ms, not seconds.
  EXPECT_GT(r.latency, sim::Msec(60));
  EXPECT_LT(r.latency, sim::Sec(2));
}

TEST_F(YodaE2E, ResponseBodyIsByteExact) {
  Build();
  const workload::WebObject& obj = tb->catalog->objects()[3];
  bool done = false;
  tb->clients[0]->FetchObject(tb->vip(), 80, obj.url, {},
                              [&](const FetchResult& r) {
                                EXPECT_TRUE(r.ok);
                                EXPECT_EQ(r.bytes, obj.size);
                                done = true;
                              });
  tb->sim.Run();
  EXPECT_TRUE(done);
}

TEST_F(YodaE2E, ServerOnlySeesVipAsPeer) {
  Build();
  bool server_side_checked = false;
  // Any packet arriving at a backend must come from the VIP.
  std::vector<std::unique_ptr<net::TapNode>> taps;
  for (int i = 0; i < tb->cfg.backends; ++i) {
    taps.push_back(std::make_unique<net::TapNode>(
        tb->servers[static_cast<std::size_t>(i)].get(), [&](const net::Packet& p) {
          EXPECT_EQ(p.src, tb->vip()) << p.ToString();
          server_side_checked = true;
        }));
    tb->network.Attach(tb->backend_ip(i), taps.back().get());
  }
  FetchAndRun(AnyUrl());
  EXPECT_TRUE(server_side_checked);
}

TEST_F(YodaE2E, ClientOnlySeesVipAsPeer) {
  Build();
  bool client_side_checked = false;
  net::TapNode tap(tb->clients[0].get(), [&](const net::Packet& p) {
    EXPECT_EQ(p.src, tb->vip()) << p.ToString();
    client_side_checked = true;
  });
  tb->network.Attach(tb->client_ip(0), &tap, net::Region::kInternet);
  FetchAndRun(AnyUrl());
  EXPECT_TRUE(client_side_checked);
}

TEST_F(YodaE2E, ManyConcurrentRequestsAllSucceed) {
  Build();
  int ok = 0;
  int done = 0;
  const int kRequests = 60;
  for (int i = 0; i < kRequests; ++i) {
    const auto& obj = tb->catalog->objects()[static_cast<std::size_t>(i * 7) %
                                             tb->catalog->objects().size()];
    tb->clients[static_cast<std::size_t>(i) % tb->clients.size()]->FetchObject(
        tb->vip(), 80, obj.url, {}, [&](const FetchResult& r) {
          ++done;
          if (r.ok) {
            ++ok;
          }
        });
  }
  tb->sim.Run();
  EXPECT_EQ(done, kRequests);
  EXPECT_EQ(ok, kRequests);
  // The L4 LB spread flows over multiple instances.
  int active_instances = 0;
  for (auto& inst : tb->instances) {
    if (inst->stats().flows_started > 0) {
      ++active_instances;
    }
  }
  EXPECT_GE(active_instances, 2);
}

TEST_F(YodaE2E, FlowStateRemovedAfterTeardown) {
  Build();
  FetchAndRun(AnyUrl());
  tb->sim.RunUntil(tb->sim.now() + sim::Sec(10));
  std::size_t items = 0;
  for (auto& s : tb->kv_servers) {
    items += s->item_count();
  }
  EXPECT_EQ(items, 0u);
}

// --- The headline property: flows survive instance failure. ---

TEST_F(YodaE2E, FlowSurvivesInstanceFailureDuringTunneling) {
  TestbedConfig cfg;
  cfg.yoda_instances = 4;
  Build(cfg);
  // A large object so the transfer is still in flight when we kill the LB.
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
  tb->clients[0]->FetchObject(tb->vip(), 80, big->url, {}, [&](const FetchResult& r) {
    result = r;
    done = true;
  });
  // Let the transfer get going, then kill whichever instance owns the flow.
  tb->sim.RunUntil(sim::Msec(160));
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
  EXPECT_EQ(result.retries_used, 0);  // No browser retry was needed.
  // Recovery is sub-5s (retransmit + 600 ms detection), not an HTTP timeout.
  EXPECT_LT(result.latency, sim::Sec(6));
  // Some survivor performed a TCPStore takeover.
  std::uint64_t takeovers = 0;
  for (auto& inst : tb->instances) {
    takeovers += inst->stats().takeovers_client_side + inst->stats().takeovers_server_side;
  }
  EXPECT_GE(takeovers, 1u);
}

TEST_F(YodaE2E, FlowSurvivesFailureInConnectionPhase) {
  // Fig 5(a): crash after storage-a / SYN-ACK but before the server
  // connection. We force this window by delaying the rule-scan so the
  // instance sits in the connection phase when it dies.
  TestbedConfig cfg;
  cfg.instance_template.rule_scan_base_delay = sim::Msec(250);
  Build(cfg);

  FetchResult result;
  bool done = false;
  tb->clients[0]->FetchObject(tb->vip(), 80, AnyUrl(), {}, [&](const FetchResult& r) {
    result = r;
    done = true;
  });
  // SYN at ~0, SYN-ACK ~66ms, HTTP header ~133 ms, server SYN at ~383 ms.
  tb->sim.RunUntil(sim::Msec(170));
  int owner = -1;
  for (std::size_t i = 0; i < tb->instances.size(); ++i) {
    if (tb->instances[i]->active_flows() > 0) {
      owner = static_cast<int>(i);
    }
  }
  ASSERT_GE(owner, 0);
  EXPECT_EQ(tb->instances[static_cast<std::size_t>(owner)]->stats().flows_completed, 0u);
  tb->CrashInstance(owner);
  tb->sim.Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.retries_used, 0);
  std::uint64_t takeovers = 0;
  for (auto& inst : tb->instances) {
    takeovers += inst->stats().takeovers_client_side;
  }
  EXPECT_GE(takeovers, 1u);
}

TEST_F(YodaE2E, SynBeforeStorageFailureFallsBackToNewFlow) {
  // Crash before the SYN-ACK goes out: the retransmitted SYN is simply a new
  // flow on a survivor (paper: SYN timeout 3 s > 600 ms failover).
  Build();
  // Fail the flow's owner the moment the SYN arrives: emulate by killing
  // all-but-one instance *before* the fetch so we know the owner, then kill
  // the owner right after the SYN is in flight.
  FetchResult result;
  bool done = false;
  tb->clients[0]->FetchObject(tb->vip(), 80, AnyUrl(), {}, [&](const FetchResult& r) {
    result = r;
    done = true;
  });
  tb->sim.RunUntil(sim::Msec(40));  // SYN is mid-flight to the DC.
  int owner = -1;
  for (std::size_t i = 0; i < tb->instances.size(); ++i) {
    if (tb->instances[i]->stats().flows_started > 0) {
      owner = static_cast<int>(i);
    }
  }
  if (owner >= 0) {
    tb->CrashInstance(owner);
  }
  tb->sim.Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.ok);
}

TEST_F(YodaE2E, SimultaneousDoubleFailureStillRecovers) {
  // The paper's §7.2 scenario: 2 of 10 instances fail at once.
  TestbedConfig cfg;
  cfg.yoda_instances = 6;
  Build(cfg);
  const workload::WebObject* big = nullptr;
  for (const auto& o : tb->catalog->objects()) {
    if (o.size > 150'000) {
      big = &o;
      break;
    }
  }
  ASSERT_NE(big, nullptr);
  int ok = 0;
  int done = 0;
  for (int i = 0; i < 12; ++i) {
    tb->clients[static_cast<std::size_t>(i) % tb->clients.size()]->FetchObject(
        tb->vip(), 80, big->url, {}, [&](const FetchResult& r) {
          ++done;
          ok += r.ok ? 1 : 0;
        });
  }
  tb->sim.RunUntil(sim::Msec(200));
  tb->CrashInstance(0);
  tb->CrashInstance(1);
  tb->sim.Run();
  EXPECT_EQ(done, 12);
  EXPECT_EQ(ok, 12);
}

TEST_F(YodaE2E, ControllerDetectsFailureWithinMonitorInterval) {
  Build();
  tb->CrashInstance(2);
  tb->sim.RunUntil(tb->sim.now() + sim::Msec(1300));
  EXPECT_EQ(tb->controller->detected_failures(), 1);
  EXPECT_EQ(tb->controller->ActiveInstances().size(), 3u);
  // The fabric no longer routes to the dead instance.
  const auto* pool = tb->fabric.mux(0).PoolFor(tb->vip());
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->size(), 3u);
}

// --- Scalability and policy dynamics. ---

TEST_F(YodaE2E, InstanceAdditionDoesNotBreakExistingFlows) {
  TestbedConfig cfg;
  cfg.yoda_instances = 2;
  cfg.spare_instances = 2;
  cfg.controller.auto_scale = false;  // We add manually mid-flow.
  Build(cfg);
  const workload::WebObject* big = nullptr;
  for (const auto& o : tb->catalog->objects()) {
    if (o.size > 150'000) {
      big = &o;
      break;
    }
  }
  FetchResult result;
  bool done = false;
  tb->clients[0]->FetchObject(tb->vip(), 80, big->url, {}, [&](const FetchResult& r) {
    result = r;
    done = true;
  });
  tb->sim.RunUntil(sim::Msec(150));
  // Manually activate both spares and reprogram pools (staggered).
  tb->controller->AddInstance(tb->spares[0].get());
  tb->controller->AddInstance(tb->spares[1].get());
  std::vector<net::IpAddr> pool;
  for (yoda::YodaInstance* inst : tb->controller->ActiveInstances()) {
    pool.push_back(inst->ip());
  }
  tb->fabric.SetVipPoolStaggered(tb->vip(), pool, sim::Msec(50));
  tb->sim.Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.bytes, big->size);
}

TEST_F(YodaE2E, AutoScaleActivatesSparesUnderLoad) {
  TestbedConfig cfg;
  cfg.yoda_instances = 2;
  cfg.spare_instances = 2;
  cfg.controller.auto_scale = true;
  cfg.controller.scale_out_cpu = 0.05;  // Trip easily in a small test.
  cfg.controller.scale_out_step = 2;
  Build(cfg);
  workload::OpenLoop load(*tb, 7);
  load.Start(0, tb->vip(), 400, sim::Sec(3));
  tb->sim.Run();
  EXPECT_EQ(tb->controller->ActiveInstances().size(), 4u);
  const workload::OpenLoop::Tally t = load.Totals();
  EXPECT_GT(t.ok, t.issued * 9 / 10);
}

TEST_F(YodaE2E, PolicyUpdateShiftsNewTrafficOnly) {
  Build();
  // Start with all traffic on backend 0.
  tb->controller->UpdateVipRules(tb->vip(), tb->EqualSplitRules(0, 1, "r-only0"));
  FetchResult r1 = FetchAndRun(AnyUrl());
  EXPECT_TRUE(r1.ok);
  EXPECT_EQ(tb->servers[0]->stats().requests, 1u);
  // Shift to backend 1 for new connections.
  tb->controller->UpdateVipRules(tb->vip(), tb->EqualSplitRules(1, 1, "r-only1"));
  FetchResult r2 = FetchAndRun(AnyUrl());
  EXPECT_TRUE(r2.ok);
  EXPECT_EQ(tb->servers[1]->stats().requests, 1u);
}

TEST_F(YodaE2E, InFlightFlowSurvivesRuleUpdateRemovingItsBackend) {
  // §5.2: "Packets on existing connections continue to be forwarded to their
  // prior assigned server even during soft server removal."
  Build();
  tb->controller->UpdateVipRules(tb->vip(), tb->EqualSplitRules(0, 1, "r-only0"));
  const workload::WebObject* big = nullptr;
  for (const auto& o : tb->catalog->objects()) {
    if (o.size > 150'000) {
      big = &o;
      break;
    }
  }
  FetchResult result;
  bool done = false;
  tb->clients[0]->FetchObject(tb->vip(), 80, big->url, {}, [&](const FetchResult& r) {
    result = r;
    done = true;
  });
  tb->sim.RunUntil(sim::Msec(200));  // Transfer from backend 0 in flight.
  // The operator softly removes backend 0: new policy only lists backend 1.
  tb->controller->UpdateVipRules(tb->vip(), tb->EqualSplitRules(1, 1, "r-only1"));
  tb->sim.Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.bytes, big->size);
  EXPECT_EQ(tb->servers[0]->stats().requests, 1u);  // Old flow stayed put.
  // A fresh request follows the new policy.
  FetchResult fresh = FetchAndRun(AnyUrl());
  EXPECT_TRUE(fresh.ok);
  EXPECT_EQ(tb->servers[1]->stats().requests, 1u);
}

TEST_F(YodaE2E, WeightedSplitFollowsConfiguredRatio) {
  Build();
  rules::Rule r;
  r.name = "weighted";
  r.priority = 1;
  r.match.url_glob = "*";
  r.action.type = rules::ActionType::kWeightedSplit;
  r.action.backends = {{tb->backend_ip(0), 80, 1.0}, {tb->backend_ip(1), 80, 1.0},
                       {tb->backend_ip(2), 80, 2.0}};
  tb->controller->UpdateVipRules(tb->vip(), {r});
  int done = 0;
  const int kRequests = 200;
  for (int i = 0; i < kRequests; ++i) {
    tb->clients[static_cast<std::size_t>(i) % tb->clients.size()]->FetchObject(
        tb->vip(), 80, AnyUrl(), {}, [&done](const FetchResult& rr) {
          EXPECT_TRUE(rr.ok);
          ++done;
        });
  }
  tb->sim.Run();
  EXPECT_EQ(done, kRequests);
  const double s2 = static_cast<double>(tb->servers[2]->stats().requests);
  const double s01 =
      static_cast<double>(tb->servers[0]->stats().requests + tb->servers[1]->stats().requests);
  EXPECT_NEAR(s2 / (s2 + s01), 0.5, 0.12);
}

TEST_F(YodaE2E, StickySessionsPinAcrossConnections) {
  // Sticky tables are per-instance (as in HAProxy); use one instance so all
  // connections consult the same table.
  TestbedConfig cfg;
  cfg.yoda_instances = 1;
  Build(cfg);
  rules::StickySessionPolicy policy;
  policy.name = "ss";
  policy.cookie = "sid";
  for (int i = 0; i < tb->cfg.backends; ++i) {
    policy.fallback.push_back({tb->backend_ip(i), 80, 1.0});
  }
  tb->controller->UpdateVipRules(tb->vip(), rules::Compile(policy));
  FetchOptions opts;
  opts.cookie = "sid=alice";
  // First request binds; subsequent requests must hit the same backend.
  FetchResult first = FetchAndRun(AnyUrl(), opts);
  ASSERT_TRUE(first.ok);
  int bound = -1;
  for (int i = 0; i < tb->cfg.backends; ++i) {
    if (tb->servers[static_cast<std::size_t>(i)]->stats().requests > 0) {
      bound = i;
    }
  }
  ASSERT_GE(bound, 0);
  for (int round = 0; round < 5; ++round) {
    FetchResult r = FetchAndRun(AnyUrl(), opts, round % tb->cfg.clients);
    EXPECT_TRUE(r.ok);
  }
  EXPECT_EQ(tb->servers[static_cast<std::size_t>(bound)]->stats().requests, 6u);
}

TEST_F(YodaE2E, PrimaryBackupFailsOverOnBackendDeath) {
  Build();
  rules::PrimaryBackupPolicy policy;
  policy.name = "pb";
  policy.priority = 5;
  policy.primaries = {{tb->backend_ip(0), 80, 1.0}};
  policy.backups = {{tb->backend_ip(1), 80, 1.0}};
  tb->controller->UpdateVipRules(tb->vip(), rules::Compile(policy));
  FetchResult r1 = FetchAndRun(AnyUrl());
  EXPECT_TRUE(r1.ok);
  EXPECT_EQ(tb->servers[0]->stats().requests, 1u);
  // Kill the primary; after the monitor notices, traffic goes to the backup.
  tb->faults->CrashNode(tb->backend_ip(0));
  tb->sim.RunUntil(tb->sim.now() + sim::Sec(2));
  FetchResult r2 = FetchAndRun(AnyUrl());
  EXPECT_TRUE(r2.ok);
  EXPECT_EQ(tb->servers[1]->stats().requests, 1u);
}

TEST_F(YodaE2E, LeastLoadedSpreadsActiveConnections) {
  Build();
  rules::LeastLoadedPolicy policy;
  policy.name = "ll";
  policy.backends = {{tb->backend_ip(0), 80, 1.0}, {tb->backend_ip(1), 80, 1.0}};
  tb->controller->UpdateVipRules(tb->vip(), rules::Compile(policy));
  int done = 0;
  for (int i = 0; i < 40; ++i) {
    tb->clients[static_cast<std::size_t>(i) % tb->clients.size()]->FetchObject(
        tb->vip(), 80, AnyUrl(), {}, [&done](const FetchResult& r) {
          EXPECT_TRUE(r.ok);
          ++done;
        });
  }
  tb->sim.Run();
  EXPECT_EQ(done, 40);
  const auto s0 = tb->servers[0]->stats().requests;
  const auto s1 = tb->servers[1]->stats().requests;
  EXPECT_GT(s0, 5u);
  EXPECT_GT(s1, 5u);
  EXPECT_EQ(s0 + s1, 40u);
}

// --- HTTP/1.1 (§5.2). ---

TEST_F(YodaE2E, Http11KeepAliveServesMultipleRequests) {
  Build();
  std::vector<std::string> urls;
  for (int i = 0; i < 3; ++i) {
    urls.push_back(tb->catalog->objects()[static_cast<std::size_t>(i)].url);
  }
  std::vector<FetchResult> results;
  bool done = false;
  tb->clients[0]->FetchSequence(tb->vip(), 80, urls, {}, [&](std::vector<FetchResult> rs) {
    results = std::move(rs);
    done = true;
  });
  tb->sim.Run();
  ASSERT_TRUE(done);
  ASSERT_EQ(results.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(results[i].ok) << i;
    EXPECT_EQ(results[i].bytes, tb->catalog->objects()[i].size);
  }
}

TEST_F(YodaE2E, Http11PipelinedRequestsReturnInOrder) {
  // §5.2: pipelined responses must come back in request order — sizes of the
  // three objects differ, so misordering would be visible in the results.
  Build();
  // Pin all traffic to one backend so ordering is the LB's responsibility.
  tb->controller->UpdateVipRules(tb->vip(), tb->EqualSplitRules(0, 1, "r-one"));
  std::vector<std::string> urls;
  for (int i = 0; i < 4; ++i) {
    urls.push_back(tb->catalog->objects()[static_cast<std::size_t>(i)].url);
  }
  FetchOptions opts;
  opts.pipeline = true;
  std::vector<FetchResult> results;
  bool done = false;
  tb->clients[0]->FetchSequence(tb->vip(), 80, urls, opts,
                                [&](std::vector<FetchResult> rs) {
                                  results = std::move(rs);
                                  done = true;
                                });
  tb->sim.Run();
  ASSERT_TRUE(done);
  ASSERT_EQ(results.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(results[i].ok) << i;
    EXPECT_EQ(results[i].bytes, tb->catalog->objects()[i].size) << i;
  }
  // All pipelined requests were served on the single connection.
  EXPECT_EQ(tb->servers[0]->stats().requests, 4u);
  EXPECT_EQ(tb->servers[0]->stats().connections, 1u);
}

TEST_F(YodaE2E, PipelinedResponsesStayInOrderAcrossFailure) {
  // §5.2: "YODA instances have to ensure that the responses are sent
  // in-order ... even during YODA failures."
  Build();
  tb->controller->UpdateVipRules(tb->vip(), tb->EqualSplitRules(0, 1, "r-one"));
  std::vector<std::string> urls;
  std::vector<std::size_t> sizes;
  for (const auto& o : tb->catalog->objects()) {
    if (o.size > 60'000 && urls.size() < 3) {
      urls.push_back(o.url);
      sizes.push_back(o.size);
    }
  }
  ASSERT_EQ(urls.size(), 3u);
  FetchOptions opts;
  opts.pipeline = true;
  std::vector<FetchResult> results;
  bool done = false;
  tb->clients[0]->FetchSequence(tb->vip(), 80, urls, opts,
                                [&](std::vector<FetchResult> rs) {
                                  results = std::move(rs);
                                  done = true;
                                });
  tb->sim.RunUntil(sim::Msec(220));  // Mid-way through the response stream.
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
  ASSERT_EQ(results.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(results[i].ok) << i;
    EXPECT_EQ(results[i].bytes, sizes[i]) << "response " << i << " out of order or corrupt";
  }
}

TEST_F(YodaE2E, Http11ReSwitchesBackendsAcrossRequests) {
  Build();
  // .css -> backend 0; everything else -> backend 1.
  rules::Rule css;
  css.name = "css";
  css.priority = 5;
  css.match.url_glob = "*.css";
  css.action.backends = {{tb->backend_ip(0), 80, 1.0}};
  rules::Rule other;
  other.name = "other";
  other.priority = 1;
  other.match.url_glob = "*";
  other.action.backends = {{tb->backend_ip(1), 80, 1.0}};
  tb->controller->UpdateVipRules(tb->vip(), {css, other});

  // Find one css and one non-css object.
  std::string css_url;
  std::string jpg_url;
  for (const auto& o : tb->catalog->objects()) {
    if (css_url.empty() && o.url.ends_with(".css")) {
      css_url = o.url;
    }
    if (jpg_url.empty() && o.url.ends_with(".jpg")) {
      jpg_url = o.url;
    }
  }
  ASSERT_FALSE(css_url.empty());
  ASSERT_FALSE(jpg_url.empty());

  std::vector<FetchResult> results;
  bool done = false;
  tb->clients[0]->FetchSequence(tb->vip(), 80, {css_url, jpg_url, css_url}, {},
                                [&](std::vector<FetchResult> rs) {
                                  results = std::move(rs);
                                  done = true;
                                });
  tb->sim.Run();
  ASSERT_TRUE(done);
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) {
    EXPECT_TRUE(r.ok);
  }
  EXPECT_EQ(tb->servers[0]->stats().requests, 2u);  // Both css requests.
  EXPECT_EQ(tb->servers[1]->stats().requests, 1u);  // The jpg request.
  std::uint64_t reswitches = 0;
  for (auto& inst : tb->instances) {
    reswitches += inst->stats().reswitches;
  }
  EXPECT_EQ(reswitches, 2u);  // css->jpg and jpg->css.
}

// --- Request mirroring (§5.2 extension). ---

TEST_F(YodaE2E, MirroredRequestReachesAllBackendsFirstResponseWins) {
  Build();
  rules::Rule r;
  r.name = "r-mirror";
  r.priority = 5;
  r.match.url_glob = "*";
  r.action.type = rules::ActionType::kMirror;
  r.action.backends = {{tb->backend_ip(0), 80, 1.0}, {tb->backend_ip(1), 80, 1.0}};
  tb->controller->UpdateVipRules(tb->vip(), {r});

  const workload::WebObject& obj = tb->catalog->objects()[0];
  FetchResult result = FetchAndRun(obj.url);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.bytes, obj.size);  // Exactly one response body, intact.
  // Both backends served the mirrored request.
  EXPECT_EQ(tb->servers[0]->stats().requests, 1u);
  EXPECT_EQ(tb->servers[1]->stats().requests, 1u);
}

TEST_F(YodaE2E, MirrorWinnerIsTheFasterBackend) {
  Build();
  rules::Rule r;
  r.name = "r-mirror";
  r.priority = 5;
  r.match.url_glob = "*";
  r.action.type = rules::ActionType::kMirror;
  r.action.backends = {{tb->backend_ip(0), 80, 1.0}, {tb->backend_ip(1), 80, 1.0}};
  tb->controller->UpdateVipRules(tb->vip(), {r});
  // Backend 0 (the primary) is pathologically slow; the mirror must win and
  // the client should see roughly the fast backend's latency.
  tb->servers[0]->set_processing_delay(sim::Sec(5));

  const workload::WebObject& obj = tb->catalog->objects()[1];
  FetchResult result = FetchAndRun(obj.url);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.bytes, obj.size);
  EXPECT_LT(result.latency, sim::Sec(3));  // Not gated on the slow primary.
}

TEST_F(YodaE2E, MirroringSurvivesRepeatedRequests) {
  Build();
  rules::Rule r;
  r.name = "r-mirror";
  r.priority = 5;
  r.match.url_glob = "*";
  r.action.type = rules::ActionType::kMirror;
  r.action.backends = {{tb->backend_ip(0), 80, 1.0}, {tb->backend_ip(1), 80, 1.0},
                       {tb->backend_ip(2), 80, 1.0}};
  tb->controller->UpdateVipRules(tb->vip(), {r});
  int done = 0;
  for (int i = 0; i < 10; ++i) {
    tb->clients[static_cast<std::size_t>(i) % tb->clients.size()]->FetchObject(
        tb->vip(), 80, AnyUrl(), {}, [&done](const FetchResult& rr) {
          EXPECT_TRUE(rr.ok);
          ++done;
        });
  }
  tb->sim.Run();
  EXPECT_EQ(done, 10);
  // Every backend saw every request (3 copies each x 10 requests).
  EXPECT_EQ(tb->servers[0]->stats().requests + tb->servers[1]->stats().requests +
                tb->servers[2]->stats().requests,
            30u);
}

TEST_F(YodaE2E, TwoVipsAreIsolated) {
  Build();
  // vip(1) routes to backends 3..5 only.
  tb->controller->DefineVip(tb->vip(1), 80, tb->EqualSplitRules(3, 3, "r-vip1"));
  int done = 0;
  for (int i = 0; i < 10; ++i) {
    tb->clients[0]->FetchObject(tb->vip(1), 80, AnyUrl(), {}, [&done](const FetchResult& r) {
      EXPECT_TRUE(r.ok);
      ++done;
    });
  }
  tb->sim.Run();
  EXPECT_EQ(done, 10);
  EXPECT_EQ(tb->servers[0]->stats().requests + tb->servers[1]->stats().requests +
                tb->servers[2]->stats().requests,
            0u);
  EXPECT_EQ(tb->servers[3]->stats().requests + tb->servers[4]->stats().requests +
                tb->servers[5]->stats().requests,
            10u);
}

TEST_F(YodaE2E, ClientRstTearsDownFlowState) {
  Build();
  // Begin a transfer, then inject a client RST mid-stream; the instance must
  // propagate it, drop local state and delete the TCPStore entries.
  const workload::WebObject* big = nullptr;
  for (const auto& o : tb->catalog->objects()) {
    if (o.size > 150'000) {
      big = &o;
      break;
    }
  }
  bool finished_ok = false;
  tb->clients[0]->FetchObject(tb->vip(), 80, big->url, {},
                              [&](const FetchResult& r) { finished_ok = r.ok; });
  tb->sim.RunUntil(sim::Msec(160));
  int owner = -1;
  for (std::size_t i = 0; i < tb->instances.size(); ++i) {
    if (tb->instances[i]->active_flows() > 0) {
      owner = static_cast<int>(i);
    }
  }
  ASSERT_GE(owner, 0);
  // Forge the client's RST (as if the user killed the tab).
  net::Packet rst;
  rst.src = tb->client_ip(0);
  rst.dst = tb->vip();
  rst.sport = 0;  // Find the live port from the instance's metering instead:
  // simplest: send RSTs for the whole ephemeral range the client used.
  // The client allocates sequentially from its base; probe a small window.
  const net::Port base = static_cast<net::Port>(
      10'000 + (kv::Mix64(tb->client_ip(0)) % 55) * 1'000);
  for (net::Port p = base; p < base + 4; ++p) {
    net::Packet r2;
    r2.src = tb->client_ip(0);
    r2.dst = tb->vip();
    r2.sport = p;
    r2.dport = 80;
    r2.flags = net::kRst;
    tb->network.Send(std::move(r2));
  }
  tb->sim.RunUntil(tb->sim.now() + sim::Sec(12));
  EXPECT_EQ(tb->instances[static_cast<std::size_t>(owner)]->active_flows(), 0u);
  // TCPStore is empty once the teardown deletes both keys.
  tb->sim.Run();
  std::size_t items = 0;
  for (auto& s : tb->kv_servers) {
    items += s->item_count();
  }
  EXPECT_EQ(items, 0u);
}

TEST_F(YodaE2E, IdleFlowsAreGarbageCollected) {
  TestbedConfig cfg;
  cfg.instance_template.flow_idle_timeout = sim::Sec(5);
  cfg.instance_template.idle_scan_interval = sim::Sec(1);
  Build(cfg);
  // Kill ALL backends right after the SYN-ACK so the flow can never finish;
  // the client gives up (RSTs are blackholed), leaving orphan LB state.
  bool done = false;
  FetchOptions opts;
  opts.http_timeout = sim::Sec(3);
  tb->clients[0]->FetchObject(tb->vip(), 80, AnyUrl(), opts,
                              [&done](const FetchResult&) { done = true; });
  tb->sim.RunUntil(sim::Msec(120));
  for (int i = 0; i < tb->cfg.backends; ++i) {
    tb->faults->CrashNode(tb->backend_ip(i));
  }
  tb->sim.RunUntil(tb->sim.now() + sim::Sec(30));
  EXPECT_TRUE(done);
  std::size_t flows = 0;
  for (auto& inst : tb->instances) {
    flows += inst->active_flows();
  }
  EXPECT_EQ(flows, 0u);  // Idle GC reclaimed the orphan.
}

TEST_F(YodaE2E, VipRemovalStopsTraffic) {
  Build();
  tb->controller->RemoveVip(tb->vip());
  FetchOptions opts;
  opts.http_timeout = sim::Sec(5);
  FetchResult r = FetchAndRun(AnyUrl(), opts);
  EXPECT_FALSE(r.ok);
}

TEST_F(YodaE2E, VipRemovalDrainsInFlightFlows) {
  Build();
  // A large object keeps the flow mid-tunneling when the VIP is withdrawn.
  const workload::WebObject* obj = nullptr;
  for (const auto& o : tb->catalog->objects()) {
    if (o.size > 100'000) {
      obj = &o;
      break;
    }
  }
  ASSERT_NE(obj, nullptr);
  FetchResult result;
  bool done = false;
  tb->clients[0]->FetchObject(tb->vip(), 80, obj->url, {}, [&](const FetchResult& r) {
    result = r;
    done = true;
  });
  tb->sim.RunUntil(sim::Msec(150));
  ASSERT_FALSE(done);
  std::size_t in_flight = 0;
  for (auto& inst : tb->instances) {
    in_flight += inst->active_flows();
  }
  ASSERT_GT(in_flight, 0u);

  for (auto& inst : tb->instances) {
    inst->RemoveVip(tb->vip());
    // The drain is synchronous: flow state, sticky bindings and the per-VIP
    // counter cache die with the VIP, not at the next idle scan.
    EXPECT_EQ(inst->active_flows(), 0u);
    EXPECT_FALSE(inst->ServesVip(tb->vip()));
    EXPECT_EQ(inst->RuleCount(tb->vip()), 0);
    EXPECT_FALSE(inst->DrainTrafficCounters().contains(tb->vip()));
  }

  tb->sim.Run();
  ASSERT_TRUE(done);
  EXPECT_FALSE(result.ok);  // The client was explicitly reset, not stranded.

  // The drain is observable in the flight recorder as an explicit
  // kFlowReset with the kVipRemoved reason.
  bool saw_vip_removed_reset = false;
  tb->flight.ForEachFlow([&](const obs::FlowId&, const std::vector<obs::TraceEvent>& events) {
    for (const obs::TraceEvent& e : events) {
      if (e.type == obs::EventType::kFlowReset &&
          e.detail == static_cast<std::uint64_t>(obs::FlowResetReason::kVipRemoved)) {
        saw_vip_removed_reset = true;
      }
    }
  });
  EXPECT_TRUE(saw_vip_removed_reset);

  // And the reset path scrubbed TCPStore: no orphaned flow keys remain.
  std::size_t items = 0;
  for (auto& s : tb->kv_servers) {
    items += s->item_count();
  }
  EXPECT_EQ(items, 0u);
}

// Property sweep: kill the owning instance at many different offsets within
// the request lifetime; the flow must survive every window (connection
// phase, storage waits, tunneling, teardown).
class FailureTimingSweep : public ::testing::TestWithParam<int> {};

TEST_P(FailureTimingSweep, FlowSurvivesFailureAtAnyPoint) {
  TestbedConfig cfg;
  cfg.yoda_instances = 4;
  Testbed tb(cfg);
  tb.DefineDefaultVipAndStart();
  const workload::WebObject* obj = nullptr;
  for (const auto& o : tb.catalog->objects()) {
    if (o.size > 100'000) {
      obj = &o;
      break;
    }
  }
  ASSERT_NE(obj, nullptr);
  workload::FetchResult result;
  bool done = false;
  tb.clients[0]->FetchObject(tb.vip(), 80, obj->url, {}, [&](const workload::FetchResult& r) {
    result = r;
    done = true;
  });
  const sim::Duration offset = sim::Msec(20) * GetParam();
  tb.sim.RunUntil(offset);
  int owner = -1;
  for (std::size_t i = 0; i < tb.instances.size(); ++i) {
    if (tb.instances[i]->active_flows() > 0 || tb.instances[i]->stats().flows_started > 0) {
      owner = static_cast<int>(i);
    }
  }
  if (owner >= 0 && !done) {
    tb.CrashInstance(owner);
  }
  tb.sim.Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.ok) << "offset=" << sim::ToMillis(offset)
                         << "ms timed_out=" << result.timed_out << " reset=" << result.reset;
  EXPECT_EQ(result.bytes, obj->size);
}

INSTANTIATE_TEST_SUITE_P(Offsets, FailureTimingSweep, ::testing::Range(1, 26));

TEST(YodaInstanceTraffic, DrainTrafficCountersAttributesPerVipAndClearsWindow) {
  // No controller monitor here: MonitorTick drains the same counters, which
  // would race with the assertions below.
  Testbed tb;
  tb.controller->DefineVip(tb.vip(0), 80, tb.EqualSplitRules(0, tb.cfg.backends));
  tb.controller->DefineVip(tb.vip(1), 80,
                           tb.EqualSplitRules(0, tb.cfg.backends, "r-vip2"));

  for (int v = 0; v < 2; ++v) {
    bool ok = false;
    tb.clients[static_cast<std::size_t>(v)]->FetchObject(
        tb.vip(v), 80, tb.catalog->objects()[0].url, {},
        [&ok](const FetchResult& r) { ok = r.ok; });
    tb.sim.Run();
    ASSERT_TRUE(ok) << "vip " << v;
  }

  // Each VIP's window holds exactly its own connection, with bytes metered.
  std::map<net::IpAddr, VipTraffic> total;
  for (auto& inst : tb.instances) {
    for (const auto& [vip, traffic] : inst->DrainTrafficCounters()) {
      total[vip].new_connections += traffic.new_connections;
      total[vip].bytes += traffic.bytes;
    }
  }
  ASSERT_TRUE(total.contains(tb.vip(0)));
  ASSERT_TRUE(total.contains(tb.vip(1)));
  EXPECT_EQ(total[tb.vip(0)].new_connections, 1u);
  EXPECT_EQ(total[tb.vip(1)].new_connections, 1u);
  EXPECT_GT(total[tb.vip(0)].bytes, 0u);
  EXPECT_GT(total[tb.vip(1)].bytes, 0u);

  // The drain emptied every window.
  for (auto& inst : tb.instances) {
    EXPECT_TRUE(inst->DrainTrafficCounters().empty());
  }

  // The cumulative registry counters are NOT windowed: they still hold the
  // totals after the drain.
  for (int v = 0; v < 2; ++v) {
    std::uint64_t registered = 0;
    for (auto& inst : tb.instances) {
      const obs::Labels labels{{"instance", obs::FormatIp(inst->ip())},
                               {"vip", obs::FormatIp(tb.vip(v))}};
      registered += tb.metrics.GetCounter("yoda.vip.new_connections", labels).value();
    }
    EXPECT_EQ(registered, 1u) << "vip " << v;
  }
}

// --- Failure-path hardening: takeover re-fetch and explicit reset. ---

TEST_F(YodaE2E, TakeoverRefetchRidesOutTransientKvSlowness) {
  // The TCPStore replicas answer, but too late: the first takeover lookup
  // times out. The survivor must re-fetch with backoff instead of resetting
  // the flow, and succeed once the slowness clears.
  TestbedConfig cfg;
  cfg.yoda_instances = 4;
  cfg.kv_client.op_timeout = sim::Msec(10);
  cfg.kv_client.max_retries = 0;  // Isolate the takeover-level retry.
  cfg.instance_template.takeover_retry_limit = 5;
  cfg.instance_template.takeover_retry_backoff = sim::Msec(20);
  Build(cfg);
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
  tb->clients[0]->FetchObject(tb->vip(), 80, big->url, {}, [&](const FetchResult& r) {
    result = r;
    done = true;
  });
  tb->sim.RunUntil(sim::Msec(160));
  int owner = -1;
  for (std::size_t i = 0; i < tb->instances.size(); ++i) {
    if (tb->instances[i]->active_flows() > 0) {
      owner = static_cast<int>(i);
    }
  }
  ASSERT_GE(owner, 0);
  tb->CrashInstance(owner);
  for (int i = 0; i < tb->cfg.kv_servers; ++i) {
    tb->SlowKvServer(i, sim::Msec(100));  // Late answers: every Get times out.
  }

  // Step the sim until the survivor's first lookup has missed and re-armed,
  // then end the outage so a later attempt hits.
  auto total_retries = [&] {
    std::uint64_t n = 0;
    for (auto& inst : tb->instances) {
      n += inst->stats().takeover_retries;
    }
    return n;
  };
  while (total_retries() == 0 && tb->sim.now() < sim::Sec(5)) {
    tb->sim.RunUntil(tb->sim.now() + sim::Msec(10));
  }
  ASSERT_GT(total_retries(), 0u) << "takeover lookup never re-armed";
  for (int i = 0; i < tb->cfg.kv_servers; ++i) {
    tb->SlowKvServer(i, 0);
  }
  tb->sim.Run();

  ASSERT_TRUE(done);
  EXPECT_TRUE(result.ok) << "timed_out=" << result.timed_out << " reset=" << result.reset;
  EXPECT_EQ(result.bytes, big->size);
  std::uint64_t takeovers = 0;
  std::uint64_t misses = 0;
  for (auto& inst : tb->instances) {
    takeovers += inst->stats().takeovers_client_side + inst->stats().takeovers_server_side;
    misses += inst->stats().takeover_misses;
  }
  EXPECT_GE(takeovers, 1u);
  EXPECT_EQ(misses, 0u);  // The retry budget absorbed the outage.
}

TEST_F(YodaE2E, TakeoverFinalMissResetsFlowInsteadOfBlackholing) {
  // The flow state is genuinely gone (TCPStore wiped while its owner is
  // dead). After the retry budget is spent the survivor must answer the
  // client's retransmissions with a RST — an explicit, prompt failure rather
  // than a silent drop that runs out the 30 s browser timer.
  TestbedConfig cfg;
  cfg.yoda_instances = 4;
  cfg.kv_client.op_timeout = sim::Msec(10);
  cfg.kv_client.max_retries = 0;
  cfg.instance_template.takeover_retry_limit = 1;
  cfg.instance_template.takeover_retry_backoff = sim::Msec(5);
  Build(cfg);

  FetchResult result;
  bool done = false;
  tb->clients[0]->FetchObject(tb->vip(), 80, AnyUrl(), {}, [&](const FetchResult& r) {
    result = r;
    done = true;
  });
  // Kill the owner after its SYN-ACK is out but before the HTTP request
  // lands (~100 ms): the unacked request keeps the client retransmitting,
  // which is what eventually reaches the survivor.
  tb->sim.RunUntil(sim::Msec(80));
  int owner = -1;
  for (std::size_t i = 0; i < tb->instances.size(); ++i) {
    if (tb->instances[i]->stats().flows_started > 0) {
      owner = static_cast<int>(i);
    }
  }
  ASSERT_GE(owner, 0);
  tb->CrashInstance(owner);
  for (auto& s : tb->kv_servers) {
    s->Fail();  // Wipes contents; lookups now miss for good.
  }
  tb->sim.Run();

  ASSERT_TRUE(done);
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.reset) << "timed_out=" << result.timed_out;
  // The reset came well before the browser's 30 s HTTP timeout.
  EXPECT_LT(result.latency, sim::Sec(10));
  std::uint64_t misses = 0;
  std::uint64_t retries = 0;
  for (auto& inst : tb->instances) {
    misses += inst->stats().takeover_misses;
    retries += inst->stats().takeover_retries;
  }
  EXPECT_GE(misses, 1u);
  EXPECT_GE(retries, 1u);
  // The reset is in the flight-recorder trace with the takeover-miss reason.
  bool reset_traced = false;
  tb->flight.ForEachFlow([&](const obs::FlowId&, const std::vector<obs::TraceEvent>& events) {
    for (const obs::TraceEvent& ev : events) {
      if (ev.type == obs::EventType::kFlowReset &&
          ev.detail == static_cast<std::uint64_t>(obs::FlowResetReason::kTakeoverMiss)) {
        reset_traced = true;
      }
    }
  });
  EXPECT_TRUE(reset_traced);
}

}  // namespace
}  // namespace yoda
