// Chaos soak (ctest label: "soak"): randomized-but-deterministic fault
// timelines against the full testbed under open-loop load, with post-hoc
// invariant checking over the flight-recorder traces.
//
// Invariants asserted per seed:
//   - every flow admitted by an instance reaches an explicit terminal event
//     (kCleanup or kFlowReset), unless its instance crashed mid-run;
//   - per-flow backend pinning never changes without a re-switch/promote;
//   - event timestamps are monotone within each flow;
//   - no flow is silently stuck past the run deadline (the invariant above,
//     applied after a post-load drain window that exceeds the idle GC);
//   - same-seed runs export byte-identical JSONL traces.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/fault/chaos.h"
#include "src/workload/testbed.h"

namespace workload {
namespace {

struct SoakOutcome {
  fault::SoakReport report;
  std::vector<fault::ChaosEpisode> episodes;
  std::string jsonl;
  std::uint64_t completed = 0;
  std::uint64_t issued = 0;
};

SoakOutcome RunSoak(std::uint64_t seed) {
  TestbedConfig cfg;
  cfg.seed = seed;
  cfg.yoda_instances = 3;
  cfg.backends = 4;
  cfg.clients = 4;
  // Soak-speed GC so "stuck" is observable within the run (a flow alive past
  // idle_timeout after the load stops would fail the terminate invariant).
  cfg.instance_template.flow_idle_timeout = sim::Msec(400);
  cfg.instance_template.idle_scan_interval = sim::Msec(100);
  cfg.instance_template.server_syn_timeout = sim::Msec(150);
  // Failure-path hardening under test: monitor hysteresis + readmission,
  // KV retries + hedged reads, bounded takeover re-fetch (on by default).
  cfg.controller.monitor_interval = sim::Msec(50);
  cfg.controller.fail_after_misses = 3;
  cfg.controller.readmit_instances = true;
  cfg.controller.readmit_after_successes = 2;
  cfg.kv_client.max_retries = 2;
  cfg.kv_client.read_mode = kv::ReadMode::kHedged;
  cfg.kv_client.hedge_delay = sim::Msec(2);
  cfg.kv_client.op_timeout = sim::Msec(20);
  Testbed tb(cfg);
  tb.DefineDefaultVipAndStart();

  // Fault timeline: drawn up front, entirely from this seeded Rng.
  fault::ChaosOptions opts;
  opts.window_start = sim::Msec(100);
  opts.window_end = sim::Msec(900);
  opts.episodes = 8;
  opts.min_duration = sim::Msec(10);
  opts.max_duration = sim::Msec(100);
  for (int i = 0; i < cfg.yoda_instances; ++i) {
    opts.instances.push_back(tb.instance_ip(i));
  }
  for (int i = 0; i < cfg.kv_servers; ++i) {
    opts.kv_nodes.push_back(tb.kv_ip(i));
  }
  opts.links = {{tb.instance_ip(0), tb.backend_ip(0)},
                {tb.instance_ip(1), tb.backend_ip(1)}};
  sim::Rng chaos_rng(seed ^ 0xc4a05c4a05ULL);
  SoakOutcome out;
  out.episodes = fault::RandomSchedule(*tb.faults, chaos_rng, opts);

  // Open-loop load across the fault window. Small objects keep per-fetch
  // latency a few RTTs so the 2 s browser timeout marks genuinely dead flows,
  // not slow transfers.
  OpenLoopGenerator::Config gcfg;
  gcfg.requests_per_second = 250;
  gcfg.duration = sim::Msec(1000);
  gcfg.target = tb.vip();
  gcfg.fetch.http_timeout = sim::Sec(2);
  gcfg.fetch.retries = 1;
  for (const WebObject& o : tb.catalog->objects()) {
    if (o.size <= 40'000) {
      gcfg.urls.push_back(o.url);
    }
    if (gcfg.urls.size() == 8) {
      break;
    }
  }
  EXPECT_FALSE(gcfg.urls.empty());
  std::vector<BrowserClient*> clients;
  for (auto& c : tb.clients) {
    clients.push_back(c.get());
  }
  OpenLoopGenerator gen(tb.SimFor(0), clients, seed ^ 0x10adULL, gcfg);
  gen.Start();

  // Drain: run well past load end + client timeouts + idle GC, so every
  // still-open flow either terminates or counts as stuck.
  tb.sim.RunUntil(sim::Msec(1000) + sim::Sec(2) * 2 + sim::Sec(4));

  out.report = fault::CheckSoakInvariants(tb.flight);
  std::ostringstream os;
  tb.flight.ExportJsonLines(os);
  out.jsonl = os.str();
  out.completed = gen.completed();
  out.issued = gen.issued();
  return out;
}

std::string DescribeEpisodes(const std::vector<fault::ChaosEpisode>& episodes) {
  std::string s;
  for (const auto& ep : episodes) {
    s += "  " + ep.Describe() + "\n";
  }
  return s;
}

class ChaosSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosSoak, InvariantsHoldUnderRandomFaults) {
  const SoakOutcome out = RunSoak(GetParam());
  ASSERT_FALSE(out.episodes.empty());
  EXPECT_GT(out.issued, 100u);
  // The run must have made real progress despite the faults.
  EXPECT_GT(out.completed, out.issued / 2);
  EXPECT_GT(out.report.flows_checked, 0u);
  std::string violations;
  for (const auto& v : out.report.violations) {
    violations += "  " + v + "\n";
  }
  EXPECT_TRUE(out.report.ok()) << "violations:\n"
                               << violations << "fault timeline:\n"
                               << DescribeEpisodes(out.episodes);
}

// Seeds 1..8: the ISSUE's >= 8-seed soak matrix.
INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSoak, ::testing::Range<std::uint64_t>(1, 9));

// Crash an assigned instance while an assignment rollout is in flight: the
// make phase's staggered mux writes have not converged and the break phase is
// parked behind the convergence barrier when the instance dies. The failure
// reconcile (scrub + evict + headroom repair) overtakes the rollout; epoch
// gating must make the overtaken plan's stragglers harmless, and no VIP may
// ever see an empty mux pool along the way.
TEST(ChaosRolloutCrash, MidRolloutCrashNeverEmptiesAPool) {
  TestbedConfig cfg;
  cfg.seed = 11;
  cfg.yoda_instances = 4;
  cfg.backends = 4;
  cfg.clients = 2;
  cfg.controller.monitor_interval = sim::Msec(50);
  cfg.controller.fail_after_misses = 2;
  cfg.instance_template.flow_idle_timeout = sim::Msec(400);
  cfg.instance_template.idle_scan_interval = sim::Msec(100);
  cfg.instance_template.server_syn_timeout = sim::Msec(150);
  Testbed tb(cfg);
  tb.DefineDefaultVipAndStart();

  OpenLoopGenerator::Config gcfg;
  gcfg.requests_per_second = 200;
  gcfg.duration = sim::Msec(1000);
  gcfg.target = tb.vip();
  gcfg.fetch.http_timeout = sim::Sec(2);
  gcfg.fetch.retries = 1;
  for (const WebObject& o : tb.catalog->objects()) {
    if (o.size <= 40'000) {
      gcfg.urls.push_back(o.url);
    }
    if (gcfg.urls.size() == 8) {
      break;
    }
  }
  ASSERT_FALSE(gcfg.urls.empty());
  std::vector<BrowserClient*> clients;
  for (auto& c : tb.clients) {
    clients.push_back(c.get());
  }
  OpenLoopGenerator gen(tb.SimFor(0), clients, cfg.seed ^ 0x10adULL, gcfg);
  gen.Start();

  // Round 1 shrinks the bootstrap all-to-all pool to 2 instances; round 2
  // grows it to 3 — a genuine make/barrier/break rollout whose staggered
  // writes span hundreds of ms. The crash lands 30 ms into round 2.
  std::map<net::IpAddr, yoda::Controller::VipDemand> demand;
  tb.SimFor(0)->At(sim::Msec(200), [&] {
    demand[tb.vip()] = {0.4, 2, 0};
    ASSERT_TRUE(tb.controller->ApplyManyToMany(demand, 1.0, 2000));
  });
  net::IpAddr victim = 0;
  tb.SimFor(0)->At(sim::Msec(400), [&] {
    demand[tb.vip()] = {0.6, 3, 0};
    ASSERT_TRUE(tb.controller->ApplyManyToMany(demand, 1.0, 2000));
  });
  tb.SimFor(0)->At(sim::Msec(430), [&] {
    const auto assigned = tb.controller->AssignedInstances(tb.vip());
    ASSERT_FALSE(assigned.empty());
    victim = assigned[0];
    tb.faults->CrashNode(victim);
  });

  tb.sim.RunUntil(sim::Msec(1000) + sim::Sec(2) * 2 + sim::Sec(4));
  ASSERT_NE(victim, 0u);

  // The rollout-crash interleaving settled: no plan still in flight, the dead
  // instance is gone from the assignment, and the repair kept n_v replicas.
  EXPECT_EQ(tb.controller->actuator().plans_in_flight(), 0);
  const auto settled = tb.controller->AssignedInstances(tb.vip());
  EXPECT_EQ(std::count(settled.begin(), settled.end(), victim), 0);
  EXPECT_EQ(settled.size(), 3u);
  EXPECT_EQ(tb.controller->detected_failures(), 1);

  const fault::SoakReport report = fault::CheckSoakInvariants(tb.flight);
  std::string violations;
  for (const auto& v : report.violations) {
    violations += "  " + v + "\n";
  }
  EXPECT_TRUE(report.ok()) << "violations:\n" << violations;
  EXPECT_GT(gen.completed(), gen.issued() / 2);

  // No VIP with >= 1 pool member ever dropped to zero members mid-update.
  const fault::PoolContinuityReport pools = fault::CheckPoolContinuity(tb.flight);
  EXPECT_GE(pools.vips_checked, 1u);
  std::string pool_violations;
  for (const auto& v : pools.violations) {
    pool_violations += "  " + v + "\n";
  }
  EXPECT_TRUE(pools.ok()) << "pool continuity violations:\n" << pool_violations;
  // The overtaken rollout really did leave stragglers for the gating to eat.
  EXPECT_GT(pools.stale_skipped, 0u);
}

// --- controller-HA chaos soak -----------------------------------------------
//
// Same harness, but the control plane runs as 3 lease-contending replicas and
// the fault timeline additionally draws leader-kill episodes (crash + warm
// restart of a random controller replica — which may hit a standby; that is
// part of the chaos). Extra invariants on top of the data-plane set:
//   - at most one valid lease holder per fencing token, ever (token strictly
//     increases across acquisitions — checked by CheckSoakInvariants);
//   - pool continuity: no VIP blacks out across controller failovers;
//   - the fleet ends with exactly one acting leader.

SoakOutcome RunHaSoak(std::uint64_t seed) {
  TestbedConfig cfg;
  cfg.seed = seed;
  cfg.yoda_instances = 3;
  cfg.backends = 4;
  cfg.clients = 4;
  cfg.controllers = 3;
  cfg.instance_template.flow_idle_timeout = sim::Msec(400);
  cfg.instance_template.idle_scan_interval = sim::Msec(100);
  cfg.instance_template.server_syn_timeout = sim::Msec(150);
  cfg.controller.monitor_interval = sim::Msec(50);
  cfg.controller.fail_after_misses = 3;
  cfg.controller.readmit_instances = true;
  cfg.controller.readmit_after_successes = 2;
  cfg.kv_client.max_retries = 2;
  cfg.kv_client.read_mode = kv::ReadMode::kHedged;
  cfg.kv_client.hedge_delay = sim::Msec(2);
  cfg.kv_client.op_timeout = sim::Msec(20);
  Testbed tb(cfg);
  tb.StartAllControllers();
  yoda::Controller* leader = tb.AwaitLeader();
  EXPECT_NE(leader, nullptr);
  leader->DefineVip(tb.vip(), 80, tb.EqualSplitRules(0, cfg.backends));

  fault::ChaosOptions opts;
  opts.window_start = sim::Msec(100);
  opts.window_end = sim::Msec(900);
  opts.episodes = 6;
  opts.min_duration = sim::Msec(10);
  opts.max_duration = sim::Msec(100);
  for (int i = 0; i < cfg.yoda_instances; ++i) {
    opts.instances.push_back(tb.instance_ip(i));
  }
  for (int i = 0; i < cfg.kv_servers; ++i) {
    opts.kv_nodes.push_back(tb.kv_ip(i));
  }
  for (int i = 0; i < cfg.controllers; ++i) {
    opts.controllers.push_back(tb.controller_ip(i));
  }
  opts.leader_kills = 2;
  sim::Rng chaos_rng(seed ^ 0xc4a05c4a05ULL);
  SoakOutcome out;
  out.episodes = fault::RandomSchedule(*tb.faults, chaos_rng, opts);

  OpenLoopGenerator::Config gcfg;
  gcfg.requests_per_second = 250;
  gcfg.duration = sim::Msec(1000);
  gcfg.target = tb.vip();
  gcfg.fetch.http_timeout = sim::Sec(2);
  gcfg.fetch.retries = 1;
  for (const WebObject& o : tb.catalog->objects()) {
    if (o.size <= 40'000) {
      gcfg.urls.push_back(o.url);
    }
    if (gcfg.urls.size() == 8) {
      break;
    }
  }
  EXPECT_FALSE(gcfg.urls.empty());
  std::vector<BrowserClient*> clients;
  for (auto& c : tb.clients) {
    clients.push_back(c.get());
  }
  OpenLoopGenerator gen(tb.SimFor(0), clients, seed ^ 0x10adULL, gcfg);
  gen.Start();

  tb.sim.RunUntil(sim::Msec(1000) + sim::Sec(2) * 2 + sim::Sec(4));

  out.report = fault::CheckSoakInvariants(tb.flight);
  std::ostringstream os;
  tb.flight.ExportJsonLines(os);
  out.jsonl = os.str();
  out.completed = gen.completed();
  out.issued = gen.issued();

  // Post-run control-plane sanity: after all warm restarts, exactly one
  // replica is the acting leader and no rollout is stuck in flight.
  int acting = 0;
  for (int i = 0; i < tb.controller_count(); ++i) {
    if (!tb.ControllerAt(i)->crashed() && tb.ControllerAt(i)->ActingLeader()) {
      ++acting;
    }
  }
  EXPECT_EQ(acting, 1);
  const fault::PoolContinuityReport pools = fault::CheckPoolContinuity(tb.flight);
  EXPECT_TRUE(pools.ok()) << (pools.violations.empty() ? "" : pools.violations.front());
  return out;
}

class ChaosHaSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosHaSoak, InvariantsHoldUnderLeaderKills) {
  const SoakOutcome out = RunHaSoak(GetParam());
  ASSERT_FALSE(out.episodes.empty());
  EXPECT_GT(out.issued, 100u);
  EXPECT_GT(out.completed, out.issued / 2);
  // The lease-safety invariant ran over at least the initial acquisition.
  EXPECT_GE(out.report.lease_acquisitions, 1u);
  std::string violations;
  for (const auto& v : out.report.violations) {
    violations += "  " + v + "\n";
  }
  EXPECT_TRUE(out.report.ok()) << "violations:\n"
                               << violations << "fault timeline:\n"
                               << DescribeEpisodes(out.episodes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosHaSoak, ::testing::Range<std::uint64_t>(1, 5));

TEST(ChaosHaSoakDeterminism, SameSeedProducesByteIdenticalTraces) {
  const SoakOutcome first = RunHaSoak(2);
  const SoakOutcome second = RunHaSoak(2);
  ASSERT_FALSE(first.jsonl.empty());
  EXPECT_EQ(first.jsonl, second.jsonl);
  EXPECT_EQ(first.completed, second.completed);
}

// Deliberate worst case: kill the leader mid-run, then kill its successor as
// well — a double failover under load. Every acquisition must carry a
// strictly larger fencing token, the fleet must keep serving, and the cluster
// must end with one leader and settled pools.
TEST(ChaosHaDoubleKill, BackToBackLeaderKillsNeverSplitTheBrain) {
  TestbedConfig cfg;
  cfg.seed = 17;
  cfg.yoda_instances = 3;
  cfg.backends = 4;
  cfg.clients = 4;
  cfg.controllers = 3;
  cfg.instance_template.flow_idle_timeout = sim::Msec(400);
  cfg.instance_template.idle_scan_interval = sim::Msec(100);
  cfg.instance_template.server_syn_timeout = sim::Msec(150);
  cfg.controller.monitor_interval = sim::Msec(50);
  cfg.controller.fail_after_misses = 3;
  Testbed tb(cfg);
  tb.StartAllControllers();
  yoda::Controller* boot_leader = tb.AwaitLeader();
  ASSERT_NE(boot_leader, nullptr);
  boot_leader->DefineVip(tb.vip(), 80, tb.EqualSplitRules(0, cfg.backends));

  OpenLoopGenerator::Config gcfg;
  gcfg.requests_per_second = 200;
  gcfg.duration = sim::Msec(1500);
  gcfg.target = tb.vip();
  gcfg.fetch.http_timeout = sim::Sec(2);
  gcfg.fetch.retries = 1;
  for (const WebObject& o : tb.catalog->objects()) {
    if (o.size <= 40'000) {
      gcfg.urls.push_back(o.url);
    }
    if (gcfg.urls.size() == 8) {
      break;
    }
  }
  ASSERT_FALSE(gcfg.urls.empty());
  std::vector<BrowserClient*> clients;
  for (auto& c : tb.clients) {
    clients.push_back(c.get());
  }
  OpenLoopGenerator gen(tb.SimFor(0), clients, cfg.seed ^ 0x10adULL, gcfg);
  gen.Start();

  // Kill whoever leads at 300 ms; kill the successor at 800 ms (past the
  // 300 ms lease TTL, so a new leader exists to kill).
  auto kill_current_leader = [&tb] {
    for (int i = 0; i < tb.controller_count(); ++i) {
      yoda::Controller* c = tb.ControllerAt(i);
      if (!c->crashed() && c->ActingLeader()) {
        tb.CrashController(i);
        return;
      }
    }
    FAIL() << "no acting leader to kill";
  };
  tb.SimFor(0)->At(sim::Msec(300), kill_current_leader);
  tb.SimFor(0)->At(sim::Msec(800), kill_current_leader);

  tb.sim.RunUntil(sim::Msec(1500) + sim::Sec(2) * 2 + sim::Sec(4));

  // Three acquisitions (boot + two failovers), tokens strictly increasing.
  const fault::SoakReport report = fault::CheckSoakInvariants(tb.flight);
  EXPECT_GE(report.lease_acquisitions, 3u);
  std::string violations;
  for (const auto& v : report.violations) {
    violations += "  " + v + "\n";
  }
  EXPECT_TRUE(report.ok()) << "violations:\n" << violations;

  // The data plane rode through both failovers.
  EXPECT_GT(gen.completed(), gen.issued() / 2);
  const fault::PoolContinuityReport pools = fault::CheckPoolContinuity(tb.flight);
  EXPECT_GE(pools.vips_checked, 1u);
  EXPECT_TRUE(pools.ok()) << (pools.violations.empty() ? "" : pools.violations.front());

  // One acting leader among the two survivors; both kills found their mark.
  int acting = 0;
  int dead = 0;
  for (int i = 0; i < tb.controller_count(); ++i) {
    yoda::Controller* c = tb.ControllerAt(i);
    acting += (!c->crashed() && c->ActingLeader()) ? 1 : 0;
    dead += c->crashed() ? 1 : 0;
  }
  EXPECT_EQ(acting, 1);
  EXPECT_EQ(dead, 2);
  EXPECT_EQ(tb.LeaderController()->actuator().plans_in_flight(), 0);
}

TEST(ChaosSoakDeterminism, SameSeedProducesByteIdenticalTraces) {
  const SoakOutcome first = RunSoak(3);
  const SoakOutcome second = RunSoak(3);
  ASSERT_FALSE(first.jsonl.empty());
  EXPECT_EQ(first.jsonl, second.jsonl);
  EXPECT_EQ(first.completed, second.completed);
  ASSERT_EQ(first.episodes.size(), second.episodes.size());
  for (std::size_t i = 0; i < first.episodes.size(); ++i) {
    EXPECT_EQ(first.episodes[i].Describe(), second.episodes[i].Describe());
  }
}

TEST(ChaosSoakDeterminism, DifferentSeedsProduceDifferentTimelines) {
  const SoakOutcome a = RunSoak(5);
  const SoakOutcome b = RunSoak(6);
  EXPECT_NE(DescribeEpisodes(a.episodes), DescribeEpisodes(b.episodes));
}

}  // namespace
}  // namespace workload
