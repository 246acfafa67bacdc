// Chaos soak (ctest label: "soak"): randomized-but-deterministic fault
// timelines against the full testbed under open-loop load, with post-hoc
// invariant checking over the flight-recorder traces.
//
// A soak seed is a scenario script: the soak's testbed, one load line, the
// fault timeline fault::RandomSchedule draws as `at` lines, and a run-until
// well past load end + client timeouts + idle GC. It runs through the
// scenario runner like any scenario file. A failing seed prints its script,
// which RunSoakScript re-runs as it stands or after editing.
//
// Invariants asserted per seed:
//   - every flow admitted by an instance reaches an explicit terminal event
//     (kCleanup or kFlowReset), unless its instance crashed mid-run;
//   - per-flow backend pinning never changes without a re-switch/promote;
//   - event timestamps are monotone within each flow;
//   - no flow is silently stuck past the run deadline (the invariant above,
//     applied after a post-load drain window that exceeds the idle GC);
//   - no VIP with a pool member ever drops to zero members (pool continuity);
//   - same-seed runs export byte-identical JSONL traces.

#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/fault/chaos.h"
#include "src/workload/open_loop.h"
#include "src/workload/scenario.h"

namespace workload {
namespace {

// The settings a soak testbed has beyond what its script declares:
// soak-speed GC, so "stuck" is observable within the run (a flow alive past
// idle_timeout after the load stops fails the terminate invariant), a fast
// monitor, and 60 small objects, which keep per-fetch latency a few RTTs.
void SoakTestbed(TestbedConfig& cfg) {
  cfg.instance_template.flow_idle_timeout = sim::Msec(400);
  cfg.instance_template.idle_scan_interval = sim::Msec(100);
  cfg.instance_template.server_syn_timeout = sim::Msec(150);
  cfg.controller.monitor_interval = sim::Msec(50);
  cfg.controller.fail_after_misses = 3;
  cfg.catalog.objects = 60;
  cfg.catalog.pages = 1;
  cfg.catalog.min_size = cfg.catalog.max_size = cfg.catalog.median_size = 10'000;
}

// The random soaks also turn on the failure-path hardening under test:
// monitor readmission, KV retries and hedged reads (the bounded takeover
// re-fetch is on by default).
void HardenedSoakTestbed(TestbedConfig& cfg) {
  SoakTestbed(cfg);
  cfg.controller.readmit_instances = true;
  cfg.controller.readmit_after_successes = 2;
  cfg.kv_client.max_retries = 2;
  cfg.kv_client.read_mode = kv::ReadMode::kHedged;
  cfg.kv_client.hedge_delay = sim::Msec(2);
  cfg.kv_client.op_timeout = sim::Msec(20);
}

// Every soak's fleet: 3 instances, 4 backends split equally, 4 clients.
std::string SoakHead(std::uint64_t seed, int controllers) {
  return "seed " + std::to_string(seed) +
         "\ninstances 3\nbackends 4\nclients 4\ncontrollers " + std::to_string(controllers) +
         "\nvip 10.200.0.1\n"
         "rule 10.200.0.1 name=r-default priority=1 url=* "
         "split=10.3.0.1,10.3.0.2,10.3.0.3,10.3.0.4\n";
}

// The fault lines of a random soak seed, drawn entirely from its seeded Rng.
// The HA soak's fleet runs 3 lease-contending controller replicas and adds
// two leader-kill episodes (a crash and warm restart of a random replica,
// which may hit a standby; that is part of the chaos).
std::vector<std::string> SoakFaults(std::uint64_t seed, bool ha) {
  fault::ChaosOptions opts;
  opts.window_start = sim::Msec(100);
  opts.window_end = sim::Msec(900);
  opts.episodes = ha ? 6 : 8;
  opts.min_duration = sim::Msec(10);
  opts.max_duration = sim::Msec(100);
  opts.instances = {"instance 0", "instance 1", "instance 2"};
  opts.kv_nodes = {"kv 0", "kv 1", "kv 2"};
  if (ha) {
    opts.controllers = {"controller 0", "controller 1", "controller 2"};
    opts.leader_kills = 2;
  } else {
    opts.links = {{"instance 0", "backend 0"}, {"instance 1", "backend 1"}};
  }
  sim::Rng chaos_rng(seed ^ 0xc4a05c4a05ULL);
  return fault::RandomSchedule(chaos_rng, opts);
}

// A random soak seed as a script: 250 requests/s for 1 s across the fault
// window, then a drain past load end + client timeouts + idle GC, so every
// still-open flow either terminates or counts as stuck.
std::string SoakScript(std::uint64_t seed, bool ha) {
  std::string script =
      SoakHead(seed, ha ? 3 : 1) + "at 0ms load 10.200.0.1 rate 250 duration 1000ms\n";
  for (const std::string& line : SoakFaults(seed, ha)) {
    script += line + "\n";
  }
  return script + "run-until 9s\n";
}

struct SoakOutcome {
  std::string script;
  fault::SoakReport report;
  fault::PoolContinuityReport pools;
  std::string jsonl;
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  int acting_leaders = 0;   // Live replicas acting as leader after the run.
  int crashed_controllers = 0;
  int plans_in_flight = -1;  // The acting leader's, after the run.
};

// Runs a soak script through the scenario runner, with `settings` applied to
// its testbed, and reads the invariants off the trace after the run.
SoakOutcome RunSoakScript(const std::string& script,
                          void (*settings)(TestbedConfig&) = HardenedSoakTestbed) {
  SoakOutcome out;
  out.script = script;
  std::string error;
  std::optional<Scenario> sc = ParseScenario(script, &error);
  EXPECT_TRUE(sc.has_value()) << error << "\nscript:\n" << script;
  if (!sc) {
    return out;
  }
  settings(sc->testbed);
  const ScenarioReport r = RunScenario(*sc, nullptr, [&out](Testbed& tb) {
    out.report = fault::CheckSoakInvariants(tb.flight);
    out.pools = fault::CheckPoolContinuity(tb.flight);
    std::ostringstream os;
    tb.flight.ExportJsonLines(os);
    out.jsonl = os.str();
    for (int i = 0; i < tb.controller_count(); ++i) {
      yoda::Controller* c = tb.ControllerAt(i);
      out.crashed_controllers += c->crashed() ? 1 : 0;
      if (!c->crashed() && c->ActingLeader()) {
        ++out.acting_leaders;
        out.plans_in_flight = c->actuator().plans_in_flight();
      }
    }
  });
  out.issued = r.requests_issued;
  out.completed = r.requests_ok;
  return out;
}

// What a failing soak prints: the violations, then the script that re-runs it.
std::string Explain(const SoakOutcome& out) {
  std::string s = "violations:\n";
  for (const auto& v : out.report.violations) {
    s += "  " + v + "\n";
  }
  for (const auto& v : out.pools.violations) {
    s += "  " + v + "\n";
  }
  return s + "script:\n" + out.script;
}

class ChaosSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosSoak, InvariantsHoldUnderRandomFaults) {
  ASSERT_FALSE(SoakFaults(GetParam(), /*ha=*/false).empty());
  const SoakOutcome out = RunSoakScript(SoakScript(GetParam(), /*ha=*/false));
  EXPECT_GT(out.issued, 100u);
  // The run must have made real progress despite the faults.
  EXPECT_GT(out.completed, out.issued / 2);
  EXPECT_GT(out.report.flows_checked, 0u);
  EXPECT_TRUE(out.report.ok() && out.pools.ok()) << Explain(out);
}

// Seeds 1..8: the 8-seed soak matrix.
INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSoak, ::testing::Range<std::uint64_t>(1, 9));

// Crash an assigned instance while an assignment rollout is in flight: the
// make phase's staggered mux writes have not converged and the break phase is
// parked behind the convergence barrier when the instance dies. The failure
// reconcile (scrub + evict + headroom repair) overtakes the rollout; epoch
// gating must make the overtaken plan's stragglers harmless, and no VIP may
// ever see an empty mux pool along the way. The explicit per-VIP demand is
// not a DSL verb, so this test drives the testbed directly.
TEST(ChaosRolloutCrash, MidRolloutCrashNeverEmptiesAPool) {
  TestbedConfig cfg;
  cfg.seed = 11;
  cfg.yoda_instances = 4;
  cfg.backends = 4;
  cfg.clients = 2;
  SoakTestbed(cfg);
  cfg.controller.fail_after_misses = 2;
  Testbed tb(cfg);
  tb.DefineDefaultVipAndStart();

  OpenLoop load(tb, cfg.seed);
  FetchOptions fetch;
  fetch.http_timeout = sim::Sec(2);
  fetch.retries = 1;
  load.Start(0, tb.vip(), 200, sim::Msec(1000), fetch);

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
  const OpenLoop::Tally tally = load.Totals();
  EXPECT_GT(tally.ok, tally.issued / 2);

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
// Same harness, with 3 controller replicas and leader kills in the timeline.
// Extra invariants on top of the data-plane set:
//   - at most one valid lease holder per fencing token, ever (token strictly
//     increases across acquisitions — checked by CheckSoakInvariants);
//   - pool continuity across controller failovers;
//   - the fleet ends with exactly one acting leader.

class ChaosHaSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosHaSoak, InvariantsHoldUnderLeaderKills) {
  ASSERT_FALSE(SoakFaults(GetParam(), /*ha=*/true).empty());
  const SoakOutcome out = RunSoakScript(SoakScript(GetParam(), /*ha=*/true));
  EXPECT_GT(out.issued, 100u);
  EXPECT_GT(out.completed, out.issued / 2);
  // The lease-safety invariant ran over at least the initial acquisition.
  EXPECT_GE(out.report.lease_acquisitions, 1u);
  // After all warm restarts, exactly one replica is the acting leader.
  EXPECT_EQ(out.acting_leaders, 1);
  EXPECT_TRUE(out.report.ok() && out.pools.ok()) << Explain(out);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosHaSoak, ::testing::Range<std::uint64_t>(1, 5));

TEST(ChaosHaSoakDeterminism, SameSeedProducesByteIdenticalTraces) {
  const SoakOutcome first = RunSoakScript(SoakScript(2, /*ha=*/true));
  const SoakOutcome second = RunSoakScript(SoakScript(2, /*ha=*/true));
  ASSERT_FALSE(first.jsonl.empty());
  EXPECT_EQ(first.jsonl, second.jsonl);
  EXPECT_EQ(first.completed, second.completed);
}

// Deliberate worst case: kill the leader mid-run, then kill its successor as
// well — a double failover under load. Every acquisition must carry a
// strictly larger fencing token, the fleet must keep serving, and the cluster
// must end with one leader and settled pools.
TEST(ChaosHaDoubleKill, BackToBackLeaderKillsNeverSplitTheBrain) {
  // The second kill lands past the 300 ms lease TTL, so a new leader exists
  // to kill.
  const SoakOutcome out = RunSoakScript(SoakHead(17, 3) +
                                            "at 0ms load 10.200.0.1 rate 200 duration 1500ms\n"
                                            "at 300ms crash-leader\n"
                                            "at 800ms crash-leader\n"
                                            "run-until 9500ms\n",
                                        SoakTestbed);
  // Three acquisitions (boot + two failovers), tokens strictly increasing.
  EXPECT_GE(out.report.lease_acquisitions, 3u);
  EXPECT_TRUE(out.report.ok()) << Explain(out);

  // The data plane rode through both failovers.
  EXPECT_GT(out.completed, out.issued / 2);
  EXPECT_GE(out.pools.vips_checked, 1u);
  EXPECT_TRUE(out.pools.ok()) << Explain(out);

  // One acting leader among the two survivors; both kills found their mark.
  EXPECT_EQ(out.acting_leaders, 1);
  EXPECT_EQ(out.crashed_controllers, 2);
  EXPECT_EQ(out.plans_in_flight, 0);
}

TEST(ChaosSoakDeterminism, SameSeedProducesByteIdenticalTraces) {
  const SoakOutcome first = RunSoakScript(SoakScript(3, /*ha=*/false));
  const SoakOutcome second = RunSoakScript(SoakScript(3, /*ha=*/false));
  ASSERT_FALSE(first.jsonl.empty());
  EXPECT_EQ(first.jsonl, second.jsonl);
  EXPECT_EQ(first.completed, second.completed);
  EXPECT_EQ(first.script, second.script);
}

TEST(ChaosSoakDeterminism, DifferentSeedsProduceDifferentTimelines) {
  EXPECT_NE(SoakFaults(5, /*ha=*/false), SoakFaults(6, /*ha=*/false));
  const SoakOutcome a = RunSoakScript(SoakScript(5, /*ha=*/false));
  const SoakOutcome b = RunSoakScript(SoakScript(6, /*ha=*/false));
  EXPECT_NE(a.jsonl, b.jsonl);
}

// Every soak seed's script parses back into exactly its draws: one event per
// fault line, whose time and every duration and probability read back as the
// very value written.
TEST(ChaosSoakScript, EverySeedParsesBackExactly) {
  for (const bool ha : {false, true}) {
    for (std::uint64_t seed = 1; seed <= (ha ? 4u : 8u); ++seed) {
      const std::vector<std::string> lines = SoakFaults(seed, ha);
      std::string error;
      const std::optional<Scenario> sc = ParseScenario(SoakScript(seed, ha), &error);
      ASSERT_TRUE(sc.has_value()) << error;
      ASSERT_EQ(sc->events.size(), lines.size() + 1);  // The load, then the faults.
      for (std::size_t i = 0; i < lines.size(); ++i) {
        const ScenarioEvent& ev = sc->events[i + 1];
        EXPECT_EQ("at " + std::to_string(ev.at) + "ns " + ev.action + " " + ev.raw, lines[i]);
        for (const std::string& arg : ev.args) {
          if (arg.ends_with("ns")) {
            EXPECT_EQ(std::to_string(ParseDuration(arg).value_or(-1)) + "ns", arg);
          } else if (arg.find('.') != std::string::npos) {
            double p = 0;
            std::from_chars(arg.data(), arg.data() + arg.size(), p);
            char buf[32];
            const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, p);
            EXPECT_EQ(std::string(buf, end), arg) << lines[i];
          }
        }
      }
    }
  }
}

// Soak seed 1's fault timeline, pinned: a change to the draw order or to the
// line format shows here before it moves any soak run.
TEST(ChaosSoakScript, SeedOneKeepsItsTimeline) {
  const std::vector<std::string> want = {
      "at 396872725ns kv-slow kv 0 16203929ns for 40254382ns",
      "at 674471729ns partition instance 1 backend 1 for 59493970ns",
      "at 394874100ns crash instance 0 for 71272369ns warm",
      "at 402105286ns partition instance 0 backend 0 for 55913138ns",
      "at 415334786ns gray-syn instance 1 0.7016563387737696 for 90732919ns",
      "at 467146469ns crash instance 0 for 93894498ns cold",
      "at 651360569ns kv-slow kv 2 7830858ns for 99897476ns",
      "at 127356025ns kv-slow kv 1 3557399ns for 80255284ns",
  };
  EXPECT_EQ(SoakFaults(1, /*ha=*/false), want);
}

}  // namespace
}  // namespace workload
