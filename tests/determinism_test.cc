// Determinism suite for the scenario runner (ctest label "determinism").
//
// Four properties are pinned:
//
//   1. Thread-count invariance, cells: a `threads N` scenario produces a
//      trace digest that is byte-identical for any thread count N in
//      {1, 2, 4, 8}, across many seeds. The cell partitioning is fixed
//      (kScenarioCells); N only picks how many plain threads take the cells,
//      and each cell is exactly a plain run with the cell's derived seed.
//
//   2. Worker-count invariance, intra-cell: an `intra-threads N` scenario —
//      ONE testbed whose components are placed across the engine's shards,
//      with every inter-component hop crossing shards through the fabric /
//      shard-aware network — is likewise byte-identical for any N. This is
//      the stronger property: here the concurrent shards actually talk to
//      each other mid-run, so it pins that cross-shard delivery times are a
//      function of the virtual clocks only, never of the worker schedule.
//
//   3. Golden reproduction: plain (1-shard) runs reproduce the checked-in
//      trace digests for the repo's scenario files.
//
//   4. One runner: cell c of a `threads N` run reports exactly what a plain
//      run seeded with CellSeed(seed, c) reports.

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/workload/scenario.h"

namespace {

using workload::ParseScenario;
using workload::RunScenario;
using workload::Scenario;
using workload::ScenarioReport;

// FNV-1a over the report's flow traces. Metrics are digested separately where
// a test wants them: trace bytes are the behavior contract, while the metrics
// registry also carries engine-internal gauges (e.g. events executed) that
// may legitimately move when engine internals change.
std::uint64_t TraceDigest(const ScenarioReport& r) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : r.traces_jsonl) {
    h = (h ^ c) * 1099511628211ull;
  }
  return h;
}

std::uint64_t FullDigest(const ScenarioReport& r) {
  std::uint64_t h = TraceDigest(r);
  for (unsigned char c : r.metrics_jsonl) {
    h = (h ^ c) * 1099511628211ull;
  }
  return h;
}

// A small but non-trivial `threads N` scenario: open-loop load, an instance
// and a backend failure with recovery, and a spare activation, replicated
// into kScenarioCells independent cells.
std::string ShardedScenarioText(std::uint64_t seed, int threads) {
  std::ostringstream out;
  out << "seed " << seed << "\n"
      << "instances 2\nspares 1\nbackends 3\nkv-servers 3\nclients 2\n"
      << "threads " << threads << "\n"
      << "vip 10.200.0.1\n"
      << "rule 10.200.0.1 name=r-all priority=1 url=* split=10.3.0.1,10.3.0.2,10.3.0.3\n"
      << "at 0ms load 10.200.0.1 rate 40 duration 1200ms\n"
      << "at 400ms crash instance 0\n"
      << "at 700ms crash backend 1\n"
      << "at 900ms restart instance 0\n"
      << "at 1000ms restart backend 1\n"
      << "at 1100ms add-instance\n";
  return out.str();
}

// The intra-cell counterpart: ONE placed testbed over kScenarioCells shards.
// Same fleet and timeline as the sharded text, plus `place` overrides so the
// override path (not just round-robin defaults) is under test. Every fetch
// here crosses shards several times: client shard -> fabric -> instance
// shard -> backend shard and back, with the instance's KV ops hopping to the
// kv shards.
std::string IntraScenarioText(std::uint64_t seed, int threads) {
  std::ostringstream out;
  out << "seed " << seed << "\n"
      << "instances 2\nspares 1\nbackends 3\nkv-servers 3\nclients 2\n"
      << "intra-threads " << threads << "\n"
      << "place controller 0\n"
      << "place fabric 0\n"
      << "place instance 0 5\n"
      << "place backend 2 5\n"
      << "vip 10.200.0.1\n"
      << "rule 10.200.0.1 name=r-all priority=1 url=* split=10.3.0.1,10.3.0.2,10.3.0.3\n"
      << "at 0ms load 10.200.0.1 rate 40 duration 1200ms\n"
      << "at 400ms crash instance 0\n"
      << "at 700ms crash backend 1\n"
      << "at 900ms restart instance 0\n"
      << "at 1000ms restart backend 1\n"
      << "at 1100ms add-instance\n";
  return out.str();
}

// The intra-cell timeline again, with the VIP on the stateless fast path and
// a mid-run store-mode flip: cookie minting, journal flush timers and the
// make-before-break rollout must all stay worker-count-invariant.
std::string IntraStatelessScenarioText(std::uint64_t seed, int threads) {
  std::ostringstream out;
  out << "seed " << seed << "\n"
      << "instances 2\nspares 1\nbackends 3\nkv-servers 3\nclients 2\n"
      << "intra-threads " << threads << "\n"
      << "place controller 0\n"
      << "place fabric 0\n"
      << "place instance 0 5\n"
      << "place backend 2 5\n"
      << "vip 10.200.0.1\n"
      << "rule 10.200.0.1 name=r-all priority=1 url=* split=10.3.0.1,10.3.0.2,10.3.0.3\n"
      << "store-mode stateless\n"
      << "at 0ms load 10.200.0.1 rate 40 duration 1200ms\n"
      << "at 400ms crash instance 0\n"
      << "at 700ms crash backend 1\n"
      << "at 900ms restart instance 0\n"
      << "at 1000ms store-mode 10.200.0.1 stateful\n"
      << "at 1100ms add-instance\n";
  return out.str();
}

ScenarioReport RunText(const std::string& text) {
  std::string error;
  auto scenario = ParseScenario(text, &error);
  EXPECT_TRUE(scenario.has_value()) << error;
  return RunScenario(*scenario, nullptr);
}

TEST(Determinism, ShardedDigestInvariantAcrossWorkerCounts) {
  const std::uint64_t seeds[] = {1, 7, 42, 1337, 4242, 90210, 271828, 3141592};
  for (std::uint64_t seed : seeds) {
    std::uint64_t want = 0;
    std::uint64_t want_ok = 0;
    for (int threads : {1, 2, 4, 8}) {
      const ScenarioReport r = RunText(ShardedScenarioText(seed, threads));
      EXPECT_EQ(r.cells, workload::kScenarioCells);
      EXPECT_GT(r.requests_ok, 0u) << "seed " << seed;
      const std::uint64_t got = FullDigest(r);
      if (threads == 1) {
        want = got;
        want_ok = r.requests_ok;
        continue;
      }
      EXPECT_EQ(got, want) << "seed " << seed << " threads " << threads
                           << ": digest diverged from the single-worker run";
      EXPECT_EQ(r.requests_ok, want_ok) << "seed " << seed << " threads " << threads;
    }
  }
}

TEST(Determinism, IntraCellDigestInvariantAcrossWorkerCounts) {
  const std::uint64_t seeds[] = {1, 7, 42, 1337, 4242, 90210, 271828, 3141592};
  for (std::uint64_t seed : seeds) {
    std::uint64_t want = 0;
    std::uint64_t want_ok = 0;
    for (int threads : {1, 2, 4, 8}) {
      const ScenarioReport r = RunText(IntraScenarioText(seed, threads));
      EXPECT_EQ(r.cells, 1);
      EXPECT_GT(r.requests_ok, 0u) << "seed " << seed;
      const std::uint64_t got = FullDigest(r);
      if (threads == 1) {
        want = got;
        want_ok = r.requests_ok;
        continue;
      }
      EXPECT_EQ(got, want) << "seed " << seed << " threads " << threads
                           << ": intra-cell digest diverged from the single-worker run";
      EXPECT_EQ(r.requests_ok, want_ok) << "seed " << seed << " threads " << threads;
    }
  }
}

TEST(Determinism, IntraCellStatelessDigestInvariantAcrossWorkerCounts) {
  const std::uint64_t seeds[] = {7, 1337, 90210};
  for (std::uint64_t seed : seeds) {
    std::uint64_t want = 0;
    std::uint64_t want_ok = 0;
    for (int threads : {1, 2, 4, 8}) {
      const ScenarioReport r = RunText(IntraStatelessScenarioText(seed, threads));
      EXPECT_EQ(r.cells, 1);
      EXPECT_GT(r.requests_ok, 0u) << "seed " << seed;
      const std::uint64_t got = FullDigest(r);
      if (threads == 1) {
        want = got;
        want_ok = r.requests_ok;
        continue;
      }
      EXPECT_EQ(got, want) << "seed " << seed << " threads " << threads
                           << ": placed stateless digest diverged from the single-worker run";
      EXPECT_EQ(r.requests_ok, want_ok) << "seed " << seed << " threads " << threads;
    }
  }
}

TEST(Determinism, IntraCellRepeatRunIsStable) {
  const std::string text = IntraScenarioText(99, 4);
  EXPECT_EQ(FullDigest(RunText(text)), FullDigest(RunText(text)));
}

TEST(Determinism, ThreadsCellEqualsPlainRunWithCellSeed) {
  // `threads N` is kScenarioCells calls of the one runner: cell c must report
  // exactly what a plain run of the same scenario reports when seeded with
  // cell c's derived seed.
  std::string error;
  auto sc = ParseScenario(ShardedScenarioText(42, 2), &error);
  ASSERT_TRUE(sc.has_value()) << error;
  const ScenarioReport cells = RunScenario(*sc);
  ASSERT_EQ(cells.cell_reports.size(), static_cast<std::size_t>(workload::kScenarioCells));
  std::uint64_t ok_sum = 0;
  for (int c = 0; c < workload::kScenarioCells; ++c) {
    const ScenarioReport& cell = cells.cell_reports[static_cast<std::size_t>(c)];
    ok_sum += cell.requests_ok;
    Scenario plain = *sc;
    plain.threads = 0;
    plain.testbed.seed = workload::CellSeed(sc->testbed.seed, c);
    const ScenarioReport r = RunScenario(plain);
    EXPECT_GT(r.requests_ok, 0u) << "cell " << c;
    EXPECT_EQ(cell.requests_ok, r.requests_ok) << "cell " << c;
    EXPECT_EQ(cell.requests_failed, r.requests_failed) << "cell " << c;
    EXPECT_EQ(TraceDigest(cell), TraceDigest(r)) << "cell " << c;
  }
  EXPECT_EQ(cells.requests_ok, ok_sum);
}

TEST(Determinism, ShardedRepeatRunIsStable) {
  // Same seed, same worker count, fresh engine: byte-identical output (no
  // leakage of host state — wall clock, thread ids, allocator layout — into
  // the simulation).
  const std::string text = ShardedScenarioText(99, 4);
  EXPECT_EQ(FullDigest(RunText(text)), FullDigest(RunText(text)));
}

TEST(Determinism, LegacyScenariosReproduceGoldenTraceDigests) {
  // Re-captured when scripted fail/recover verbs moved onto the fault plane:
  // each now adds one kFaultInjected system event to the trace (every flow
  // line is unchanged; ha-failover scripts only controller faults, which
  // already went through the plane). EXPERIMENTS.md records the old and new
  // values. A mismatch means single-shard behavior changed: deliberate
  // behavior changes must re-capture these.
  const std::map<std::string, std::uint64_t> kGolden = {
      {"failover.yoda", 0x50b6355e493fb426ull},
      {"ha-failover.yoda", 0xa8706179e7d08f73ull},
      {"https.yoda", 0x0b778158b0f67c70ull},
  };
  for (const auto& [name, want] : kGolden) {
    const std::string path = std::string(YODA_SOURCE_DIR) + "/scenarios/" + name;
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::stringstream buf;
    buf << in.rdbuf();
    const ScenarioReport r = RunText(buf.str());
    EXPECT_EQ(TraceDigest(r), want) << name;
  }
}

}  // namespace
