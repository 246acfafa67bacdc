// Scenario runner: a small text DSL that assembles a testbed, drives load,
// injects failures and policy changes on a timeline, and reports results.
// This is what `tools/yodasim` executes, so experiments can be scripted
// without writing C++.
//
// There is one execution model: every run is one testbed placed on a
// sim::ShardedSim, with per-client load loops on the client shards and the
// timeline conducted from the controller shard. A plain scenario places it
// on 1 shard; `intra-threads N` spreads it over kScenarioCells shards run by
// N workers; `threads N` runs kScenarioCells independent 1-shard copies
// (derived seeds) on N plain threads and merges their reports.
//
//   # comments and blank lines are ignored
//   seed 42
//   threads 4                            # 8 independent cells on 4 threads
//   intra-threads 4                      # OR: one 8-shard testbed, 4 workers
//   place instance 0 5                   # pin instance 0 to shard 5
//   place controller 0                   # pin the control plane to shard 0
//   instances 4
//   spares 2
//   backends 6
//   kv-servers 3
//   kv-replicas 2
//   clients 4
//   vip 10.200.0.1                       # define a VIP (port 80)
//   rule 10.200.0.1 name=r1 priority=1 url=* split=10.3.0.1,10.3.0.2
//   tls 10.200.0.1 cert MY-CERT key 4242 # enable SSL termination
//   store-mode stateless                 # all VIPs (or: store-mode <vip> <mode>)
//   at 0ms load 10.200.0.1 rate 200 duration 10s [tls]
//   at 4s store-mode 10.200.0.1 stateful # flip a VIP's store contract live
//   at 5s crash instance 0               # stays down
//   at 6s restart instance 0             # warm (state intact) unless `cold`
//   at 7s crash backend 1 for 1s cold    # restarts itself 1 s later
//   at 8s crash-leader                   # whichever controller leads
//   at 9s link-loss instance 0 backend 1 0.25 for 500ms
//   at 9s partition instance 1 kv 0 for 200ms
//   at 9s node-delay instance 2 5ms for 1s
//   at 9s gray-syn instance 3 0.8 for 1s # drops pure SYNs toward it
//   at 9s kv-slow kv 2 10ms for 1s       # the replica answers 10 ms late
//   at 9s update-rules 10.200.0.1 name=r2 priority=2 url=* split=10.3.0.3
//   at 10s add-instance                  # activate one spare
//   at 11s assign                        # many-to-many assignment round
//   run-until 20s                        # else: run until the timeline drains
//
// Backend i is 10.3.0.(i+1); instance i is 10.1.0.(i+1) (the Testbed plan).
// Durations are a count and a unit: ns, us, ms, s (the default) or m.
//
// A fault verb names each component as `<kind> <i>`: instance (spares
// included), backend, kv or controller, indexed as the testbed builds them.
// Each verb goes through the testbed's fault plane, so it lands on the trace
// as a kFaultInjected system event, and the clear that its `for <d>`
// schedules lands there at `at + d` (a crash's clear is its restart, warm
// unless it says `cold`). The packet overlays (link-loss, partition, node-delay,
// gray-syn) need `for` and are not supported with intra-threads.
// ParseScenario rejects, with the line number, any `at` action it could not
// apply: an unknown verb, a missing or malformed argument, an index that names
// no component of the testbed the whole file declares, or a time that does
// not fit the simulated clock.

#ifndef SRC_WORKLOAD_SCENARIO_H_
#define SRC_WORKLOAD_SCENARIO_H_

#include <functional>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/sim/metrics.h"
#include "src/workload/testbed.h"

namespace workload {

struct ScenarioEvent {
  sim::Time at = 0;
  std::string action;  // First token after the time.
  std::vector<std::string> args;
  std::string raw;  // Original tail for rule specs.
};

// Cell count of a `threads N` run, and shard count of an `intra-threads N`
// run. Fixed — the partitioning (and hence every trace) depends only on the
// scenario, never on how many threads execute it; N picks the thread count,
// which ranges over [1, kScenarioCells].
inline constexpr int kScenarioCells = 8;

struct Scenario {
  TestbedConfig testbed;
  // `threads N` directive: replicate the experiment into kScenarioCells
  // independent cells — each a plain 1-shard run with seed CellSeed(seed, c)
  // — taken round-robin by N plain threads. 0 (no directive) runs once.
  int threads = 0;
  // `intra-threads N` directive: run ONE testbed spread over kScenarioCells
  // shards of a sim::ShardedSim (intra-cell sharding: each instance, backend,
  // KV server and client on its own shard per `placement`), executed by N
  // worker threads. Components talk exclusively through the shard-aware
  // network / cross-shard calls, so the trace is byte-identical for any N.
  // Mutually exclusive with `threads`. `place <kind> <idx> <shard>` (kinds:
  // instance backend kv client proxy) and `place <controller|fabric> <shard>`
  // override the default round-robin placement; a shard must exist in the
  // run (below kScenarioCells with intra-threads, 0 otherwise).
  int intra_threads = 0;
  sim::IntraPlacement placement;
  struct VipDef {
    net::IpAddr vip = 0;
    std::vector<rules::Rule> vip_rules;
    std::optional<std::string> tls_cert;
    std::uint64_t tls_key = 0;
    // `store-mode` directive: the VIP's per-flow store contract, installed
    // through the controller right after DefineVip. Stateless demotes the
    // three ACK-point store writes to the write-behind takeover journal.
    yoda::StoreMode store_mode = yoda::StoreMode::kStateful;
  };
  std::vector<VipDef> vips;
  std::vector<ScenarioEvent> events;
  sim::Duration run_until = 0;  // 0 = run to completion.
};

// Parses the DSL. Returns nullopt and fills `error` (with a line number) on
// malformed input.
std::optional<Scenario> ParseScenario(const std::string& text, std::string* error = nullptr);

// Parses "40ns" / "250ms" / "5s" / "2m" into a Duration; nullopt on bad
// syntax or a value beyond the int64 nanosecond clock.
std::optional<sim::Duration> ParseDuration(const std::string& token);

// Parses dotted-quad "10.0.0.1"; nullopt on bad syntax.
std::optional<net::IpAddr> ParseIp(const std::string& token);

struct ScenarioReport {
  // 1 for single runs; kScenarioCells for `threads N` runs, whose sections
  // below are the cell reports' sections concatenated in cell order (each preceded by
  // a {"cell":i} marker line) and whose counts are the cells' sums.
  int cells = 1;
  std::uint64_t requests_issued = 0;
  std::uint64_t requests_ok = 0;
  std::uint64_t requests_failed = 0;
  std::uint64_t takeovers = 0;
  std::uint64_t reswitches = 0;
  int failures_detected = 0;
  sim::Histogram latency_ms;
  std::vector<yoda::ControllerEvent> controller_events;
  // Uniform observability snapshot, taken after the run: each shard's
  // registry as an aligned text table and as JSON lines, plus its flight
  // recorder's flow traces as JSON lines (see src/obs/), in shard order, each
  // lane preceded by a "--- shard i ---" heading / {"shard":i} marker line.
  std::string metrics_table;
  std::string metrics_jsonl;
  std::string traces_jsonl;
  // `threads N` runs: every cell's own report, in cell order.
  std::vector<ScenarioReport> cell_reports;
};

// Seed of cell `cell` in a `threads N` run of a scenario seeded `seed`: a
// function of the two only, never of the thread count.
std::uint64_t CellSeed(std::uint64_t seed, int cell);

// Builds the testbed, schedules the events, runs the simulation and returns
// the aggregate report. `scenario` is one ParseScenario returned, so every
// action is well formed. `log` (optional) receives progress lines. `after_run`
// (optional) is invoked on the calling thread on each testbed (in cell order)
// after the simulation finishes but before teardown — tools use it to
// inspect the flight recorder and metrics registry directly.
ScenarioReport RunScenario(const Scenario& scenario, std::ostream* log = nullptr,
                           const std::function<void(Testbed&)>& after_run = nullptr);

}  // namespace workload

#endif  // SRC_WORKLOAD_SCENARIO_H_
