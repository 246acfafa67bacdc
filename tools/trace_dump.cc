// trace_dump: run a Yoda scenario file and dump the flight recorder.
//
//   trace_dump <scenario-file>             # human-readable flow timelines
//   trace_dump <scenario-file> --json      # raw trace JSON lines
//   trace_dump <scenario-file> --metrics   # registry snapshot (text table)
//   trace_dump <scenario-file> --flows N   # limit timeline output to N flows
//   trace_dump <scenario-file> --shard N   # only shard N's lane
//
// The human-readable view prints each recorded flow's event timeline, the
// controller's system events, the reconstructed Fig 9 latency decomposition
// and the takeover timeline — everything derived from obs:: trace events,
// not from workload-side timers. Every testbed is placed, so the recorder is
// per-shard (one lane for a plain scenario, kScenarioCells for
// `intra-threads`): each lane is dumped under a "shard N" heading, every
// event is annotated with the shard that owns its `where` address, and
// `--shard N` restricts the dump to one lane. See src/workload/scenario.h
// for the DSL.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/analyzer.h"
#include "src/workload/scenario.h"

namespace {

// One flight-recorder lane to dump: a testbed's per-shard recorder.
struct Lane {
  int shard;
  const obs::FlightRecorder* rec;
};

std::vector<Lane> SelectLanes(workload::Testbed& tb, int only_shard) {
  std::vector<Lane> lanes;
  for (int s = 0; s < tb.lane_count(); ++s) {
    if (only_shard >= 0 && s != only_shard) {
      continue;
    }
    lanes.push_back(Lane{s, &tb.flight_lane(s)});
  }
  return lanes;
}

// " s3" when the event names a node, else "".
std::string OwnerTag(const workload::Testbed& tb, const obs::TraceEvent& ev) {
  if (ev.where == 0) {
    return "";
  }
  return "  s" + std::to_string(tb.OwnerShardOf(ev.where));
}

void PrintFlowTimelines(workload::Testbed& tb, const std::vector<Lane>& lanes,
                        std::size_t max_flows) {
  std::size_t shown = 0;
  std::size_t total = 0;
  for (const Lane& lane : lanes) {
    total += lane.rec->flow_count();
    lane.rec->ForEachFlow(
        [&](const obs::FlowId& id, const std::vector<obs::TraceEvent>& events) {
          if (shown >= max_flows) {
            return;
          }
          ++shown;
          std::printf("flow %s:%u -> %s:%u  [recorded on shard %d]\n",
                      obs::FormatIp(id.client_ip).c_str(), id.client_port,
                      obs::FormatIp(id.vip).c_str(), id.vip_port, lane.shard);
          for (const obs::TraceEvent& ev : events) {
            std::printf("  %10.3f ms  %-18s", sim::ToMillis(ev.at),
                        obs::EventTypeName(ev.type));
            if (ev.where != 0) {
              std::printf("  @%s%s", obs::FormatIp(ev.where).c_str(),
                          OwnerTag(tb, ev).c_str());
            }
            if (ev.detail != 0) {
              std::printf("  detail=%llu", static_cast<unsigned long long>(ev.detail));
            }
            std::printf("\n");
          }
        });
  }
  if (total > shown) {
    std::printf("... %zu more flows (raise --flows)\n", total - shown);
  }
}

void PrintSystemEvents(workload::Testbed& tb, const std::vector<Lane>& lanes) {
  for (const Lane& lane : lanes) {
    if (lane.rec->system_events().empty()) {
      continue;
    }
    std::printf("\nsystem events (shard %d):\n", lane.shard);
    for (const obs::TraceEvent& ev : lane.rec->system_events()) {
      std::printf("  %10.3f ms  %-18s  @%s%s  detail=%llu\n", sim::ToMillis(ev.at),
                  obs::EventTypeName(ev.type), obs::FormatIp(ev.where).c_str(),
                  OwnerTag(tb, ev).c_str(), static_cast<unsigned long long>(ev.detail));
    }
  }
}

void PrintAnalysis(const Lane& lane) {
  const obs::BreakdownReport br = obs::ReconstructBreakdown(*lane.rec);
  if (br.flows_seen == 0) {
    return;
  }
  std::printf("\nreconstructed breakdown, shard %d (%llu flows, %llu established):\n",
              lane.shard, static_cast<unsigned long long>(br.flows_seen),
              static_cast<unsigned long long>(br.flows_established));
  if (!br.connection_ms.empty()) {
    std::printf("  connection: P50 %.2f ms  P99 %.2f ms\n", br.connection_ms.Percentile(50),
                br.connection_ms.Percentile(99));
    std::printf("  storage:    P50 %.2f ms  P99 %.2f ms\n", br.storage_ms.Percentile(50),
                br.storage_ms.Percentile(99));
    std::printf("  rule scan:  P50 %.2f ms  P99 %.2f ms\n", br.rule_scan_ms.Percentile(50),
                br.rule_scan_ms.Percentile(99));
  }
  const auto takeovers = obs::TakeoverTimeline(*lane.rec);
  if (!takeovers.empty()) {
    std::printf("\ntakeover timeline (%zu adoptions):\n", takeovers.size());
    for (const obs::TakeoverRecord& t : takeovers) {
      std::printf("  %10.3f ms  %-14s  flow %s:%u  adopter %s\n",
                  sim::ToMillis(t.event.at), obs::EventTypeName(t.event.type),
                  obs::FormatIp(t.flow.client_ip).c_str(), t.flow.client_port,
                  obs::FormatIp(t.event.where).c_str());
    }
  }
  if (lane.rec->dropped_flows() > 0 || lane.rec->overwritten_events() > 0) {
    std::printf("\nrecorder bounds hit: %llu flows dropped, %llu events overwritten\n",
                static_cast<unsigned long long>(lane.rec->dropped_flows()),
                static_cast<unsigned long long>(lane.rec->overwritten_events()));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  bool json = false;
  bool metrics = false;
  std::size_t max_flows = 10;
  int only_shard = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--metrics") {
      metrics = true;
    } else if (arg == "--flows" && i + 1 < argc) {
      max_flows = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--shard" && i + 1 < argc) {
      only_shard = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (path.empty()) {
      path = arg;
    } else {
      std::fprintf(stderr,
                   "usage: %s <scenario-file> [--json] [--metrics] [--flows N] [--shard N]\n",
                   argv[0]);
      return 2;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr,
                 "usage: %s <scenario-file> [--json] [--metrics] [--flows N] [--shard N]\n",
                 argv[0]);
    return 2;
  }
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 2;
  }
  std::stringstream buf;
  buf << in.rdbuf();

  std::string error;
  auto scenario = workload::ParseScenario(buf.str(), &error);
  if (!scenario) {
    std::fprintf(stderr, "parse error: %s\n", error.c_str());
    return 1;
  }

  // --json with --shard exports one lane; otherwise the report string
  // carries the full dump (with {"shard":N} markers).
  std::string shard_json;
  workload::ScenarioReport report =
      workload::RunScenario(*scenario, nullptr, [&](workload::Testbed& tb) {
        const std::vector<Lane> lanes = SelectLanes(tb, only_shard);
        if (json) {
          if (only_shard >= 0) {
            std::ostringstream out;
            for (const Lane& lane : lanes) {
              lane.rec->ExportJsonLines(out);
            }
            shard_json = out.str();
          }
          return;
        }
        PrintFlowTimelines(tb, lanes, max_flows);
        PrintSystemEvents(tb, lanes);
        for (const Lane& lane : lanes) {
          PrintAnalysis(lane);
        }
        if (metrics) {
          for (const Lane& lane : lanes) {
            std::printf("\n--- metrics registry (shard %d) ---\n%s", lane.shard,
                        tb.metrics_lane(lane.shard).TextTable().c_str());
          }
        }
      });
  if (json) {
    if (only_shard >= 0 && !shard_json.empty()) {
      std::fputs(shard_json.c_str(), stdout);
    } else {
      std::fputs(report.traces_jsonl.c_str(), stdout);
    }
    if (metrics) {
      std::fputs(report.metrics_jsonl.c_str(), stdout);
    }
  }
  return 0;
}
