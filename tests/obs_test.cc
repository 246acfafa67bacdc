// Unit + integration tests for the observability layer: metrics registry,
// flow flight recorder, trace analyzer, and the end-to-end guarantee that a
// takeover leaves a coherent trace behind.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/analyzer.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/workload/testbed.h"

namespace obs {
namespace {

// --- Registry -------------------------------------------------------------

TEST(Registry, GetOrCreateReturnsStableInstrument) {
  Registry reg;
  Counter& a = reg.GetCounter("x.count");
  a.Inc();
  Counter& b = reg.GetCounter("x.count");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 1u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Registry, LabelsAreCanonicalizedBySortOrder) {
  Registry reg;
  Counter& a = reg.GetCounter("x", Labels{{"b", "2"}, {"a", "1"}});
  Counter& b = reg.GetCounter("x", Labels{{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(&a, &b);
  // Different label values are different instruments.
  Counter& c = reg.GetCounter("x", Labels{{"a", "1"}, {"b", "3"}});
  EXPECT_NE(&a, &c);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(Registry, CounterGaugeHistogramCoexistUnderDifferentNames) {
  Registry reg;
  reg.GetCounter("c").Add(5);
  reg.GetGauge("g").Set(2.5);
  reg.GetHistogram("h").Add(1.0);
  EXPECT_EQ(reg.size(), 3u);
  int rows = 0;
  reg.ForEach([&](const Registry::Row& row) {
    ++rows;
    EXPECT_NE(row.name, nullptr);
    EXPECT_EQ((row.counter != nullptr) + (row.gauge != nullptr) + (row.histogram != nullptr),
              1);
  });
  EXPECT_EQ(rows, 3);
}

TEST(Registry, GaugeProviderIsEvaluatedAtReadTime) {
  Registry reg;
  double source = 1.0;
  reg.GetGauge("live").SetProvider([&source]() { return source; });
  EXPECT_DOUBLE_EQ(reg.GetGauge("live").value(), 1.0);
  source = 42.0;
  EXPECT_DOUBLE_EQ(reg.GetGauge("live").value(), 42.0);
}

TEST(Registry, TextTableListsEveryInstrument) {
  Registry reg;
  reg.GetCounter("flows", Labels{{"instance", "10.1.0.1"}}).Add(7);
  reg.GetGauge("depth").Set(3);
  reg.GetHistogram("lat_ms").Add(1.5);
  const std::string table = reg.TextTable();
  EXPECT_NE(table.find("flows"), std::string::npos);
  EXPECT_NE(table.find("instance=10.1.0.1"), std::string::npos);
  EXPECT_NE(table.find("depth"), std::string::npos);
  EXPECT_NE(table.find("lat_ms"), std::string::npos);
  EXPECT_NE(table.find("7"), std::string::npos);
}

TEST(Registry, JsonLinesEmitsOneObjectPerInstrument) {
  Registry reg;
  reg.GetCounter("a").Inc();
  reg.GetGauge("b").Set(1);
  reg.GetHistogram("c").Add(2);
  const std::string jsonl = reg.JsonLines();
  int lines = 0;
  std::istringstream is(jsonl);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) {
      continue;
    }
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(lines, 3);
}

TEST(Registry, FormatIpRendersDottedQuad) {
  EXPECT_EQ(FormatIp(0x0A010002u), "10.1.0.2");
}

// --- FlightRecorder -------------------------------------------------------

FlowId TestFlow(std::uint16_t client_port = 40'000) {
  return FlowId{/*vip=*/0x0AC80001u, /*vip_port=*/80, /*client_ip=*/0x0A090001u, client_port};
}

TEST(FlightRecorder, RecordsEventsInOrder) {
  FlightRecorder rec;
  const FlowId flow = TestFlow();
  rec.Record(flow, 10, EventType::kClientSyn, 1);
  rec.Record(flow, 20, EventType::kSynAckSent, 1);
  rec.Record(flow, 30, EventType::kEstablished, 1);
  ASSERT_TRUE(rec.Has(flow));
  const auto events = rec.Events(flow);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].type, EventType::kClientSyn);
  EXPECT_EQ(events[2].type, EventType::kEstablished);
  EXPECT_TRUE(TimestampsMonotonic(events));
}

TEST(FlightRecorder, RingWrapKeepsNewestEventsAndCountsLoss) {
  FlightRecorderConfig cfg;
  cfg.events_per_flow = 4;
  FlightRecorder rec(cfg);
  const FlowId flow = TestFlow();
  for (int i = 0; i < 10; ++i) {
    rec.Record(flow, i, EventType::kMuxForward, 1, static_cast<std::uint64_t>(i));
  }
  const auto events = rec.Events(flow);
  ASSERT_EQ(events.size(), 4u);
  // The newest 4 events survive, oldest-first.
  EXPECT_EQ(events.front().detail, 6u);
  EXPECT_EQ(events.back().detail, 9u);
  EXPECT_TRUE(TimestampsMonotonic(events));
  EXPECT_EQ(rec.overwritten_events(), 6u);
}

TEST(FlightRecorder, FlowCapDropsLaterFlowsButCountsThem) {
  FlightRecorderConfig cfg;
  cfg.max_flows = 2;
  FlightRecorder rec(cfg);
  rec.Record(TestFlow(1), 0, EventType::kClientSyn, 1);
  rec.Record(TestFlow(2), 1, EventType::kClientSyn, 1);
  rec.Record(TestFlow(3), 2, EventType::kClientSyn, 1);
  rec.Record(TestFlow(3), 3, EventType::kFin, 1);
  EXPECT_EQ(rec.flow_count(), 2u);
  EXPECT_FALSE(rec.Has(TestFlow(3)));
  EXPECT_EQ(rec.dropped_flows(), 2u);
  // Existing flows still record.
  rec.Record(TestFlow(1), 4, EventType::kFin, 1);
  EXPECT_EQ(rec.Events(TestFlow(1)).size(), 2u);
}

TEST(FlightRecorder, SystemEventLogIsBounded) {
  FlightRecorderConfig cfg;
  cfg.max_system_events = 3;
  FlightRecorder rec(cfg);
  for (int i = 0; i < 5; ++i) {
    rec.RecordSystem(i, EventType::kPoolUpdate, 7, 4);
  }
  EXPECT_EQ(rec.system_events().size(), 3u);
  EXPECT_EQ(rec.dropped_system_events(), 2u);
}

TEST(FlightRecorder, ExportJsonLinesCoversFlowsAndSystem) {
  FlightRecorder rec;
  rec.Record(TestFlow(), 1'000, EventType::kClientSyn, 0x0A010001u);
  rec.RecordSystem(2'000, EventType::kInstanceDown, 0x0A010002u);
  std::ostringstream os;
  rec.ExportJsonLines(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("ClientSyn"), std::string::npos);
  EXPECT_NE(out.find("InstanceDown"), std::string::npos);
  EXPECT_NE(out.find("\"system\""), std::string::npos);
}

// --- Analyzer -------------------------------------------------------------

std::vector<TraceEvent> SyntheticConnectionTrace() {
  // Times in ns; the phases below are 1 ms storage-a, 2 ms selection->SYN,
  // 3 ms storage-b, request forwarded 10 ms after selection.
  return {
      {sim::Msec(0), EventType::kClientSyn, 1, 0},
      {sim::Msec(1), EventType::kStorageAWriteStart, 1, 0},
      {sim::Msec(2), EventType::kStorageAWriteDone, 1, 1},
      {sim::Msec(2), EventType::kSynAckSent, 1, 0},
      {sim::Msec(3), EventType::kBackendSelected, 1, 12},
      {sim::Msec(5), EventType::kServerSyn, 1, 1},
      {sim::Msec(6), EventType::kStorageBWriteStart, 1, 0},
      {sim::Msec(9), EventType::kStorageBWriteDone, 1, 1},
      {sim::Msec(9), EventType::kEstablished, 1, 0},
      {sim::Msec(13), EventType::kRequestForwarded, 1, 0},
  };
}

TEST(Analyzer, ReconstructsPhaseDurationsFromEvents) {
  const FlowBreakdown b = AnalyzeFlow(SyntheticConnectionTrace());
  EXPECT_TRUE(b.established);
  EXPECT_DOUBLE_EQ(b.storage_a_ms, 1.0);
  EXPECT_DOUBLE_EQ(b.storage_b_ms, 3.0);
  EXPECT_DOUBLE_EQ(b.storage_ms, 4.0);
  EXPECT_DOUBLE_EQ(b.connection_ms, 10.0);  // Selection -> request forwarded.
  EXPECT_DOUBLE_EQ(b.rule_scan_ms, 2.0);    // Selection -> server SYN.
  EXPECT_EQ(b.rules_scanned, 12);
  EXPECT_EQ(b.takeovers, 0);
}

TEST(Analyzer, CountsTakeoversAndReswitches) {
  auto events = SyntheticConnectionTrace();
  events.push_back({sim::Msec(20), EventType::kTakeoverClient, 2, 0});
  events.push_back({sim::Msec(25), EventType::kReSwitch, 2, 0x0A030002u});
  const FlowBreakdown b = AnalyzeFlow(events);
  EXPECT_EQ(b.takeovers, 1);
  EXPECT_EQ(b.reswitches, 1);
}

TEST(Analyzer, BreakdownAggregatesAcrossFlows) {
  FlightRecorder rec;
  for (std::uint16_t port = 1; port <= 3; ++port) {
    for (const TraceEvent& ev : SyntheticConnectionTrace()) {
      rec.Record(TestFlow(port), ev.at, ev.type, ev.where, ev.detail);
    }
  }
  const BreakdownReport report = ReconstructBreakdown(rec);
  EXPECT_EQ(report.flows_seen, 3u);
  EXPECT_EQ(report.flows_established, 3u);
  ASSERT_EQ(report.connection_ms.count(), 3u);
  EXPECT_DOUBLE_EQ(report.connection_ms.Percentile(50), 10.0);
  EXPECT_DOUBLE_EQ(report.storage_ms.Percentile(50), 4.0);
}

TEST(Analyzer, TimestampsMonotonicDetectsRegression) {
  std::vector<TraceEvent> events = {
      {sim::Msec(2), EventType::kClientSyn, 1, 0},
      {sim::Msec(1), EventType::kSynAckSent, 1, 0},
  };
  EXPECT_FALSE(TimestampsMonotonic(events));
  EXPECT_TRUE(TimestampsMonotonic({}));
}

// --- End-to-end: a takeover leaves a coherent recording -------------------

TEST(ObsE2E, TakeoverFlowTraceIsCoherent) {
  workload::TestbedConfig cfg;
  cfg.yoda_instances = 4;
  workload::Testbed tb(cfg);
  tb.DefineDefaultVipAndStart();

  const workload::WebObject* big = nullptr;
  for (const auto& o : tb.catalog->objects()) {
    if (o.size > 150'000) {
      big = &o;
      break;
    }
  }
  ASSERT_NE(big, nullptr);

  bool done = false;
  bool ok = false;
  tb.clients[0]->FetchObject(tb.vip(), 80, big->url, {},
                             [&](const workload::FetchResult& r) {
                               done = true;
                               ok = r.ok;
                             });
  tb.sim.RunUntil(sim::Msec(160));
  int owner = -1;
  for (std::size_t i = 0; i < tb.instances.size(); ++i) {
    if (tb.instances[i]->active_flows() > 0) {
      owner = static_cast<int>(i);
    }
  }
  ASSERT_GE(owner, 0);
  const std::uint32_t failed_ip = tb.instance_ip(owner);
  tb.CrashInstance(owner);
  tb.sim.Run();
  ASSERT_TRUE(done);
  ASSERT_TRUE(ok);

  // The flight recorder saw the flow; its trace contains a client-side
  // takeover recorded by a *surviving* instance, and timestamps never
  // run backwards.
  bool saw_takeover = false;
  std::size_t flows_checked = 0;
  tb.flight.ForEachFlow([&](const FlowId& id, const std::vector<TraceEvent>& events) {
    ++flows_checked;
    EXPECT_TRUE(TimestampsMonotonic(events)) << "flow " << FormatIp(id.client_ip);
    for (const TraceEvent& ev : events) {
      if (ev.type == EventType::kTakeoverClient) {
        saw_takeover = true;
        EXPECT_NE(ev.where, failed_ip);
        EXPECT_NE(ev.where, 0u);
      }
    }
  });
  EXPECT_GE(flows_checked, 1u);
  EXPECT_TRUE(saw_takeover);

  // The controller's system log recorded the instance removal.
  bool saw_instance_down = false;
  for (const TraceEvent& ev : tb.flight.system_events()) {
    if (ev.type == EventType::kInstanceDown && ev.where == failed_ip) {
      saw_instance_down = true;
    }
  }
  EXPECT_TRUE(saw_instance_down);

  // And the registry's takeover counter agrees with the recording.
  std::uint64_t takeovers = 0;
  for (auto& inst : tb.instances) {
    takeovers += inst->stats().takeovers_client_side;
  }
  EXPECT_GE(takeovers, 1u);
}

TEST(ObsE2E, RegistryCountersMatchInstanceStats) {
  workload::Testbed tb;
  tb.DefineDefaultVipAndStart();
  bool done = false;
  tb.clients[0]->FetchObject(tb.vip(), 80, tb.catalog->objects()[0].url, {},
                             [&](const workload::FetchResult&) { done = true; });
  tb.sim.Run();
  ASSERT_TRUE(done);

  // The per-instance counters in the shared registry are the same storage the
  // stats() snapshot is built from.
  std::uint64_t started = 0;
  for (auto& inst : tb.instances) {
    started += inst->stats().flows_started;
    const Labels labels{{"instance", FormatIp(inst->ip())}};
    EXPECT_EQ(tb.metrics.GetCounter("yoda.flows_started", labels).value(),
              inst->stats().flows_started);
  }
  EXPECT_EQ(started, 1u);

  // TCPStore counters mirrored into the registry: every instance's store
  // bumps the one shard-0 counter.
  std::uint64_t connection_writes = 0;
  for (auto& store : tb.instance_stores) {
    connection_writes += store->stats().connection_writes;
  }
  EXPECT_EQ(tb.metrics.GetCounter("tcpstore.connection_writes").value(), connection_writes);
  EXPECT_GE(connection_writes, 1u);

  // Simulator gauges are live.
  EXPECT_GT(tb.metrics.GetGauge("sim.events_executed").value(), 0.0);
  EXPECT_GT(tb.metrics.GetGauge("sim.queue_depth_high_water").value(), 0.0);
}

TEST(ObsE2E, MetricsSnapshotPrintsEveryShardLane) {
  // Placed over 8 shards, every instrument lives in its shard's lane (lane 0
  // holds only shard 0's components): the snapshot must print them all.
  sim::ShardedSim engine(sim::ShardedSim::Config{8, 1});
  workload::TestbedConfig cfg;
  cfg.engine = &engine;
  workload::Testbed tb(cfg);
  tb.DefineDefaultVipAndStart();
  int done = 0;
  for (std::size_t i = 0; i < tb.clients.size(); ++i) {
    tb.clients[i]->FetchObject(tb.vip(), 80, tb.catalog->objects()[i].url, {},
                               [&](const workload::FetchResult&) { ++done; });
  }
  tb.sim.Run();
  ASSERT_EQ(done, static_cast<int>(tb.clients.size()));

  testing::internal::CaptureStdout();
  tb.PrintMetricsSnapshot();
  const std::string snapshot = testing::internal::GetCapturedStdout();
  EXPECT_NE(snapshot.find("yoda.flows_started"), std::string::npos) << snapshot;
  EXPECT_NE(snapshot.find("--- shard 0 ---"), std::string::npos);
  EXPECT_NE(snapshot.find("--- shard 7 ---"), std::string::npos);
}

TEST(ObsE2E, EveryInstrumentLandsInItsComponentsShardLane) {
  // The fabric and the controller sit off shard 0, so lane 0 cannot pass as
  // a catch-all. Same lanes on 1 and 2 workers.
  constexpr int kControllerShard = 3;
  constexpr int kFabricShard = 6;
  for (int workers : {1, 2}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    sim::ShardedSim engine(sim::ShardedSim::Config{8, workers});
    workload::TestbedConfig cfg;
    cfg.engine = &engine;
    cfg.placement.controller_shard = kControllerShard;
    cfg.placement.fabric_shard = kFabricShard;
    workload::Testbed tb(cfg);
    tb.DefineDefaultVipAndStart();
    // One slot per client: the clients' shards may run on different workers.
    std::vector<int> done(tb.clients.size(), 0);
    for (std::size_t i = 0; i < tb.clients.size(); ++i) {
      tb.clients[i]->FetchObject(tb.vip(), 80, tb.catalog->objects()[i].url, {},
                                 [&done, i](const workload::FetchResult&) { done[i] = 1; });
    }
    tb.sim.Run();
    ASSERT_EQ(std::count(done.begin(), done.end(), 1),
              static_cast<std::ptrdiff_t>(tb.clients.size()));

    // The lanes holding at least one instrument that `match` accepts.
    auto lanes_with = [&tb](const std::function<bool(const Registry::Row&)>& match) {
      std::vector<int> lanes;
      for (int s = 0; s < tb.lane_count(); ++s) {
        bool hit = false;
        tb.metrics_lane(s).ForEach([&](const Registry::Row& row) { hit = hit || match(row); });
        if (hit) {
          lanes.push_back(s);
        }
      }
      return lanes;
    };
    auto named = [](const std::string& prefix) {
      return [prefix](const Registry::Row& row) { return row.name->starts_with(prefix); };
    };
    for (const auto& inst : tb.instances) {
      const Labels labels{{"instance", FormatIp(inst->ip())}};
      EXPECT_EQ(lanes_with([&](const Registry::Row& row) {
                  return *row.name == "yoda.flows_started" && *row.labels == labels;
                }),
                std::vector<int>{tb.OwnerShardOf(inst->ip())})
          << labels[0].second;
    }
    EXPECT_EQ(lanes_with(named("l4.fabric.")), std::vector<int>{kFabricShard});
    EXPECT_EQ(lanes_with(named("controller.")), std::vector<int>{kControllerShard});

    // Every fetch's opening SYN crossed the fabric, and only its lane saw it.
    for (int s = 0; s < tb.lane_count(); ++s) {
      std::size_t forwards = 0;
      tb.flight_lane(s).ForEachFlow([&](const FlowId&, const std::vector<TraceEvent>& events) {
        for (const TraceEvent& ev : events) {
          forwards += ev.type == EventType::kMuxForward ? 1 : 0;
        }
      });
      if (s == kFabricShard) {
        EXPECT_GE(forwards, tb.clients.size());
      } else {
        EXPECT_EQ(forwards, 0u) << "lane " << s;
      }
    }
  }
}

}  // namespace
}  // namespace obs
