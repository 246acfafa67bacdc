// Scenario DSL tests: parsing, error reporting, and end-to-end runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "src/workload/scenario.h"

namespace workload {
namespace {

TEST(ParseDuration, Units) {
  EXPECT_EQ(ParseDuration("250ms"), sim::Msec(250));
  EXPECT_EQ(ParseDuration("5s"), sim::Sec(5));
  EXPECT_EQ(ParseDuration("2m"), sim::Minutes(2));
  EXPECT_EQ(ParseDuration("7us"), sim::Usec(7));
  EXPECT_EQ(ParseDuration("9"), sim::Sec(9));
  EXPECT_EQ(ParseDuration("40ns"), sim::Nsec(40));
  EXPECT_EQ(ParseDuration("9223372036854775807ns"), std::numeric_limits<sim::Duration>::max());
  EXPECT_FALSE(ParseDuration("ms").has_value());
  // Beyond the int64 nanosecond clock: rejected, never wrapped.
  EXPECT_FALSE(ParseDuration("9223372036854775808ns").has_value());
  EXPECT_FALSE(ParseDuration("10000000000s").has_value());
  EXPECT_FALSE(ParseDuration("153722868m").has_value());
  EXPECT_FALSE(ParseDuration("5h").has_value());
  EXPECT_FALSE(ParseDuration("abc").has_value());
}

TEST(ParseIp, DottedQuads) {
  EXPECT_EQ(ParseIp("10.200.0.1"), net::MakeIp(10, 200, 0, 1));
  EXPECT_EQ(ParseIp("0.0.0.0"), 0u);
  EXPECT_EQ(ParseIp("255.255.255.255"), 0xffffffffu);
  EXPECT_FALSE(ParseIp("10.0.0").has_value());
  EXPECT_FALSE(ParseIp("10.0.0.0.1").has_value());
  EXPECT_FALSE(ParseIp("10.0.0.256").has_value());
  EXPECT_FALSE(ParseIp("ten.0.0.1").has_value());
}

TEST(ParseScenario, MinimalScenario) {
  std::string error;
  auto sc = ParseScenario(R"(
    # comment
    seed 9
    instances 3
    backends 4
    vip 10.200.0.1
    rule 10.200.0.1 name=r priority=1 url=* split=10.3.0.1,10.3.0.2
    at 0ms load 10.200.0.1 rate 50 duration 2s
    at 1s crash instance 0
  )", &error);
  ASSERT_TRUE(sc.has_value()) << error;
  EXPECT_EQ(sc->testbed.seed, 9u);
  EXPECT_EQ(sc->testbed.yoda_instances, 3);
  EXPECT_EQ(sc->testbed.backends, 4);
  ASSERT_EQ(sc->vips.size(), 1u);
  EXPECT_EQ(sc->vips[0].vip_rules.size(), 1u);
  ASSERT_EQ(sc->events.size(), 2u);
  EXPECT_EQ(sc->events[1].action, "crash");
  EXPECT_EQ(sc->events[1].at, sim::Sec(1));
}

TEST(ParseScenario, TlsDirective) {
  std::string error;
  auto sc = ParseScenario(R"(
    vip 10.200.0.1
    rule 10.200.0.1 name=r split=10.3.0.1
    tls 10.200.0.1 cert MY-CERT key 99
  )", &error);
  ASSERT_TRUE(sc.has_value()) << error;
  ASSERT_TRUE(sc->vips[0].tls_cert.has_value());
  EXPECT_EQ(*sc->vips[0].tls_cert, "MY-CERT");
  EXPECT_EQ(sc->vips[0].tls_key, 99u);
}

TEST(ParseScenario, ErrorsCarryLineNumbers) {
  std::string error;
  EXPECT_FALSE(ParseScenario("vip 10.0.0.1\nbogus-directive 1\n", &error).has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos);
  EXPECT_FALSE(ParseScenario("rule 10.0.0.1 name=r split=10.3.0.1\n", &error).has_value());
  EXPECT_NE(error.find("undefined vip"), std::string::npos);
  EXPECT_FALSE(ParseScenario("vip not-an-ip\n", &error).has_value());
  EXPECT_FALSE(ParseScenario("vip 10.0.0.1\nrule 10.0.0.1 nonsense\n", &error).has_value());
  EXPECT_FALSE(ParseScenario("instances abc\n", &error).has_value());
  EXPECT_FALSE(ParseScenario("# only comments\n", &error).has_value());  // No vip.
}

TEST(ParseScenario, RejectsTimelineActionsItCannotApply) {
  // Every action sits on line 3, after two lines that define the testbed.
  const std::string head = "instances 2\nvip 10.200.0.1\n";
  const std::vector<std::string> bad = {
      "at 1s crash instance 40",        // Names no instance.
      "at 1s crash instance 2",         // One past the last (no spares).
      "at 1s crash backend -1",         // Negative index.
      "at 1s crash controller 1",       // One controller.
      "at 1s crash kv 3",               // Three KV servers: 0..2.
      "at 1s crsh instance 0",          // Unknown action.
      "at 1s fail-instance 0",          // The old spelling.
      "at 1s recover-backend 0",
      "at 1s restart backend",          // Missing index.
      "at 1s crash kv one",             // Non-numeric index.
      "at 1s crash proxy 0",            // No such component kind.
      "at 1s crash 0",
      "at 1s restart instance 0 1",     // One index only.
      "at 1s restart instance 0 hot",   // warm or cold.
      "at 1s restart instance 0 for 5ms",  // A restart clears nothing.
      "at 1s crash instance 0 5ms",     // The duration needs `for`.
      "at 1s crash instance 0 for",
      "at 1s crash instance 0 for 0ms",  // Positive durations only.
      "at 1s crash instance 0 for 5ms lukewarm",
      "at 1s crash instance 0 for 5ms cold now",
      "at 1s link-loss instance 0 backend 0 0.5",  // Overlays need `for`.
      "at 1s link-loss instance 0 backend 0 1.5 for 1s",  // p in (0, 1].
      "at 1s link-loss instance 0 backend 0 0 for 1s",
      "at 1s link-loss instance 0 backend 0 nan for 1s",
      "at 1s link-loss instance 0 backend 9 0.5 for 1s",
      "at 1s link-loss instance 0 0.5 for 1s",  // Two ends.
      "at 1s partition instance 0 backend 0",
      "at 1s partition instance 0 for 1s",
      "at 1s partition instance 0 backend 0 for soon",
      "at 1s node-delay instance 0 for 1s",  // Missing delay.
      "at 1s node-delay instance 0 0ms for 1s",
      "at 1s node-delay instance 5 1ms for 1s",
      "at 1s gray-syn instance 0 for 1s",  // Missing probability.
      "at 1s gray-syn instance 0 -0.5 for 1s",
      "at 1s gray-syn instance 0 0.5",
      "at 1s kv-slow instance 0 5ms for 1s",  // Only a KV server is slow.
      "at 1s kv-slow kv 0 5ms",
      "at 1s kv-slow kv 3 5ms for 1s",
      "at 1s assign now",               // Takes no argument.
      "at 0ms load 10.200.0.1 rate 50",                     // Malformed load.
      "at 0ms load 10.200.0.1 rate fast duration 2s",
      "at 0ms load 10.200.0.1 rate inf duration 2s",
      "at 0ms load 10.200.0.1 rate 50 duration soon",
      "at 0ms load 10.200.0.1 rate 50 duration 2s udp",
      "at 1s update-rules 10.200.0.1 nonsense",
      "at 1s update-rules 10.200.0.1",
      "at 1s store-mode 10.200.0.1 sideways",
      // Times beyond the int64 nanosecond clock, alone or summed.
      "at 10000000000s crash instance 0",
      "at 99999999999999999999ns crash instance 0",
      "at 1s crash instance 0 for 10000000000s",
      "at 9223372036854775807ns crash instance 0 for 1ns",
      "at 0ms load 10.200.0.1 rate 50 duration 10000000000s",
      "at 9223372036854775000ns load 10.200.0.1 rate 50 duration 1s",
      "at 1s partition instance 0 backend 0 for 10000000000s",
      "run-until 10000000000s",
  };
  for (const std::string& action : bad) {
    std::string error;
    EXPECT_FALSE(ParseScenario(head + action + "\n", &error).has_value()) << action;
    EXPECT_NE(error.find("line 3"), std::string::npos) << action << " -> " << error;
  }
  // The packet overlays are well formed, but an intra-threads run evaluates
  // deliveries on every shard, so it rejects them; faults that act on a
  // component pass.
  const std::vector<std::string> overlays = {
      "at 1s link-loss instance 0 backend 0 0.5 for 1s",
      "at 1s partition instance 0 kv 1 for 1s",
      "at 1s node-delay instance 0 5ms for 1s",
      "at 1s gray-syn instance 1 0.5 for 1s",
  };
  for (const std::string& action : overlays) {
    std::string error;
    EXPECT_TRUE(ParseScenario(head + action + "\n", &error).has_value())
        << action << ": " << error;
    EXPECT_FALSE(ParseScenario(head + action + "\nintra-threads 2\n", &error).has_value())
        << action;
    EXPECT_NE(error.find("line 3"), std::string::npos) << action << " -> " << error;
  }
  for (const char* action : {"at 1s crash instance 0 for 5ms cold", "at 1s restart backend 1 warm",
                             "at 1s kv-slow kv 2 5ms for 1s"}) {
    std::string error;
    EXPECT_TRUE(ParseScenario(head + action + "\nintra-threads 2\n", &error).has_value())
        << action << ": " << error;
  }
}

TEST(ParseScenario, RejectsPlaceShardsTheRunDoesNotHave) {
  // A plain or `threads` run has one shard and an intra-threads run eight.
  // Each `place` sits on line 3; the count may come after it.
  const std::vector<std::string> bad = {
      "vip 10.200.0.1\ninstances 2\nplace fabric 5\n",
      "vip 10.200.0.1\ninstances 2\nplace controller 1\n",
      "vip 10.200.0.1\ninstances 2\nplace instance 1 1\n",
      "vip 10.200.0.1\nthreads 2\nplace backend 0 3\n",
      "vip 10.200.0.1\nintra-threads 2\nplace controller 9\n",
      "vip 10.200.0.1\nintra-threads 2\nplace fabric 8\n",
      "vip 10.200.0.1\nintra-threads 2\nplace kv 0 8\n",
      "vip 10.200.0.1\ninstances 2\nplace client 1 8\nintra-threads 2\n",
      "vip 10.200.0.1\ninstances 2\nplace proxy 0 1\n",
  };
  for (const std::string& text : bad) {
    std::string error;
    EXPECT_FALSE(ParseScenario(text, &error).has_value()) << text;
    EXPECT_NE(error.find("line 3"), std::string::npos) << text << " -> " << error;
  }
  std::string error;
  EXPECT_TRUE(ParseScenario("vip 10.200.0.1\nplace fabric 0\nplace instance 1 0\n", &error))
      << error;
  EXPECT_TRUE(ParseScenario("vip 10.200.0.1\nplace fabric 7\nplace kv 2 7\nintra-threads 2\n",
                            &error))
      << error;
}

TEST(ParseScenario, ActionIndicesRangeOverTheWholeFile) {
  // Counts may follow the action that uses them, and spares are instances.
  std::string error;
  EXPECT_TRUE(ParseScenario("vip 10.200.0.1\n"
                            "at 1s crash instance 3\n"
                            "at 2s restart instance 3\n"
                            "at 3s crash kv 4\n"
                            "at 4s restart controller 2\n"
                            "at 5s link-loss backend 2 controller 2 0.5 for 1s\n"
                            "instances 2\nspares 2\nkv-servers 5\ncontrollers 3\n",
                            &error)
                  .has_value())
      << error;
}

TEST(RunScenario, PlainLoadCompletes) {
  auto sc = ParseScenario(R"(
    seed 5
    instances 2
    backends 3
    vip 10.200.0.1
    rule 10.200.0.1 name=r priority=1 url=* split=10.3.0.1,10.3.0.2,10.3.0.3
    at 0ms load 10.200.0.1 rate 40 duration 2s
  )");
  ASSERT_TRUE(sc.has_value());
  ScenarioReport report = RunScenario(*sc);
  EXPECT_GT(report.requests_ok, 50u);
  EXPECT_EQ(report.requests_failed, 0u);
  EXPECT_GT(report.latency_ms.Percentile(50), 50.0);
}

TEST(RunScenario, FailureEventIsTransparent) {
  auto sc = ParseScenario(R"(
    seed 6
    instances 4
    backends 4
    vip 10.200.0.1
    rule 10.200.0.1 name=r priority=1 url=* split=10.3.0.1,10.3.0.2
    at 0ms load 10.200.0.1 rate 60 duration 4s
    at 1s crash instance 0
  )");
  ASSERT_TRUE(sc.has_value());
  ScenarioReport report = RunScenario(*sc);
  EXPECT_EQ(report.requests_failed, 0u);
  EXPECT_EQ(report.failures_detected, 1);
  EXPECT_FALSE(report.controller_events.empty());
}

TEST(ScenarioTest, EveryScriptedFaultIsOnTheTimeline) {
  // Each fault verb goes through the fault plane, so the trace's system log
  // holds one kFaultInjected per verb, at its scripted time, naming the
  // component's address and the kind of fault; a `for <d>` adds the clear
  // `d` later (a crash's clear is its restart).
  auto sc = ParseScenario(R"(
    seed 4
    instances 3
    backends 3
    vip 10.200.0.1
    rule 10.200.0.1 name=r priority=1 url=* split=10.3.0.1,10.3.0.2,10.3.0.3
    at 0ms load 10.200.0.1 rate 40 duration 2s
    at 500ms crash instance 1
    at 900ms restart instance 1
    at 1000ms crash backend 2 for 300ms cold
    at 1100ms link-loss instance 0 backend 0 0.25 for 150ms
    at 1150ms partition instance 2 kv 1 for 120ms
    at 1200ms node-delay instance 0 5ms for 80ms
    at 1210ms gray-syn instance 2 0.5 for 100ms
    at 1400ms kv-slow kv 1 10ms for 100ms
    at 1450ms crash kv 0 for 200ms
    at 1700ms restart instance 1 cold
  )");
  ASSERT_TRUE(sc.has_value());
  using Fault = std::tuple<sim::Time, obs::EventType, net::IpAddr, fault::FaultKind>;
  std::vector<Fault> faults;
  RunScenario(*sc, nullptr, [&faults](Testbed& tb) {
    for (int s = 0; s < tb.lane_count(); ++s) {
      for (const obs::TraceEvent& ev : tb.flight_lane(s).system_events()) {
        if (ev.type == obs::EventType::kFaultInjected ||
            ev.type == obs::EventType::kFaultCleared) {
          faults.emplace_back(ev.at, ev.type, ev.where, static_cast<fault::FaultKind>(ev.detail));
        }
      }
    }
  });
  constexpr auto kInjected = obs::EventType::kFaultInjected;
  constexpr auto kCleared = obs::EventType::kFaultCleared;
  const net::IpAddr instance0 = net::MakeIp(10, 1, 0, 1);
  const net::IpAddr instance1 = net::MakeIp(10, 1, 0, 2);
  const net::IpAddr instance2 = net::MakeIp(10, 1, 0, 3);
  const net::IpAddr backend2 = net::MakeIp(10, 3, 0, 3);
  const net::IpAddr kv0 = net::MakeIp(10, 2, 0, 1);
  const net::IpAddr kv1 = net::MakeIp(10, 2, 0, 2);
  using K = fault::FaultKind;
  const std::vector<Fault> want = {
      {sim::Msec(500), kInjected, instance1, K::kCrash},
      {sim::Msec(900), kInjected, instance1, K::kRestartWarm},
      {sim::Msec(1000), kInjected, backend2, K::kCrash},
      {sim::Msec(1100), kInjected, instance0, K::kLinkLoss},
      {sim::Msec(1150), kInjected, instance2, K::kPartition},
      {sim::Msec(1200), kInjected, instance0, K::kNodeDelay},
      {sim::Msec(1210), kInjected, instance2, K::kGray},
      {sim::Msec(1250), kCleared, instance0, K::kLinkLoss},
      {sim::Msec(1270), kCleared, instance2, K::kPartition},
      {sim::Msec(1280), kCleared, instance0, K::kNodeDelay},
      {sim::Msec(1300), kInjected, backend2, K::kRestartCold},
      {sim::Msec(1310), kCleared, instance2, K::kGray},
      {sim::Msec(1400), kInjected, kv1, K::kKvSlow},
      {sim::Msec(1450), kInjected, kv0, K::kCrash},
      {sim::Msec(1500), kCleared, kv1, K::kKvSlow},
      {sim::Msec(1650), kInjected, kv0, K::kRestartWarm},
      {sim::Msec(1700), kInjected, instance1, K::kRestartCold},
  };
  EXPECT_EQ(faults, want);
}

TEST(RunScenario, SpansEndingAtTheClocksEndDoNotWrap) {
  // With three controllers the setup runs until one holds the lease, so the
  // timeline opens after 0 ms. Counted from their `at`, these spans end on
  // the clock's last nanosecond; counted from that later instant, they would
  // overflow into the past.
  auto sc = ParseScenario(R"(
    seed 2
    instances 2
    controllers 3
    vip 10.200.0.1
    rule 10.200.0.1 name=r priority=1 url=* split=10.3.0.1,10.3.0.2
    at 0ms load 10.200.0.1 rate 40 duration 9223372036854775807ns
    at 0ms crash instance 0 for 9223372036854775807ns
    run-until 1s
  )");
  ASSERT_TRUE(sc.has_value());
  int restarts = 0;
  const ScenarioReport report = RunScenario(*sc, nullptr, [&restarts](Testbed& tb) {
    for (const obs::TraceEvent& ev : tb.flight.system_events()) {
      restarts += ev.type == obs::EventType::kFaultInjected &&
                  ev.detail == static_cast<std::uint64_t>(fault::FaultKind::kRestartWarm);
    }
  });
  EXPECT_GT(report.requests_issued, 20u);  // The load runs the whole second.
  EXPECT_EQ(restarts, 0);                  // The restart lies past the run.
}

TEST(RunScenario, TlsLoadWorks) {
  auto sc = ParseScenario(R"(
    seed 8
    instances 2
    backends 3
    vip 10.200.0.1
    rule 10.200.0.1 name=r priority=1 url=* split=10.3.0.1,10.3.0.2
    tls 10.200.0.1 cert TESTCERT key 77
    at 0ms load 10.200.0.1 rate 30 duration 2s tls
  )");
  ASSERT_TRUE(sc.has_value());
  ScenarioReport report = RunScenario(*sc);
  EXPECT_GT(report.requests_ok, 30u);
  EXPECT_EQ(report.requests_failed, 0u);
}

TEST(RunScenario, UpdateRulesMidRun) {
  auto sc = ParseScenario(R"(
    seed 10
    instances 2
    backends 3
    vip 10.200.0.1
    rule 10.200.0.1 name=r priority=1 url=* split=10.3.0.1
    at 0ms load 10.200.0.1 rate 40 duration 3s
    at 1s update-rules 10.200.0.1 name=r2 priority=2 url=* split=10.3.0.2
  )");
  ASSERT_TRUE(sc.has_value());
  ScenarioReport report = RunScenario(*sc);
  EXPECT_EQ(report.requests_failed, 0u);
  bool updated = false;
  for (const auto& ev : report.controller_events) {
    updated = updated || ev.what.find("update rules") != std::string::npos;
  }
  EXPECT_TRUE(updated);
}

TEST(RunScenario, EachAddInstanceActivatesTheNextSpare) {
  // Two spares, two add-instance events: each must activate a DIFFERENT
  // spare (through the controller's fenced scale-out plan), and each spare
  // must then serve flows — never before its own activation.
  auto sc = ParseScenario(R"(
    seed 3
    instances 2
    spares 2
    backends 3
    vip 10.200.0.1
    rule 10.200.0.1 name=r priority=1 url=* split=10.3.0.1,10.3.0.2,10.3.0.3
    at 0ms load 10.200.0.1 rate 80 duration 4s
    at 1s add-instance
    at 2s add-instance
  )");
  ASSERT_TRUE(sc.has_value());
  std::map<net::IpAddr, sim::Time> first_syn;
  ScenarioReport report = RunScenario(*sc, nullptr, [&first_syn](Testbed& tb) {
    for (int s = 0; s < tb.lane_count(); ++s) {
      tb.flight_lane(s).ForEachFlow(
          [&first_syn](const obs::FlowId&, const std::vector<obs::TraceEvent>& events) {
            for (const obs::TraceEvent& ev : events) {
              if (ev.type != obs::EventType::kClientSyn) {
                continue;
              }
              auto [it, fresh] = first_syn.emplace(ev.where, ev.at);
              if (!fresh) {
                it->second = std::min(it->second, ev.at);
              }
            }
          });
    }
  });
  EXPECT_EQ(report.requests_failed, 0u);

  std::map<net::IpAddr, sim::Time> activated;
  for (const yoda::ControllerEvent& ev : report.controller_events) {
    const std::string prefix = "activated spare instance ";
    if (ev.what.rfind(prefix, 0) == 0) {
      auto ip = ParseIp(ev.what.substr(prefix.size()));
      ASSERT_TRUE(ip.has_value()) << ev.what;
      activated.emplace(*ip, ev.when);
    }
  }
  for (net::IpAddr ip : {net::MakeIp(10, 1, 0, 3), net::MakeIp(10, 1, 0, 4)}) {
    EXPECT_EQ(first_syn.count(ip), 1u) << net::IpToString(ip) << " served no flow";
    EXPECT_EQ(activated.count(ip), 1u) << net::IpToString(ip) << " never activated";
    if (first_syn.count(ip) == 1 && activated.count(ip) == 1) {
      EXPECT_GE(first_syn[ip], activated[ip]) << net::IpToString(ip);
    }
  }
}

}  // namespace
}  // namespace workload
