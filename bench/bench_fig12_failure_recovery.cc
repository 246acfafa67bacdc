// Figure 12: failure recovery. Two sections:
//
// (a) CDF of request latency when 2 of 10 LB instances fail mid-run, for
//     HAProxy-noretry (24% of affected flows break), HAProxy-retry (the
//     retried objects pay the 30 s HTTP timeout) and Yoda (no broken flows,
//     0.6-3 s of added latency on affected flows only).
//
// (b) The per-flow packet timeline at the backend for a Yoda flow that
//     lives through the failure: packets drop at the failure point, the
//     backend retransmits at ~300 ms (still routed to the dead instance,
//     mapping not yet updated), retransmits again at ~600 ms — by then the
//     600 ms monitor removed the instance, the packet lands on a survivor,
//     TCPStore supplies the flow state, and the transfer resumes.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/obs/analyzer.h"
#include "src/workload/testbed.h"

namespace {

workload::TestbedConfig Fig12Config(int proxies) {
  workload::TestbedConfig cfg;
  cfg.yoda_instances = 10;
  cfg.baseline_proxies = proxies;
  cfg.backends = 12;
  cfg.clients = 8;
  cfg.kv_servers = 4;
  cfg.catalog.objects = 400;
  return cfg;
}

struct ScenarioResult {
  sim::Histogram latency_s;
  int broken = 0;
  int completed = 0;
  int inflight_at_failure = 0;
  // Yoda only: per-takeover recovery delay (crash -> survivor adoption),
  // reconstructed from the flight recorder after the run.
  sim::Histogram recovery_ms;
};

// Closed-loop processes fetching objects; 2 LB instances (or proxies) are
// failed at `fail_at`. For the HAProxy modes, a "DNS update" redirects each
// process's next attempt to a surviving proxy.
ScenarioResult RunScenario(bool use_yoda, bool browser_retry, int processes,
                           sim::Duration duration, sim::Duration fail_at) {
  workload::Testbed tb(Fig12Config(use_yoda ? 0 : 10));
  tb.DefineDefaultVipAndStart();
  if (!use_yoda) {
    tb.InstallProxyRules(tb.EqualSplitRules(0, tb.cfg.backends));
  }
  sim::Rng rng(42);
  ScenarioResult result;
  std::vector<bool> proxy_dead(static_cast<std::size_t>(std::max(tb.cfg.baseline_proxies, 1)),
                               false);

  std::function<void(int)> next_fetch = [](int) {};
  // One attempt of one object; on failure in retry mode the browser
  // re-issues the request through the (by then updated) DNS mapping, and the
  // recorded latency includes the wasted HTTP timeout.
  auto do_fetch = std::make_shared<
      std::function<void(int, std::string, sim::Time, int)>>();
  *do_fetch = [&, do_fetch](int proc, std::string url, sim::Time started, int attempt) {
    auto* client = tb.clients[static_cast<std::size_t>(proc) % tb.clients.size()].get();
    net::IpAddr target = tb.vip();
    if (!use_yoda) {
      // DNS-style split: pick a proxy the "DNS" still advertises.
      int p = (proc + attempt) % tb.cfg.baseline_proxies;
      while (proxy_dead[static_cast<std::size_t>(p)]) {
        p = (p + 1) % tb.cfg.baseline_proxies;
      }
      target = tb.proxy_ip(p);
    }
    workload::FetchOptions opts;
    opts.http_timeout = sim::Sec(30);
    client->FetchObject(
        target, 80, url, opts,
        [&, do_fetch, proc, url, started, attempt](const workload::FetchResult& r) {
          if (!r.ok && browser_retry && attempt == 0) {
            (*do_fetch)(proc, url, started, 1);  // Browser retry via fresh DNS.
            return;
          }
          const bool spanned_failure = started <= fail_at && tb.sim.now() > fail_at;
          if (r.ok) {
            ++result.completed;
          } else {
            ++result.broken;
          }
          result.latency_s.Add(sim::ToSeconds(tb.sim.now() - started));
          if (spanned_failure) {
            ++result.inflight_at_failure;
          }
          next_fetch(proc);
        });
  };
  next_fetch = [&, do_fetch](int proc) {
    if (tb.sim.now() > duration) {
      return;
    }
    const auto& obj = tb.catalog->objects()[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(tb.catalog->objects().size()) - 1))];
    (*do_fetch)(proc, obj.url, tb.sim.now(), 0);
  };
  for (int p = 0; p < processes; ++p) {
    tb.SimFor(0)->After(sim::Msec(10 * p), [&next_fetch, p]() { next_fetch(p); });
  }

  tb.SimFor(0)->After(fail_at, [&]() {
    // Through the fault plane: routes the crash to the component AND the
    // network, and stamps kFaultInjected into the flight recorder so the
    // recovery timeline below has an anchor.
    if (use_yoda) {
      tb.CrashInstance(0);
      tb.CrashInstance(1);
    } else {
      tb.faults->CrashNode(tb.proxy_ip(0));
      tb.faults->CrashNode(tb.proxy_ip(1));
      proxy_dead[0] = proxy_dead[1] = true;  // DNS updated (async in reality).
    }
  });
  tb.sim.Run();
  if (use_yoda) {
    // Recovery time per affected flow: crash instant -> the survivor's
    // TCPStore adoption, straight from the trace.
    for (const obs::TakeoverRecord& rec : obs::TakeoverTimeline(tb.flight)) {
      if (rec.event.at >= fail_at) {
        result.recovery_ms.Add(sim::ToMillis(rec.event.at - fail_at));
      }
    }
  }
  return result;
}

void PrintCdfRow(const char* name, ScenarioResult& r) {
  std::printf("%-18s %6d ok %5d broken | P50 %6.2fs  P75 %6.2fs  P90 %6.2fs  P99 %6.2fs  max %6.2fs\n",
              name, r.completed, r.broken, r.latency_s.Percentile(50),
              r.latency_s.Percentile(75), r.latency_s.Percentile(90),
              r.latency_s.Percentile(99), r.latency_s.Max());
}

void PacketTimelineSection() {
  std::printf("\n--- Fig 12(b): backend packet timeline across a Yoda failure ---\n");
  workload::TestbedConfig cfg = Fig12Config(0);
  cfg.yoda_instances = 4;
  workload::Testbed tb(cfg);
  tb.DefineDefaultVipAndStart();

  const workload::WebObject* big = nullptr;
  for (const auto& o : tb.catalog->objects()) {
    if (o.size > 250'000) {
      big = &o;
      break;
    }
  }
  struct Event {
    double t_ms;
    std::uint32_t seq;
    bool retransmit;
  };
  std::vector<Event> events;
  std::uint32_t max_seq = 0;
  // Watch server->VIP data packets (the stream the figure plots) where they
  // land on the VIP: each transmission once, at its first hop (before mux
  // encapsulation). The tap forwards every packet to the fabric.
  net::TapNode tap(&tb.fabric, [&](const net::Packet& p) {
    bool from_backend = false;
    for (int i = 0; i < tb.cfg.backends; ++i) {
      from_backend = from_backend || p.src == tb.backend_ip(i);
    }
    if (from_backend && !p.payload.empty()) {
      const bool rtx = net::SeqLt(p.seq, max_seq);
      max_seq = std::max(max_seq, p.seq);
      events.push_back({sim::ToMillis(tb.sim.now()), p.seq, rtx});
    }
  });
  tb.network.Attach(tb.vip(), &tap);

  bool ok = false;
  sim::Duration latency = 0;
  tb.clients[0]->FetchObject(tb.vip(), 80, big->url, {}, [&](const workload::FetchResult& r) {
    ok = r.ok;
    latency = r.latency;
  });
  sim::Time fail_time = 0;
  tb.sim.RunUntil(sim::Msec(200));
  for (std::size_t i = 0; i < tb.instances.size(); ++i) {
    if (tb.instances[i]->active_flows() > 0) {
      tb.CrashInstance(static_cast<int>(i));
      fail_time = tb.sim.now();
      break;
    }
  }
  tb.sim.Run();

  std::printf("flow %s (%zu bytes): failure injected at %.0f ms; completed ok=%d in %.0f ms\n",
              big->url.c_str(), big->size, sim::ToMillis(fail_time), ok,
              sim::ToMillis(latency));
  std::printf("%-12s %-14s %-12s\n", "time (ms)", "seq (rel)", "note");
  const std::uint32_t base_seq = events.empty() ? 0 : events.front().seq;
  const double fail_ms = sim::ToMillis(fail_time);
  double last_printed = -1000;
  for (const Event& e : events) {
    // Dense around the failure/recovery window, sparse elsewhere.
    const bool in_window = e.t_ms > fail_ms - 60 && e.t_ms < fail_ms + 900;
    if (!in_window && e.t_ms - last_printed < 250) {
      continue;
    }
    last_printed = e.t_ms;
    const char* note = "";
    if (e.retransmit) {
      note = "retransmission";
    }
    if (in_window && e.t_ms <= fail_ms) {
      note = "last before failure";
    }
    std::printf("%-12.1f %-14u %-12s\n", e.t_ms, e.seq - base_seq, note);
  }
  std::printf("(expected shape: gap at the failure; server retransmits ~+300 ms to the dead\n"
              " instance; ~+600 ms retransmit lands on a survivor via TCPStore; stream resumes)\n");
  tb.PrintMetricsSnapshot("metrics registry snapshot (timeline run)");
}

// Controller-failure class: the LEADER CONTROLLER dies mid-rollout (instead
// of a data-plane instance). Measured from the traces: time to a new leader
// (crash -> next kLeaseAcquired), time to rollout completion (rollout issue
// -> the resumed plan's last reconcile step), and how many requests the
// control-plane failover impacted. The same schedule runs once WITHOUT the
// crash as the control: rollout migration itself perturbs a few flows, and
// only the delta is attributable to the failover — the paper's availability
// claim is that the delta is zero, because muxes and instances keep serving
// from their last programmed state while the standby restores the journal.
struct CtlFailoverResult {
  int completed = 0;
  int broken = 0;
  sim::Time rollout_at = 0;
  sim::Time crash_at = 0;
  sim::Time new_leader_at = 0;
  sim::Time resumed_at = 0;
  sim::Time rollout_done_at = 0;
};

CtlFailoverResult RunCtlFailover(bool crash_leader) {
  workload::TestbedConfig cfg;
  cfg.yoda_instances = 4;
  cfg.backends = 6;
  cfg.clients = 6;
  cfg.controllers = 3;
  workload::Testbed tb(cfg);
  tb.StartAllControllers();
  yoda::Controller* leader = tb.AwaitLeader();
  CtlFailoverResult out;
  if (leader == nullptr) {
    return out;
  }
  // Two VIPs so the second assignment round both grows one pool and shrinks
  // the other — that mix is what produces a make/barrier/break plan whose
  // break phase is still parked when the leader dies.
  leader->DefineVip(tb.vip(0), 80, tb.EqualSplitRules(0, 3, "r0"));
  leader->DefineVip(tb.vip(1), 80, tb.EqualSplitRules(3, 3, "r1"));

  // Closed-loop load so "impacted" is well-defined per request.
  sim::Rng rng(42);
  const sim::Duration load_until = sim::Sec(12);
  std::function<void(int)> next_fetch = [](int) {};
  next_fetch = [&](int proc) {
    if (tb.sim.now() > load_until) {
      return;
    }
    const auto& obj = tb.catalog->objects()[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(tb.catalog->objects().size()) - 1))];
    auto* client = tb.clients[static_cast<std::size_t>(proc) % tb.clients.size()].get();
    workload::FetchOptions opts;
    opts.http_timeout = sim::Sec(30);
    client->FetchObject(tb.vip(0), 80, obj.url, opts,
                        [&, proc](const workload::FetchResult& r) {
                          out.completed += r.ok ? 1 : 0;
                          out.broken += r.ok ? 0 : 1;
                          next_fetch(proc);
                        });
  };
  for (int p = 0; p < 24; ++p) {
    tb.SimFor(0)->After(sim::Msec(10 * p), [&next_fetch, p]() { next_fetch(p); });
  }

  // Round 1 establishes the assignment; round 2 shifts it (vip0 grows, vip1
  // shrinks) and the leader dies 10 ms in, break phase still parked.
  std::map<net::IpAddr, yoda::Controller::VipDemand> demand;
  tb.SimFor(0)->At(sim::Sec(2), [&] {
    demand[tb.vip(0)] = {0.4, 2, 0};
    demand[tb.vip(1)] = {0.4, 2, 0};
    tb.LeaderController()->ApplyManyToMany(demand, 1.0, 2000);
  });
  tb.SimFor(0)->At(sim::Sec(5), [&] {
    demand[tb.vip(0)] = {0.4, 3, 0};
    demand[tb.vip(1)] = {0.4, 1, 0};
    tb.LeaderController()->ApplyManyToMany(demand, 1.0, 2000, /*migration_limit=*/1.0);
    out.rollout_at = tb.sim.now();
  });
  if (crash_leader) {
    tb.SimFor(0)->At(sim::Sec(5) + sim::Msec(10), [&] {
      for (int i = 0; i < tb.controller_count(); ++i) {
        yoda::Controller* c = tb.ControllerAt(i);
        if (!c->crashed() && c->ActingLeader()) {
          tb.CrashController(i);
          out.crash_at = tb.sim.now();
          return;
        }
      }
    });
  }
  tb.sim.RunUntil(load_until + sim::Sec(31));

  // Reconstruct the failover from the flight recorder.
  for (const obs::TraceEvent& ev : tb.flight.system_events()) {
    if (ev.type == obs::EventType::kLeaseAcquired && out.crash_at != 0 &&
        ev.at > out.crash_at && out.new_leader_at == 0) {
      out.new_leader_at = ev.at;
    }
    if (ev.type == obs::EventType::kPlanResumed && out.resumed_at == 0) {
      out.resumed_at = ev.at;
    }
  }
  // Rollout completion: the last reconcile step the surviving leader executed
  // (its actuator journal is time-ordered).
  yoda::Controller* survivor = tb.LeaderController();
  if (survivor != nullptr) {
    for (const yoda::ExecutedStep& es : survivor->actuator().journal()) {
      out.rollout_done_at = std::max(out.rollout_done_at, es.at);
    }
  }
  return out;
}

void ControllerFailoverSection() {
  std::printf("\n=== Fig 12(c): leader-controller failure during an assignment rollout ===\n");
  const CtlFailoverResult crashed = RunCtlFailover(/*crash_leader=*/true);
  const CtlFailoverResult control = RunCtlFailover(/*crash_leader=*/false);

  std::printf("%-46s %-14s\n", "metric", "measured");
  std::printf("%-46s %-14.1f\n", "time to new leader (ms, crash->lease)",
              crashed.new_leader_at > crashed.crash_at
                  ? sim::ToMillis(crashed.new_leader_at - crashed.crash_at)
                  : -1.0);
  std::printf("%-46s %-14.1f\n", "time to rollout complete (ms, crash->done)",
              crashed.rollout_done_at > crashed.crash_at
                  ? sim::ToMillis(crashed.rollout_done_at - crashed.crash_at)
                  : -1.0);
  std::printf("%-46s %-14.1f\n", "  rollout issued->done, with failover (ms)",
              crashed.rollout_done_at > crashed.rollout_at
                  ? sim::ToMillis(crashed.rollout_done_at - crashed.rollout_at)
                  : -1.0);
  std::printf("%-46s %-14.1f\n", "  rollout issued->done, no failure (ms)",
              control.rollout_done_at > control.rollout_at
                  ? sim::ToMillis(control.rollout_done_at - control.rollout_at)
                  : -1.0);
  std::printf("%-46s %s\n", "in-flight plan resumed by standby",
              crashed.resumed_at != 0 ? "yes" : "no");
  std::printf("%-46s %d of %d\n", "requests broken, with leader crash", crashed.broken,
              crashed.broken + crashed.completed);
  std::printf("%-46s %d of %d\n", "requests broken, same rollout no crash", control.broken,
              control.broken + control.completed);
  std::printf("%-46s %d\n", "requests impacted by the failover (delta)",
              crashed.broken - control.broken);
  std::printf("(expected: new leader within one lease TTL (300 ms) + restore; the broken-\n"
              " request delta is 0 — the data plane serves from its last programmed state\n"
              " throughout the failover, and only rollout migration itself perturbs flows)\n");
}

}  // namespace

int main() {
  std::printf("=== Figure 12(a): request latency CDF under 2/10 LB instance failures ===\n");
  std::printf("Paper: HAProxy-noretry breaks 24%% of affected flows; HAProxy-retry adds >30 s;\n");
  std::printf("       Yoda breaks none and adds 0.6-3 s to affected flows.\n\n");

  const int kProcesses = 40;
  const sim::Duration kDuration = sim::Sec(20);
  const sim::Duration kFailAt = sim::Sec(5);

  ScenarioResult yoda = RunScenario(/*use_yoda=*/true, /*browser_retry=*/false, kProcesses,
                                    kDuration, kFailAt);
  ScenarioResult ha_noretry = RunScenario(false, false, kProcesses, kDuration, kFailAt);
  ScenarioResult ha_retry = RunScenario(false, true, kProcesses, kDuration, kFailAt);

  PrintCdfRow("Yoda-noretry", yoda);
  PrintCdfRow("HAProxy-noretry", ha_noretry);
  PrintCdfRow("HAProxy-retry", ha_retry);

  std::printf("\n--- Yoda takeover recovery time (crash -> survivor adoption, from traces) ---\n");
  std::printf("takeovers %d | P50 %7.0f ms  P90 %7.0f ms  P99 %7.0f ms  max %7.0f ms\n",
              static_cast<int>(yoda.recovery_ms.count()), yoda.recovery_ms.Percentile(50),
              yoda.recovery_ms.Percentile(90), yoda.recovery_ms.Percentile(99),
              yoda.recovery_ms.Max());
  std::printf("(paper: 0.6-3 s — one 600 ms monitor round plus TCP retransmission backoff)\n");

  std::printf("\n%-44s %-14s %-14s\n", "metric", "paper", "measured");
  std::printf("%-44s %-14s %d/%d\n", "Yoda broken flows", "0",
              yoda.broken, yoda.broken + yoda.completed);
  std::printf("%-44s %-14s %-14.2f\n", "Yoda max added latency (s)", "0.6-3",
              yoda.latency_s.Max());
  std::printf("%-44s %-14s %d of %d\n", "HAProxy-noretry broken (affected flows)", "24%",
              ha_noretry.broken, ha_noretry.inflight_at_failure);
  std::printf("%-44s %-14s %-14.2f\n", "HAProxy-retry max latency (s)", ">30",
              ha_retry.latency_s.Max());

  PacketTimelineSection();
  ControllerFailoverSection();
  return 0;
}
