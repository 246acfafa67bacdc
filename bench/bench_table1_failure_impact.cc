// Table 1: impact of a proxy failure that breaks ONE established connection,
// on six emulated websites.
//
// The paper emulated a proxy failure against real sites and observed either
// "page timed-out" (browser HTTP timeout, e.g. 5 min default in Firefox) or
// "session reset". We reproduce the mechanism: a browser loads a page (or
// holds a session connection) through an HAProxy-style proxy; the proxy dies
// mid-connection; the outcome and the user-visible delay are recorded.

#include <cstdio>
#include <string>
#include <vector>

#include "src/workload/testbed.h"

namespace {

struct SiteProfile {
  const char* name;
  bool session_oriented;        // Streaming/session sites see resets.
  sim::Duration http_timeout;   // Browser timeout for this site's client.
  const char* paper_impact;
};

struct Outcome {
  bool ok = false;
  bool timed_out = false;
  bool reset = false;
  double latency_s = 0;
  double baseline_s = 0;
  std::string metrics_table;  // Registry snapshot of the site's testbed.
  std::string fault_timeline;  // kFaultInjected/kFaultCleared system events.
};

std::string FaultTimeline(const workload::Testbed& tb) {
  std::string out;
  for (const obs::TraceEvent& ev : tb.flight.system_events()) {
    if (ev.type != obs::EventType::kFaultInjected &&
        ev.type != obs::EventType::kFaultCleared) {
      continue;
    }
    char line[128];
    std::snprintf(line, sizeof(line), "  t=%8.1f ms  %s  %-12s @ %s\n", sim::ToMillis(ev.at),
                  ev.type == obs::EventType::kFaultInjected ? "apply" : "clear",
                  fault::FaultKindName(static_cast<fault::FaultKind>(ev.detail)),
                  obs::FormatIp(ev.where).c_str());
    out += line;
  }
  return out;
}

Outcome RunSite(const SiteProfile& site) {
  workload::TestbedConfig cfg;
  cfg.yoda_instances = 1;
  cfg.baseline_proxies = 1;
  cfg.backends = 3;
  workload::Testbed tb(cfg);
  tb.InstallProxyRules(tb.EqualSplitRules(0, cfg.backends));

  // Pick a page with several embedded objects.
  const workload::Page& page = tb.catalog->PageAt(3);

  workload::FetchOptions opts;
  opts.http_timeout = site.http_timeout;
  opts.retries = 0;

  Outcome out;

  // Baseline load (no failure) for reference.
  {
    bool done = false;
    tb.clients[0]->FetchPage(tb.proxy_ip(0), 80, page.html_url, page.embedded, opts,
                             [&](const workload::FetchResult& r) {
                               out.baseline_s = sim::ToSeconds(r.latency);
                               done = true;
                             });
    tb.sim.Run();
    if (!done) {
      out.metrics_table = tb.metrics.TextTable();
      return out;
    }
  }

  // The failure run: kill the proxy while one connection is established.
  bool done = false;
  workload::FetchResult result;
  if (site.session_oriented) {
    // Session sites hold one long-lived connection; a big object stands in
    // for the stream. The proxy restarts quickly (supervisor), so the
    // client's next packets meet a state-less proxy -> RST -> session reset.
    const workload::WebObject* big = nullptr;
    for (const auto& o : tb.catalog->objects()) {
      if (o.size > 200'000) {
        big = &o;
        break;
      }
    }
    tb.clients[0]->FetchObject(tb.proxy_ip(0), 80, big->url, opts,
                               [&](const workload::FetchResult& r) {
                                 result = r;
                                 done = true;
                               });
    tb.sim.RunUntil(tb.sim.now() + sim::Msec(160));
    // Through the fault plane: crash then immediate cold restart — the
    // supervisor brings the process back with its TCP state gone.
    tb.faults->CrashNode(tb.proxy_ip(0));
    tb.faults->RestartNode(tb.proxy_ip(0), fault::FaultPlane::RestartMode::kCold);
  } else {
    tb.clients[0]->FetchPage(tb.proxy_ip(0), 80, page.html_url, page.embedded, opts,
                             [&](const workload::FetchResult& r) {
                               result = r;
                               done = true;
                             });
    // Kill mid-page (one object's connection is established and in flight);
    // the proxy host stays down: packets blackhole until the HTTP timeout.
    tb.sim.RunUntil(tb.sim.now() + sim::Msec(400));
    tb.faults->CrashNode(tb.proxy_ip(0));
  }
  tb.sim.Run();
  if (!done) {
    out.metrics_table = tb.metrics.TextTable();
    return out;
  }
  out.ok = result.ok;
  out.timed_out = result.timed_out;
  out.reset = result.reset;
  out.latency_s = sim::ToSeconds(result.latency);
  out.metrics_table = tb.metrics.TextTable();
  out.fault_timeline = FaultTimeline(tb);
  return out;
}

// Controller-failure class: the same page load, but the component that dies
// is the LEADER CONTROLLER of an HA Yoda control plane rather than the proxy
// carrying the connection. The connection rides through untouched — the
// data plane serves from its last programmed state while a standby recovers
// the lease — so the user-visible impact is "unaffected".
Outcome RunControllerFailure() {
  workload::TestbedConfig cfg;
  cfg.yoda_instances = 2;
  cfg.backends = 3;
  cfg.controllers = 3;
  workload::Testbed tb(cfg);
  tb.StartAllControllers();
  yoda::Controller* leader = tb.AwaitLeader();
  Outcome out;
  if (leader == nullptr) {
    return out;
  }
  leader->DefineVip(tb.vip(), 80, tb.EqualSplitRules(0, cfg.backends));
  tb.sim.RunUntil(tb.sim.now() + sim::Msec(100));

  const workload::Page& page = tb.catalog->PageAt(3);
  workload::FetchOptions opts;
  opts.http_timeout = sim::Minutes(5);
  opts.retries = 0;

  // Baseline (no failure).
  {
    bool done = false;
    tb.clients[0]->FetchPage(tb.vip(), 80, page.html_url, page.embedded, opts,
                             [&](const workload::FetchResult& r) {
                               out.baseline_s = sim::ToSeconds(r.latency);
                               done = true;
                             });
    tb.sim.Run();
    if (!done) {
      return out;
    }
  }

  // The failure run: kill the lease holder while the page is in flight.
  bool done = false;
  workload::FetchResult result;
  tb.clients[0]->FetchPage(tb.vip(), 80, page.html_url, page.embedded, opts,
                           [&](const workload::FetchResult& r) {
                             result = r;
                             done = true;
                           });
  tb.sim.RunUntil(tb.sim.now() + sim::Msec(400));
  for (int i = 0; i < tb.controller_count(); ++i) {
    yoda::Controller* c = tb.ControllerAt(i);
    if (!c->crashed() && c->ActingLeader()) {
      tb.CrashController(i);
      break;
    }
  }
  tb.sim.Run();
  if (!done) {
    return out;
  }
  out.ok = result.ok;
  out.timed_out = result.timed_out;
  out.reset = result.reset;
  out.latency_s = sim::ToSeconds(result.latency);
  return out;
}

}  // namespace

int main() {
  std::printf("=== Table 1: impact of proxy failure on emulated websites ===\n");
  std::printf("Paper: one broken connection => page timed-out (nytimes, reddit, stanford)\n");
  std::printf("       or session reset (vimeo, soundcloud, email service).\n\n");

  const std::vector<SiteProfile> sites = {
      {"nytimes", false, sim::Minutes(5), "page timed-out"},
      {"reddit", false, sim::Minutes(5), "page timed-out"},
      {"stanford", false, sim::Minutes(5), "page timed-out"},
      {"vimeo", true, sim::Minutes(5), "session reset"},
      {"soundcloud", true, sim::Minutes(5), "session reset"},
      {"email service", true, sim::Minutes(5), "session reset"},
  };

  std::printf("%-16s %-18s %-20s %-14s %-12s\n", "website", "paper impact",
              "measured impact", "load time (s)", "baseline (s)");
  std::string last_table;
  std::string last_faults;
  for (const SiteProfile& site : sites) {
    Outcome out = RunSite(site);
    last_table = std::move(out.metrics_table);
    last_faults = std::move(out.fault_timeline);
    std::string impact;
    if (out.reset) {
      impact = "session reset";
    } else if (out.timed_out) {
      impact = "page timed-out";
    } else if (out.ok) {
      impact = "unaffected";
    } else {
      impact = "failed";
    }
    std::printf("%-16s %-18s %-20s %-14.1f %-12.2f\n", site.name, site.paper_impact,
                impact.c_str(), out.latency_s, out.baseline_s);
  }
  // The contrast row: kill the Yoda HA control plane's leader instead of the
  // proxy. No connection breaks; the page loads at baseline speed.
  {
    Outcome out = RunControllerFailure();
    std::string impact;
    if (out.reset) {
      impact = "session reset";
    } else if (out.timed_out) {
      impact = "page timed-out";
    } else if (out.ok) {
      impact = "unaffected";
    } else {
      impact = "failed";
    }
    std::printf("%-16s %-18s %-20s %-14.1f %-12.2f\n", "yoda-ctl-crash", "unaffected (Yoda)",
                impact.c_str(), out.latency_s, out.baseline_s);
  }

  std::printf("\nMechanism check: page sites hang for the full browser HTTP timeout\n");
  std::printf("(blackholed proxy); session sites see an immediate RST from the\n");
  std::printf("restarted, state-less proxy process.\n");
  std::printf("\n--- fault-plane timeline (last site's run, from the flight recorder) ---\n%s",
              last_faults.c_str());
  std::printf("\n--- metrics registry snapshot (last site's run) ---\n%s", last_table.c_str());
  return 0;
}
