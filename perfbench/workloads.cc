#include "perfbench/workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <thread>

#include "perfbench/layer_trace.h"
#include "src/obs/analyzer.h"
#include "src/sim/sharded_sim.h"
#include "src/workload/testbed.h"

namespace perfbench {
namespace {

// Every workload defines its VIP, rolls out its store mode and lets the
// control plane settle before the first request is due.
constexpr sim::Time kLoadStart = sim::Msec(300);

// The testbed (catalog, network jitter, instance RNGs) is the same for every
// run; the benchmark seed picks only the request stream, so runs with
// different seeds differ in their inputs and nothing else.
constexpr std::uint64_t kTestbedSeed = 42;

// failover_placed timeline (absolute sim time).
constexpr sim::Time kCrashAt = sim::Sec(3);
constexpr sim::Time kRestartAt = sim::Sec(6);
constexpr sim::Time kRuleUpdateAt = sim::Sec(7);
constexpr sim::Time kAddSpareAt = sim::Sec(8);

struct Spec {
  const char* name;
  int shards;
  int workers;
  yoda::StoreMode mode;
  bool pages;            // Page loads over one keep-alive connection each,
                         // else one HTTP/1.0 object per connection.
  double rate;           // Arrivals per second of sim time (objects or pages).
  sim::Duration load;    // Length of the load window.
  bool small_catalog;    // 60 objects of 10 KB (Fig 13), else the paper catalog.
  bool failover;         // Crash / restart / rule update / scale-out timeline.
};

const Spec kSpecs[] = {
    {"fig13_small_stateful", 1, 1, yoda::StoreMode::kStateful, false, 15'000, sim::Msec(1000),
     true, false},
    {"paper_pages_stateless", 1, 1, yoda::StoreMode::kStateless, true, 300, sim::Msec(5000),
     false, false},
    // Three workers, not four: on a 4-vCPU host the fourth worker competes
    // with run.py and the OS, and one delayed worker stalls every barrier.
    // 1,300 req/s, not 6,000: each client takes ephemeral ports upward from
    // its own start, as little as 1,000 ports below another client's. At
    // 6,000 req/s a client reaches port numbers another client used around
    // the crash, and 0-6 requests per seed time out at 30 s (each failure
    // examined reused such a port). At 1,300 req/s no client gets that far
    // before the load ends, and no request fails.
    {"failover_placed", 8, 3, yoda::StoreMode::kStateful, false, 1'300, sim::Msec(8700), true,
     true},
};

const Spec* FindSpec(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) {
      return &s;
    }
  }
  return nullptr;
}

double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KB on Linux.
}

// The testbed and the engine it is placed on; the testbed dies first.
struct Bed {
  std::unique_ptr<sim::ShardedSim> engine;
  std::unique_ptr<workload::Testbed> tb;
};

// Never more workers than shards or hardware threads.
int Workers(const Spec& spec, const RunOptions& o) {
  const int hw = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return std::clamp(o.workers > 0 ? o.workers : spec.workers, 1, std::min(spec.shards, hw));
}

// Testbed construction, catalog build, VIP definition and store-mode
// rollout, up to the first request.
Bed Build(const Spec& spec, const RunOptions& o) {
  Bed bed;
  sim::ShardedSim::Config ecfg;
  ecfg.shards = spec.shards;
  ecfg.workers = Workers(spec, o);
  bed.engine = std::make_unique<sim::ShardedSim>(ecfg);

  workload::TestbedConfig cfg;
  cfg.seed = kTestbedSeed;
  cfg.engine = bed.engine.get();
  cfg.yoda_instances = 6;
  cfg.spare_instances = spec.failover ? 1 : 0;
  cfg.backends = 10;
  cfg.clients = 10;
  cfg.kv_servers = 4;
  if (spec.small_catalog) {
    cfg.catalog.objects = 60;
    cfg.catalog.median_size = 10'000;
    cfg.catalog.sigma = 0.02;
    cfg.catalog.min_size = 9'800;
    cfg.catalog.max_size = 10'200;
  }
  bed.tb = std::make_unique<workload::Testbed>(cfg);
  workload::Testbed& tb = *bed.tb;
  tb.controller->DefineVip(tb.vip(), 80, tb.EqualSplitRules(0, cfg.backends));
  if (spec.mode == yoda::StoreMode::kStateless) {
    tb.controller->SetStoreMode(tb.vip(), spec.mode);
  }
  tb.controller->Start();
  bed.engine->RunUntil(kLoadStart);
  return bed;
}

// Re-attaches every instance, backend, client and VIP address to a wrapper.
void WrapNodes(workload::Testbed& tb, std::vector<std::unique_ptr<TracedNode>>* wrappers) {
  auto wrap = [&](net::IpAddr ip, net::Node* node, Layer layer, net::Region region) {
    wrappers->push_back(std::make_unique<TracedNode>(node, layer, tb.OwnerShardOf(ip)));
    tb.network.Attach(ip, wrappers->back().get(), region);
  };
  for (auto& inst : tb.instances) {
    wrap(inst->ip(), inst.get(), Layer::kCore, net::Region::kDatacenter);
  }
  for (auto& inst : tb.spares) {
    wrap(inst->ip(), inst.get(), Layer::kCore, net::Region::kDatacenter);
  }
  for (auto& srv : tb.servers) {
    wrap(srv->ip(), srv.get(), Layer::kBackend, net::Region::kDatacenter);
  }
  for (auto& c : tb.clients) {
    wrap(c->ip(), c.get(), Layer::kClient, net::Region::kInternet);
  }
  wrap(tb.vip(), &tb.fabric, Layer::kL4lb, net::Region::kDatacenter);
}

// Outcome tally of one client's requests; touched only on the client's shard.
struct ClientLoad {
  explicit ClientLoad(std::uint64_t seed) : rng(seed) {}
  sim::Rng rng;
  std::vector<sim::Duration> latency;  // Successful requests only.
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t resets = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t digest = 1469598103934665603ULL;  // FNV-1a over outcomes.
  std::vector<std::string> bad;
  std::shared_ptr<std::function<void()>> tick;

  void Mix(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      digest = (digest ^ ((v >> (8 * b)) & 0xff)) * 1099511628211ULL;
    }
  }

  // Checks one response against the catalog: status 200 and exactly the
  // object's byte count.
  void Account(const workload::FetchResult& r, const std::string& url,
               const workload::WebObject* obj, sim::Duration latency_ns) {
    int outcome = 0;
    if (r.ok && r.status == 200 && obj != nullptr && r.bytes == obj->size) {
      ++ok;
      latency.push_back(latency_ns);
    } else if (r.timed_out) {
      ++timeouts;
      outcome = 1;
    } else if (r.reset) {
      ++resets;
      outcome = 2;
    } else {
      ++mismatches;
      outcome = 3;
      if (bad.size() < 20) {
        bad.push_back(url + " status=" + std::to_string(r.status) +
                      " bytes=" + std::to_string(r.bytes) + " expected=" +
                      (obj != nullptr ? std::to_string(obj->size) : "unknown"));
      }
    }
    Mix(static_cast<std::uint64_t>(latency_ns));
    Mix(static_cast<std::uint64_t>(outcome));
  }
};

// Starts one client's open-loop Poisson source on the client's own shard:
// arrivals are drawn in sim time, so the generator is never late.
void StartLoad(const Spec& spec, workload::Testbed& tb, std::size_t index, ClientLoad* cl) {
  workload::BrowserClient* client = tb.clients[index].get();
  sim::Simulator* csim = tb.SimFor(tb.OwnerShardOf(client->ip()));
  const workload::ObjectCatalog* catalog = tb.catalog.get();
  const double mean_gap = static_cast<double>(tb.clients.size()) / spec.rate;
  const sim::Time end = kLoadStart + spec.load;
  const net::IpAddr vip = tb.vip();
  const bool pages = spec.pages;
  cl->tick = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak_tick = cl->tick;
  *cl->tick = [cl, client, csim, catalog, mean_gap, end, vip, pages, weak_tick]() {
    if (csim->now() >= end) {
      return;
    }
    if (pages) {
      const workload::Page& page = catalog->PageAt(static_cast<std::size_t>(
          cl->rng.UniformInt(0, static_cast<std::int64_t>(catalog->pages().size()) - 1)));
      std::vector<std::string> urls;
      urls.reserve(page.embedded.size() + 1);
      urls.push_back(page.html_url);
      urls.insert(urls.end(), page.embedded.begin(), page.embedded.end());
      cl->attempted += urls.size();
      client->FetchSequence(
          vip, 80, urls, {},
          [cl, catalog, &page](std::vector<workload::FetchResult> results) {
            // Each result's latency runs from the sequence start; a request's
            // own latency starts when the previous response completed, which
            // is when it was sent.
            sim::Duration prev = 0;
            const std::size_t n = page.embedded.size() + 1;
            for (std::size_t i = 0; i < n; ++i) {
              const std::string& url = i == 0 ? page.html_url : page.embedded[i - 1];
              if (i < results.size()) {
                cl->Account(results[i], url, catalog->Find(url), results[i].latency - prev);
                prev = results[i].latency;
              } else {
                // Never sent: the connection failed earlier in the sequence.
                workload::FetchResult unsent = results.empty() ? workload::FetchResult{}
                                                               : results.back();
                unsent.ok = false;
                cl->Account(unsent, url, catalog->Find(url), 0);
              }
            }
          });
    } else {
      const workload::WebObject& obj = catalog->objects()[static_cast<std::size_t>(
          cl->rng.UniformInt(0, static_cast<std::int64_t>(catalog->objects().size()) - 1))];
      ++cl->attempted;
      client->FetchObject(vip, 80, obj.url, {}, [cl, &obj](const workload::FetchResult& r) {
        cl->Account(r, obj.url, &obj, r.latency);
      });
    }
    if (auto self = weak_tick.lock()) {
      csim->After(sim::FromSeconds(cl->rng.Exponential(mean_gap)), *self);
    }
  };
  std::function<void()>* tick = cl->tick.get();
  csim->At(kLoadStart + sim::FromSeconds(cl->rng.Exponential(mean_gap)), [tick]() { (*tick)(); });
}

// Fig 12 crash, cold restart, Fig 14 make-before-break rule update and a
// scale-out, conducted from the controller's shard.
void ScheduleFailover(workload::Testbed& tb, sim::ShardedSim& engine) {
  sim::Simulator& conductor = engine.shard(tb.cfg.placement.controller_shard);
  conductor.At(kCrashAt, [&tb]() {
    tb.CrashInstance(0);
    tb.CrashInstance(1);
  });
  conductor.At(kRestartAt, [&tb]() { tb.RestartInstance(0); });
  conductor.At(kRuleUpdateAt, [&tb]() {
    tb.controller->UpdateVipRules(tb.vip(), tb.EqualSplitRules(2, tb.cfg.backends - 2, "r-v2"));
  });
  conductor.At(kAddSpareAt, [&tb]() {
    tb.controller->AddInstance(tb.spares.back().get());
    std::vector<net::IpAddr> pool;
    for (auto* inst : tb.controller->ActiveInstances()) {
      pool.push_back(inst->ip());
    }
    tb.fabric.SetVipPoolStaggered(tb.vip(), pool, sim::Msec(50));
  });
}

// --- reading the program's own instruments ---

std::uint64_t SumCounter(workload::Testbed& tb, const std::string& name) {
  std::uint64_t total = 0;
  for (int s = 0; s < tb.lane_count(); ++s) {
    tb.metrics_lane(s).ForEach([&](const obs::Registry::Row& row) {
      if (row.counter != nullptr && *row.name == name) {
        total += row.counter->value();
      }
    });
  }
  return total;
}

sim::Histogram MergeHistogram(workload::Testbed& tb, const std::string& name) {
  sim::Histogram merged;
  for (int s = 0; s < tb.lane_count(); ++s) {
    tb.metrics_lane(s).ForEach([&](const obs::Registry::Row& row) {
      if (row.histogram != nullptr && *row.name == name) {
        merged.MergeFrom(*row.histogram);
      }
    });
  }
  return merged;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Nearest-rank percentile of sorted samples, in ms.
double PercentileMs(const std::vector<sim::Duration>& sorted, double p) {
  if (sorted.empty()) {
    return 0.0;
  }
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(sorted.size())));
  return sim::ToMillis(sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1]);
}

std::uint64_t ExecutedEvents(sim::ShardedSim& engine) {
  std::uint64_t total = 0;
  for (int s = 0; s < engine.shards(); ++s) {
    total += engine.shard(s).executed_events();
  }
  return total;
}

std::uint64_t Dropped(const net::NetworkStats& st) {
  return st.dropped_loss + st.dropped_down + st.dropped_unroutable + st.dropped_fault;
}

// Figures read from the program's public stats and registry instruments
// after the run. All of them are sim-time quantities or counts, so they
// repeat exactly for a seed.
void ReadInstruments(const Spec& spec, workload::Testbed& tb, sim::ShardedSim& engine,
                     double requests, std::uint64_t events0, const net::NetworkStats& net0,
                     const std::vector<double>& kv_busy0, const std::vector<double>& kv_busy1,
                     std::map<std::string, double>& m) {
  m["sim.events_per_req"] = Ratio(static_cast<double>(ExecutedEvents(engine) - events0), requests);
  double high_water = 0;
  for (int s = 0; s < engine.shards(); ++s) {
    high_water += static_cast<double>(engine.shard(s).queue_high_water());
  }
  m["sim.queue_high_water"] = high_water;

  const net::NetworkStats& net1 = tb.network.stats();
  m["net.packets_per_req"] = Ratio(static_cast<double>(net1.sent - net0.sent), requests);
  m["net.drops_per_kreq"] =
      Ratio(1000.0 * static_cast<double>(Dropped(net1) - Dropped(net0)), requests);
  m["net.packet_pool_slots"] = static_cast<double>(tb.network.packet_pool_slots());

  m["core.rules_scanned_per_selection"] =
      Ratio(static_cast<double>(SumCounter(tb, "yoda.rules_scanned_total")),
            static_cast<double>(SumCounter(tb, "yoda.selections")));
  yoda::StoreSessionStats st;
  auto add_session = [&st](const yoda::YodaInstance& inst) {
    const yoda::StoreSessionStats& s = inst.store_session().stats();
    st.ack_point_writes += s.ack_point_writes;
    st.sync_removes += s.sync_removes;
    st.journal_flushes += s.journal_flushes;
    st.journal_entries_flushed += s.journal_entries_flushed;
  };
  for (auto& inst : tb.instances) {
    add_session(*inst);
  }
  for (auto& inst : tb.spares) {
    add_session(*inst);
  }
  m["core.sync_store_ops_per_req"] =
      Ratio(static_cast<double>(st.ack_point_writes + st.sync_removes), requests);
  m["core.journal_entries_per_flush"] = Ratio(static_cast<double>(st.journal_entries_flushed),
                                              static_cast<double>(st.journal_flushes));
  m["core.lookup_hit_ratio"] = Ratio(static_cast<double>(SumCounter(tb, "tcpstore.lookup_hits")),
                                     static_cast<double>(SumCounter(tb, "tcpstore.lookups")));
  m["core.reswitches_per_req"] =
      Ratio(static_cast<double>(SumCounter(tb, "yoda.reswitches")), requests);
  m["core.handshake_ms_p50"] = MergeHistogram(tb, "yoda.stage.handshake_ms").Percentile(50);
  m["core.dispatch_ms_p50"] = MergeHistogram(tb, "yoda.stage.dispatch_ms").Percentile(50);
  m["core.server_connect_ms_p50"] =
      MergeHistogram(tb, "yoda.stage.server_connect_ms").Percentile(50);
  const sim::Histogram store_wait = MergeHistogram(tb, "yoda.stage.store_ms");
  m["core.store_wait_ms_p50"] = store_wait.Percentile(50);
  m["core.store_wait_ms_p99"] = store_wait.Percentile(99);
  m["core.takeover_ms_p99"] = MergeHistogram(tb, "yoda.stage.takeover_ms").Percentile(99);

  const double takeovers = static_cast<double>(SumCounter(tb, "yoda.takeovers_client_side") +
                                               SumCounter(tb, "yoda.takeovers_server_side"));
  m["core.takeovers_per_kreq"] = Ratio(1000.0 * takeovers, requests);
  m["core.takeover_cookie_share"] =
      Ratio(static_cast<double>(SumCounter(tb, "yoda.takeovers_cookie")), takeovers);
  m["core.takeover_misses"] = static_cast<double>(SumCounter(tb, "yoda.takeover_misses"));

  // Crash-to-adoption times and crash-to-detection time.
  std::vector<sim::Duration> adoption;
  double detect_ms = 0;
  if (spec.failover) {
    for (int s = 0; s < tb.lane_count(); ++s) {
      for (const obs::TakeoverRecord& rec : obs::TakeoverTimeline(tb.flight_lane(s))) {
        if (rec.event.at >= kCrashAt) {
          adoption.push_back(rec.event.at - kCrashAt);
        }
      }
    }
    for (const obs::TraceEvent& ev :
         tb.flight_lane(tb.cfg.placement.controller_shard).system_events()) {
      if (ev.type == obs::EventType::kInstanceDown && ev.at >= kCrashAt) {
        detect_ms = sim::ToMillis(ev.at - kCrashAt);
        break;
      }
    }
  }
  std::sort(adoption.begin(), adoption.end());
  m["core.takeover_recovery_p50_ms"] = PercentileMs(adoption, 0.5);
  m["core.takeover_recovery_max_ms"] = adoption.empty() ? 0.0 : sim::ToMillis(adoption.back());
  m["core.failure_detect_ms"] = detect_ms;
  m["core.reconcile_steps"] = static_cast<double>(SumCounter(tb, "controller.reconcile.steps"));
  m["core.step_retries"] =
      static_cast<double>(SumCounter(tb, "controller.reconcile.step_retries"));

  const sim::Histogram set_us = MergeHistogram(tb, "kv.client.set_latency_us");
  m["kv.set_latency_us_p50"] = set_us.Percentile(50);
  m["kv.set_latency_us_p99"] = set_us.Percentile(99);
  m["kv.get_latency_us_p99"] = MergeHistogram(tb, "kv.client.get_latency_us").Percentile(99);
  double kv_ops = 0;
  double kv_items = 0;
  double kv_util_max = 0;
  const double window = static_cast<double>(spec.load);
  for (std::size_t i = 0; i < tb.kv_servers.size(); ++i) {
    const kv::KvServerStats& ks = tb.kv_servers[i]->stats();
    kv_ops += static_cast<double>(ks.gets + ks.sets + ks.deletes + ks.cas_ops);
    kv_items += static_cast<double>(tb.kv_servers[i]->item_count());
    kv_util_max = std::max(kv_util_max, (kv_busy1[i] - kv_busy0[i]) / window);
  }
  m["kv.server_ops_per_req"] = Ratio(kv_ops, requests);
  m["kv.server_cpu_util_max"] = kv_util_max;
  m["kv.replica_timeouts"] = static_cast<double>(SumCounter(tb, "kv.client.replica_timeouts"));
  m["kv.items_at_end"] = kv_items;

  double flows = 0;
  double dropped_flows = 0;
  for (int s = 0; s < tb.lane_count(); ++s) {
    flows += static_cast<double>(tb.flight_lane(s).flow_count());
    dropped_flows += static_cast<double>(tb.flight_lane(s).dropped_flows());
  }
  m["obs.flight_flows_recorded"] = flows;
  m["obs.flight_dropped_flows"] = dropped_flows;
}

// Host-time figures of the traced run, from the wrapper spans and the
// allocation hooks.
void LayerFigures(const LayerTotals& lt, int shards, double requests, double cpu_s,
                  std::map<std::string, double>& m) {
  auto idx = [](Layer l) { return static_cast<std::size_t>(l); };
  for (Layer l : {Layer::kL4lb, Layer::kCore}) {
    const std::string name = LayerName(l);
    const auto pkts = static_cast<double>(lt.packets[idx(l)]);
    m[name + ".host_ns_per_pkt"] = Ratio(static_cast<double>(lt.self_ns[idx(l)]), pkts);
    m[name + ".packets_per_req"] = Ratio(pkts, requests);
    m[name + ".allocs_per_pkt"] = Ratio(static_cast<double>(lt.allocs[idx(l)]), pkts);
  }
  for (Layer l : {Layer::kClient, Layer::kBackend}) {
    const std::string name = LayerName(l);
    m[name + ".host_ns_per_req"] = Ratio(static_cast<double>(lt.self_ns[idx(l)]), requests);
    m[name + ".allocs_per_req"] = Ratio(static_cast<double>(lt.allocs[idx(l)]), requests);
  }
  double wrapped_ns = 0;
  for (int l = 0; l < kWrappedLayers; ++l) {
    const auto self_ns = static_cast<double>(lt.self_ns[static_cast<std::size_t>(l)]);
    wrapped_ns += self_ns;
    m[std::string("self_ms.") + LayerName(static_cast<Layer>(l))] = self_ns / 1e6;
  }
  const double other_ns = std::max(0.0, cpu_s * 1e9 - wrapped_ns);
  m["self_ms.sim"] = other_ns / 1e6;
  m["sim.other_host_ns_per_req"] = Ratio(other_ns, requests);
  m["sim.allocs_per_req"] = Ratio(static_cast<double>(lt.allocs[idx(Layer::kOther)]), requests);
  double busy_max = 0;
  double busy_sum = 0;
  for (int s = 0; s < shards; ++s) {
    const auto b = static_cast<double>(lt.shard_busy_ns[static_cast<std::size_t>(s)]);
    busy_max = std::max(busy_max, b);
    busy_sum += b;
  }
  m["sim.shard_busy_imbalance"] = Ratio(busy_max, busy_sum / shards);
  m["trace.spans"] = static_cast<double>(lt.spans);
}

}  // namespace

bool KnownWorkload(const std::string& name) { return FindSpec(name) != nullptr; }

std::vector<double> TimeSetups(const RunOptions& options, int reps) {
  std::vector<double> out;
  const Spec* spec = FindSpec(options.workload);
  for (int r = 0; spec != nullptr && r < reps; ++r) {
    const double t0 = NowSeconds();
    Bed bed = Build(*spec, options);
    out.push_back(NowSeconds() - t0);
  }
  return out;
}

bool RunWorkload(const RunOptions& o, RunReport* rep, std::string* error) {
  const Spec* spec = FindSpec(o.workload);
  if (spec == nullptr) {
    *error = "unknown workload '" + o.workload + "'";
    return false;
  }
  const double setup0 = NowSeconds();
  Bed bed = Build(*spec, o);
  rep->host["setup_s"] = NowSeconds() - setup0;
  workload::Testbed& tb = *bed.tb;
  sim::ShardedSim& engine = *bed.engine;

  std::vector<std::unique_ptr<TracedNode>> wrappers;
  if (o.traced) {
    WrapNodes(tb, &wrappers);
  }
  std::vector<std::unique_ptr<ClientLoad>> loads;
  for (std::size_t i = 0; i < tb.clients.size(); ++i) {
    loads.push_back(std::make_unique<ClientLoad>(
        o.seed ^ (0xB3AC11E5ULL + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(i + 1))));
    StartLoad(*spec, tb, i, loads.back().get());
  }
  if (spec->failover) {
    ScheduleFailover(tb, engine);
  }
  // KV server busy time at the edges of the load window; the closing read
  // runs on each server's own shard.
  const std::size_t n_kv = tb.kv_servers.size();
  std::vector<double> kv_busy0(n_kv);
  std::vector<double> kv_busy1(n_kv);
  const sim::Time load_end = kLoadStart + spec->load;
  for (std::size_t i = 0; i < n_kv; ++i) {
    kv::KvServer* server = tb.kv_servers[i].get();
    const auto t = static_cast<double>(kLoadStart);
    kv_busy0[i] = server->CpuUtilization(kLoadStart) * t;
    double* out = &kv_busy1[i];
    engine.shard(tb.OwnerShardOf(tb.kv_ip(static_cast<int>(i))))
        .At(
            load_end,
            [server, out, load_end]() {
              *out = server->CpuUtilization(load_end) * static_cast<double>(load_end);
            },
            /*daemon=*/true);
  }
  const std::uint64_t events0 = ExecutedEvents(engine);
  const net::NetworkStats net0 = tb.network.stats();

  if (o.traced) {
    BeginWindow();
  }
  const double cpu0 = CpuSeconds();
  const double wall0 = NowSeconds();
  engine.Run();
  const double wall = NowSeconds() - wall0;
  const double cpu = CpuSeconds() - cpu0;
  const double heap_peak = static_cast<double>(HeapPeakBytes());
  LayerTotals totals;
  if (o.traced) {
    totals = EndWindow();
  }

  // Merge the clients in index order: worker-count invariant.
  ClientLoad all(0);
  for (const auto& cl : loads) {
    all.attempted += cl->attempted;
    all.ok += cl->ok;
    all.timeouts += cl->timeouts;
    all.resets += cl->resets;
    all.mismatches += cl->mismatches;
    all.latency.insert(all.latency.end(), cl->latency.begin(), cl->latency.end());
    all.Mix(cl->digest);
    rep->mismatches.insert(rep->mismatches.end(), cl->bad.begin(), cl->bad.end());
  }
  std::sort(all.latency.begin(), all.latency.end());
  const double finished =
      static_cast<double>(all.ok + all.timeouts + all.resets + all.mismatches);
  const double failed = finished - static_cast<double>(all.ok);

  std::map<std::string, double>& m = rep->sim;
  m["requests_attempted"] = static_cast<double>(all.attempted);
  m["requests_finished"] = finished;
  m["requests_ok"] = static_cast<double>(all.ok);
  m["requests_failed"] = failed;
  m["client.timeouts"] = static_cast<double>(all.timeouts);
  m["client.resets"] = static_cast<double>(all.resets);
  m["body_mismatches"] = static_cast<double>(all.mismatches);
  m["failed_ratio"] = Ratio(failed, static_cast<double>(all.attempted));
  m["latency_p50_ms"] = PercentileMs(all.latency, 0.50);
  m["latency_p99_ms"] = PercentileMs(all.latency, 0.99);
  m["latency_p999_ms"] = PercentileMs(all.latency, 0.999);
  m["latency_samples"] = static_cast<double>(all.latency.size());
  m["latency_samples_beyond_p999"] =
      static_cast<double>(all.latency.size()) -
      std::ceil(0.999 * static_cast<double>(all.latency.size()));
  m["sim_end_ms"] = sim::ToMillis(engine.now());
  // 52 bits of the outcome digest: exact in a double.
  m["outcome_digest"] = static_cast<double>(all.digest & ((1ULL << 52) - 1));
  ReadInstruments(*spec, tb, engine, finished, events0, net0, kv_busy0, kv_busy1, m);

  std::map<std::string, double>& h = rep->host;
  h["workers"] = engine.workers();
  h["run_wall_s"] = wall;
  h["run_cpu_s"] = cpu;
  h["requests_per_s"] = Ratio(finished, wall);
  h["host_us_per_request"] = Ratio(cpu * 1e6, finished);
  h["peak_rss_mb"] = PeakRssMb();

  if (o.traced) {
    LayerFigures(totals, spec->shards, finished, cpu, rep->layers);
    rep->layers["heap.peak_live_mb"] = heap_peak / (1024.0 * 1024.0);
    if (!o.spans_path.empty() && !WriteSpans(o.spans_path)) {
      *error = "cannot write spans to " + o.spans_path;
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
