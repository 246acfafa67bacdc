#include "src/workload/testbed.h"

#include <algorithm>
#include <cstdio>

namespace workload {
namespace {

// std::visit over a set of lambdas.
template <typename... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};

}  // namespace

Testbed::Testbed(TestbedConfig config)
    : own_engine_(config.engine == nullptr
                      ? std::make_unique<sim::ShardedSim>(sim::ShardedSim::Config{1, 1})
                      : nullptr),
      cfg(std::move(config)),
      sim(cfg.engine != nullptr ? *cfg.engine : *own_engine_),
      metrics(sim.shard(0).registry()),
      flight(sim.shard(0).recorder()),
      // Attach stamps each endpoint with OwnerShardOf(ip); the fabric is
      // constructed on ITS owning shard's simulator so its timers and packets
      // run where its state lives.
      network(&sim, cfg.seed ^ 0x6e6574ULL, [this](net::IpAddr ip) { return OwnerShardOf(ip); }),
      fabric(&sim.shard(cfg.placement.fabric_shard), &network, cfg.muxes) {
  cfg.engine = &sim;
  cfg.placement.shards = sim.shards();
  const int ctl_shard = cfg.placement.controller_shard;
  network.SetLatency(net::Region::kDatacenter, net::Region::kDatacenter, cfg.dc_latency,
                     cfg.dc_jitter);
  network.SetLatency(net::Region::kDatacenter, net::Region::kInternet, cfg.internet_latency,
                     cfg.internet_jitter);
  network.SetLatency(net::Region::kInternet, net::Region::kInternet, cfg.internet_latency,
                     cfg.internet_jitter);

  // TCPStore fleet: each replica runs on its owning shard.
  for (int i = 0; i < cfg.kv_servers; ++i) {
    kv_servers.push_back(std::make_unique<kv::KvServer>(
        SimFor(cfg.placement.KvShard(i)), "kv-" + std::to_string(i), cfg.kv));
  }
  std::vector<kv::KvServer*> kv_ptrs;
  for (auto& s : kv_servers) {
    kv_ptrs.push_back(s.get());
  }
  // Op messages to a replica hop to its shard and answers hop home.
  kv::ReplicatingClientConfig kv_client_cfg = cfg.kv_client;
  kv_client_cfg.replicas = cfg.kv_replicas;

  if (cfg.build_catalog) {
    sim::Rng catalog_rng(cfg.seed ^ 0x636174ULL);
    catalog = std::make_unique<ObjectCatalog>(catalog_rng, cfg.catalog);
  }

  // Yoda instances (+ spares). Each pipeline runs on its owning shard with
  // its OWN store client (its KV op bookkeeping and timers must live on its
  // shard, not the controller's).
  for (int i = 0; i < cfg.yoda_instances + cfg.spare_instances; ++i) {
    const int shard = cfg.placement.InstanceShard(i);
    yoda::YodaInstanceConfig icfg = cfg.instance_template;
    icfg.ip = instance_ip(i);
    instance_kv_clients.push_back(
        std::make_unique<kv::ReplicatingClient>(SimFor(shard), kv_ptrs, kv_client_cfg));
    instance_stores.push_back(
        std::make_unique<yoda::TcpStore>(instance_kv_clients.back().get()));
    auto inst = std::make_unique<yoda::YodaInstance>(SimFor(shard), &network, &fabric,
                                                     instance_stores.back().get(),
                                                     cfg.seed ^ (0x1000ULL + i), icfg);
    if (i < cfg.yoda_instances) {
      instances.push_back(std::move(inst));
    } else {
      spares.push_back(std::move(inst));
    }
  }

  // Baseline proxies.
  for (int i = 0; i < cfg.baseline_proxies; ++i) {
    baseline::ProxyConfig pcfg = cfg.proxy_template;
    pcfg.ip = proxy_ip(i);
    proxies.push_back(std::make_unique<baseline::ProxyInstance>(
        SimFor(cfg.placement.ProxyShard(i)), &network, cfg.seed ^ (0x2000ULL + i), pcfg));
  }

  // Backend web servers.
  for (int i = 0; i < cfg.backends; ++i) {
    HttpServerConfig scfg = cfg.server_template;
    scfg.ip = backend_ip(i);
    scfg.processing_delay = cfg.server_processing;
    scfg.tcp = cfg.server_tcp;
    servers.push_back(std::make_unique<HttpServerNode>(SimFor(cfg.placement.BackendShard(i)),
                                                       &network, catalog.get(),
                                                       cfg.seed ^ (0x3000ULL + i), scfg));
  }

  // Clients (Internet region).
  for (int i = 0; i < cfg.clients; ++i) {
    clients.push_back(std::make_unique<BrowserClient>(SimFor(cfg.placement.ClientShard(i)),
                                                      &network, client_ip(i),
                                                      cfg.seed ^ (0x4000ULL + i)));
  }

  // Control plane on its shard; the actuator routes every instance-state
  // write (rules, backend health, scrubs) onto the instance's own shard.
  yoda::ControllerConfig ctl_cfg = cfg.controller;
  if (cfg.controllers > 1) {
    ctl_kv_client = std::make_unique<kv::ReplicatingClient>(SimFor(ctl_shard), kv_ptrs,
                                                            kv_client_cfg);
    ctl_cfg.ha.enabled = true;
    ctl_cfg.ha.store = ctl_kv_client.get();
    if (ctl_cfg.max_step_retries == 0) {
      ctl_cfg.max_step_retries = 5;  // HA template default: bounded retries.
    }
  }
  for (int r = 0; r < std::max(1, cfg.controllers); ++r) {
    ctl_cfg.ha.self = controller_ip(r);
    auto replica = std::make_unique<yoda::Controller>(SimFor(ctl_shard), &network, &fabric,
                                                      ctl_cfg);
    for (auto& inst : instances) {
      replica->AddInstance(inst.get());
    }
    for (auto& inst : spares) {
      replica->AddSpareInstance(inst.get());
    }
    for (auto& s : kv_servers) {
      replica->AddKvServer(s.get());
    }
    for (int i = 0; i < cfg.backends; ++i) {
      replica->AddBackend(backend_ip(i));
    }
    if (r == 0) {
      controller = std::move(replica);
    } else {
      standbys.push_back(std::move(replica));
    }
  }

  // Fault plane last: it installs itself as the network's fault hook and
  // needs the component lists above to route crash/restart/kv-slow events.
  // It is conducted from the controller shard (the scenario timeline fires
  // there), so its timers and recorder live there.
  faults = std::make_unique<fault::FaultPlane>(SimFor(ctl_shard), &network,
                                               cfg.seed ^ 0x66617574ULL);
  // The handlers are the one place an address becomes a component (the
  // ComponentAt decode). Component mutations run on the component's owning
  // shard (RunOn); SetNodeDown already replicates to every lane internally.
  // Controllers and KV servers live off-network (their store clients talk to
  // the KV servers directly), so their crash and restart touch no endpoint.
  // An address that names no component is a no-op.
  faults->set_crash_handler([this](net::IpAddr ip) {
    const int shard = OwnerShardOf(ip);
    std::visit(Overloaded{[](std::monostate) {},
                          // Stop acting and stop renewing the lease.
                          [&](yoda::Controller* c) { sim.RunOn(shard, [c]() { c->Crash(); }); },
                          [&](kv::KvServer* s) { sim.RunOn(shard, [s]() { s->Fail(); }); },
                          // Instance, backend or proxy: state gone, address blackholed.
                          [&](auto* node) {
                            sim.RunOn(shard, [node]() { node->Fail(); });
                            network.SetNodeDown(ip, true);
                          }},
               ComponentAt(ip));
  });
  faults->set_restart_handler([this](net::IpAddr ip, fault::FaultPlane::RestartMode mode) {
    const int shard = OwnerShardOf(ip);
    std::visit(Overloaded{[](std::monostate) {},
                          // Re-enters the lease contest as a standby.
                          [&](yoda::Controller* c) { sim.RunOn(shard, [c]() { c->Restart(); }); },
                          // memcached comes back empty in both modes: RAM is gone.
                          [&](kv::KvServer* s) { sim.RunOn(shard, [s]() { s->Recover(); }); },
                          [&](auto* node) {
                            if (mode == fault::FaultPlane::RestartMode::kCold) {
                              network.RestartNode(ip);  // OnColdRestart clears state, revives.
                              return;
                            }
                            sim.RunOn(shard, [node]() { node->Recover(); });
                            network.SetNodeDown(ip, false);
                          }},
               ComponentAt(ip));
  });
  faults->set_kv_slow_handler([this](net::IpAddr ip, sim::Duration d) {
    const Component c = ComponentAt(ip);
    if (kv::KvServer* const* s = std::get_if<kv::KvServer*>(&c)) {
      sim.RunOn(OwnerShardOf(ip), [s = *s, d]() { s->set_response_delay(d); });
    }
  });
}

int Testbed::OwnerShardOf(net::IpAddr ip) const {
  const sim::IntraPlacement& pl = cfg.placement;
  // Testbed address plan: the second octet identifies the component kind,
  // the host octet its index (see the header comment).
  const int subnet = static_cast<int>((ip >> 16) & 0xff);
  const int idx = static_cast<int>(ip & 0xff) - 1;
  switch (subnet) {
    case 0:
      return pl.controller_shard;
    case 1:
      return pl.InstanceShard(idx);
    case 2:
      return pl.KvShard(idx);
    case 3:
      return pl.BackendShard(idx);
    case 4:
      return pl.ProxyShard(idx);
    case 9:
      return pl.ClientShard(idx);
    case 200:
      return pl.fabric_shard;
    default:
      return pl.controller_shard;
  }
}

Testbed::Component Testbed::ComponentAt(net::IpAddr ip) {
  // Same decode as OwnerShardOf: the second octet names the kind, the host
  // octet the index. The address must be exactly the plan's address for
  // that index, and the index must name a built component.
  const int subnet = static_cast<int>((ip >> 16) & 0xff);
  const int idx = static_cast<int>(ip & 0xff) - 1;
  if (idx < 0 || ip != net::MakeIp(10, static_cast<std::uint8_t>(subnet), 0,
                                    static_cast<std::uint8_t>(idx + 1))) {
    return {};
  }
  const auto i = static_cast<std::size_t>(idx);
  // Element k of a component list, or monostate past its end.
  auto at = [](const auto& list, std::size_t k) {
    return k < list.size() ? Component(list[k].get()) : Component();
  };
  switch (subnet) {
    case 0:
      return idx < controller_count() ? Component(ControllerAt(idx)) : Component();
    case 1:  // Instances, then spares.
      return i < instances.size() ? at(instances, i) : at(spares, i - instances.size());
    case 2:
      return at(kv_servers, i);
    case 3:
      return at(servers, i);
    case 4:
      return at(proxies, i);
    default:
      return {};
  }
}

void Testbed::StartAllControllers() {
  for (int i = 0; i < controller_count(); ++i) {
    ControllerAt(i)->Start();
  }
}

yoda::Controller* Testbed::LeaderController() {
  for (int i = 0; i < controller_count(); ++i) {
    yoda::Controller* c = ControllerAt(i);
    if (c->ActingLeader()) {
      return c;
    }
  }
  return nullptr;
}

yoda::Controller* Testbed::AwaitLeader(sim::Duration max_wait) {
  const sim::Time deadline = sim.now() + max_wait;
  while (LeaderController() == nullptr && sim.now() < deadline) {
    sim.RunUntil(std::min(deadline, sim.now() + sim::Msec(10)));
  }
  return LeaderController();
}

std::vector<rules::Rule> Testbed::EqualSplitRules(int first_backend, int count,
                                                  const std::string& name,
                                                  const std::string& url_glob) {
  rules::Rule r;
  r.name = name;
  r.priority = 1;
  r.match.url_glob = url_glob;
  r.action.type = rules::ActionType::kWeightedSplit;
  for (int i = 0; i < count; ++i) {
    r.action.backends.push_back(rules::Backend{backend_ip(first_backend + i), 80, 1.0});
  }
  return {r};
}

void Testbed::DefineDefaultVipAndStart() {
  controller->DefineVip(vip(0), 80, EqualSplitRules(0, cfg.backends));
  controller->Start();
}

void Testbed::InstallProxyRules(const std::vector<rules::Rule>& proxy_rules) {
  for (auto& p : proxies) {
    p->InstallRules(proxy_rules);
  }
}

void Testbed::PrintMetricsSnapshot(const char* title) {
  std::printf("\n--- %s ---\n", title);
  for (int s = 0; s < lane_count(); ++s) {
    std::printf("--- shard %d ---\n%s", s, metrics_lane(s).TextTable().c_str());
  }
}

}  // namespace workload
