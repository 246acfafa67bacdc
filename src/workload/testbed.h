// Testbed: one-call assembly of the paper's §7 evaluation environment —
// network fabric, L4 muxes, TCPStore (memcached fleet + replicating client),
// Yoda instances, controller, backend web servers, catalog and clients.
// Integration tests, examples and benches all build on this instead of
// hand-wiring sixty objects.
//
// Every testbed runs placed on a sim::ShardedSim: each component is built on
// its owning shard's simulator per `cfg.placement`, and time advances only
// through the engine (`tb.sim`). A testbed built without `cfg.engine` owns a
// 1-shard, 1-worker engine; everything else is the same code path.
//
// Default layout mirrors the Azure testbed: Yoda instances 10.1.0.x,
// TCPStore 10.2.0.x, backends 10.3.0.x, baseline proxies 10.4.0.x, clients
// 10.9.0.x (Internet region), VIPs 10.200.0.x.

#ifndef SRC_WORKLOAD_TESTBED_H_
#define SRC_WORKLOAD_TESTBED_H_

#include <memory>
#include <variant>
#include <vector>

#include "src/baseline/proxy_instance.h"
#include "src/core/controller.h"
#include "src/fault/fault_plane.h"
#include "src/core/tcp_store.h"
#include "src/core/yoda_instance.h"
#include "src/kv/kv_server.h"
#include "src/kv/replicating_client.h"
#include "src/l4lb/fabric.h"
#include "src/net/network.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/sim/placement.h"
#include "src/sim/sharded_sim.h"
#include "src/sim/simulator.h"
#include "src/workload/browser_client.h"
#include "src/workload/http_server_node.h"
#include "src/workload/object_catalog.h"

namespace workload {

struct TestbedConfig {
  std::uint64_t seed = 42;
  // The engine this testbed is placed on: each instance/backend/kv/client is
  // constructed on its owning shard's simulator per `placement` — the one
  // statement of its placement, which the network, fabric, store clients and
  // actuator read back from that simulator, as every component reads its
  // registry and flight recorder (see metrics_lane/flight_lane). Unset, the
  // testbed owns a 1-shard, 1-worker engine. The engine must outlive the
  // testbed, and its epoch window must not exceed the minimum cross-shard
  // latency (dc_latency and kv network_delay). Unsupported on more than one
  // shard: assignment rollouts / auto-scale (counter aggregation reads
  // instance state cross-shard) and fault-plane packet overlays (per-packet
  // draws would race).
  sim::ShardedSim* engine = nullptr;
  sim::IntraPlacement placement;
  int yoda_instances = 4;
  int spare_instances = 0;
  int baseline_proxies = 0;
  int kv_servers = 3;
  int kv_replicas = 2;
  int backends = 6;
  int muxes = 4;
  int clients = 4;
  // Latency model: campus clients to the Azure DC, and intra-DC.
  sim::Duration internet_latency = sim::Msec(33);
  sim::Duration internet_jitter = sim::Msec(3);
  sim::Duration dc_latency = sim::Usec(250);
  sim::Duration dc_jitter = sim::Usec(50);
  sim::Duration server_processing = sim::Msec(1);
  bool build_catalog = true;
  CatalogConfig catalog;
  yoda::YodaInstanceConfig instance_template;  // ip is overwritten per instance.
  baseline::ProxyConfig proxy_template;        // ip is overwritten per proxy.
  yoda::ControllerConfig controller;
  // Controller replica count (replica 0 is the `controller` member). One
  // (default) builds the single controller, identical to the seed. More than
  // one turns on HA: the replicas contend for the store-backed leader lease,
  // the testbed gives the control plane its own ReplicatingClient into the
  // same KV ring, enables bounded step retries (5, unless the template set
  // its own), and leaves every replica stopped until StartAllControllers().
  int controllers = 1;
  kv::KvServerConfig kv;
  kv::ReplicatingClientConfig kv_client;
  net::TcpConfig server_tcp;
  HttpServerConfig server_template;
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig config = {});
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  // --- address plan ---
  net::IpAddr controller_ip(int i) const { return net::MakeIp(10, 0, 0, static_cast<std::uint8_t>(i + 1)); }
  net::IpAddr instance_ip(int i) const { return net::MakeIp(10, 1, 0, static_cast<std::uint8_t>(i + 1)); }
  net::IpAddr kv_ip(int i) const { return net::MakeIp(10, 2, 0, static_cast<std::uint8_t>(i + 1)); }
  net::IpAddr backend_ip(int i) const { return net::MakeIp(10, 3, 0, static_cast<std::uint8_t>(i + 1)); }
  net::IpAddr proxy_ip(int i) const { return net::MakeIp(10, 4, 0, static_cast<std::uint8_t>(i + 1)); }
  net::IpAddr client_ip(int i) const { return net::MakeIp(10, 9, 0, static_cast<std::uint8_t>(i + 1)); }
  net::IpAddr vip(int i = 0) const { return net::MakeIp(10, 200, 0, static_cast<std::uint8_t>(i + 1)); }

  // Equal-weight split rule over backends [first, first+count).
  std::vector<rules::Rule> EqualSplitRules(int first_backend, int count,
                                           const std::string& name = "r-default",
                                           const std::string& url_glob = "*");

  // Defines vip(0) with an equal split over all backends and starts the
  // controller monitor.
  void DefineDefaultVipAndStart();

  // Installs rules on all baseline proxies.
  void InstallProxyRules(const std::vector<rules::Rule>& proxy_rules);

  // Uniform end-of-run observability dump used by benches and examples:
  // prints every shard's metrics registry, in shard order, as an aligned
  // text table under a "shard N" heading.
  void PrintMetricsSnapshot(const char* title = "metrics registry snapshot");

  // --- placement ---
  // Owning shard of an address under cfg.placement (controller_shard when
  // the address is outside the testbed plan).
  int OwnerShardOf(net::IpAddr ip) const;
  // Simulator that owns `shard`.
  sim::Simulator* SimFor(int shard) const { return &sim.shard(shard); }
  // Per-shard observability lanes: shard `s`'s lane is the registry and
  // flight recorder of its simulator, which every component placed there
  // reports into (no cross-thread writes). Report code merges the lanes in
  // shard order. Lane 0 is also `metrics`/`flight`, so a single-shard
  // testbed reads those directly.
  int lane_count() const { return sim.shards(); }
  obs::Registry& metrics_lane(int shard) { return SimFor(shard)->registry(); }
  obs::FlightRecorder& flight_lane(int shard) { return SimFor(shard)->recorder(); }

  // Crash and restart go through the fault plane and nowhere else, so every
  // one lands on the trace as a kFaultInjected system event. These wrappers
  // name an instance by index; any other component is crashed by address,
  // e.g. `faults->CrashNode(backend_ip(i))`. CrashInstance drops the
  // instance's state and blackholes its address; RestartInstance brings it
  // back warm (revive with state intact) or cold (Network::RestartNode ->
  // OnColdRestart).
  void CrashInstance(int i) { faults->CrashNode(instance_ip(i)); }
  void RestartInstance(int i, fault::FaultPlane::RestartMode mode =
                                  fault::FaultPlane::RestartMode::kCold) {
    faults->RestartNode(instance_ip(i), mode);
  }
  // KV replica answers, but `d` late (0 clears).
  void SlowKvServer(int i, sim::Duration d) { faults->SlowKv(kv_ip(i), d); }

  // --- controller HA helpers (builds with controllers > 1) ---
  int controller_count() const { return 1 + static_cast<int>(standbys.size()); }
  yoda::Controller* ControllerAt(int i) {
    return i == 0 ? controller.get() : standbys[static_cast<std::size_t>(i - 1)].get();
  }
  // Starts every replica (each contends for the lease; first CAS wins).
  void StartAllControllers();
  // The replica currently acting as leader, or nullptr during an interregnum.
  yoda::Controller* LeaderController();
  // Runs the simulation until some replica holds the lease (or max_wait).
  yoda::Controller* AwaitLeader(sim::Duration max_wait = sim::Sec(2));
  // Crash/restart through the fault plane, so the flight recorder sees the
  // kFaultInjected events (FaultKind kCrash / kRestartWarm) the failover
  // benches measure from.
  void CrashController(int i) { faults->CrashNode(controller_ip(i)); }
  void RestartController(int i) {
    faults->RestartNode(controller_ip(i), fault::FaultPlane::RestartMode::kWarm);
  }

  // --- components (construction order matters; declared accordingly) ---
 private:
  // The 1-shard engine of a testbed built without cfg.engine.
  std::unique_ptr<sim::ShardedSim> own_engine_;

 public:
  TestbedConfig cfg;  // cfg.engine is always set once constructed.
  // The engine every component runs on; time advances only through it.
  sim::ShardedSim& sim;
  // Lane 0 (metrics_lane(0) / flight_lane(0)).
  obs::Registry& metrics;
  obs::FlightRecorder& flight;
  net::Network network;
  l4lb::L4Fabric fabric;
  std::vector<std::unique_ptr<kv::KvServer>> kv_servers;
  // Control-plane store client (controllers > 1): the controllers journal
  // and contend for the lease through their own client into the same KV
  // ring.
  std::unique_ptr<kv::ReplicatingClient> ctl_kv_client;
  // Each instance pipeline gets its own store client + TCPStore on its
  // owning shard; op messages hop shards via the engine's mailboxes.
  std::vector<std::unique_ptr<kv::ReplicatingClient>> instance_kv_clients;
  std::vector<std::unique_ptr<yoda::TcpStore>> instance_stores;
  std::unique_ptr<ObjectCatalog> catalog;
  std::vector<std::unique_ptr<yoda::YodaInstance>> instances;
  std::vector<std::unique_ptr<yoda::YodaInstance>> spares;
  std::vector<std::unique_ptr<baseline::ProxyInstance>> proxies;
  std::vector<std::unique_ptr<HttpServerNode>> servers;
  std::vector<std::unique_ptr<BrowserClient>> clients;
  std::unique_ptr<yoda::Controller> controller;
  // HA standby replicas (replicas 1..controllers-1). Each sees the same
  // fleet as replica 0.
  std::vector<std::unique_ptr<yoda::Controller>> standbys;
  // Fault-injection plane: installed as the network's fault hook, seeded from
  // cfg.seed, with crash/restart/kv-slow handlers mapped to the components
  // above. With no faults scheduled it never draws, so same-seed runs stay
  // bit-identical to pre-fault-plane builds.
  std::unique_ptr<fault::FaultPlane> faults;

 private:
  // The component an address names under the address plan, or monostate
  // when it names none. The fault plane's handlers are the only callers.
  using Component = std::variant<std::monostate, yoda::Controller*, kv::KvServer*,
                                 yoda::YodaInstance*, HttpServerNode*, baseline::ProxyInstance*>;
  Component ComponentAt(net::IpAddr ip);
};

}  // namespace workload

#endif  // SRC_WORKLOAD_TESTBED_H_
