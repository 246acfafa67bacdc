#include "src/core/yoda_instance.h"

#include <algorithm>
#include <utility>

#include "src/sim/placement.h"

namespace yoda {
namespace {

obs::Labels InstanceLabels(net::IpAddr ip) { return {{"instance", obs::FormatIp(ip)}}; }

}  // namespace

YodaInstance::YodaInstance(sim::Simulator* simulator, net::Network* network,
                           l4lb::L4Fabric* fabric, TcpStore* store, std::uint64_t seed,
                           YodaInstanceConfig config)
    : sim_(simulator),
      net_(network),
      fabric_(fabric),
      rng_(seed),
      cfg_(config),
      cpu_(config.cpu_costs, config.cores),
      store_session_(store, simulator,
                     simulator->registry().GetHistogram("yoda.stage.store_ms",
                                                        InstanceLabels(config.ip)),
                     simulator->registry().GetHistogram("yoda.store.journal_flush_depth",
                                                        InstanceLabels(config.ip))),
      handshake_(&pipe_),
      dispatcher_(&pipe_),
      splice_(&pipe_),
      takeover_(&pipe_) {
  obs::Registry& registry = sim_->registry();
  const obs::Labels labels = InstanceLabels(cfg_.ip);
  auto counter = [&](const char* name) { return &registry.GetCounter(name, labels); };
  ctr_.flows_started = counter("yoda.flows_started");
  ctr_.flows_completed = counter("yoda.flows_completed");
  ctr_.takeovers_client_side = counter("yoda.takeovers_client_side");
  ctr_.takeovers_server_side = counter("yoda.takeovers_server_side");
  ctr_.takeovers_cookie = counter("yoda.takeovers_cookie");
  ctr_.cookie_rejects = counter("yoda.cookie_rejects");
  ctr_.takeover_misses = counter("yoda.takeover_misses");
  ctr_.takeover_retries = counter("yoda.takeover_retries");
  ctr_.packets_tunneled = counter("yoda.packets_tunneled");
  ctr_.reswitches = counter("yoda.reswitches");
  ctr_.rules_scanned_total = counter("yoda.rules_scanned_total");
  ctr_.selections = counter("yoda.selections");
  ctr_.no_backend_resets = counter("yoda.no_backend_resets");
  ctr_.dropped_unknown_vip = counter("yoda.dropped_unknown_vip");
  ctr_.bad_transition_resets = counter("yoda.bad_transition_resets");
  fenced_writes_ctr_ = counter("yoda.fenced_writes");
  auto histogram = [&](const char* name) { return &registry.GetHistogram(name, labels); };
  stage_.handshake_ms = histogram("yoda.stage.handshake_ms");
  stage_.dispatch_ms = histogram("yoda.stage.dispatch_ms");
  stage_.server_connect_ms = histogram("yoda.stage.server_connect_ms");
  stage_.store_ms = histogram("yoda.stage.store_ms");
  stage_.takeover_ms = histogram("yoda.stage.takeover_ms");
  stage_.connection_phase_ms = histogram("yoda.connection_phase_ms");
  store_session_.set_liveness(&failed_);
  store_session_.set_journal_flush_interval(cfg_.journal_flush_interval);
  // Fig 10's "sets per request" plus the journal demotion counters, computed
  // from the session stats at export time.
  auto provider_gauge = [&](const char* name, std::function<double()> fn) {
    obs::Gauge& g = registry.GetGauge(name, labels);
    g.SetProvider(std::move(fn));
    provider_gauges_.push_back(&g);
  };
  provider_gauge("yoda.store.sets_per_request", [this]() {
    const StoreSessionStats& st = store_session_.stats();
    const double flows = static_cast<double>(ctr_.flows_started->value());
    return static_cast<double>(st.ack_point_writes + st.sync_removes) /
           std::max(1.0, flows);
  });
  provider_gauge("yoda.store.journal_appends", [this]() {
    return static_cast<double>(store_session_.stats().journal_appends);
  });
  provider_gauge("yoda.store.journal_coalesced", [this]() {
    return static_cast<double>(store_session_.stats().journal_coalesced);
  });
  provider_gauge("yoda.store.journal_flushes", [this]() {
    return static_cast<double>(store_session_.stats().journal_flushes);
  });

  pipe_.sim = sim_;
  pipe_.net = net_;
  pipe_.fabric = fabric_;
  pipe_.store = &store_session_;
  pipe_.rng = &rng_;
  pipe_.cpu = &cpu_;
  pipe_.cfg = &cfg_;
  pipe_.self_ip = cfg_.ip;
  pipe_.failed = &failed_;
  pipe_.flows = &flow_table_;
  pipe_.vips = &vips_;
  pipe_.backend_health = &backend_health_;
  pipe_.backend_load = &backend_load_;
  pipe_.ctr = &ctr_;
  pipe_.stage = &stage_;
  pipe_.handshake = &handshake_;
  pipe_.dispatcher = &dispatcher_;
  pipe_.splice = &splice_;
  pipe_.takeover = &takeover_;
  pipe_.count_new_connection = [this](net::IpAddr vip) {
    traffic_[vip].new_connections += 1;
    VipCountersFor(vip).new_connections->Inc();
  };

  net_->Attach(cfg_.ip, this);
  if (cfg_.flow_idle_timeout > 0) {
    ArmIdleScan();
  }
}

YodaInstance::~YodaInstance() {
  for (obs::Gauge* g : provider_gauges_) {
    g->Set(g->value());  // Freeze: the provider captures `this`.
  }
}

void YodaInstance::ArmIdleScan() {
  sim_->After(
      cfg_.idle_scan_interval,
      [this]() {
        IdleScan();
        ArmIdleScan();
      },
      /*daemon=*/true);
}

void YodaInstance::IdleScan() {
  if (failed_ || cfg_.flow_idle_timeout <= 0) {
    return;
  }
  const sim::Time now = sim_->now();
  const sim::Time deadline =
      now > cfg_.flow_idle_timeout ? now - cfg_.flow_idle_timeout : 0;
  for (const FlowKey& key : flow_table_.CollectIdle(deadline)) {
    pipe_.CleanupFlow(key, /*remove_from_store=*/true);
  }
}

YodaInstanceStats YodaInstance::stats() const {
  YodaInstanceStats s;
  s.flows_started = ctr_.flows_started->value();
  s.flows_completed = ctr_.flows_completed->value();
  s.takeovers_client_side = ctr_.takeovers_client_side->value();
  s.takeovers_server_side = ctr_.takeovers_server_side->value();
  s.takeovers_cookie = ctr_.takeovers_cookie->value();
  s.cookie_rejects = ctr_.cookie_rejects->value();
  s.takeover_misses = ctr_.takeover_misses->value();
  s.takeover_retries = ctr_.takeover_retries->value();
  s.packets_tunneled = ctr_.packets_tunneled->value();
  s.reswitches = ctr_.reswitches->value();
  s.rules_scanned_total = ctr_.rules_scanned_total->value();
  s.selections = ctr_.selections->value();
  s.no_backend_resets = ctr_.no_backend_resets->value();
  s.dropped_unknown_vip = ctr_.dropped_unknown_vip->value();
  s.bad_transition_resets = ctr_.bad_transition_resets->value();
  s.fenced_writes = fenced_writes_ctr_->value();
  return s;
}

YodaInstance::VipCounters& YodaInstance::VipCountersFor(net::IpAddr vip) {
  auto it = vip_counters_.find(vip);
  if (it == vip_counters_.end()) {
    const obs::Labels labels{{"instance", obs::FormatIp(cfg_.ip)},
                             {"vip", obs::FormatIp(vip)}};
    VipCounters c;
    c.new_connections = &sim_->registry().GetCounter("yoda.vip.new_connections", labels);
    c.bytes = &sim_->registry().GetCounter("yoda.vip.bytes", labels);
    it = vip_counters_.emplace(vip, c).first;
  }
  return it->second;
}

bool YodaInstance::StaleControlToken(std::uint64_t token) {
  if (token == 0) {
    return false;  // Unfenced writes always apply (single-controller mode).
  }
  if (token < control_token_) {
    fenced_writes_ctr_->Inc();
    sim_->recorder().RecordSystem(sim_->now(), obs::EventType::kFencedWrite, cfg_.ip,
                                  (token << 32) | (control_token_ & 0xffffffffULL));
    return true;  // A deposed leader's write; the fleet has moved on.
  }
  control_token_ = token;
  return false;
}

bool YodaInstance::InstallVip(net::IpAddr vip, net::Port vip_port,
                              std::vector<rules::Rule> vip_rules, std::uint64_t token) {
  sim::AssertOnOwnerShard(*sim_);
  if (StaleControlToken(token)) {
    return false;
  }
  VipState& state = vips_[vip];
  state.vip_port = vip_port;
  state.table.ReplaceAll(std::move(vip_rules));
  // The backend set only grows on rule updates: flows established under the
  // old policy keep their backend (§5.2), so packets from retired backends
  // must still classify as server-side traffic.
  for (const rules::Rule& r : state.table.rules()) {
    for (const rules::Backend& b : r.action.backends) {
      state.backends.insert(b.ip);
    }
  }
  return true;
}

void YodaInstance::InstallVipTls(net::IpAddr vip, std::string certificate,
                                 std::uint64_t service_key) {
  vips_[vip].tls = VipTls{std::move(certificate), service_key};
}

bool YodaInstance::RemoveVip(net::IpAddr vip, std::uint64_t token) {
  sim::AssertOnOwnerShard(*sim_);
  if (StaleControlToken(token)) {
    return false;
  }
  // Drain before withdrawing: every in-flight flow gets an explicit RST
  // (and its TCPStore keys removed) instead of silently leaking until the
  // idle GC. Sticky bindings and the rule table die with the VipState.
  for (const FlowKey& key : flow_table_.CollectVip(vip)) {
    pipe_.ResetFlowToClient(key, obs::FlowResetReason::kVipRemoved);
  }
  vips_.erase(vip);
  traffic_.erase(vip);
  vip_counters_.erase(vip);
  return true;
}

int YodaInstance::RuleCount(net::IpAddr vip) const {
  auto it = vips_.find(vip);
  return it == vips_.end() ? 0 : static_cast<int>(it->second.table.size());
}

bool YodaInstance::SetBackendHealth(net::IpAddr backend, bool healthy, std::uint64_t token) {
  sim::AssertOnOwnerShard(*sim_);
  if (StaleControlToken(token)) {
    return false;
  }
  backend_health_[backend] = healthy;
  return true;
}

bool YodaInstance::SetStoreMode(net::IpAddr vip, StoreMode mode, std::uint64_t epoch,
                                std::uint64_t token) {
  sim::AssertOnOwnerShard(*sim_);
  if (StaleControlToken(token)) {
    return false;
  }
  VipState* state = FindVip(vip);
  if (state == nullptr) {
    return false;
  }
  state->store_mode = mode;
  state->store_epoch = epoch;
  sim_->recorder().RecordSystem(sim_->now(), obs::EventType::kStoreModeSet, vip,
                                (static_cast<std::uint64_t>(mode) << 32) |
                                    (epoch & 0xffffffffULL));
  return true;
}

void YodaInstance::Fail() {
  sim::AssertOnOwnerShard(*sim_);
  failed_ = true;
  flow_table_.Clear();
  traffic_.clear();
  backend_load_.clear();
  // Unflushed journal entries die with the instance: whoever adopts the flow
  // either reconstructs it from the cookie or finds the last flushed state.
  store_session_.DropJournal();
}

void YodaInstance::Recover() {
  sim::AssertOnOwnerShard(*sim_);
  failed_ = false;
}

void YodaInstance::OnColdRestart() {
  Fail();
  Recover();
}

VipState* YodaInstance::FindVip(net::IpAddr vip) {
  auto it = vips_.find(vip);
  return it == vips_.end() ? nullptr : &it->second;
}

void YodaInstance::MeterVip(net::IpAddr vip, const net::Packet& p) {
  traffic_[vip].bytes += p.payload.size();
  VipCountersFor(vip).bytes->Add(p.payload.size());
}

std::map<net::IpAddr, VipTraffic> YodaInstance::DrainTrafficCounters() {
  std::map<net::IpAddr, VipTraffic> out(traffic_.begin(), traffic_.end());
  traffic_.clear();
  return out;
}

void YodaInstance::HandlePacket(const net::Packet& p) {
  sim::AssertOnOwnerShard(*sim_);
  if (failed_) {
    return;
  }
  VipState* vip = FindVip(p.dst);
  if (vip == nullptr) {
    ctr_.dropped_unknown_vip->Inc();
    return;
  }
  MeterVip(p.dst, p);
  if (p.dport == vip->vip_port) {
    LocalFlow* f = flow_table_.Find(FlowKey{p.dst, p.dport, p.src, p.sport});
    if (f != nullptr) {
      f->last_packet = sim_->now();
    }
    HandleClientSide(p, *vip);
  } else if (flow_table_.HasServer(p.tuple()) || vip->backends.contains(p.src)) {
    HandleServerSide(p, *vip);
  } else {
    ctr_.dropped_unknown_vip->Inc();
  }
}

void YodaInstance::HandleClientSide(const net::Packet& p, VipState& vip) {
  const FlowKey key{p.dst, p.dport, p.src, p.sport};

  if (p.syn() && !p.ack_flag()) {
    handshake_.OnClientSyn(p, vip);
    return;
  }

  LocalFlow* flow = flow_table_.Find(key);
  if (flow == nullptr) {
    takeover_.TakeoverClientSide(key, p);
    return;
  }
  if (flow->lookup_pending()) {
    flow->stalled.push_back(p);
    return;
  }

  if (p.rst()) {
    if (flow->established()) {
      net::Packet rst = p;
      rst.src = key.vip;
      rst.sport = key.client_port;
      rst.dst = flow->st.backend_ip;
      rst.dport = flow->st.backend_port;
      rst.seq = p.seq + flow->st.seq_delta_c2s;
      rst.ack = p.ack - flow->st.seq_delta_s2c;
      rst.encap_dst = 0;
      pipe_.EmitForwarded(std::move(rst));
    }
    pipe_.Trace(key, obs::EventType::kFlowReset,
                static_cast<std::uint64_t>(obs::FlowResetReason::kClientAbort));
    pipe_.CleanupFlow(key, /*remove_from_store=*/true);
    return;
  }

  if (flow->established()) {
    splice_.TunnelFromClient(key, *flow, vip, p);
  } else {
    dispatcher_.OnClientData(key, *flow, vip, p);
  }
}

void YodaInstance::HandleServerSide(const net::Packet& p, VipState& vip) {
  const FlowKey* bound = flow_table_.FindServer(p.tuple());
  if (bound == nullptr) {
    takeover_.TakeoverServerSide(p, vip);
    return;
  }
  const FlowKey key = *bound;
  LocalFlow* flow = flow_table_.Find(key);
  if (flow == nullptr) {
    flow_table_.UnbindServer(p.tuple());
    takeover_.TakeoverServerSide(p, vip);
    return;
  }
  flow->last_packet = sim_->now();
  if (flow->lookup_pending()) {
    flow->stalled.push_back(p);
    return;
  }
  // Mirror-leg traffic is handled outside the primary path. Once a winner
  // is promoted it IS the primary, so only undecided or losing legs match.
  if (!flow->mirror_legs.empty() &&
      !(flow->mirror_decided && p.src == flow->st.backend_ip &&
        p.sport == flow->st.backend_port) &&
      splice_.HandleMirrorPacket(key, *flow, p)) {
    return;
  }
  if (p.syn() && p.ack_flag()) {
    if (!flow->established()) {
      handshake_.OnServerSynAck(key, *flow, p);
    } else {
      // Duplicate SYN-ACK: re-ack at the current position.
      net::Packet ack;
      ack.src = key.vip;
      ack.sport = key.client_port;
      ack.dst = flow->st.backend_ip;
      ack.dport = flow->st.backend_port;
      ack.seq = flow->assembled_end + flow->st.seq_delta_c2s;
      ack.ack = flow->st.server_isn + 1;
      ack.flags = net::kAck;
      pipe_.Emit(std::move(ack));
    }
    return;
  }
  if (p.rst()) {
    net::Packet rst = p;
    rst.src = key.vip;
    rst.sport = key.vip_port;
    rst.dst = key.client_ip;
    rst.dport = key.client_port;
    rst.seq = p.seq + flow->st.seq_delta_s2c;
    rst.ack = p.ack - flow->st.seq_delta_c2s;
    rst.encap_dst = 0;
    pipe_.EmitForwarded(std::move(rst));
    pipe_.CleanupFlow(key, /*remove_from_store=*/true);
    return;
  }
  if (flow->established()) {
    splice_.TunnelFromServer(key, *flow, p);
  }
}

}  // namespace yoda
