#include "src/core/tcp_store.h"

#include <memory>
#include <utility>

namespace yoda {

TcpStore::TcpStore(kv::ReplicatingClient* client)
    : client_(client), sim_(client->simulator()) {
  obs::Registry& registry = sim_->registry();
  ctr_.connection_writes = &registry.GetCounter("tcpstore.connection_writes");
  ctr_.tunneling_writes = &registry.GetCounter("tcpstore.tunneling_writes");
  ctr_.lookups = &registry.GetCounter("tcpstore.lookups");
  ctr_.lookup_hits = &registry.GetCounter("tcpstore.lookup_hits");
  ctr_.deletes = &registry.GetCounter("tcpstore.deletes");
}

void TcpStore::Trace(const obs::FlowId& flow, obs::EventType type, std::uint64_t detail) {
  sim_->recorder().Record(flow, sim_->now(), type, /*where=*/0, detail);
}

void TcpStore::StoreConnectionState(const FlowState& state, Ack done) {
  ++stats_.connection_writes;
  ctr_.connection_writes->Inc();
  const obs::FlowId flow = FlowIdOf(state);
  Trace(flow, obs::EventType::kStorageAWriteStart);
  const std::string key =
      ClientFlowKey(state.vip, state.vip_port, state.client_ip, state.client_port);
  client_->Set(key, state.Serialize(),
               [this, flow, done = std::move(done)](bool ok) {
                 Trace(flow, obs::EventType::kStorageAWriteDone, ok ? 1 : 0);
                 done(ok);
               });
}

void TcpStore::StoreTunnelingState(const FlowState& state, Ack done) {
  ++stats_.tunneling_writes;
  ctr_.tunneling_writes->Inc();
  const obs::FlowId flow = FlowIdOf(state);
  Trace(flow, obs::EventType::kStorageBWriteStart);
  const std::string ckey =
      ClientFlowKey(state.vip, state.vip_port, state.client_ip, state.client_port);
  const std::string skey =
      ServerFlowKey(state.backend_ip, state.backend_port, state.vip, state.client_port);
  auto pending = std::make_shared<int>(2);
  auto ok_all = std::make_shared<bool>(true);
  auto join = [this, flow, pending, ok_all, done = std::move(done)](bool ok) {
    *ok_all = *ok_all && ok;
    if (--*pending == 0) {
      Trace(flow, obs::EventType::kStorageBWriteDone, *ok_all ? 1 : 0);
      done(*ok_all);
    }
  };
  client_->Set(ckey, state.Serialize(), join);
  client_->Set(skey, ckey, join);
}

void TcpStore::LookupByClient(net::IpAddr vip, net::Port vip_port, net::IpAddr client_ip,
                              net::Port client_port, Lookup done) {
  ++stats_.lookups;
  ctr_.lookups->Inc();
  const obs::FlowId flow{vip, vip_port, client_ip, client_port};
  Trace(flow, obs::EventType::kStoreLookupStart);
  const std::string key = ClientFlowKey(vip, vip_port, client_ip, client_port);
  client_->Get(key, [this, flow, done = std::move(done)](std::optional<std::string> v) {
    if (!v) {
      Trace(flow, obs::EventType::kStoreLookupDone, 0);
      done(std::nullopt);
      return;
    }
    auto state = FlowState::Parse(*v);
    if (state) {
      ++stats_.lookup_hits;
      ctr_.lookup_hits->Inc();
    }
    Trace(flow, obs::EventType::kStoreLookupDone, state ? 1 : 0);
    done(state);
  });
}

void TcpStore::LookupByServer(net::IpAddr backend_ip, net::Port backend_port, net::IpAddr vip,
                              net::Port client_port, Lookup done) {
  ++stats_.lookups;
  ctr_.lookups->Inc();
  // No client-side FlowId until the reverse mapping resolves, so only the
  // lookup completion is traced (against the recovered flow).
  const std::string skey = ServerFlowKey(backend_ip, backend_port, vip, client_port);
  client_->Get(skey, [this, done = std::move(done)](std::optional<std::string> ckey) {
    if (!ckey) {
      done(std::nullopt);
      return;
    }
    client_->Get(*ckey, [this, done](std::optional<std::string> v) {
      if (!v) {
        done(std::nullopt);
        return;
      }
      auto state = FlowState::Parse(*v);
      if (state) {
        ++stats_.lookup_hits;
        ctr_.lookup_hits->Inc();
        Trace(FlowIdOf(*state), obs::EventType::kStoreLookupDone, 1);
      }
      done(state);
    });
  });
}

void TcpStore::Remove(const FlowState& state, Ack done) {
  ++stats_.deletes;
  ctr_.deletes->Inc();
  const std::string ckey =
      ClientFlowKey(state.vip, state.vip_port, state.client_ip, state.client_port);
  if (state.stage != FlowStage::kTunneling) {
    client_->Delete(ckey, std::move(done));
    return;
  }
  const std::string skey =
      ServerFlowKey(state.backend_ip, state.backend_port, state.vip, state.client_port);
  auto pending = std::make_shared<int>(2);
  auto join = [pending, done = std::move(done)](bool) {
    if (--*pending == 0) {
      done(true);
    }
  };
  client_->Delete(ckey, join);
  client_->Delete(skey, join);
}

}  // namespace yoda
