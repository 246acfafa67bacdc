#include "src/core/flow_table.h"

#include <utility>

namespace yoda {

LocalFlow* FlowTable::Find(const FlowKey& key) {
  auto it = flows_.find(key);
  return it == flows_.end() ? nullptr : it->second.get();
}

LocalFlow& FlowTable::Insert(const FlowKey& key, std::unique_ptr<LocalFlow> flow) {
  return *flows_.insert_or_assign(key, std::move(flow)).first->second;
}

void FlowTable::Erase(const FlowKey& key) { flows_.erase(key); }

void FlowTable::ForEach(const std::function<void(const FlowKey&, LocalFlow&)>& fn) {
  for (auto& [key, flow] : flows_) {
    fn(key, *flow);
  }
}

std::vector<FlowKey> FlowTable::CollectIdle(sim::Time idle_deadline) const {
  std::vector<FlowKey> out;
  for (const auto& [key, flow] : flows_) {
    if (!flow->lookup_pending() && flow->last_packet < idle_deadline) {
      out.push_back(key);
    }
  }
  return out;
}

std::vector<FlowKey> FlowTable::CollectVip(net::IpAddr vip) const {
  std::vector<FlowKey> out;
  for (const auto& [key, flow] : flows_) {
    if (key.vip == vip) {
      out.push_back(key);
    }
  }
  return out;
}

void FlowTable::BindServer(const net::FiveTuple& tuple, const FlowKey& key) {
  server_index_[tuple] = key;
}

void FlowTable::UnbindServer(const net::FiveTuple& tuple) { server_index_.erase(tuple); }

const FlowKey* FlowTable::FindServer(const net::FiveTuple& tuple) const {
  auto it = server_index_.find(tuple);
  return it == server_index_.end() ? nullptr : &it->second;
}

bool FlowTable::HasServer(const net::FiveTuple& tuple) const {
  return server_index_.contains(tuple);
}

void FlowTable::Clear() {
  flows_.clear();
  server_index_.clear();
}

}  // namespace yoda
