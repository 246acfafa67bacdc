// FlowTable: the instance's flow-state store, split out of YodaInstance.
//
// Owns the LocalFlow lifecycle — lookup, insert, idle collection, erase —
// keyed by the client-side FlowKey, plus the server-tuple reverse index that
// classifies return traffic.

#ifndef SRC_CORE_FLOW_TABLE_H_
#define SRC_CORE_FLOW_TABLE_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/core/local_flow.h"
#include "src/net/packet.h"
#include "src/sim/time.h"

namespace yoda {

class FlowTable {
 public:
  FlowTable() = default;
  FlowTable(const FlowTable&) = delete;
  FlowTable& operator=(const FlowTable&) = delete;

  LocalFlow* Find(const FlowKey& key);
  // Inserts (replacing any existing entry) and returns the stored flow.
  LocalFlow& Insert(const FlowKey& key, std::unique_ptr<LocalFlow> flow);
  void Erase(const FlowKey& key);

  std::size_t size() const { return flows_.size(); }

  // Visits every flow (deterministic for a fixed insert history within one
  // run).
  void ForEach(const std::function<void(const FlowKey&, LocalFlow&)>& fn);

  // Keys with no packets since `idle_deadline` that are not waiting on a
  // takeover lookup — the idle-scan GC set.
  std::vector<FlowKey> CollectIdle(sim::Time idle_deadline) const;
  // Every key belonging to `vip` (VIP teardown drain).
  std::vector<FlowKey> CollectVip(net::IpAddr vip) const;

  // --- server-side reverse index (return-path classification) ---
  void BindServer(const net::FiveTuple& tuple, const FlowKey& key);
  void UnbindServer(const net::FiveTuple& tuple);
  // Null when the tuple is unknown (takeover candidate).
  const FlowKey* FindServer(const net::FiveTuple& tuple) const;
  bool HasServer(const net::FiveTuple& tuple) const;
  std::size_t server_index_size() const { return server_index_.size(); }

  // Drops all flows and index entries (instance crash).
  void Clear();

 private:
  std::unordered_map<FlowKey, std::unique_ptr<LocalFlow>, FlowKeyHash> flows_;
  std::unordered_map<net::FiveTuple, FlowKey, net::FiveTupleHash> server_index_;
};

}  // namespace yoda

#endif  // SRC_CORE_FLOW_TABLE_H_
