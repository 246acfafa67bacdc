// Unified metrics registry (the "counters half" of the flight recorder).
//
// Every sim::Simulator owns one Registry, and every component registers its
// named, label-keyed instruments — counters, gauges, histograms — in the
// registry of the simulator it is built on, instead of hand-rolling private
// stat structs. Labels identify the entity the instrument describes
// (instance ip, vip, backend, mux id), so one registry holds its shard's
// view of the fleet and a single export call dumps a uniform snapshot.
//
// Instruments have stable addresses for the lifetime of the Registry:
// hot paths resolve a Counter* once and bump it per event with no string
// work. Only the events of the owning simulator write a registry, so
// nothing here locks.
//
// Exporters:
//   ExportText      aligned text table, one instrument per row
//   ExportJsonLines one JSON object per line ("jsonl"), machine-readable

#ifndef SRC_OBS_REGISTRY_H_
#define SRC_OBS_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/metrics.h"

namespace obs {

// Label key/value pairs; canonicalized (sorted by key) when registered.
using Labels = std::vector<std::pair<std::string, std::string>>;

// Dotted-quad helper so callers can label instruments by address without
// dragging in the net library.
std::string FormatIp(std::uint32_t ip);

// Monotonic event count.
class Counter {
 public:
  void Add(std::uint64_t n) { value_ += n; }
  void Inc() { ++value_; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

// Point-in-time value. Either set directly or backed by a provider callback
// evaluated at read time (event-loop gauges read the simulator live).
class Gauge {
 public:
  void Set(double v) {
    value_ = v;
    provider_ = nullptr;
  }
  void SetProvider(std::function<double()> provider) { provider_ = std::move(provider); }
  double value() const { return provider_ ? provider_() : value_; }

 private:
  double value_ = 0;
  std::function<double()> provider_;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Get-or-create. The returned reference stays valid for the Registry's
  // lifetime. Re-registering the same (name, labels) with a different
  // instrument kind is a programming error and asserts.
  Counter& GetCounter(const std::string& name, Labels labels = {});
  Gauge& GetGauge(const std::string& name, Labels labels = {});
  sim::Histogram& GetHistogram(const std::string& name, Labels labels = {});

  // A read-only view of one instrument for iteration/export.
  struct Row {
    const std::string* name = nullptr;
    const Labels* labels = nullptr;
    const Counter* counter = nullptr;    // Exactly one of these three
    const Gauge* gauge = nullptr;        // is non-null.
    const sim::Histogram* histogram = nullptr;
  };
  // Visits every instrument in deterministic (key-sorted) order.
  void ForEach(const std::function<void(const Row&)>& fn) const;
  std::size_t size() const { return entries_.size(); }

  void ExportText(std::ostream& os) const;
  void ExportJsonLines(std::ostream& os) const;
  std::string TextTable() const;
  std::string JsonLines() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    Labels labels;
    Kind kind = Kind::kCounter;
    Counter counter;
    Gauge gauge;
    sim::Histogram histogram;
  };

  Entry& GetOrCreate(const std::string& name, Labels labels, Kind kind);

  // Canonical key -> entry; map keeps export order deterministic, and
  // unique_ptr keeps instrument addresses stable across rehash/rebalance.
  std::map<std::string, std::unique_ptr<Entry>> entries_;
};

}  // namespace obs

#endif  // SRC_OBS_REGISTRY_H_
