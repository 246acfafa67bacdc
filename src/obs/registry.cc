#include "src/obs/registry.h"

#include <algorithm>
#include <cassert>
#include <ostream>
#include <sstream>

namespace obs {
namespace {

// Canonical instrument key: name{k=v,k=v} with labels sorted by key.
std::string MakeKey(const std::string& name, const Labels& labels) {
  std::string key = name;
  if (!labels.empty()) {
    key += '{';
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (i > 0) {
        key += ',';
      }
      key += labels[i].first;
      key += '=';
      key += labels[i].second;
    }
    key += '}';
  }
  return key;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out;
}

}  // namespace

std::string FormatIp(std::uint32_t ip) {
  return std::to_string((ip >> 24) & 0xff) + "." + std::to_string((ip >> 16) & 0xff) + "." +
         std::to_string((ip >> 8) & 0xff) + "." + std::to_string(ip & 0xff);
}

Registry::Entry& Registry::GetOrCreate(const std::string& name, Labels labels, Kind kind) {
  std::sort(labels.begin(), labels.end());
  const std::string key = MakeKey(name, labels);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    auto entry = std::make_unique<Entry>();
    entry->name = name;
    entry->labels = std::move(labels);
    entry->kind = kind;
    it = entries_.emplace(key, std::move(entry)).first;
  }
  assert(it->second->kind == kind && "instrument re-registered with a different kind");
  return *it->second;
}

Counter& Registry::GetCounter(const std::string& name, Labels labels) {
  return GetOrCreate(name, std::move(labels), Kind::kCounter).counter;
}

Gauge& Registry::GetGauge(const std::string& name, Labels labels) {
  return GetOrCreate(name, std::move(labels), Kind::kGauge).gauge;
}

sim::Histogram& Registry::GetHistogram(const std::string& name, Labels labels) {
  return GetOrCreate(name, std::move(labels), Kind::kHistogram).histogram;
}

void Registry::ForEach(const std::function<void(const Row&)>& fn) const {
  for (const auto& [key, entry] : entries_) {
    Row row;
    row.name = &entry->name;
    row.labels = &entry->labels;
    switch (entry->kind) {
      case Kind::kCounter:
        row.counter = &entry->counter;
        break;
      case Kind::kGauge:
        row.gauge = &entry->gauge;
        break;
      case Kind::kHistogram:
        row.histogram = &entry->histogram;
        break;
    }
    fn(row);
  }
}

void Registry::ExportText(std::ostream& os) const {
  // Pass 1: column width. Pass 2: rows.
  std::size_t width = 0;
  for (const auto& [key, entry] : entries_) {
    width = std::max(width, key.size());
  }
  for (const auto& [key, entry] : entries_) {
    os << key;
    for (std::size_t i = key.size(); i < width + 2; ++i) {
      os << ' ';
    }
    switch (entry->kind) {
      case Kind::kCounter:
        os << entry->counter.value();
        break;
      case Kind::kGauge:
        os << sim::FormatDouble(entry->gauge.value());
        break;
      case Kind::kHistogram: {
        const sim::Histogram& h = entry->histogram;
        os << "count=" << h.count();
        if (!h.empty()) {
          os << " mean=" << sim::FormatDouble(h.Mean())
             << " p50=" << sim::FormatDouble(h.Percentile(50))
             << " p99=" << sim::FormatDouble(h.Percentile(99))
             << " max=" << sim::FormatDouble(h.Max());
        }
        break;
      }
    }
    os << '\n';
  }
}

void Registry::ExportJsonLines(std::ostream& os) const {
  for (const auto& [key, entry] : entries_) {
    os << "{\"name\":\"" << JsonEscape(entry->name) << "\",\"labels\":{";
    for (std::size_t i = 0; i < entry->labels.size(); ++i) {
      if (i > 0) {
        os << ',';
      }
      os << '"' << JsonEscape(entry->labels[i].first) << "\":\""
         << JsonEscape(entry->labels[i].second) << '"';
    }
    os << "},";
    switch (entry->kind) {
      case Kind::kCounter:
        os << "\"kind\":\"counter\",\"value\":" << entry->counter.value();
        break;
      case Kind::kGauge:
        os << "\"kind\":\"gauge\",\"value\":" << sim::FormatDouble(entry->gauge.value(), 6);
        break;
      case Kind::kHistogram: {
        const sim::Histogram& h = entry->histogram;
        os << "\"kind\":\"histogram\",\"count\":" << h.count();
        if (!h.empty()) {
          os << ",\"mean\":" << sim::FormatDouble(h.Mean(), 6)
             << ",\"min\":" << sim::FormatDouble(h.Min(), 6)
             << ",\"p50\":" << sim::FormatDouble(h.Percentile(50), 6)
             << ",\"p90\":" << sim::FormatDouble(h.Percentile(90), 6)
             << ",\"p99\":" << sim::FormatDouble(h.Percentile(99), 6)
             << ",\"max\":" << sim::FormatDouble(h.Max(), 6);
        }
        break;
      }
    }
    os << "}\n";
  }
}

std::string Registry::TextTable() const {
  std::ostringstream os;
  ExportText(os);
  return os.str();
}

std::string Registry::JsonLines() const {
  std::ostringstream os;
  ExportJsonLines(os);
  return os.str();
}

}  // namespace obs
