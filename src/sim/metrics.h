// Measurement utilities shared by the experiments: latency histograms with
// percentile queries, CDF extraction, windowed rate counters and a busy-time
// utilization tracker used by the instance CPU models.

#ifndef SRC_SIM_METRICS_H_
#define SRC_SIM_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/time.h"

namespace sim {

// Collects raw samples; answers mean / percentile / CDF queries. Samples are
// stored exactly (the experiments are small enough that this is fine) and
// sorted lazily.
class Histogram {
 public:
  void Add(double v);
  // Appends every sample of `other` (`threads N` scenario runs fold per-cell
  // histograms into one aggregate).
  void MergeFrom(const Histogram& other);
  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  double Mean() const;
  double Min() const;
  double Max() const;
  // Linearly interpolated percentile. p is clamped to [0, 100]; an empty
  // histogram reports 0.
  double Percentile(double p) const;

  // Returns (value, cumulative fraction) pairs at `points` evenly spaced
  // ranks, suitable for plotting a CDF.
  std::vector<std::pair<double, double>> Cdf(std::size_t points = 100) const;

  void Clear();

 private:
  void EnsureSorted() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

// Counts events and reports a rate over fixed windows of simulated time.
class WindowedRate {
 public:
  explicit WindowedRate(Duration window) : window_(window) {}

  void Record(Time now, double amount = 1.0);

  // Closes any windows ending at or before `now` and returns their
  // (window start, rate-per-second) pairs accumulated so far.
  const std::vector<std::pair<Time, double>>& Windows() const { return closed_; }
  void FlushUpTo(Time now);

 private:
  Duration window_;
  Time window_start_ = 0;
  double in_window_ = 0;
  std::vector<std::pair<Time, double>> closed_;
};

// Tracks the fraction of wall time a resource is busy. Components report
// `AddBusy(now, duration)`; utilization is busy time over elapsed window.
// Models a multi-core VM as one resource with `capacity` seconds of work
// available per second (capacity 1.0 == fully serial resource).
class UtilizationTracker {
 public:
  explicit UtilizationTracker(double capacity = 1.0) : capacity_(capacity) {}

  void AddBusy(Duration busy) { busy_ += busy; }

  // Utilization in [0, 1+] over [window_start, now]; call Reset to start a
  // new measurement window.
  double Utilization(Time now) const;
  void Reset(Time now);

  double capacity() const { return capacity_; }
  Duration busy_time() const { return busy_; }

 private:
  double capacity_;
  Time window_start_ = 0;
  Duration busy_ = 0;
};

// Formats a double with fixed precision (reporting helper).
std::string FormatDouble(double v, int precision = 2);

}  // namespace sim

#endif  // SRC_SIM_METRICS_H_
