// Synthetic 24-hour production trace (substitute for the paper's §8 trace:
// "all flows received by the Internet-facing services in a 24-hour period...
// 100+ VIPs and 50K+ L7 rules").
//
// Per-VIP traffic is Zipf-popular with a phase-shifted diurnal curve, noise,
// and (for a subset of VIPs) traffic bursts — the ingredients that produce
// the paper's observed max-to-average spread of 1.07x-50.3x (avg 3.7x).

#ifndef SRC_WORKLOAD_TRACE_H_
#define SRC_WORKLOAD_TRACE_H_

#include <cstdint>
#include <vector>

#include "src/assign/problem.h"
#include "src/sim/random.h"
#include "src/sim/time.h"

namespace workload {

struct VipTraceSpec {
  int id = 0;
  int rules = 0;
  std::vector<double> series;  // Traffic (instance-capacity units) per bin.

  double MaxRate() const;
  double AvgRate() const;
  double MaxToAvgRatio() const;
  double TotalVolume() const;
};

struct Trace {
  sim::Duration bin_width = sim::Minutes(10);
  std::vector<VipTraceSpec> vips;

  std::size_t bins() const { return vips.empty() ? 0 : vips[0].series.size(); }
  int TotalRules() const;
};

struct TraceConfig {
  int vips = 110;
  int bins = 144;  // 24 h at 10-minute bins.
  double zipf_s = 1.1;
  // Aggregate average traffic across all VIPs, in instance-capacity units
  // (i.e. total average demand of ~N instances).
  double total_average_traffic = 40.0;
  // Diurnal amplitude range (fraction of the VIP's base rate).
  double min_diurnal = 0.1;
  double max_diurnal = 0.8;
  double noise = 0.08;
  // Fraction of VIPs that exhibit bursts, and the burst magnitude range
  // (sampled skewed-low within the range).
  double bursty_fraction = 0.25;
  double burst_factor_min = 2.0;
  double burst_factor_max = 48.0;
  int bursts_per_bursty_vip = 2;
  // Rule-count distribution (log-normal, clipped to [min, max]).
  int median_rules = 400;
  double rules_sigma = 0.8;
  int min_rules = 20;
  int max_rules = 1'900;
  // High-traffic VIPs (base rate > T_y) keep compact rule sets, so several
  // of their replicas can share an instance under R_y — the regime in which
  // the paper's ~27% instance overhead and ~1% rules/instance hold.
  int hot_vip_max_rules = 600;
};

Trace GenerateTrace(sim::Rng& rng, const TraceConfig& config = {});

struct BinProblemConfig {
  double traffic_capacity = 1.0;  // T_y.
  int rule_capacity = 2'000;      // R_y (Fig 6: 5 ms target -> 2K rules).
  // n_v = max(1, ceil(replication_factor * t_v / T_y)): the paper's
  // "4x more replicas than standalone" setting.
  double replication_factor = 4.0;
  // o_v: f_v = floor(n_v * o_v). 0.25 reproduces the paper's ~27% instance
  // overhead of many-to-many over all-to-all (the failure headroom is
  // t_v/(n_v - f_v) = 4/3 of the nominal share).
  double oversubscription = 0.25;
  int max_replicas = 4096;  // Effectively uncapped, as in the paper's ILP.
  double migration_limit = 0.10;  // delta (paper: 10%).
};

// Builds the Fig 7 problem for one 10-minute bin of the trace.
assign::Problem ProblemForBin(const Trace& trace, std::size_t bin,
                              const BinProblemConfig& config = {});

}  // namespace workload

#endif  // SRC_WORKLOAD_TRACE_H_
