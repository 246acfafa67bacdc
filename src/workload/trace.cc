#include "src/workload/trace.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace workload {
namespace {

constexpr double kPi = 3.14159265358979323846;

}  // namespace

double VipTraceSpec::MaxRate() const {
  return series.empty() ? 0 : *std::max_element(series.begin(), series.end());
}

double VipTraceSpec::AvgRate() const {
  if (series.empty()) {
    return 0;
  }
  return std::accumulate(series.begin(), series.end(), 0.0) /
         static_cast<double>(series.size());
}

double VipTraceSpec::MaxToAvgRatio() const {
  const double avg = AvgRate();
  return avg > 0 ? MaxRate() / avg : 0;
}

double VipTraceSpec::TotalVolume() const {
  return std::accumulate(series.begin(), series.end(), 0.0);
}

int Trace::TotalRules() const {
  int total = 0;
  for (const VipTraceSpec& v : vips) {
    total += v.rules;
  }
  return total;
}

Trace GenerateTrace(sim::Rng& rng, const TraceConfig& cfg) {
  Trace trace;
  sim::ZipfDistribution popularity(static_cast<std::size_t>(cfg.vips), cfg.zipf_s);

  for (int v = 0; v < cfg.vips; ++v) {
    VipTraceSpec spec;
    spec.id = v;
    const double base =
        cfg.total_average_traffic * popularity.Pmf(static_cast<std::size_t>(v));
    const double amplitude = cfg.min_diurnal +
                             rng.UniformDouble() * (cfg.max_diurnal - cfg.min_diurnal);
    const double phase = rng.UniformDouble();  // Fraction of a day.
    spec.series.resize(static_cast<std::size_t>(cfg.bins));
    for (int b = 0; b < cfg.bins; ++b) {
      const double day_frac = static_cast<double>(b) / static_cast<double>(cfg.bins);
      double rate = base * (1.0 + amplitude * std::sin(2 * kPi * (day_frac - phase)));
      rate *= 1.0 + cfg.noise * (2 * rng.UniformDouble() - 1.0);
      spec.series[static_cast<std::size_t>(b)] = std::max(rate, base * 0.02);
    }
    // A subset of services is bursty (flash events), which is what drives
    // the long max-to-avg tail in Fig 15.
    if (rng.Bernoulli(cfg.bursty_fraction)) {
      for (int k = 0; k < cfg.bursts_per_bursty_vip; ++k) {
        const auto at = static_cast<std::size_t>(rng.UniformInt(0, cfg.bins - 1));
        // Burst magnitudes are skewed low (u^2) so most flash events are
        // modest while a few reach the paper's 50x tail.
        const double u = rng.UniformDouble();
        const double factor =
            cfg.burst_factor_min *
            std::pow(cfg.burst_factor_max / cfg.burst_factor_min, u * u);
        spec.series[at] *= factor;
        if (at + 1 < spec.series.size()) {
          spec.series[at + 1] *= 1.0 + (factor - 1.0) * 0.4;
        }
      }
    }
    const double r = rng.LogNormalFromMedian(static_cast<double>(cfg.median_rules),
                                             cfg.rules_sigma);
    int max_rules = cfg.max_rules;
    if (base > 1.0) {
      max_rules = std::min(max_rules, cfg.hot_vip_max_rules);
    }
    spec.rules = std::clamp(static_cast<int>(r), cfg.min_rules, max_rules);
    trace.vips.push_back(std::move(spec));
  }
  // Most popular first, matching Fig 15's x-axis ordering.
  std::sort(trace.vips.begin(), trace.vips.end(),
            [](const VipTraceSpec& a, const VipTraceSpec& b) {
              return a.TotalVolume() > b.TotalVolume();
            });
  return trace;
}

assign::Problem ProblemForBin(const Trace& trace, std::size_t bin,
                              const BinProblemConfig& cfg) {
  assign::Problem p;
  p.traffic_capacity = cfg.traffic_capacity;
  p.rule_capacity = cfg.rule_capacity;
  p.migration_limit = cfg.migration_limit;
  for (const VipTraceSpec& v : trace.vips) {
    if (bin >= v.series.size()) {
      continue;
    }
    assign::VipSpec spec;
    spec.id = v.id;
    spec.traffic = v.series[bin];
    spec.rules = v.rules;
    const int wanted = static_cast<int>(
        std::ceil(cfg.replication_factor * spec.traffic / cfg.traffic_capacity));
    spec.replicas = std::clamp(wanted, 1, cfg.max_replicas);
    spec.failures = static_cast<int>(std::floor(spec.replicas * cfg.oversubscription));
    if (spec.failures >= spec.replicas) {
      spec.failures = spec.replicas - 1;
    }
    // Keep single-replica VIPs placeable: the post-failure share must fit.
    while (spec.ShareAfterFailures() > cfg.traffic_capacity &&
           spec.replicas < cfg.max_replicas) {
      ++spec.replicas;
    }
    p.vips.push_back(spec);
  }
  return p;
}

}  // namespace workload
