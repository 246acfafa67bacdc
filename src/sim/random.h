// Seeded random-number utilities for reproducible workload generation.
//
// Every stochastic component takes an explicit Rng (or a seed) so that whole
// experiments replay exactly. The distributions here are the ones the
// evaluation needs: uniform, exponential (Poisson arrivals), log-normal
// (web-object sizes), and Zipf (VIP popularity).

#ifndef SRC_SIM_RANDOM_H_
#define SRC_SIM_RANDOM_H_

#include <cstdint>
#include <random>
#include <vector>

namespace sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

  // Uniform double in [0, 1).
  double UniformDouble();

  // Exponential with the given mean (> 0).
  double Exponential(double mean);

  // Log-normal parameterised by its median and the sigma of the underlying
  // normal. Median parameterisation is convenient for matching the paper's
  // "median object size 46 KB".
  double LogNormalFromMedian(double median, double sigma);

  // True with probability p.
  bool Bernoulli(double p);

  // Picks an index in [0, weights.size()) proportionally to weights.
  std::size_t WeightedIndex(const std::vector<double>& weights);

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

// Zipf sampler over {0, ..., n-1} with exponent s, using precomputed CDF.
// Rank 0 is the most popular item.
class ZipfDistribution {
 public:
  ZipfDistribution(std::size_t n, double s);

  std::size_t Sample(Rng& rng) const;
  std::size_t size() const { return cdf_.size(); }

  // Probability mass of rank `i`.
  double Pmf(std::size_t i) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace sim

#endif  // SRC_SIM_RANDOM_H_
