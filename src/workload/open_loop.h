// Open-loop load: the workload layer's one fixed-rate request source, behind
// the scenario DSL's `load` verb. Every client of a testbed generates its
// share of the aggregate rate as its own Poisson stream, on its own shard,
// with its own RNG (a function of the seed and the client index only),
// fetching uniformly random catalog objects. A client's tally is touched only
// on its shard, and Totals() merges the tallies in client order, so the
// result does not depend on how many workers run the engine.

#ifndef SRC_WORKLOAD_OPEN_LOOP_H_
#define SRC_WORKLOAD_OPEN_LOOP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/sim/metrics.h"
#include "src/workload/testbed.h"

namespace workload {

class OpenLoop {
 public:
  struct Tally {
    std::uint64_t issued = 0;
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;  // Timed out or reset (after any retries).
    sim::Histogram latency_ms;  // Successful fetches only.
  };

  OpenLoop(Testbed& tb, std::uint64_t seed);
  // Pending load events hold this object's address.
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  // From `at` on, each client issues its share of `rate` requests/s against
  // vip:80 until `duration` has passed. Call while the engine is idle.
  void Start(sim::Time at, net::IpAddr vip, double rate, sim::Duration duration,
             const FetchOptions& options = {});

  // Every client's tally merged in client order; read it after the run.
  Tally Totals() const;

 private:
  // One client's RNG and tally, mutated only on the client's shard.
  struct Client {
    explicit Client(std::uint64_t seed) : rng(seed) {}
    sim::Rng rng;
    Tally tally;
  };
  void Loop(Client* cl, BrowserClient* client, net::IpAddr vip, double rate, sim::Time end,
            const FetchOptions& options);

  Testbed& tb_;
  std::vector<std::unique_ptr<Client>> clients_;
};

}  // namespace workload

#endif  // SRC_WORKLOAD_OPEN_LOOP_H_
