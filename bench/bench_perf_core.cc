// Core fast-path microbenchmarks: the substrate every experiment funnels
// through. Five suites measure the simulator, fabric and engine hot paths
// directly:
//
//   timer_schedule_fire  — self-rescheduling event chains (the dominant
//                          packet-delivery pattern: schedule from a callback,
//                          fire, repeat) across mixed near/far horizons;
//   timer_schedule_fire_fn — the same chains through the std::function path;
//   timer_cancel_churn   — RTO-style arm/cancel/re-arm where ~90% of timers
//                          never fire (the TCP retransmit pattern);
//   fabric_pps           — packet deliveries/sec through Network::Send with a
//                          512 B payload bouncing between two nodes;
//   epoch_barrier        — epochs/sec of a sharded engine whose windows hold
//                          one cross-shard mail hop each, so the barrier
//                          crossings are all it does.
//
// End-to-end throughput is perfbench's job (perfbench/run.py). The last line
// of output is one JSON object with the five figures; bench/perf_gate.py
// compares it with the "micro" section of BENCH_perfbench.json.
//
// Usage: bench_perf_core (no flags)

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "src/net/network.h"
#include "src/sim/sharded_sim.h"
#include "src/sim/simulator.h"

namespace {

double WallSeconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// Scheduling noise on a shared machine easily swings a sub-second microbench
// by +-15%; report the best of three runs — the one least disturbed by
// neighbors — so regression checks compare signal, not scheduler luck.
template <typename Fn>
double BestOf3(Fn&& bench) {
  double best = 0.0;
  for (int i = 0; i < 3; ++i) {
    best = std::max(best, bench());
  }
  return best;
}

// --- timer_schedule_fire ----------------------------------------------------
// 1000 independent chains; each fired event re-schedules itself with a delta
// cycling through the latency scales the real fabric uses. Exercises
// schedule-from-callback + fire, the dominant simulator pattern, through the
// raw calling convention — the one packet delivery actually uses (the
// pre-overhaul core had only the closure path, so the before/after ratio is
// exactly the win the fabric's events see). The std::function control-plane
// path is measured separately as timer_schedule_fire_fn.
struct RawChains {
  sim::Simulator* sim;
  const sim::Duration* deltas;
  std::uint64_t fired = 0;
  std::uint64_t limit = 0;
  std::uint64_t chains = 0;

  static void Fire(void* ctx, std::uint64_t c) {
    auto* s = static_cast<RawChains*>(ctx);
    ++s->fired;
    if (s->fired + s->chains <= s->limit) {
      s->sim->AfterRaw(s->deltas[(s->fired + c) % 4], &RawChains::Fire, ctx, c);
    }
  }
};

double BenchTimerScheduleFire(std::uint64_t total_events) {
  sim::Simulator sim;
  const sim::Duration deltas[] = {sim::Usec(50), sim::Usec(250), sim::Msec(1), sim::Msec(33)};
  constexpr std::uint64_t kChains = 1000;
  RawChains state{&sim, deltas, 0, total_events, kChains};
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t c = 0; c < kChains; ++c) {
    sim.AfterRaw(deltas[c % 4], &RawChains::Fire, &state, c);
  }
  sim.Run();
  const double wall = WallSeconds(t0);
  std::printf("  timer_schedule_fire: %llu events in %.3f s -> %.0f events/s\n",
              static_cast<unsigned long long>(state.fired), wall,
              static_cast<double>(state.fired) / wall);
  return static_cast<double>(state.fired) / wall;
}

// Same chain shape through the std::function path (control-plane work:
// monitor ticks, RTO arms, client think-time).
double BenchTimerScheduleFireFn(std::uint64_t total_events) {
  sim::Simulator sim;
  const sim::Duration deltas[] = {sim::Usec(50), sim::Usec(250), sim::Msec(1), sim::Msec(33)};
  constexpr int kChains = 1000;
  std::uint64_t fired = 0;
  const auto t0 = std::chrono::steady_clock::now();
  std::function<void(int)> chain = [&](int c) {
    ++fired;
    if (fired + kChains <= total_events) {
      sim.After(deltas[(fired + static_cast<std::uint64_t>(c)) % 4], [&chain, c]() { chain(c); });
    }
  };
  for (int c = 0; c < kChains; ++c) {
    sim.After(deltas[static_cast<std::size_t>(c) % 4], [&chain, c]() { chain(c); });
  }
  sim.Run();
  const double wall = WallSeconds(t0);
  std::printf("  timer_schedule_fire_fn: %llu events in %.3f s -> %.0f events/s\n",
              static_cast<unsigned long long>(fired), wall, static_cast<double>(fired) / wall);
  return static_cast<double>(fired) / wall;
}

// --- timer_cancel_churn -----------------------------------------------------
// Arm timers far in the future, cancel 90% of them immediately (the RTO that
// the ACK beat), let the survivors fire. Ops = arms + cancels + fires.
double BenchTimerCancelChurn(std::uint64_t timers) {
  sim::Simulator sim;
  std::uint64_t fired = 0;
  std::uint64_t cancels = 0;
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<sim::TimerHandle> handles;
  handles.reserve(10000);
  for (std::uint64_t i = 0; i < timers; ++i) {
    handles.push_back(
        sim.At(sim::Msec(200) + sim::Usec(static_cast<sim::Duration>(i % 50000)),
               [&fired]() { ++fired; }));
    if (handles.size() == 10000) {
      // Cancel 9 of every 10 (the ACK arrived before the RTO).
      for (std::size_t k = 0; k < handles.size(); ++k) {
        if (k % 10 != 0) {
          handles[k].Cancel();
          ++cancels;
        }
      }
      handles.clear();
    }
  }
  sim.Run();
  const double wall = WallSeconds(t0);
  const double ops = static_cast<double>(timers + cancels + fired);
  std::printf("  timer_cancel_churn: %llu arms, %llu cancels, %llu fired in %.3f s -> %.0f ops/s\n",
              static_cast<unsigned long long>(timers), static_cast<unsigned long long>(cancels),
              static_cast<unsigned long long>(fired), wall, ops / wall);
  return ops / wall;
}

// --- fabric_pps -------------------------------------------------------------
// Two nodes bounce a 512 B payload through Network::Send until `total`
// deliveries have happened. Measures the per-packet fabric cost: verdict
// evaluation, latency draw, event scheduling, delivery dispatch.
class Bouncer : public net::Node {
 public:
  Bouncer(net::Network* network, net::IpAddr self, net::IpAddr peer, std::uint64_t limit,
          const std::string& payload)
      : net_(network), self_(self), peer_(peer), limit_(limit), payload_(payload) {}

  void Kick() { SendOne(); }

  void HandlePacket(const net::Packet& packet) override {
    (void)packet;
    if (net_->stats().delivered < limit_) {
      SendOne();
    }
  }

 private:
  void SendOne() {
    net::Packet p;
    p.src = self_;
    p.dst = peer_;
    p.sport = 1000;
    p.dport = 80;
    p.flags = net::kAck;
    p.payload = payload_;
    net_->Send(std::move(p));
  }

  net::Network* net_;
  net::IpAddr self_;
  net::IpAddr peer_;
  std::uint64_t limit_;
  // A Payload so per-packet sends share one refcounted buffer instead of
  // copying 512 bytes each time — the fabric is what's under test here.
  net::Payload payload_;
};

double BenchFabricPps(std::uint64_t total) {
  sim::ShardedSim engine({.shards = 1});
  sim::Simulator& sim = engine.shard(0);
  net::Network network(&engine, /*seed=*/1);
  network.SetLatency(net::Region::kDatacenter, net::Region::kDatacenter, sim::Usec(250), 0);
  const net::IpAddr a = net::MakeIp(10, 0, 0, 1);
  const net::IpAddr b = net::MakeIp(10, 0, 0, 2);
  const std::string payload(512, 'x');
  Bouncer na(&network, a, b, total, payload);
  Bouncer nb(&network, b, a, total, payload);
  network.Attach(a, &na);
  network.Attach(b, &nb);
  const auto t0 = std::chrono::steady_clock::now();
  // 64 packets in flight keeps the event queue realistically busy.
  for (int i = 0; i < 64; ++i) {
    na.Kick();
  }
  sim.Run();
  const double wall = WallSeconds(t0);
  const double pps = static_cast<double>(network.stats().delivered) / wall;
  std::printf("  fabric_pps: %llu deliveries in %.3f s -> %.0f packets/s\n",
              static_cast<unsigned long long>(network.stats().delivered), wall, pps);
  return pps;
}

// --- epoch_barrier ----------------------------------------------------------
// A token hops around 8 shards, one mail per 200 us window, on 3 workers (or
// as many hardware threads as there are, if fewer). Every epoch runs one
// event, so epochs/sec is the rate of the engine's two barrier crossings per
// epoch; a barrier that sleeps on every crossing runs several times slower.
double BenchEpochBarrier(int hops) {
  const int workers = std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1, 3);
  sim::ShardedSim engine({.shards = 8, .workers = workers, .window = sim::Usec(200)});
  int left = hops;
  std::function<void(int)> hop = [&](int shard) {
    if (--left == 0) {
      return;
    }
    const int next = (shard + 1) % engine.shards();
    engine.Post(next, engine.shard(shard).now() + engine.window(), [&hop, next]() { hop(next); });
  };
  engine.shard(0).At(sim::Usec(1), [&hop]() { hop(0); });
  const auto t0 = std::chrono::steady_clock::now();
  engine.Run();
  const double wall = WallSeconds(t0);
  const double rate = static_cast<double>(engine.epochs()) / wall;
  std::printf("  epoch_barrier: %llu epochs on %d workers in %.3f s -> %.0f epochs/s\n",
              static_cast<unsigned long long>(engine.epochs()), workers, wall, rate);
  return rate;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s\n", argv[0]);
    return 2;
  }
  std::printf("=== perf_core: event/packet fast-path microbenchmarks ===\n");
  // Sizes chosen for a few hundred ms of wall per suite: long enough that
  // scheduler noise stops dominating, short enough for a per-PR CI job.
  const double fire = BestOf3([] { return BenchTimerScheduleFire(8'000'000); });
  const double fire_fn = BestOf3([] { return BenchTimerScheduleFireFn(8'000'000); });
  const double churn = BestOf3([] { return BenchTimerCancelChurn(4'000'000); });
  const double pps = BestOf3([] { return BenchFabricPps(4'000'000); });
  const double epochs = BestOf3([] { return BenchEpochBarrier(100'000); });
  std::printf(
      "{\"timer_schedule_fire_events_per_sec\": %.1f, "
      "\"timer_schedule_fire_fn_events_per_sec\": %.1f, "
      "\"timer_cancel_churn_ops_per_sec\": %.1f, \"fabric_packets_per_sec\": %.1f, "
      "\"epoch_barrier_epochs_per_sec\": %.1f}\n",
      fire, fire_fn, churn, pps, epochs);
  return 0;
}
