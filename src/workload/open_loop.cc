#include "src/workload/open_loop.h"

#include <algorithm>
#include <limits>

namespace workload {

OpenLoop::OpenLoop(Testbed& tb, std::uint64_t seed) : tb_(tb) {
  for (std::size_t i = 0; i < tb.clients.size(); ++i) {
    clients_.push_back(std::make_unique<Client>(
        seed ^ (0xC11E47ULL + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(i))));
  }
}

void OpenLoop::Start(sim::Time at, net::IpAddr vip, double rate, sim::Duration duration,
                     const FetchOptions& options) {
  const double per_client = rate / static_cast<double>(clients_.size());
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    Client* cl = clients_[i].get();
    BrowserClient* client = tb_.clients[i].get();
    sim::Simulator* csim = tb_.SimFor(tb_.OwnerShardOf(client->ip()));
    const sim::Time begin = std::max(at, csim->now());
    // The window closes `duration` after it opens, or at the clock's end.
    const sim::Time end =
        begin + std::min(duration, std::numeric_limits<sim::Time>::max() - begin);
    csim->At(begin, [this, cl, client, vip, per_client, end, options]() {
      Loop(cl, client, vip, per_client, end, options);
    });
  }
}

void OpenLoop::Loop(Client* cl, BrowserClient* client, net::IpAddr vip, double rate,
                    sim::Time end, const FetchOptions& options) {
  sim::Simulator* csim = tb_.SimFor(tb_.OwnerShardOf(client->ip()));
  if (csim->now() > end) {
    return;
  }
  const auto& objects = tb_.catalog->objects();  // Immutable after setup.
  const WebObject& obj = objects[static_cast<std::size_t>(
      cl->rng.UniformInt(0, static_cast<std::int64_t>(objects.size()) - 1))];
  ++cl->tally.issued;
  client->FetchObject(vip, 80, obj.url, options, [cl](const FetchResult& r) {
    if (r.ok) {
      ++cl->tally.ok;
      cl->tally.latency_ms.Add(sim::ToMillis(r.latency));
    } else {
      ++cl->tally.failed;
    }
  });
  csim->After(sim::FromSeconds(cl->rng.Exponential(1.0 / rate)),
              [this, cl, client, vip, rate, end, options]() {
                Loop(cl, client, vip, rate, end, options);
              });
}

OpenLoop::Tally OpenLoop::Totals() const {
  Tally total;
  for (const auto& cl : clients_) {
    total.issued += cl->tally.issued;
    total.ok += cl->tally.ok;
    total.failed += cl->tally.failed;
    total.latency_ms.MergeFrom(cl->tally.latency_ms);
  }
  return total;
}

}  // namespace workload
