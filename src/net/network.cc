#include "src/net/network.h"

#include <cassert>
#include <utility>

#include "src/sim/sharded_sim.h"

namespace net {

Network::Endpoint& Network::EndpointMap::Upsert(IpAddr ip) {
  assert(ip != 0 && "0.0.0.0 is the empty-bucket sentinel");
  if ((size_ + 1) * 10 > buckets_.size() * 7) {  // Keep load under 0.7.
    std::vector<Bucket> old = std::move(buckets_);
    buckets_.assign(old.size() * 2, Bucket{});
    mask_ = buckets_.size() - 1;
    for (const Bucket& b : old) {
      if (b.key != 0) {
        std::size_t i = Home(b.key);
        while (buckets_[i].key != 0) {
          i = (i + 1) & mask_;
        }
        buckets_[i] = b;
      }
    }
  }
  std::size_t i = Home(ip);
  while (buckets_[i].key != 0 && buckets_[i].key != ip) {
    i = (i + 1) & mask_;
  }
  if (buckets_[i].key == 0) {
    buckets_[i].key = ip;
    ++size_;
  }
  return buckets_[i].ep;
}

void Network::EndpointMap::Erase(IpAddr ip) {
  std::size_t i = Home(ip);
  while (buckets_[i].key != ip) {
    if (buckets_[i].key == 0) {
      return;
    }
    i = (i + 1) & mask_;
  }
  // Backward-shift deletion: close the probe gap so later cluster members
  // whose home precedes the hole stay reachable.
  buckets_[i] = Bucket{};
  --size_;
  for (std::size_t j = (i + 1) & mask_; buckets_[j].key != 0; j = (j + 1) & mask_) {
    const std::size_t home = Home(buckets_[j].key);
    if (((j - home) & mask_) >= ((j - i) & mask_)) {
      buckets_[i] = buckets_[j];
      buckets_[j] = Bucket{};
      i = j;
    }
  }
}

Network::Network(sim::ShardedSim* engine, std::uint64_t seed, OwnerFn owner_of)
    : engine_(engine), owner_of_(std::move(owner_of)) {
  for (int s = 0; s < engine->shards(); ++s) {
    const std::uint64_t i = static_cast<std::uint64_t>(s);
    // Per-lane RNG stream and a disjoint trace-id space; both are functions
    // of the lane index only, never the worker count.
    lanes_.push_back(
        std::make_unique<Lane>(&engine->shard(s), seed + 0x9e3779b97f4a7c15ULL * i, (i << 48) + 1));
  }
}

int Network::ResolveShard(IpAddr ip) const {
  if (!owner_of_) {
    return 0;
  }
  const int s = owner_of_(ip);
  return (s >= 0 && s < static_cast<int>(lanes_.size())) ? s : 0;
}

int Network::CurrentLaneIndex() const {
  const int s = sim::ShardedSim::current_shard();
  return s > 0 ? s : 0;
}

void Network::ApplyLaneWrite(std::function<void(int lane)> fn) {
  if (sim::ShardedSim::current_shard() >= 0) {
    // Inside the epoch loop other lanes' owners are running concurrently;
    // the write lands on every lane at the next barrier — a worker-count-
    // invariant instant (control-plane propagation, like route withdrawal).
    engine_->Broadcast([fn = std::move(fn)](int shard) { fn(shard); });
    return;
  }
  for (int l = 0; l < static_cast<int>(lanes_.size()); ++l) {
    fn(l);
  }
}

void Network::Attach(IpAddr ip, Node* node, Region region) {
  const int owner = ResolveShard(ip);
  ApplyLaneWrite([this, ip, node, region, owner](int lane) {
    lanes_[static_cast<std::size_t>(lane)]->endpoints.Upsert(ip) =
        Endpoint{node, region, false, owner};
  });
}

void Network::Detach(IpAddr ip) {
  ApplyLaneWrite(
      [this, ip](int lane) { lanes_[static_cast<std::size_t>(lane)]->endpoints.Erase(ip); });
}

void Network::SetNodeDown(IpAddr ip, bool down) {
  const int owner = ResolveShard(ip);
  ApplyLaneWrite([this, ip, down, owner](int lane) {
    EndpointMap& endpoints = lanes_[static_cast<std::size_t>(lane)]->endpoints;
    Endpoint* ep = endpoints.Find(ip);
    if (ep != nullptr) {
      ep->down = down;
      return;
    }
    if (down) {
      // Marking an unattached address down is remembered (it stays
      // unroutable either way, but IsDown must report it).
      endpoints.Upsert(ip) = Endpoint{nullptr, Region::kDatacenter, true, owner};
    }
  });
}

void Network::RestartNode(IpAddr ip) {
  ApplyLaneWrite([this, ip](int lane) {
    Endpoint* ep = lanes_[static_cast<std::size_t>(lane)]->endpoints.Find(ip);
    if (ep == nullptr || ep->node == nullptr) {
      return;
    }
    // Every lane revives its replica, but only the owning lane's arm may
    // touch the node object itself (ownership rule).
    if (ep->owner == lane) {
      ep->node->OnColdRestart();
    }
    ep->down = false;
  });
}

bool Network::ProbePath(IpAddr src, IpAddr dst) {
  const Endpoint* ep = CurrentLane().endpoints.Find(dst);
  if (ep == nullptr || ep->node == nullptr || ep->down) {
    return false;
  }
  if (fault_observer_ != nullptr) {
    Packet probe;
    probe.src = src;
    probe.dst = dst;
    probe.flags = kAck;  // Plain keep-alive shape; gray SYN-filters miss it.
    if (fault_observer_->OnSend(probe, dst).drop) {
      return false;
    }
  }
  return true;
}

void Network::SetLatency(Region a, Region b, sim::Duration base, sim::Duration jitter) {
  // The model is symmetric; fill both orders so the hot path indexes directly.
  latency_[static_cast<int>(a)][static_cast<int>(b)] = LatencySpec{base, jitter};
  latency_[static_cast<int>(b)][static_cast<int>(a)] = LatencySpec{base, jitter};
}

Region Network::RegionOf(const Lane& lane, IpAddr ip) const {
  const Endpoint* ep = lane.endpoints.Find(ip);
  return ep == nullptr ? Region::kDatacenter : ep->region;
}

sim::Duration Network::DeliveryLatency(Lane& lane, Region src_region, IpAddr dst) {
  const LatencySpec& spec =
      latency_[static_cast<int>(src_region)][static_cast<int>(RegionOf(lane, dst))];
  sim::Duration jitter = 0;
  if (spec.jitter > 0) {
    jitter =
        static_cast<sim::Duration>(lane.rng.UniformDouble() * static_cast<double>(spec.jitter));
  }
  return spec.base + jitter;
}

std::uint32_t Network::AcquireSlot(Lane& lane, Packet&& packet) {
  if (lane.pool_free.empty()) {
    lane.pool.push_back(std::move(packet));
    return static_cast<std::uint32_t>(lane.pool.size() - 1);
  }
  const std::uint32_t slot = lane.pool_free.back();
  lane.pool_free.pop_back();
  lane.pool[slot] = std::move(packet);
  return slot;
}

void Network::ReleaseSlot(Lane& lane, std::uint32_t slot) {
  // Drop the payload's buffer reference promptly; the POD fields are dead
  // until the slot is reused (AcquireSlot move-assigns a whole Packet).
  lane.pool[slot].payload = Payload();
  lane.pool_free.push_back(slot);
  if (++lane.releases_since_trim >= 4096) {
    lane.releases_since_trim = 0;
    TrimPoolIfBloated(lane);
  }
}

void Network::TrimPoolIfBloated(Lane& lane) {
  // A traffic burst grows the pool to its high-water in-flight count and the
  // deque then pins that footprint forever. When the freelist dwarfs the
  // in-flight set, drop the wholly-free suffix — only the suffix, because
  // in-flight slot indices are baked into scheduled delivery events and
  // shrinking a deque at the end is the one operation that leaves references
  // to surviving slots valid.
  constexpr std::size_t kFloorSlots = 1024;
  const std::size_t in_flight = lane.pool.size() - lane.pool_free.size();
  if (lane.pool_free.size() < (std::size_t{1} << 13) ||
      lane.pool_free.size() < 3 * (in_flight + 1)) {
    return;
  }
  std::vector<bool> is_free(lane.pool.size(), false);
  for (const std::uint32_t s : lane.pool_free) {
    is_free[s] = true;
  }
  std::size_t keep = lane.pool.size();
  while (keep > kFloorSlots && is_free[keep - 1]) {
    --keep;
  }
  if (keep == lane.pool.size()) {
    return;
  }
  lane.pool.resize(keep);
  std::vector<std::uint32_t> survivors;
  survivors.reserve(lane.pool_free.size());
  for (const std::uint32_t s : lane.pool_free) {
    if (s < keep) {
      survivors.push_back(s);
    }
  }
  lane.pool_free = std::move(survivors);
}

void Network::Send(Packet&& packet) {
  const std::uint32_t lane_idx = static_cast<std::uint32_t>(CurrentLaneIndex());
  Lane& lane = *lanes_[lane_idx];
  ++lane.stats.sent;
  if (packet.trace_id == 0) {
    packet.trace_id = lane.next_trace_id++;
  }
  // The packet enters the pool before any verdict so every drop path —
  // fault, loss, and the delivery-time unroutable/down checks — returns its
  // slot through the same ReleaseSlot gate.
  const std::uint32_t slot = AcquireSlot(lane, std::move(packet));
  const Packet& p = lane.pool[slot];
  const IpAddr route_dst = p.encap_dst != 0 ? p.encap_dst : p.dst;
  // The fault observer runs first (the cut cable beats the weather) and with
  // its own RNG, so an observer that never fires leaves the network's
  // conditional draws — loss only when loss_rate_ > 0, jitter only when the
  // pair's jitter > 0 — exactly where an observer-less run would have them.
  FaultVerdict fault;
  if (fault_observer_ != nullptr) {
    fault = fault_observer_->OnSend(p, route_dst);
    if (fault.drop) {
      ++lane.stats.dropped_fault;
      ReleaseSlot(lane, slot);
      return;
    }
  }
  if (loss_rate_ > 0 && lane.rng.Bernoulli(loss_rate_)) {
    ++lane.stats.dropped_loss;
    ReleaseSlot(lane, slot);
    return;
  }
  // Encapsulated packets are forwarded by the L4 mux, which lives in the
  // datacenter — the inner source's region must not be charged again.
  const Region src_region = p.encap_dst != 0 ? Region::kDatacenter : RegionOf(lane, p.src);
  const sim::Duration latency = DeliveryLatency(lane, src_region, route_dst) + fault.extra_delay;
  const Endpoint* ep = lane.endpoints.Find(route_dst);
  if (ep != nullptr && ep->owner != static_cast<int>(lane_idx)) {
    // Cross-shard: the packet travels as engine mail timestamped with the
    // full link latency. The epoch window is <= the minimum cross-shard
    // latency, so now()+latency is at or past the next barrier — the mail is
    // never clamped and lands at a worker-count-invariant instant.
    const int owner = ep->owner;
    Packet copy = p;
    ReleaseSlot(lane, slot);
    engine_->Post(owner, lane.sim->now() + latency,
                  [this, owner, copy]() mutable { DeliverCross(owner, std::move(copy)); });
    return;
  }
  // Same-shard (or unattached — dropped locally at delivery): one O(1) raw
  // event carrying (lane, slot).
  lane.sim->AfterRaw(latency, &Network::DeliverTrampoline, this,
                     (static_cast<std::uint64_t>(lane_idx) << 32) | slot);
}

void Network::DeliverTrampoline(void* ctx, std::uint64_t arg) {
  static_cast<Network*>(ctx)->Deliver(static_cast<std::uint32_t>(arg >> 32),
                                      static_cast<std::uint32_t>(arg));
}

void Network::DeliverCross(int lane_idx, Packet&& packet) {
  Lane& lane = *lanes_[static_cast<std::size_t>(lane_idx)];
  const std::uint32_t slot = AcquireSlot(lane, std::move(packet));
  Deliver(static_cast<std::uint32_t>(lane_idx), slot);
}

void Network::Deliver(std::uint32_t lane_idx, std::uint32_t slot) {
  Lane& lane = *lanes_[lane_idx];
  // Route on the slot's packet in place; a deque keeps this reference valid
  // even if HandlePacket reentrantly Sends and grows the pool.
  const Packet& p = lane.pool[slot];
  const IpAddr route_dst = p.encap_dst != 0 ? p.encap_dst : p.dst;
  const Endpoint* ep = lane.endpoints.Find(route_dst);
  if (ep == nullptr || ep->node == nullptr) {
    ++lane.stats.dropped_unroutable;
    ReleaseSlot(lane, slot);
    return;
  }
  if (ep->down) {
    ++lane.stats.dropped_down;
    ReleaseSlot(lane, slot);
    return;
  }
  // Ownership rule: packets mutate node state, so delivery must execute on
  // the endpoint's owning shard (or outside the epoch loop entirely).
  assert((sim::ShardedSim::current_shard() < 0 ||
          sim::ShardedSim::current_shard() == static_cast<int>(lane_idx)) &&
         "packet delivered on a lane foreign to the executing shard");
  assert(ep->owner == static_cast<int>(lane_idx) &&
         "packet delivered off the destination's owning shard");
  ++lane.stats.delivered;
  ep->node->HandlePacket(p);
  ReleaseSlot(lane, slot);
}

const NetworkStats& Network::stats() const {
  if (lanes_.size() == 1) {
    return lanes_[0]->stats;
  }
  agg_stats_ = NetworkStats{};
  for (const auto& lane : lanes_) {
    agg_stats_.sent += lane->stats.sent;
    agg_stats_.delivered += lane->stats.delivered;
    agg_stats_.dropped_loss += lane->stats.dropped_loss;
    agg_stats_.dropped_down += lane->stats.dropped_down;
    agg_stats_.dropped_unroutable += lane->stats.dropped_unroutable;
    agg_stats_.dropped_fault += lane->stats.dropped_fault;
  }
  return agg_stats_;
}

std::size_t Network::packet_pool_slots() const {
  std::size_t n = 0;
  for (const auto& lane : lanes_) {
    n += lane->pool.size();
  }
  return n;
}

std::size_t Network::packet_pool_free() const {
  std::size_t n = 0;
  for (const auto& lane : lanes_) {
    n += lane->pool_free.size();
  }
  return n;
}

}  // namespace net
