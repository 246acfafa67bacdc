#include "src/l4lb/mux.h"

#include <algorithm>

#include "src/kv/hash_ring.h"

namespace l4lb {

net::IpAddr RendezvousPick(const net::FiveTuple& tuple, const std::vector<net::IpAddr>& pool) {
  net::IpAddr best = 0;
  std::uint64_t best_weight = 0;
  for (net::IpAddr candidate : pool) {
    std::uint64_t x = kv::Mix64((static_cast<std::uint64_t>(tuple.src) << 32) ^ tuple.dst);
    x = kv::Mix64(x ^ (static_cast<std::uint64_t>(tuple.sport) << 16) ^ tuple.dport);
    x = kv::Mix64(x ^ candidate);
    if (x > best_weight || best == 0) {
      best_weight = x;
      best = candidate;
    }
  }
  return best;
}

bool Mux::StaleEpoch(net::IpAddr vip, std::uint64_t epoch) {
  if (epoch == 0) {
    return false;  // Unversioned writes always apply.
  }
  auto it = pool_epochs_.find(vip);
  if (it != pool_epochs_.end() && epoch < it->second) {
    return true;
  }
  pool_epochs_[vip] = epoch;
  return false;
}

bool Mux::StaleToken(std::uint64_t token) {
  if (token == 0) {
    return false;  // Unfenced writes always apply (single-controller mode).
  }
  if (token < fence_token_) {
    ++stats_.fenced_writes;
    return true;  // A deposed leader's write; the fleet has moved on.
  }
  fence_token_ = token;
  return false;
}

bool Mux::SetPool(net::IpAddr vip, std::vector<net::IpAddr> instances, std::uint64_t epoch,
                  std::uint64_t token) {
  // Token first: a fenced write must not advance the epoch watermark either.
  if (StaleToken(token) || StaleEpoch(vip, epoch)) {
    return false;
  }
  pools_[vip] = std::move(instances);
  return true;
}

bool Mux::AddMember(net::IpAddr vip, net::IpAddr instance, std::uint64_t epoch,
                    std::uint64_t token) {
  if (StaleToken(token) || StaleEpoch(vip, epoch)) {
    return false;
  }
  std::vector<net::IpAddr>& pool = pools_[vip];
  if (std::find(pool.begin(), pool.end(), instance) == pool.end()) {
    pool.push_back(instance);
  }
  return true;
}

bool Mux::RemoveMember(net::IpAddr vip, net::IpAddr instance, std::uint64_t epoch,
                       std::uint64_t token) {
  if (StaleToken(token) || StaleEpoch(vip, epoch)) {
    return false;
  }
  auto it = pools_.find(vip);
  if (it != pools_.end()) {
    it->second.erase(std::remove(it->second.begin(), it->second.end(), instance),
                     it->second.end());
  }
  return true;
}

std::uint64_t Mux::PoolEpoch(net::IpAddr vip) const {
  auto it = pool_epochs_.find(vip);
  return it == pool_epochs_.end() ? 0 : it->second;
}

void Mux::RemoveVip(net::IpAddr vip) {
  pools_.erase(vip);
  pool_epochs_.erase(vip);
}

void Mux::RemoveInstance(net::IpAddr instance) {
  for (auto& [vip, pool] : pools_) {
    pool.erase(std::remove(pool.begin(), pool.end(), instance), pool.end());
  }
}

const std::vector<net::IpAddr>* Mux::PoolFor(net::IpAddr vip) const {
  auto it = pools_.find(vip);
  return it == pools_.end() ? nullptr : &it->second;
}

std::optional<net::IpAddr> Mux::Route(const net::Packet& packet,
                                      std::optional<net::IpAddr> snat_hit) {
  if (snat_hit) {
    ++stats_.forwarded_snat;
    return snat_hit;
  }
  const std::vector<net::IpAddr>* pool = PoolFor(packet.dst);
  if (pool == nullptr || pool->empty()) {
    ++stats_.dropped_no_pool;
    return std::nullopt;
  }
  ++stats_.forwarded_ecmp;
  return RendezvousPick(packet.tuple(), *pool);
}

}  // namespace l4lb
