#include "src/l4lb/fabric.h"

#include <cassert>
#include <utility>

#include "src/sim/sharded_sim.h"

namespace l4lb {

L4Fabric::L4Fabric(sim::Simulator* simulator, net::Network* network, int num_muxes)
    : sim_(simulator),
      net_(network),
      packets_ctr_(&simulator->registry().GetCounter("l4.fabric.packets")),
      dropped_ctr_(&simulator->registry().GetCounter("l4.fabric.dropped")) {
  assert(sim_->engine() != nullptr && "L4Fabric must be built on an engine shard");
  for (int i = 0; i < num_muxes; ++i) {
    muxes_.push_back(std::make_unique<Mux>(i));
  }
}

void L4Fabric::AttachVip(net::IpAddr vip) { net_->Attach(vip, this); }

void L4Fabric::DetachVip(net::IpAddr vip) { net_->Detach(vip); }

void L4Fabric::SetVipPoolStaggered(net::IpAddr vip, std::vector<net::IpAddr> instances,
                                   sim::Duration per_mux_delay) {
  ProgramPool(vip, std::move(instances), /*epoch=*/0, per_mux_delay);
}

void L4Fabric::NoteFenced(net::IpAddr vip, std::uint64_t token, const Mux& mux) {
  // Distinguish a fencing rejection from a plain stale-epoch skip: only the
  // former leaves the offered token below the mux's watermark.
  if (token == 0 || token >= mux.FenceToken()) {
    return;
  }
  sim_->recorder().RecordSystem(sim_->now(), obs::EventType::kFencedWrite, vip,
                                (token << 32) | (mux.FenceToken() & 0xffffffffULL));
}

void L4Fabric::WriteMuxes(net::IpAddr vip, std::uint64_t token, sim::Duration per_mux_delay,
                          std::function<bool(Mux&)> write) {
  sim_->engine()->RunOn(sim_->shard_index(), [this, vip, token, per_mux_delay,
                                              write = std::move(write)]() {
    for (std::size_t i = 0; i < muxes_.size(); ++i) {
      Mux* mux = muxes_[i].get();
      auto apply = [this, mux, vip, token, write]() {
        if (!write(*mux)) {
          NoteFenced(vip, token, *mux);
        }
      };
      if (per_mux_delay == 0) {
        apply();
      } else {
        sim_->After(per_mux_delay * static_cast<sim::Duration>(i), std::move(apply));
      }
    }
  });
}

void L4Fabric::ProgramPool(net::IpAddr vip, std::vector<net::IpAddr> instances,
                           std::uint64_t epoch, sim::Duration per_mux_delay,
                           std::uint64_t token) {
  WriteMuxes(vip, token, per_mux_delay,
             [vip, instances = std::move(instances), epoch, token](Mux& mux) {
               return mux.SetPool(vip, instances, epoch, token);
             });
}

void L4Fabric::AddPoolMember(net::IpAddr vip, net::IpAddr instance, std::uint64_t epoch,
                             sim::Duration per_mux_delay, std::uint64_t token) {
  WriteMuxes(vip, token, per_mux_delay, [vip, instance, epoch, token](Mux& mux) {
    return mux.AddMember(vip, instance, epoch, token);
  });
}

void L4Fabric::RemovePoolMember(net::IpAddr vip, net::IpAddr instance, std::uint64_t epoch,
                                sim::Duration per_mux_delay, std::uint64_t token) {
  WriteMuxes(vip, token, per_mux_delay, [vip, instance, epoch, token](Mux& mux) {
    return mux.RemoveMember(vip, instance, epoch, token);
  });
}

void L4Fabric::RemoveInstanceEverywhere(net::IpAddr instance) {
  sim_->engine()->RunOn(sim_->shard_index(), [this, instance]() {
    for (auto& mux : muxes_) {
      mux->RemoveInstance(instance);
    }
    // Drop SNAT pins owned by the dead instance so server-side return
    // traffic re-ECMPs to a survivor instead of blackholing.
    for (auto it = snat_.begin(); it != snat_.end();) {
      if (it->second == instance) {
        it = snat_.erase(it);
      } else {
        ++it;
      }
    }
  });
}

void L4Fabric::RegisterSnat(const net::FiveTuple& server_side, net::IpAddr owner) {
  sim_->engine()->RunOn(sim_->shard_index(),
                        [this, server_side, owner]() { snat_[server_side] = owner; });
}

void L4Fabric::UnregisterSnat(const net::FiveTuple& server_side) {
  sim_->engine()->RunOn(sim_->shard_index(),
                        [this, server_side]() { snat_.erase(server_side); });
}

std::optional<net::IpAddr> L4Fabric::SnatOwner(const net::FiveTuple& server_side) const {
  auto it = snat_.find(server_side);
  if (it == snat_.end()) {
    return std::nullopt;
  }
  return it->second;
}

void L4Fabric::HandlePacket(const net::Packet& packet) {
  ++stats_.packets;
  packets_ctr_->Inc();
  if (muxes_.empty()) {
    ++stats_.dropped;
    dropped_ctr_->Inc();
    return;
  }
  // Router-level ECMP across muxes.
  const std::size_t mux_idx =
      net::FiveTupleHash{}(packet.tuple()) % muxes_.size();
  std::optional<net::IpAddr> snat_hit =
      snat_enabled_ ? SnatOwner(packet.tuple()) : std::nullopt;
  // A SNAT pin to an instance the network knows is unreachable is useless;
  // the failure path normally clears pins, but guard against races.
  if (snat_hit && net_->IsDown(*snat_hit)) {
    snat_hit = std::nullopt;
  }
  auto target = muxes_[mux_idx]->Route(packet, snat_hit);
  if (!target) {
    ++stats_.dropped;
    dropped_ctr_->Inc();
    return;
  }
  // Trace where the fabric sent each flow's opening SYN: the first hop of
  // the flow's timeline, before any instance has seen it.
  if (packet.syn() && !packet.ack_flag()) {
    sim_->recorder().Record(
        obs::FlowId{packet.dst, packet.dport, packet.src, packet.sport}, sim_->now(),
        obs::EventType::kMuxForward, static_cast<std::uint32_t>(mux_idx), *target);
  }
  net::Packet fwd = packet;
  fwd.encap_dst = *target;
  net_->Send(std::move(fwd));
}

}  // namespace l4lb
