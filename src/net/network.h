// The simulated network fabric.
//
// Nodes attach at IP addresses; Network::Send schedules delivery after a
// latency drawn from the (region-pair) latency model, with optional loss.
// A node marked down blackholes traffic, which is exactly how a crashed VM
// appears to its peers — in-flight state vanishes, packets are dropped and
// senders discover the failure only through their own timers.
//
// Virtual IPs are attached like any other address (the L4 mux attaches at
// the VIP), matching how VIP routes point at the L4 LB in a real DC.
//
// Shards: a Network spans every shard of the sim::ShardedSim it is built on.
// Each shard gets a private Lane — its own RNG stream, trace-id space, stats,
// packet pool and a replica of the endpoint table — so the per-packet fast
// path touches no shared mutable state. A Send whose destination lives on the
// sending shard is one O(1) AfterRaw event; a cross-shard Send posts the
// packet into the engine's SPSC mailboxes at now()+latency, which the
// epoch-barrier window (<= the minimum cross-shard latency) guarantees is
// never clamped — delivery lands at a worker-count-invariant instant.

#ifndef SRC_NET_NETWORK_H_
#define SRC_NET_NETWORK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/net/packet.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"

namespace sim {
class ShardedSim;
}

namespace net {

// Anything that can receive packets from the fabric.
class Node {
 public:
  virtual ~Node() = default;
  virtual void HandlePacket(const Packet& packet) = 0;
  // Invoked by Network::RestartNode before the node is revived: a cold
  // restart (rebooted VM) must drop all volatile per-connection state. The
  // default keeps everything (stateless nodes need no action).
  virtual void OnColdRestart() {}
};

// Forwarding node: shows every packet delivered to it to `see`, then hands
// the packet to `inner`. Attached at an address in place of `inner`, it
// observes that address's deliveries at their delivery instants, on the
// address's owning shard, so it works on any number of shards. The network
// holds its address, so it is neither copied nor moved.
class TapNode final : public Node {
 public:
  TapNode(Node* inner, std::function<void(const Packet&)> see)
      : inner_(inner), see_(std::move(see)) {}
  TapNode(const TapNode&) = delete;
  TapNode& operator=(const TapNode&) = delete;
  void HandlePacket(const Packet& packet) override {
    see_(packet);
    inner_->HandlePacket(packet);
  }
  void OnColdRestart() override { inner_->OnColdRestart(); }

 private:
  Node* inner_;
  std::function<void(const Packet&)> see_;
};

// Coarse placement used by the latency model.
enum class Region : std::uint8_t {
  kDatacenter = 0,  // intra-DC VMs: LB instances, servers, TCPStore.
  kInternet = 1,    // external clients.
};

struct NetworkStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_loss = 0;
  std::uint64_t dropped_down = 0;
  std::uint64_t dropped_unroutable = 0;
  std::uint64_t dropped_fault = 0;  // Dropped by the fault-injection hook.
};

// Verdict of the fault-injection observer for one delivery attempt. The
// observer is consulted once per Send, before the network's own loss draw;
// any extra delay is added on top of the latency-model delivery time.
struct FaultVerdict {
  bool drop = false;
  sim::Duration extra_delay = 0;
};

// Fault-injection interface (see src/fault). A virtual call replaces the old
// std::function hook so consulting the fault plane on the per-packet fast
// path materializes no closure and allocates nothing.
//
// Determinism contract: the network's own RNG draws are CONDITIONAL — the
// loss draw happens only when loss_rate_ > 0 and the jitter draw only when
// the region pair's jitter > 0 — and the observer must bring its own RNG
// (the fault plane does). Installing an observer that never fires therefore
// leaves a same-seed run bit-identical to an observer-less run; see
// net_test's determinism regression.
class FaultObserver {
 public:
  virtual ~FaultObserver() = default;
  // Consulted once per Send with the packet and the resolved routing
  // destination (outer encap header when present).
  virtual FaultVerdict OnSend(const Packet& packet, IpAddr route_dst) = 0;
};

class Network {
 public:
  // Maps an address to the shard that owns the node attached there.
  using OwnerFn = std::function<int(IpAddr)>;

  // One lane per shard of `engine`. `owner_of` is consulted once per Attach
  // (and per SetNodeDown upsert) to stamp the endpoint's owning shard; unset,
  // every address resolves to shard 0.
  Network(sim::ShardedSim* engine, std::uint64_t seed, OwnerFn owner_of = {});
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Attaches `node` at `ip`. Re-attaching replaces the previous binding.
  // From inside the epoch loop the write is broadcast and lands on every
  // lane at the next barrier; idle (setup) writes apply immediately.
  void Attach(IpAddr ip, Node* node, Region region = Region::kDatacenter);
  void Detach(IpAddr ip);
  bool IsAttached(IpAddr ip) const {
    const Endpoint* ep = CurrentLane().endpoints.Find(ip);
    return ep != nullptr && ep->node != nullptr;
  }

  // Administrative up/down; a down node blackholes all traffic sent to it.
  //
  // Restart semantics: `SetNodeDown(ip, false)` is a WARM revive — the
  // attached object keeps all of its state (models a healed partition or a
  // process that was paused, not killed; established TCP connections
  // survive). For a COLD restart (rebooted VM: endpoint state, flow tables
  // and caches are gone) use RestartNode, which calls Node::OnColdRestart
  // before reviving. Both are exposed so failure experiments can model
  // either recovery mode explicitly.
  void SetNodeDown(IpAddr ip, bool down);
  bool IsDown(IpAddr ip) const {
    const Endpoint* ep = CurrentLane().endpoints.Find(ip);
    return ep != nullptr && ep->down;
  }

  // Cold restart: clears the node's volatile state (Node::OnColdRestart),
  // then revives it. The attachment itself survives — a rebooted VM comes
  // back at the same address. No-op if nothing is attached at `ip`.
  // OnColdRestart runs only on the owning lane's arm of the write.
  void RestartNode(IpAddr ip);

  // Latency model. Delivery latency = one-way base for the (src,dst) region
  // pair + uniform jitter in [0, jitter]. Setup-time only (shared by lanes).
  void SetLatency(Region a, Region b, sim::Duration base, sim::Duration jitter = 0);

  // Uniform random loss applied to every delivery (default 0). Setup-time.
  void set_loss_rate(double p) { loss_rate_ = p; }

  // Installs (or clears, with nullptr) the fault-injection observer. The
  // observer must outlive its installation; the testbed owns both.
  void set_fault_observer(FaultObserver* observer) { fault_observer_ = observer; }

  // Control-plane probe: true if a minimal packet src -> dst would currently
  // be delivered (dst attached, not down, and not dropped by the fault
  // observer). Draws nothing from the network RNG; loss decisions come from
  // the fault plane's own RNG, so probes are deterministic and do not
  // perturb data-path draws. The monitor's health checks are built on this.
  // Answers from the probing shard's replica of the endpoint table
  // (down-state propagates at barriers, like real route withdrawal).
  bool ProbePath(IpAddr src, IpAddr dst);

  // Sends `packet` toward packet.dst (outer encap header when present).
  // Drops silently if unroutable/down/lost. Move-only on purpose: the packet
  // is moved into a pool slot that lives until delivery, so the fabric never
  // copies payload bytes and the delivery event is a raw (function pointer,
  // slot index) pair — no closure, no allocation. (The cross-shard path is
  // the one exception: the packet is copied into the mailbox closure.)
  void Send(Packet&& packet);

  // Aggregated over lanes; read only while the engine is idle. A one-lane
  // network returns the lane's live struct.
  const NetworkStats& stats() const;

  // Packet-pool gauges (for tests and leak spotting). A slot is acquired per
  // Send and released on delivery or on any drop — fault, loss, unroutable
  // or down — so in-flight is exactly the number of scheduled deliveries.
  // Summed over lanes.
  std::size_t packet_pool_slots() const;
  std::size_t packet_pool_free() const;
  std::size_t packets_in_flight() const {
    return packet_pool_slots() - packet_pool_free();
  }

 private:
  struct LatencySpec {
    sim::Duration base = sim::Usec(250);
    sim::Duration jitter = sim::Usec(50);
  };

  // Everything the fabric knows about one address: node, placement, admin
  // state, owning shard. One hash lookup per routing decision instead of
  // three parallel maps (a measured per-packet win; see bench_perf_core's
  // fabric_pps).
  struct Endpoint {
    Node* node = nullptr;
    Region region = Region::kDatacenter;
    bool down = false;
    int owner = 0;  // Owning shard.
  };

  // Open-addressing IpAddr -> Endpoint table with power-of-two buckets and
  // linear probing: a per-packet lookup costs a multiply-shift and a short
  // probe instead of std::unordered_map's divide-by-prime bucket mapping.
  // Address 0 marks an empty bucket (0.0.0.0 is never attachable; it already
  // serves as the "no encap" sentinel in Packet).
  class EndpointMap {
   public:
    EndpointMap() : buckets_(kMinBuckets) {}

    Endpoint* Find(IpAddr ip) {
      for (std::size_t i = Home(ip);; i = (i + 1) & mask_) {
        if (buckets_[i].key == ip) {
          return &buckets_[i].ep;
        }
        if (buckets_[i].key == 0) {
          return nullptr;
        }
      }
    }
    const Endpoint* Find(IpAddr ip) const {
      return const_cast<EndpointMap*>(this)->Find(ip);
    }

    // Returns the entry for `ip`, default-constructed if absent.
    Endpoint& Upsert(IpAddr ip);
    void Erase(IpAddr ip);

   private:
    struct Bucket {
      IpAddr key = 0;
      Endpoint ep;
    };
    static constexpr std::size_t kMinBuckets = 64;

    std::size_t Home(IpAddr ip) const {
      // Fibonacci hashing; the high half of the product is well mixed.
      return static_cast<std::size_t>(
                 (static_cast<std::uint64_t>(ip) * 0x9E3779B97F4A7C15ull) >> 32) &
             mask_;
    }

    std::vector<Bucket> buckets_;
    std::size_t mask_ = kMinBuckets - 1;
    std::size_t size_ = 0;
  };

  // Per-shard slice of the fabric. Each lane's RNG stream and trace-id space
  // are derived from the lane index, never the worker count; lane 0 draws
  // from the Network's seed itself.
  struct Lane {
    Lane(sim::Simulator* simulator, std::uint64_t seed, std::uint64_t first_trace_id)
        : sim(simulator), rng(seed), next_trace_id(first_trace_id) {}

    sim::Simulator* sim;
    sim::Rng rng;
    EndpointMap endpoints;  // Replica; all replicas converge at barriers.
    std::uint64_t next_trace_id;
    NetworkStats stats;
    // Freelist-backed pool of in-flight packets. A deque keeps slot
    // references stable while a HandlePacket callee reentrantly Sends
    // (which may grow the pool); released slots are reset so shared payload
    // buffers are returned promptly.
    std::deque<Packet> pool;
    std::vector<std::uint32_t> pool_free;
    // Amortizes the pool high-water trim (see TrimPoolIfBloated).
    std::size_t releases_since_trim = 0;
  };

  // The executing shard's lane; lane 0 outside the epoch loop.
  int CurrentLaneIndex() const;
  Lane& CurrentLane() { return *lanes_[static_cast<std::size_t>(CurrentLaneIndex())]; }
  const Lane& CurrentLane() const { return const_cast<Network*>(this)->CurrentLane(); }
  int ResolveShard(IpAddr ip) const;
  // Applies a lane-replicated endpoint write (`fn(lane_idx)` mutates
  // lanes_[lane_idx]): immediately on every lane when the engine is idle,
  // else broadcast so each lane applies it at the next barrier.
  void ApplyLaneWrite(std::function<void(int lane)> fn);

  sim::Duration DeliveryLatency(Lane& lane, Region src_region, IpAddr dst);
  Region RegionOf(const Lane& lane, IpAddr ip) const;
  std::uint32_t AcquireSlot(Lane& lane, Packet&& packet);
  void ReleaseSlot(Lane& lane, std::uint32_t slot);
  void TrimPoolIfBloated(Lane& lane);
  void Deliver(std::uint32_t lane_idx, std::uint32_t slot);
  void DeliverCross(int lane_idx, Packet&& packet);
  static void DeliverTrampoline(void* ctx, std::uint64_t arg);

  sim::ShardedSim* engine_;
  OwnerFn owner_of_;
  std::vector<std::unique_ptr<Lane>> lanes_;  // One per engine shard.
  // Dense (src region, dst region) grid; symmetric, default-initialized so
  // unconfigured pairs keep the 250 us +- 50 us jitter default. Shared by
  // lanes: configured at setup, read-only while running.
  LatencySpec latency_[2][2];
  double loss_rate_ = 0;
  FaultObserver* fault_observer_ = nullptr;
  mutable NetworkStats agg_stats_;  // stats() aggregation cache.
};

}  // namespace net

#endif  // SRC_NET_NETWORK_H_
