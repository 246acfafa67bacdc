// Layer tracing done from outside the program.
//
// The benchmark re-attaches every instance, backend, client and VIP address
// to a TracedNode. The wrapper times the wrapped node's HandlePacket, records
// one span per delivered packet (layer, shard, start, end, 5-tuple) and marks
// its layer as "on the stack" so the allocation hooks (alloc_hooks.cc, linked
// into the traced binary only) charge allocations to it. Everything outside
// any wrapper — event dispatch, network delivery, timers, KV operations, the
// controller — is the residual "sim" layer.
//
// Accounting is per thread: each thread that delivers a packet or allocates
// owns one slot, so placed runs on several workers never share a counter.
// Slots and span storage come from malloc, never from operator new, so the
// tracer neither recurses into the hooks nor shows up in the heap figures.

#ifndef PERFBENCH_LAYER_TRACE_H_
#define PERFBENCH_LAYER_TRACE_H_

#include <array>
#include <cstdint>
#include <string>

#include "src/net/network.h"

namespace perfbench {

enum class Layer : std::uint8_t { kL4lb = 0, kCore, kClient, kBackend, kOther };
constexpr int kWrappedLayers = 4;  // Every layer except kOther has a wrapper.
constexpr int kLayers = 5;
constexpr int kMaxShards = 16;
const char* LayerName(Layer layer);

// Totals over every thread slot.
struct LayerTotals {
  std::array<std::uint64_t, kLayers> packets{};
  std::array<std::uint64_t, kLayers> allocs{};
  // Per-layer self time, derived from the spans.
  std::array<std::uint64_t, kLayers> self_ns{};
  // Wrapped (outermost-span) time per shard.
  std::array<std::uint64_t, kMaxShards> shard_busy_ns{};
  std::uint64_t spans = 0;
};

// High-water mark of process-wide live heap bytes (usable sizes), as seen by
// the allocation hooks; 0 in the untraced binary.
std::int64_t HeapPeakBytes();

// Starts a measurement window: clears every slot's counters and spans and
// turns span recording on.
void BeginWindow();
// Stops recording and folds every slot into totals (self time from spans).
LayerTotals EndWindow();
// Writes every recorded span as fixed-size little-endian records; returns
// false on I/O error.
bool WriteSpans(const std::string& path);

// Wraps one attached node; see the file comment.
class TracedNode final : public net::Node {
 public:
  TracedNode(net::Node* inner, Layer layer, int shard)
      : inner_(inner), layer_(layer), shard_(static_cast<std::uint8_t>(shard)) {}

  void HandlePacket(const net::Packet& packet) override;
  void OnColdRestart() override { inner_->OnColdRestart(); }

 private:
  net::Node* inner_;
  Layer layer_;
  std::uint8_t shard_;
};

// --- used by alloc_hooks.cc ---
void NoteAlloc(void* p);
void NoteFree(void* p);

}  // namespace perfbench

#endif  // PERFBENCH_LAYER_TRACE_H_
