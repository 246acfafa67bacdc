#include "perfbench/layer_trace.h"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>

namespace perfbench {
namespace {

struct Span {
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::uint32_t src;
  std::uint32_t dst;
  std::uint16_t sport;
  std::uint16_t dport;
  std::uint8_t layer;
  std::uint8_t shard;
};

struct Slot {
  std::uint64_t packets[kLayers];
  std::uint64_t allocs[kLayers];
  Span* spans;
  std::size_t span_count;
  std::size_t span_cap;
};

constexpr int kMaxSlots = 256;
std::atomic<Slot*> g_slots[kMaxSlots] = {};
std::atomic<int> g_slot_count{0};
std::atomic<bool> g_recording{false};
std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

// Constant-initialized, so the allocation hooks may touch them before any
// dynamic initialization has run on this thread.
thread_local Slot* tl_slot = nullptr;
thread_local int tl_layer = static_cast<int>(Layer::kOther);

Slot* MySlot() {
  if (tl_slot == nullptr) {
    tl_slot = static_cast<Slot*>(std::calloc(1, sizeof(Slot)));
    if (tl_slot == nullptr) {
      std::abort();
    }
    const int idx = g_slot_count.fetch_add(1, std::memory_order_relaxed);
    if (idx >= kMaxSlots) {
      std::fputs("perfbench: too many threads for the layer tracer\n", stderr);
      std::abort();
    }
    g_slots[idx].store(tl_slot, std::memory_order_release);
  }
  return tl_slot;
}

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

void PushSpan(Slot* s, const Span& span) {
  if (s->span_count == s->span_cap) {
    const std::size_t cap = s->span_cap == 0 ? 4096 : s->span_cap * 2;
    auto* grown = static_cast<Span*>(std::realloc(s->spans, cap * sizeof(Span)));
    if (grown == nullptr) {
      std::abort();
    }
    s->spans = grown;
    s->span_cap = cap;
  }
  s->spans[s->span_count++] = span;
}

template <typename Fn>
void ForEachSlot(Fn&& fn) {
  const int n = std::min(g_slot_count.load(std::memory_order_acquire), kMaxSlots);
  for (int i = 0; i < n; ++i) {
    if (Slot* s = g_slots[i].load(std::memory_order_acquire)) {
      fn(*s);
    }
  }
}

// Self time of every span in one thread's list: sorted by start (outer span
// first on ties), a stack sweep charges each span's duration to its direct
// parent's children. Outermost spans count as shard busy time.
void FoldSpans(Slot& s, LayerTotals& totals) {
  Span* spans = s.spans;
  const std::size_t n = s.span_count;
  std::sort(spans, spans + n, [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.end_ns > b.end_ns;
  });
  auto* child_ns = static_cast<std::uint64_t*>(std::calloc(n + 1, sizeof(std::uint64_t)));
  auto* stack = static_cast<std::size_t*>(std::malloc((n + 1) * sizeof(std::size_t)));
  if (child_ns == nullptr || stack == nullptr) {
    std::abort();
  }
  std::size_t depth = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& sp = spans[i];
    while (depth > 0 && spans[stack[depth - 1]].end_ns <= sp.start_ns) {
      --depth;
    }
    const std::uint64_t dur = sp.end_ns - sp.start_ns;
    if (depth > 0) {
      child_ns[stack[depth - 1]] += dur;
    } else if (sp.shard < kMaxShards) {
      totals.shard_busy_ns[sp.shard] += dur;
    }
    stack[depth++] = i;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t dur = spans[i].end_ns - spans[i].start_ns;
    totals.self_ns[spans[i].layer] += dur - std::min(dur, child_ns[i]);
  }
  totals.spans += n;
  std::free(child_ns);
  std::free(stack);
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kL4lb:
      return "l4lb";
    case Layer::kCore:
      return "core";
    case Layer::kClient:
      return "client";
    case Layer::kBackend:
      return "backend";
    case Layer::kOther:
      return "sim";
  }
  return "?";
}

std::int64_t HeapPeakBytes() { return g_peak.load(std::memory_order_relaxed); }

void NoteAlloc(void* p) {
  const auto size = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t live = g_live.fetch_add(size, std::memory_order_relaxed) + size;
  std::int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  ++MySlot()->allocs[tl_layer];
}

void NoteFree(void* p) {
  g_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)), std::memory_order_relaxed);
}

void BeginWindow() {
  ForEachSlot([](Slot& s) {
    std::fill(std::begin(s.packets), std::end(s.packets), 0);
    std::fill(std::begin(s.allocs), std::end(s.allocs), 0);
    s.span_count = 0;
  });
  g_recording.store(true, std::memory_order_release);
}

LayerTotals EndWindow() {
  g_recording.store(false, std::memory_order_release);
  LayerTotals totals;
  ForEachSlot([&totals](Slot& s) {
    for (int l = 0; l < kLayers; ++l) {
      totals.packets[l] += s.packets[l];
      totals.allocs[l] += s.allocs[l];
    }
    FoldSpans(s, totals);
  });
  return totals;
}

bool WriteSpans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  bool ok = true;
  ForEachSlot([&](Slot& s) {
    for (std::size_t i = 0; i < s.span_count && ok; ++i) {
      const Span& sp = s.spans[i];
      unsigned char rec[32] = {};
      auto put = [&rec](std::size_t at, std::uint64_t v, std::size_t bytes) {
        for (std::size_t b = 0; b < bytes; ++b) {
          rec[at + b] = static_cast<unsigned char>(v >> (8 * b));
        }
      };
      put(0, sp.start_ns, 8);
      put(8, sp.end_ns, 8);
      put(16, sp.src, 4);
      put(20, sp.dst, 4);
      put(24, sp.sport, 2);
      put(26, sp.dport, 2);
      put(28, sp.layer, 1);
      put(29, sp.shard, 1);
      ok = std::fwrite(rec, sizeof(rec), 1, f) == 1;
    }
  });
  return std::fclose(f) == 0 && ok;
}

void TracedNode::HandlePacket(const net::Packet& packet) {
  Slot* s = MySlot();
  const int layer = static_cast<int>(layer_);
  // Copied up front: the handler may release the packet's pool slot.
  Span span{0, 0, packet.src, packet.dst, packet.sport, packet.dport,
            static_cast<std::uint8_t>(layer), shard_};
  const int outer = tl_layer;
  tl_layer = layer;
  span.start_ns = NowNs();
  inner_->HandlePacket(packet);
  span.end_ns = NowNs();
  tl_layer = outer;
  ++s->packets[layer];
  if (g_recording.load(std::memory_order_relaxed)) {
    PushSpan(s, span);
  }
}

}  // namespace perfbench
