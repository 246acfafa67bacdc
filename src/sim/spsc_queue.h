// Lock-free single-producer/single-consumer queue used as the cross-shard
// mailbox fabric in the parallel simulator (sharded_sim.h).
//
// Design: a segmented unbounded queue. The producer appends into the tail
// segment and publishes each item by bumping the segment's `count` with a
// release store; the consumer reads `count` with an acquire load and walks
// the slots up to it. When a segment fills, the producer links a fresh one
// through an atomic `next` pointer (release) that the consumer picks up
// (acquire) once it has drained the old segment. Segments the consumer
// finishes are deleted by the consumer — there is no cross-thread free-list,
// so each side only ever touches memory it owns or that was published to it.
//
// Exactly one thread may call Push and exactly one may call Pop. The shard
// scheduler upholds this by construction: queue (src, dst) is pushed only by
// the worker running shard src and popped only by the worker that owns shard
// dst, with an epoch barrier between the producing and consuming phases.

#ifndef SRC_SIM_SPSC_QUEUE_H_
#define SRC_SIM_SPSC_QUEUE_H_

#include <atomic>
#include <cstddef>
#include <new>
#include <utility>

namespace sim {

template <typename T, std::size_t kSegCap = 256>
class SpscQueue {
 public:
  SpscQueue() {
    Segment* s = new Segment();
    head_ = s;
    tail_ = s;
  }
  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  ~SpscQueue() {
    // Single-threaded at destruction: drain remaining items, free segments.
    T scratch;
    while (Pop(&scratch)) {
    }
    Segment* s = head_;
    while (s != nullptr) {
      Segment* next = s->next.load(std::memory_order_relaxed);
      delete s;
      s = next;
    }
  }

  // Producer side only.
  void Push(T&& value) {
    Segment* s = tail_;
    std::size_t n = s->count.load(std::memory_order_relaxed);
    if (n == kSegCap) {
      Segment* fresh = new Segment();
      s->next.store(fresh, std::memory_order_release);
      tail_ = fresh;
      s = fresh;
      n = 0;
    }
    ::new (static_cast<void*>(s->slots + n * sizeof(T))) T(std::move(value));
    s->count.store(n + 1, std::memory_order_release);
  }

  // Consumer side only. Returns false when no published item is available.
  bool Pop(T* out) {
    Segment* s = head_;
    std::size_t avail = s->count.load(std::memory_order_acquire);
    if (s->pos == avail) {
      if (avail < kSegCap) {
        return false;  // Producer still filling this segment.
      }
      Segment* next = s->next.load(std::memory_order_acquire);
      if (next == nullptr) {
        return false;  // Full segment published but successor not linked yet.
      }
      delete s;
      head_ = s = next;
      avail = s->count.load(std::memory_order_acquire);
      if (s->pos == avail) {
        return false;
      }
    }
    T* item = s->Slot(s->pos);
    *out = std::move(*item);
    item->~T();
    ++s->pos;
    return true;
  }

 private:
  struct Segment {
    std::atomic<Segment*> next{nullptr};
    std::atomic<std::size_t> count{0};  // Items published by the producer.
    std::size_t pos = 0;                // Items consumed (consumer-owned).
    alignas(alignof(T)) unsigned char slots[kSegCap * sizeof(T)];

    T* Slot(std::size_t i) { return std::launder(reinterpret_cast<T*>(slots + i * sizeof(T))); }
  };

  alignas(64) Segment* head_;  // Consumer-owned.
  alignas(64) Segment* tail_;  // Producer-owned.
};

}  // namespace sim

#endif  // SRC_SIM_SPSC_QUEUE_H_
