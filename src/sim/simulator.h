// Discrete-event simulator core.
//
// The Simulator owns the set of timestamped callbacks. Events with equal
// timestamps fire in insertion order (a monotonically increasing sequence
// number breaks ties), which keeps runs deterministic regardless of container
// implementation details.
//
// Implementation: a hierarchical timer wheel over slab-allocated intrusive
// event records. The near level is a 4096-slot ring with one slot per
// 1.024 us tick (~4.2 ms of direct coverage — the band where almost every
// packet delay and protocol timer lands, so the common event inserts once
// and never cascades); five 64-slot coarse levels above it extend the
// horizon to ~52 days. Schedule and cancel are O(1); cancel unlinks the record
// immediately (no tombstones), so queued_events() is always the exact live
// count. Handles validate against a per-record generation counter, so a
// handle costs 16 bytes and no allocation. The dominant packet-delivery
// event kind uses the raw calling convention (AtRaw/AfterRaw: a function
// pointer plus two context words) and allocates nothing per event; the
// std::function path remains for control-plane work.
//
// Determinism: events are always popped in strict (when, seq) order — due
// events form a run sorted by exactly that key, and the wheel is only ever
// drained at the globally minimal next slot — so the firing order is
// identical to a priority queue's and independent of wheel layout.
//
// This is the substrate that replaces the paper's Azure testbed: every other
// component (TCP endpoints, the L4 mux, Yoda instances, TCPStore servers,
// clients) schedules its work through one Simulator instance.
//
// Placement: a Simulator created by a ShardedSim is one shard of that engine
// and knows both (engine(), shard_index()); a component built on it reads its
// placement from there. A standalone Simulator has neither.
//
// Observability: every Simulator owns one obs::Registry and one
// obs::FlightRecorder, and a component built on it reports into those two
// sinks. Only this simulator's events (or setup code while its engine is
// idle) write them, so shards never share a sink; report code reads each
// shard's sinks and merges them in shard order.

#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/sim/time.h"

namespace sim {

class ShardedSim;
class Simulator;

// Handle for a scheduled event; allows cancellation before it fires.
// Handles are 16 bytes, copyable, and allocation-free: they name a slab slot
// plus the generation the event was scheduled under, so a handle to an event
// that already fired (or whose slot was reused) is simply no longer pending.
// A non-empty handle must not outlive its Simulator.
class TimerHandle {
 public:
  TimerHandle() = default;

  // Cancels the event if it has not fired yet. Safe to call repeatedly and on
  // default-constructed handles. Cancellation is O(1) and releases the event
  // record immediately — no tombstone stays behind in the queue.
  void Cancel();

  // True if the event is still pending (scheduled, not fired, not cancelled).
  bool pending() const;

 private:
  friend class Simulator;
  TimerHandle(Simulator* sim, std::uint32_t idx, std::uint32_t gen)
      : sim_(sim), idx_(idx), gen_(gen) {}

  Simulator* sim_ = nullptr;
  std::uint32_t idx_ = 0;
  std::uint32_t gen_ = 0;
};

class Simulator {
 public:
  // Raw event calling convention for hot paths: a plain function pointer and
  // two context words. Scheduling one allocates nothing (the record comes
  // from the slab freelist).
  using RawFn = void (*)(void* ctx, std::uint64_t arg);

  // Binds the event-loop gauges into registry():
  //   sim.events_executed        events run since construction
  //   sim.queue_depth_high_water max pending-event queue depth ever observed
  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Current simulated time.
  Time now() const { return now_; }

  // The engine this simulator is a shard of, and its index there; nullptr
  // and -1 for a standalone simulator.
  ShardedSim* engine() const { return engine_; }
  int shard_index() const { return shard_index_; }

  // The sinks every component built on this simulator reports into.
  obs::Registry& registry() { return registry_; }
  obs::FlightRecorder& recorder() { return recorder_; }

  // Schedules `fn` to run at absolute time `when`. `when` must be >= now().
  // Daemon events (background housekeeping like health-monitor ticks) do not
  // keep Run() alive: the loop stops once only daemon events remain.
  TimerHandle At(Time when, std::function<void()> fn, bool daemon = false);

  // Schedules `fn` to run `delay` after now(). Negative delays clamp to 0.
  TimerHandle After(Duration delay, std::function<void()> fn, bool daemon = false);

  // Allocation-free variants for per-packet work: `fn(ctx, arg)` runs at the
  // given time. Identical ordering semantics to At/After.
  TimerHandle AtRaw(Time when, RawFn fn, void* ctx, std::uint64_t arg, bool daemon = false);
  TimerHandle AfterRaw(Duration delay, RawFn fn, void* ctx, std::uint64_t arg,
                       bool daemon = false);

  // Runs events until no non-daemon events remain.
  void Run();

  // Runs events with timestamp <= `deadline`, then advances now() to
  // `deadline` (even if later events remain scheduled).
  void RunUntil(Time deadline);

  // Runs `n` events (or fewer if the queue drains). Returns events executed.
  int Step(int n = 1);

  // Number of live events currently scheduled. Exact: cancellation removes
  // the event immediately, so cancelled timers never inflate this gauge.
  std::size_t queued_events() const { return live_events_; }

  // Live events that are not daemons — the count that keeps Run() alive. The
  // sharded scheduler uses this for its global termination check.
  std::size_t pending_non_daemon() const { return live_non_daemon_; }

  // Read-only lower bound on the earliest pending event's timestamp (daemon
  // or not); false if nothing is scheduled. Exact when the due run is
  // populated or the minimum sits in level 0; for events parked in a coarse
  // wheel level it returns the slot's range start (<= the true minimum), and
  // a subsequent bounded RunUntil past that bound cascades the slot so the
  // next call strictly refines. Unlike PeekNextWhen this never advances the
  // wheel, so it is safe to call between bounded runs — the sharded
  // scheduler uses it to place epoch windows.
  bool NextEventLowerBound(Time* when) const;

  // Allocated slab capacity in event records (for memory observability).
  std::size_t slab_capacity() const { return allocated_; }

  // Deepest the live-event count has ever been; an observability gauge for
  // sizing and leak spotting. Exact for the same reason as queued_events().
  std::size_t queue_high_water() const { return queue_high_water_; }

  // Total events executed since construction; useful in tests.
  std::uint64_t executed_events() const { return executed_; }

  // Debug aid: audits the wheel/due/overflow structures (positions, levels,
  // occupancy bitmaps, live counts) and returns false on the first
  // inconsistency, printing it to stderr. O(live events); for tests only.
  bool AuditConsistency() const;

 private:
  friend class TimerHandle;
  friend class ShardedSim;  // Sets engine_/shard_index_ on the shards it creates.

  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr int kTickShift = 10;  // 1024 ns per tick.
  static constexpr int kL0Bits = 12;     // 4096 level-0 slots: one per tick, ~4.2 ms.
  static constexpr int kL0Slots = 1 << kL0Bits;
  static constexpr int kLevelBits = 6;  // 64 slots per coarse level.
  static constexpr int kSlots = 1 << kLevelBits;
  static constexpr int kLevels = 6;  // 12 + 5*6 = 42 tick bits ~= 52 days of horizon.
  static constexpr std::uint8_t kDueLevel = 0xfe;
  static constexpr std::uint8_t kOverflowLevel = 0xff;
  static constexpr int kChunkShift = 10;  // 1024 records per slab chunk.
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  struct EventRec {
    // Hot fields first: scheduling and cancel touch only the first 32 bytes
    // (one cache line holds two records' hot halves).
    Time when = 0;
    std::uint64_t seq = 0;
    std::uint32_t next = kNil;  // Freelist / overflow-list link.
    std::uint32_t prev = kNil;  // Position in the slot vector; overflow prev link.
    std::uint32_t gen = 0;  // Bumped once per fire/cancel; validates handles.
    std::uint8_t level = 0;   // Wheel level, kDueLevel, or kOverflowLevel.
    std::uint16_t slot = 0;   // Level-0 slots need 12 bits.
    bool daemon = false;
    bool cancelled = false;  // Only for records cancelled while in the due heap.
    RawFn raw_fn = nullptr;  // Hot path; takes precedence when non-null.
    void* raw_ctx = nullptr;
    std::uint64_t raw_arg = 0;
    std::function<void()> fn;  // Generic path; empty for raw events.
  };

  struct SlotList {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  // The due run only ever holds one tick's events (AdvanceWheel is entered
  // with an empty run and drains exactly one tick; runtime pushes land in the
  // current tick), so (when, seq) order collapses to one 64-bit key: the
  // sub-tick bits of `when` above `seq`. seq would need 2^54 events to
  // overflow its field.
  struct DueEntry {
    std::uint64_t key = 0;
    std::uint32_t idx = 0;
  };
  struct DueLess {
    bool operator()(const DueEntry& a, const DueEntry& b) const { return a.key < b.key; }
  };

  EventRec& Rec(std::uint32_t idx) { return chunks_[idx >> kChunkShift][idx & (kChunkSize - 1)]; }
  const EventRec& Rec(std::uint32_t idx) const {
    return chunks_[idx >> kChunkShift][idx & (kChunkSize - 1)];
  }

  // Bit position of a level's slot index within a tick value.
  static constexpr int LevelShift(int level) {
    return level == 0 ? 0 : kL0Bits + kLevelBits * (level - 1);
  }

  std::uint32_t Alloc();
  void Free(std::uint32_t idx);
  // High-water trimming: when the freelist dwarfs the live set, drop wholly-
  // free tail chunks so a burst (e.g. a 10x-scale bench phase) does not pin
  // its peak slab forever. The probe is O(chunks) via per-chunk free
  // counters; the O(free records) freelist rebuild runs only on a drop.
  void MaybeTrimSlab();
  void TrimSlab(std::size_t keep);
  TimerHandle Admit(std::uint32_t idx, Time when, bool daemon);
  void ScheduleRec(std::uint32_t idx);
  void WheelInsert(std::uint32_t idx, std::int64_t tick);
  void ListAppend(SlotList& list, std::uint32_t idx);
  void ListUnlink(SlotList& list, std::uint32_t idx);
  std::vector<std::uint32_t>& SlotVec(int level, int slot) {
    return level == 0 ? slots0_[static_cast<std::size_t>(slot)]
                      : slots_hi_[static_cast<std::size_t>(level - 1)][static_cast<std::size_t>(slot)];
  }
  void ClearSlotBit(int level, int slot);
  // Circular distance from level-0 slot `start` to the next occupied level-0
  // slot (the slot holding wheel_tick_ scans last, as a full turn). -1 if the
  // level is empty.
  int NextOccupied0(int start) const;
  void PushDue(std::uint32_t idx);
  void PopDue();
  void DrainSlotToDue(int slot);
  void CascadeSlot(int level, int slot);
  void RebuildOverflow();
  // Drains the globally next-due wheel slot into the due run. False if the
  // wheel (and overflow) hold no events at tick <= limit_tick; a bounded call
  // then parks wheel_tick_ at the bound so later schedules at the current
  // time stay in the current tick (the due run's single-tick invariant).
  bool AdvanceWheel(std::int64_t limit_tick);
  // Earliest pending (when); skims cancelled due records. False if nothing is
  // pending at tick <= limit_tick. RunUntil bounds the search at its deadline
  // tick so the wheel never drains a tick it will not fire.
  bool PeekNextWhen(Time* when,
                    std::int64_t limit_tick = std::numeric_limits<std::int64_t>::max());
  bool RunOne();
  void CancelEvent(std::uint32_t idx, std::uint32_t gen);
  bool EventPending(std::uint32_t idx, std::uint32_t gen) const;

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_events_ = 0;
  std::size_t live_non_daemon_ = 0;
  std::size_t queue_high_water_ = 0;

  // Slab of event records; chunked so addresses stay stable, freelist-linked
  // through EventRec::next.
  std::vector<std::unique_ptr<EventRec[]>> chunks_;
  std::uint32_t allocated_ = 0;
  std::uint32_t free_head_ = kNil;
  // Trim probe stride: the droppability scan runs at most once per 4096
  // frees, so cancel-churn bursts pay O(1) amortized for it.
  std::uint32_t frees_since_trim_check_ = 0;
  // Free records per chunk, maintained on every Alloc/Free so the trim
  // probe never has to walk the freelist just to learn nothing is droppable.
  std::vector<std::uint32_t> chunk_free_;
  // Generation floor for records in chunks re-grown after a trim (keeps
  // stale handles from ever matching a fresh record at a recycled index).
  std::uint32_t fresh_gen_base_ = 0;

  // Timer wheel. All wheel-resident events have tick > wheel_tick_; events
  // at tick <= wheel_tick_ live in the due run.
  std::int64_t wheel_tick_ = -1;
  // Bit l set iff level l has any occupied slot: lets the advance scan visit
  // only live levels.
  std::uint8_t level_mask_ = 0;
  // Level-0 occupancy is a two-tier bitmap over the 4096 slots: summary bit w
  // is set iff occupied0_[w] != 0, so the circular next-slot scan touches at
  // most three words. Coarse levels fit one word each.
  std::uint64_t occ0_summary_ = 0;
  std::array<std::uint64_t, kL0Slots / 64> occupied0_{};
  std::array<std::uint64_t, kLevels - 1> occupied_hi_{};
  // Each slot is a vector of record indices, not an intrusive list: insertion
  // order inside a slot is irrelevant (the due-run sort establishes firing
  // order), so insert is a push_back and cancel a swap-remove via
  // EventRec::prev — no pointer chase through a previous tail record.
  std::array<std::vector<std::uint32_t>, kL0Slots> slots0_{};
  std::array<std::array<std::vector<std::uint32_t>, kSlots>, kLevels - 1> slots_hi_{};
  // CascadeSlot detaches a slot into this scratch before redistributing
  // (next-lap records re-enter the same slot; see CascadeSlot).
  std::vector<std::uint32_t> cascade_scratch_;

  // Events beyond the wheel horizon (~52 sim-days out); reinserted lazily.
  SlotList overflow_;
  std::uint64_t overflow_count_ = 0;
  std::int64_t overflow_min_tick_ = 0;

  // Events at the current tick as a sorted run consumed from due_head_:
  // AdvanceWheel appends a whole drain batch unsorted and sorts once (a heap
  // would charge every event two O(log n) sifts; one sort over the batch is
  // measurably cheaper), while runtime insertions — callbacks scheduling
  // within the current tick — binary-insert into the remaining run.
  std::vector<DueEntry> due_;
  std::size_t due_head_ = 0;
  bool due_batching_ = false;  // Set inside AdvanceWheel; defers sorting.

  ShardedSim* engine_ = nullptr;
  int shard_index_ = -1;

  obs::Registry registry_;
  obs::FlightRecorder recorder_;
};

}  // namespace sim

#endif  // SRC_SIM_SIMULATOR_H_
