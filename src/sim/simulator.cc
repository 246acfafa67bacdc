#include "src/sim/simulator.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <utility>

namespace sim {

void TimerHandle::Cancel() {
  if (sim_ != nullptr) {
    sim_->CancelEvent(idx_, gen_);
  }
}

bool TimerHandle::pending() const { return sim_ != nullptr && sim_->EventPending(idx_, gen_); }

Simulator::Simulator() {
  registry_.GetGauge("sim.events_executed").SetProvider([this]() {
    return static_cast<double>(executed_);
  });
  registry_.GetGauge("sim.queue_depth_high_water").SetProvider([this]() {
    return static_cast<double>(queue_high_water_);
  });
}

std::uint32_t Simulator::Alloc() {
  if (free_head_ != kNil) {
    const std::uint32_t idx = free_head_;
    free_head_ = Rec(idx).next;
    --chunk_free_[idx >> kChunkShift];
    return idx;
  }
  if ((allocated_ >> kChunkShift) == chunks_.size()) {
    chunks_.push_back(std::make_unique<EventRec[]>(kChunkSize));
    chunk_free_.push_back(0);
    if (fresh_gen_base_ != 0) {
      // Region re-grown after a trim: start generations above every handle
      // that ever named the dropped records, so stale handles stay inert.
      EventRec* recs = chunks_.back().get();
      for (std::uint32_t i = 0; i < kChunkSize; ++i) {
        recs[i].gen = fresh_gen_base_;
      }
    }
  }
  return allocated_++;
}

void Simulator::Free(std::uint32_t idx) {
  EventRec& rec = Rec(idx);
  // Release the closure now (guarded: the raw path never sets fn). raw_fn and
  // cancelled stay stale here — At()/Admit() rewrite them on reuse.
  if (rec.fn) {
    rec.fn = nullptr;
  }
  rec.next = free_head_;
  free_head_ = idx;
  ++chunk_free_[idx >> kChunkShift];
  MaybeTrimSlab();
}

void Simulator::MaybeTrimSlab() {
  // Amortized: probe every 4096 frees. The droppability check reads the
  // incrementally-maintained per-chunk free counters, so a probe that finds
  // nothing to drop costs O(chunks) — the O(free-records) freelist rebuild
  // only runs when a wholly-free suffix actually exists.
  if (++frees_since_trim_check_ < 4096) {
    return;
  }
  frees_since_trim_check_ = 0;
  const std::size_t free_recs = static_cast<std::size_t>(allocated_) - live_events_;
  if (free_recs < (1u << 14) || free_recs < live_events_ * 3) {
    return;
  }
  const std::size_t nchunks = chunks_.size();
  constexpr std::size_t kFloorChunks = 16;  // Always keep ~16K records around.
  // A chunk is droppable iff every record ever allocated from it is free.
  // Only a wholly-free *suffix* can go: record indices must stay dense below
  // allocated_ so Alloc()'s bump pointer and Rec() addressing keep working.
  std::size_t keep = nchunks;
  while (keep > kFloorChunks) {
    const std::size_t c = keep - 1;
    const std::size_t chunk_alloc =
        std::min<std::size_t>(kChunkSize, static_cast<std::size_t>(allocated_) - (c << kChunkShift));
    if (chunk_free_[c] != chunk_alloc) {
      break;
    }
    --keep;
  }
  if (keep == nchunks) {
    return;
  }
  TrimSlab(keep);
}

void Simulator::TrimSlab(std::size_t keep) {
  const std::uint32_t new_allocated = static_cast<std::uint32_t>(keep << kChunkShift);
  // Rebuild the freelist without the dropped indices, preserving order.
  std::uint32_t new_head = kNil;
  std::uint32_t tail = kNil;
  std::uint32_t dropped_gen_max = 0;
  for (std::uint32_t i = free_head_; i != kNil;) {
    const std::uint32_t next = Rec(i).next;
    if (i < new_allocated) {
      if (tail == kNil) {
        new_head = i;
      } else {
        Rec(tail).next = i;
      }
      Rec(i).next = kNil;
      tail = i;
    } else {
      dropped_gen_max = std::max(dropped_gen_max, Rec(i).gen);
    }
    i = next;
  }
  fresh_gen_base_ = std::max(fresh_gen_base_, dropped_gen_max + 1);
  free_head_ = new_head;
  allocated_ = new_allocated;
  chunks_.resize(keep);
  chunk_free_.resize(keep);
}

void Simulator::ListAppend(SlotList& list, std::uint32_t idx) {
  EventRec& rec = Rec(idx);
  rec.next = kNil;
  rec.prev = list.tail;
  if (list.tail == kNil) {
    list.head = idx;
  } else {
    Rec(list.tail).next = idx;
  }
  list.tail = idx;
}

void Simulator::ListUnlink(SlotList& list, std::uint32_t idx) {
  EventRec& rec = Rec(idx);
  if (rec.prev == kNil) {
    list.head = rec.next;
  } else {
    Rec(rec.prev).next = rec.next;
  }
  if (rec.next == kNil) {
    list.tail = rec.prev;
  } else {
    Rec(rec.next).prev = rec.prev;
  }
  rec.next = kNil;
  rec.prev = kNil;
}

void Simulator::PushDue(std::uint32_t idx) {
  EventRec& rec = Rec(idx);
  rec.level = kDueLevel;
  // Single-tick invariant: see DueEntry. The key orders by sub-tick `when`
  // first, insertion sequence second.
  assert((rec.when >> kTickShift) == wheel_tick_);
  const std::uint64_t subtick = static_cast<std::uint64_t>(rec.when) & ((1u << kTickShift) - 1);
  const DueEntry entry{(subtick << (64 - kTickShift)) | rec.seq, idx};
  if (due_batching_) {
    // AdvanceWheel sorts the whole run once after draining; just append.
    due_.push_back(entry);
    return;
  }
  // Runtime insertion (a callback scheduling within the current tick): keep
  // the remaining run sorted.
  due_.insert(std::upper_bound(due_.begin() + static_cast<std::ptrdiff_t>(due_head_), due_.end(),
                               entry, DueLess{}),
              entry);
}

void Simulator::PopDue() {
  if (++due_head_ == due_.size()) {
    due_.clear();
    due_head_ = 0;
  }
}

void Simulator::ScheduleRec(std::uint32_t idx) {
  const std::int64_t tick = Rec(idx).when >> kTickShift;
  if (tick <= wheel_tick_) {
    PushDue(idx);
  } else {
    WheelInsert(idx, tick);
  }
}

void Simulator::ClearSlotBit(int level, int slot) {
  if (level == 0) {
    std::uint64_t& word = occupied0_[static_cast<std::size_t>(slot >> 6)];
    word &= ~(1ull << (slot & 63));
    if (word == 0) {
      occ0_summary_ &= ~(1ull << (slot >> 6));
      if (occ0_summary_ == 0) {
        level_mask_ &= static_cast<std::uint8_t>(~1u);
      }
    }
  } else {
    std::uint64_t& word = occupied_hi_[static_cast<std::size_t>(level - 1)];
    word &= ~(1ull << slot);
    if (word == 0) {
      level_mask_ &= static_cast<std::uint8_t>(~(1u << level));
    }
  }
}

int Simulator::NextOccupied0(int start) const {
  const int w = start >> 6;
  const int b = start & 63;
  // Circular order from `start`: the rest of word w, then words w+1..w+63
  // (located via the summary), then word w's low bits as the final lap.
  const std::uint64_t high = occupied0_[static_cast<std::size_t>(w)] >> b;
  if (high != 0) {
    return std::countr_zero(high);
  }
  const std::uint64_t others = occ0_summary_ & ~(1ull << w);
  if (others != 0) {
    const std::uint64_t rotated = std::rotr(others, (w + 1) & 63);
    const int w2 = (w + 1 + std::countr_zero(rotated)) & 63;
    const int slot = (w2 << 6) + std::countr_zero(occupied0_[static_cast<std::size_t>(w2)]);
    return (slot - start) & (kL0Slots - 1);
  }
  const std::uint64_t low =
      occupied0_[static_cast<std::size_t>(w)] & ((1ull << b) - 1);  // b == 0 gives 0.
  if (low != 0) {
    return ((w << 6) + std::countr_zero(low) - start) & (kL0Slots - 1);
  }
  return -1;
}

void Simulator::WheelInsert(std::uint32_t idx, std::int64_t tick) {
  EventRec& rec = Rec(idx);
  const std::uint64_t delta = static_cast<std::uint64_t>(tick - wheel_tick_);  // >= 1.
  if (delta >= (1ull << (kL0Bits + kLevelBits * (kLevels - 1)))) {
    rec.level = kOverflowLevel;
    ListAppend(overflow_, idx);
    if (overflow_count_ == 0 || tick < overflow_min_tick_) {
      overflow_min_tick_ = tick;
    }
    ++overflow_count_;
    return;
  }
  // Level 0 takes every delta under 4096 ticks: one slot per tick, so the
  // common packet/timer event inserts once and never cascades. This branch is
  // the fast path — keep it straight-line, no shared helper calls.
  if (delta < kL0Slots) {
    const int slot = static_cast<int>(tick & (kL0Slots - 1));
    rec.level = 0;
    rec.slot = static_cast<std::uint16_t>(slot);
    auto& vec = slots0_[static_cast<std::size_t>(slot)];
    rec.prev = static_cast<std::uint32_t>(vec.size());  // Position, for O(1) cancel.
    vec.push_back(idx);
    occupied0_[static_cast<std::size_t>(slot >> 6)] |= 1ull << (slot & 63);
    occ0_summary_ |= 1ull << (slot >> 6);
    level_mask_ |= 1u;
    return;
  }
  // Coarse level l >= 1 covers deltas in [2^(12+6(l-1)), 2^(12+6l)): within
  // it, every slot maps to a unique coarse tick in (current, current + 64].
  const int level = 1 + (std::bit_width(delta) - 1 - kL0Bits) / kLevelBits;
  const int slot = static_cast<int>((tick >> LevelShift(level)) & (kSlots - 1));
  rec.level = static_cast<std::uint8_t>(level);
  rec.slot = static_cast<std::uint16_t>(slot);
  auto& vec = slots_hi_[static_cast<std::size_t>(level - 1)][static_cast<std::size_t>(slot)];
  rec.prev = static_cast<std::uint32_t>(vec.size());  // Position, for O(1) cancel.
  vec.push_back(idx);
  occupied_hi_[static_cast<std::size_t>(level - 1)] |= 1ull << slot;
  level_mask_ |= static_cast<std::uint8_t>(1u << level);
}

void Simulator::DrainSlotToDue(int slot) {
  auto& vec = slots0_[static_cast<std::size_t>(slot)];
  ClearSlotBit(0, slot);
  for (const std::uint32_t idx : vec) {
    PushDue(idx);
  }
  vec.clear();  // Keeps capacity; steady state allocates nothing.
}

void Simulator::CascadeSlot(int level, int slot) {
  auto& vec = slots_hi_[static_cast<std::size_t>(level - 1)][static_cast<std::size_t>(slot)];
  ClearSlotBit(level, slot);
  // Swap the slot out before redistributing: a record whose remaining delta
  // still maps to this level re-enters this very slot (same index, next lap
  // of the ring), so iterating the live vector would both invalidate the
  // iteration and then wipe the re-inserted record.
  cascade_scratch_.swap(vec);
  for (const std::uint32_t idx : cascade_scratch_) {
    ScheduleRec(idx);
  }
  cascade_scratch_.clear();  // Keeps capacity for the next cascade.
}

void Simulator::RebuildOverflow() {
  std::vector<std::uint32_t> items;
  items.reserve(overflow_count_);
  for (std::uint32_t idx = overflow_.head; idx != kNil; idx = Rec(idx).next) {
    items.push_back(idx);
  }
  overflow_ = SlotList{};
  overflow_count_ = 0;
  if (items.empty()) {
    return;
  }
  std::int64_t true_min = std::numeric_limits<std::int64_t>::max();
  for (const std::uint32_t idx : items) {
    true_min = std::min(true_min, static_cast<std::int64_t>(Rec(idx).when >> kTickShift));
  }
  // Jump the wheel to just before the earliest overflow event; events still
  // beyond the horizon re-enter the overflow list with a fresh minimum.
  wheel_tick_ = std::max(wheel_tick_, true_min - 1);
  for (const std::uint32_t idx : items) {
    ScheduleRec(idx);
  }
}

bool Simulator::NextEventLowerBound(Time* when) const {
  // Due run first: it is sorted and holds the globally next tick, so the
  // first non-cancelled entry is the exact minimum.
  for (std::size_t i = due_head_; i < due_.size(); ++i) {
    const EventRec& rec = Rec(due_[i].idx);
    if (!rec.cancelled) {
      *when = rec.when;
      return true;
    }
  }
  // Wheel scan, mirroring AdvanceWheel's candidate search but without
  // draining or cascading: level-0 candidates are exact ticks, coarse-level
  // candidates are slot range starts (a lower bound; the slot cascades once
  // the wheel crosses its start, after which this tightens).
  std::int64_t best_tick = std::numeric_limits<std::int64_t>::max();
  if ((level_mask_ & 1u) != 0) {
    const int start = static_cast<int>((wheel_tick_ + 1) & (kL0Slots - 1));
    const int dist = NextOccupied0(start);
    best_tick = wheel_tick_ + 1 + dist;
  }
  for (std::uint8_t mask = static_cast<std::uint8_t>(level_mask_ & ~1u); mask != 0;
       mask &= static_cast<std::uint8_t>(mask - 1)) {
    const int l = std::countr_zero(mask);
    const int shift = LevelShift(l);
    const std::int64_t coarse_now = wheel_tick_ >> shift;
    const int pos = static_cast<int>(coarse_now & (kSlots - 1));
    const std::uint64_t rotated =
        std::rotr(occupied_hi_[static_cast<std::size_t>(l - 1)], (pos + 1) & (kSlots - 1));
    const int dist = std::countr_zero(rotated);
    best_tick = std::min(best_tick, (coarse_now + 1 + dist) << shift);
  }
  if (overflow_count_ > 0) {
    // overflow_min_tick_ can only be stale low (cancelled minimum): still a
    // valid lower bound.
    best_tick = std::min(best_tick, overflow_min_tick_);
  }
  if (best_tick == std::numeric_limits<std::int64_t>::max()) {
    return false;
  }
  *when = best_tick << kTickShift;
  return true;
}

bool Simulator::AdvanceWheel(std::int64_t limit_tick) {
  // Entered only with an empty due run; batch-append everything the advance
  // produces and sort once on the way out.
  due_batching_ = true;
  while (true) {
    int best_level = -1;
    int best_slot = 0;
    std::int64_t best_tick = std::numeric_limits<std::int64_t>::max();
    // Level 0 first: first occupied slot in circular order starting just
    // after the slot containing wheel_tick_ (that slot itself scans last, as
    // a full turn).
    if ((level_mask_ & 1u) != 0) {
      const int start = static_cast<int>((wheel_tick_ + 1) & (kL0Slots - 1));
      const int dist = NextOccupied0(start);
      best_tick = wheel_tick_ + 1 + dist;
      best_level = 0;
      best_slot = (start + dist) & (kL0Slots - 1);
    }
    // Skip the coarse levels when the very next tick is occupied at level 0:
    // nothing in the wheel can be earlier, and any same-tick coarse slot is
    // handled by the boundary cascade below.
    if (best_tick != wheel_tick_ + 1) {
      for (std::uint8_t mask = static_cast<std::uint8_t>(level_mask_ & ~1u); mask != 0;
           mask &= static_cast<std::uint8_t>(mask - 1)) {
        const int l = std::countr_zero(mask);
        const int shift = LevelShift(l);
        const std::int64_t coarse_now = wheel_tick_ >> shift;
        const int pos = static_cast<int>(coarse_now & (kSlots - 1));
        const std::uint64_t rotated =
            std::rotr(occupied_hi_[static_cast<std::size_t>(l - 1)], (pos + 1) & (kSlots - 1));
        const int dist = std::countr_zero(rotated);
        const std::int64_t tick = (coarse_now + 1 + dist) << shift;
        if (tick < best_tick) {
          best_tick = tick;
          best_level = l;
          best_slot = (pos + 1 + dist) & (kSlots - 1);
        }
      }
    }
    // Inclusive: an overflow event tying best_tick must enter the wheel now
    // so it competes on (when, seq) with the events already due there.
    if (overflow_count_ > 0 && overflow_min_tick_ <= best_tick) {
      RebuildOverflow();
      continue;
    }
    if (best_level < 0 || best_tick > limit_tick) {
      // Nothing pending at tick <= limit_tick. For a bounded call, park the
      // wheel at the bound: this is safe without cascades — the coarse slot
      // containing any tick <= limit_tick is either empty (its slot-start
      // candidate would otherwise have bounded best_tick) or the never-
      // occupied slot containing wheel_tick_ itself — and it keeps later
      // same-time schedules in the current tick.
      if (limit_tick != std::numeric_limits<std::int64_t>::max() && limit_tick > wheel_tick_) {
        wheel_tick_ = limit_tick;
      }
      due_batching_ = false;
      return false;
    }
    wheel_tick_ = best_tick;
    if (best_level == 0) {
      // A level-0 slot holds exactly one tick's events: they are all due now.
      DrainSlotToDue(best_slot);
    }
    // Boundary cascade: any coarse-level slot that now contains wheel_tick_
    // redistributes (events at exactly wheel_tick_ become due; current-lap
    // events re-insert at strictly lower levels; next-lap events — same slot
    // index, one ring turn ahead — re-enter the same slot for later).
    // Top-down so a cascade landing in a lower level's current slot is
    // re-examined; the live mask test keeps the common sparse case cheap.
    for (int l = kLevels - 1; l >= 1; --l) {
      if (((level_mask_ >> l) & 1u) == 0) {
        continue;
      }
      const int pos = static_cast<int>((wheel_tick_ >> LevelShift(l)) & (kSlots - 1));
      if ((occupied_hi_[static_cast<std::size_t>(l - 1)] & (1ull << pos)) != 0) {
        CascadeSlot(l, pos);
      }
    }
    if (!due_.empty()) {
      due_batching_ = false;
      std::sort(due_.begin(), due_.end(), DueLess{});
      return true;
    }
    // Everything cascaded into future slots; pick the next candidate.
  }
}

bool Simulator::PeekNextWhen(Time* when, std::int64_t limit_tick) {
  while (true) {
    while (!due_.empty()) {
      const std::uint32_t idx = due_[due_head_].idx;
      const EventRec& rec = Rec(idx);
      if (rec.cancelled) {
        PopDue();
        Free(idx);
        continue;
      }
      *when = rec.when;
      return true;
    }
    if (!AdvanceWheel(limit_tick)) {
      return false;
    }
  }
}

TimerHandle Simulator::Admit(std::uint32_t idx, Time when, bool daemon) {
  EventRec& rec = Rec(idx);
  assert(when >= now_ && "cannot schedule events in the past");
  rec.when = when < now_ ? now_ : when;
  rec.seq = next_seq_++;
  rec.daemon = daemon;
  rec.cancelled = false;
  ++live_events_;
  if (!daemon) {
    ++live_non_daemon_;
  }
  if (live_events_ > queue_high_water_) {
    queue_high_water_ = live_events_;
  }
  TimerHandle handle(this, idx, rec.gen);
  ScheduleRec(idx);
  return handle;
}

TimerHandle Simulator::At(Time when, std::function<void()> fn, bool daemon) {
  const std::uint32_t idx = Alloc();
  EventRec& rec = Rec(idx);
  rec.fn = std::move(fn);
  rec.raw_fn = nullptr;  // May be stale from a reused raw-event record.
  return Admit(idx, when, daemon);
}

TimerHandle Simulator::After(Duration delay, std::function<void()> fn, bool daemon) {
  if (delay < 0) {
    delay = 0;
  }
  return At(now_ + delay, std::move(fn), daemon);
}

TimerHandle Simulator::AtRaw(Time when, RawFn fn, void* ctx, std::uint64_t arg, bool daemon) {
  const std::uint32_t idx = Alloc();
  EventRec& rec = Rec(idx);
  rec.raw_fn = fn;
  rec.raw_ctx = ctx;
  rec.raw_arg = arg;
  return Admit(idx, when, daemon);
}

TimerHandle Simulator::AfterRaw(Duration delay, RawFn fn, void* ctx, std::uint64_t arg,
                                bool daemon) {
  if (delay < 0) {
    delay = 0;
  }
  return AtRaw(now_ + delay, fn, ctx, arg, daemon);
}

void Simulator::CancelEvent(std::uint32_t idx, std::uint32_t gen) {
  if (idx >= allocated_) {
    return;
  }
  EventRec& rec = Rec(idx);
  if (rec.gen != gen || rec.cancelled) {
    return;  // Already fired, cancelled, or the slot was reused.
  }
  ++rec.gen;
  --live_events_;
  if (!rec.daemon) {
    --live_non_daemon_;
  }
  if (rec.level == kDueLevel) {
    // Heap entries cannot be unlinked in O(1); mark and free at pop.
    rec.cancelled = true;
    return;
  }
  if (rec.level == kOverflowLevel) {
    ListUnlink(overflow_, idx);
    --overflow_count_;  // overflow_min_tick_ may go stale; that is benign.
    Free(idx);
    return;
  }
  // Swap-remove from the slot vector; rec.prev is its position there.
  auto& vec = SlotVec(rec.level, rec.slot);
  const std::uint32_t last = vec.back();
  vec[rec.prev] = last;
  Rec(last).prev = rec.prev;
  vec.pop_back();
  if (vec.empty()) {
    ClearSlotBit(rec.level, rec.slot);
  }
  Free(idx);
}

bool Simulator::EventPending(std::uint32_t idx, std::uint32_t gen) const {
  return idx < allocated_ && Rec(idx).gen == gen && !Rec(idx).cancelled;
}

bool Simulator::AuditConsistency() const {
  std::size_t found = 0;
  const auto check_slot = [&](int l, int s, const std::vector<std::uint32_t>& vec) {
    for (std::size_t pos = 0; pos < vec.size(); ++pos) {
      const EventRec& rec = Rec(vec[pos]);
      if (rec.level != l || rec.slot != s || rec.prev != pos) {
        std::fprintf(stderr, "audit: rec %u at L%d slot %d pos %zu has level=%d slot=%d prev=%u\n",
                     vec[pos], l, s, pos, rec.level, rec.slot, rec.prev);
        return false;
      }
      const std::int64_t tick = rec.when >> kTickShift;
      if (tick <= wheel_tick_) {
        std::fprintf(stderr, "audit: rec %u in wheel but tick %lld <= wheel_tick %lld\n", vec[pos],
                     static_cast<long long>(tick), static_cast<long long>(wheel_tick_));
        return false;
      }
      ++found;
    }
    return true;
  };
  std::uint64_t summary = 0;
  for (int w = 0; w < kL0Slots / 64; ++w) {
    std::uint64_t bits = 0;
    for (int b = 0; b < 64; ++b) {
      const int s = (w << 6) + b;
      const auto& vec = slots0_[static_cast<std::size_t>(s)];
      if (!vec.empty()) {
        bits |= 1ull << b;
      }
      if (!check_slot(0, s, vec)) {
        return false;
      }
    }
    if (bits != occupied0_[static_cast<std::size_t>(w)]) {
      std::fprintf(stderr, "audit: L0 word %d occupied=%llx actual=%llx\n", w,
                   static_cast<unsigned long long>(occupied0_[static_cast<std::size_t>(w)]),
                   static_cast<unsigned long long>(bits));
      return false;
    }
    if (bits != 0) {
      summary |= 1ull << w;
    }
  }
  if (summary != occ0_summary_) {
    std::fprintf(stderr, "audit: L0 summary=%llx actual=%llx\n",
                 static_cast<unsigned long long>(occ0_summary_),
                 static_cast<unsigned long long>(summary));
    return false;
  }
  if ((level_mask_ & 1) != (summary != 0 ? 1 : 0)) {
    std::fprintf(stderr, "audit: L0 level_mask bit wrong\n");
    return false;
  }
  for (int l = 1; l < kLevels; ++l) {
    std::uint64_t bits = 0;
    for (int s = 0; s < kSlots; ++s) {
      const auto& vec = slots_hi_[static_cast<std::size_t>(l - 1)][static_cast<std::size_t>(s)];
      if (!vec.empty()) {
        bits |= 1ull << s;
      }
      if (!check_slot(l, s, vec)) {
        return false;
      }
    }
    if (bits != occupied_hi_[static_cast<std::size_t>(l - 1)]) {
      std::fprintf(stderr, "audit: L%d occupied=%llx actual=%llx\n", l,
                   static_cast<unsigned long long>(occupied_hi_[static_cast<std::size_t>(l - 1)]),
                   static_cast<unsigned long long>(bits));
      return false;
    }
    if (((level_mask_ >> l) & 1) != (bits != 0 ? 1 : 0)) {
      std::fprintf(stderr, "audit: L%d level_mask bit wrong\n", l);
      return false;
    }
  }
  for (std::size_t i = due_head_; i < due_.size(); ++i) {
    if (!Rec(due_[i].idx).cancelled) {
      ++found;
    }
  }
  for (std::uint32_t idx = overflow_.head; idx != kNil; idx = Rec(idx).next) {
    ++found;
  }
  if (found != live_events_) {
    std::fprintf(stderr, "audit: found %zu live records but live_events_=%zu\n", found,
                 live_events_);
    return false;
  }
  return true;
}

bool Simulator::RunOne() {
  Time next = 0;
  if (!PeekNextWhen(&next)) {
    return false;
  }
  const std::uint32_t idx = due_[due_head_].idx;
  PopDue();
  EventRec& rec = Rec(idx);
  now_ = rec.when;
  ++rec.gen;  // The handle is no longer pending.
  --live_events_;
  if (!rec.daemon) {
    --live_non_daemon_;
  }
  ++executed_;
  if (rec.raw_fn != nullptr) {
    const RawFn fn = rec.raw_fn;
    void* ctx = rec.raw_ctx;
    const std::uint64_t arg = rec.raw_arg;
    Free(idx);
    fn(ctx, arg);
  } else {
    // Invoke in place (record storage is chunk-stable and the bumped gen
    // already blocks reuse-by-handle); Free afterwards destroys the closure.
    rec.fn();
    Free(idx);
  }
  return true;
}

void Simulator::Run() {
  // Stop once only daemon events (self-rescheduling housekeeping) remain —
  // otherwise a periodic monitor would keep the loop alive forever.
  while (live_non_daemon_ > 0 && RunOne()) {
  }
}

void Simulator::RunUntil(Time deadline) {
  // Bound the wheel advance at the deadline's tick: the wheel must not drain
  // a future tick this call will not fire, or events scheduled afterwards at
  // the current time would join a due run belonging to a later tick.
  const std::int64_t limit_tick = deadline >> kTickShift;
  Time next = 0;
  while (PeekNextWhen(&next, limit_tick) && next <= deadline) {
    RunOne();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
}

int Simulator::Step(int n) {
  int done = 0;
  while (done < n && RunOne()) {
    ++done;
  }
  return done;
}

}  // namespace sim
