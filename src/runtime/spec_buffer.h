// SpecBuffer — the runtime's speculative-buffer API.
//
// This is the contract between the speculation protocol (ThreadManager,
// Ctx, the IR interpreter) and speculative memory buffering: everything
// above the runtime talks to SpecBuffer, never to a concrete backend.
//
// Backends (see BufferBackend in "runtime/enums.h"):
//   kStaticHash  — the paper's static hash + bounded overflow map
//                  ("runtime/global_buffer.h"); capacity exhaustion dooms
//                  the speculation.
//   kGrowableLog — open-addressed growable index over an append-only log
//                  ("runtime/growable_log_buffer.h"); capacity pressure
//                  resizes instead of dooming.
//
// Dispatch is static: the backend enum is fixed at init(), and every
// operation branches once to a fully inlined backend body — no virtual
// call on the load/store hot path.
//
// The backends themselves are just slot stores: they expose the
// word-granular primitives
//
//   find_read / find_write / insert_read / insert_write   (-> WordRef)
//   write_data / write_mark                               (by cached handle)
//   for_each_read / for_each_write
//   reset / doom / pressure / entry counts
//
// and every algorithm with policy in it is written once here, generic over
// those primitives: the byte-splitting load/store loops, the speculative
// view composition (write-set marked bytes over the read-set observation
// over main memory), the word-view cache, validation with word counting,
// commit, and the tree-form merge of paper IV-F including its
// read-adoption policy (skip-if-covered-by-full-mark, first value wins).
//
// Access-path tiers, fastest first:
//   direct region read — a load from a registered region (RegionRecord,
//     "runtime/region.h") that this speculation has not written never
//     reaches the buffer: the caller (Ctx) asks resolve_load() once per
//     region and generation, the first ask records (region, version) in an
//     inline table of kRegionSlots entries, and every later load is a
//     relaxed load from memory — no cache probe, no read-set insert, no
//     counter, no doom check. Validation compares the recorded versions.
//     A store into the region (note_store) switches it to the tiers below
//     and bumps region_gen(), which ends every caller's cached direct
//     decision; a full table or an unattributed store leaves the rest of
//     the speculation on the tiers below. Counted as direct_regions.
//   word-view cache hit — a direct-mapped cache of composed word views
//     ("runtime/word_view_cache.h", 1024 lines) sits in front of every
//     tier below. load_aligned probes it *before* the backend dispatch, so
//     a repeated load is a tag compare, a load and a shift, inline in
//     Ctx::load and exec::load_mem. Counted as mru_hits, plus the
//     probe_skips the hit saved.
//   load_aligned/store_aligned — naturally-aligned accesses of power-of-two
//     size <= 8 (every Shared<T>/SharedSpan<T> scalar): one word-view
//     resolution plus a shift, no byte-splitting loop. Counted as
//     fastpath_hits.
//   load_span/store_span — bulk transfers: one dispatch and doom check per
//     span, one cache probe (and on a miss one set probe) per *word*, not
//     per element; full interior words move as whole words.
//   load_bytes/store_bytes — the fully generic entry (any size, any
//     alignment), now a span of length one access.
//
// Coherence of the word-view cache. A line is filled from a resolved miss
// (never when the buffer is doomed, so a capacity-doom fallback value is
// never cached), and by a store that leaves its word fully written. Stores
// write through: a cached word's view takes the stored bytes, and the
// line's write handle skips the insert_write probe. Everything else that
// changes the sets behind the cache empties it: reset(), rearm(), init(),
// merge_into() on the joiner, and every doom — so
// a doomed buffer never serves a hit and the next access reaches the
// caller's doom check. The size is a constant chosen for the L1d
// footprint rather than tuned per workload: a miss costs the same probes
// as an uncached resolution, so no workload needs a different size.
//
// The double dispatch in validate_against/merge_into makes the join-time
// pairings generic, so buffers of different backends compose.
//
// Direct reads at the join. Against memory, a recorded version that moved
// fails validation (region_rollbacks). Against a speculative joiner, a
// recorded region the joiner has written (its own stores or a merged
// child's) fails it, and so does a child whose read records would not fit
// the joiner's table. merge_into() carries the child's records up: the first
// recorded version wins, written marks are merged, and a written mark that
// reaches the joiner ends the joiner's own direct reads of that region.
// commit_to_memory() bumps the version of every region it wrote; a
// speculation that may not read directly never tells its buffer which
// regions it writes, so its writes count as untracked. A failure
// caused by a region also turns direct reads off for the failing
// speculation's fork site, and so does a rollback that skipped validation
// (a doomed speculation) when one of its recorded versions has moved.
// Direct reads are off until set_fork_site turns them on: the fork site
// has not lost one, and the forker may read directly too (the
// non-speculative thread always may).
//
// Value prediction (PredictPolicy, off by default) is a policy layer over
// the same primitives: a confident per-slot ValuePredictor entry lets a
// first-touch read adopt the *predicted* final value instead of the
// current memory word, and validation — unchanged on its hot path —
// settles the bet: a correct prediction validates where the unpredicted
// buffer would have rolled back (counted as saved_rollbacks), a mispredict
// fails validation and dooms with its own reason. See value_predictor.h.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "runtime/buffer_stats.h"
#include "runtime/enums.h"
#include "runtime/global_buffer.h"
#include "runtime/growable_log_buffer.h"
#include "runtime/memory.h"
#include "runtime/region.h"
#include "runtime/value_predictor.h"
#include "runtime/word_view_cache.h"
#include "support/arena.h"
#include "support/check.h"

namespace mutls {

class SpecBuffer {
  // The whole API funnels through these two: one predictable branch on the
  // backend enum, then a fully inlined backend body. Defined before first
  // use — their deduced return types must be visible to the inline methods
  // below.
  template <typename Fn>
  decltype(auto) dispatch(Fn&& fn) {
    if (backend_ == BufferBackend::kGrowableLog) return fn(growable_log_);
    return fn(static_hash_);
  }
  template <typename Fn>
  decltype(auto) dispatch(Fn&& fn) const {
    if (backend_ == BufferBackend::kGrowableLog) return fn(growable_log_);
    return fn(static_hash_);
  }

 public:
  using PredictPolicy = SpecPredictPolicy;

  // The doom reason a value-prediction mispredict is contained with —
  // distinct from capacity and conflict reasons so rollback attribution
  // (tests, diagnostics) can tell a lost bet from a genuine exhaustion.
  static constexpr const char* kMispredictDoomReason =
      "value-prediction mispredict invalidated the read-set";

  SpecBuffer() = default;
  // The backends are self-referential after init (their maps point at this
  // buffer's stats block); copying/moving a buffer is never needed and is
  // deleted down the whole stack.
  SpecBuffer(const SpecBuffer&) = delete;
  SpecBuffer& operator=(const SpecBuffer&) = delete;

  // Configures the selected backend. `log2_entries` sizes the table (the
  // static size for kStaticHash, the initial size for kGrowableLog);
  // `overflow_cap` bounds kStaticHash's temporary buffer and is ignored by
  // kGrowableLog. `growable_max_log2` bounds the growable index (a memory
  // bound; also the seam the hard-cap doom tests use). `arena`, when given
  // (the owning virtual-CPU slot's arena), backs the growable arrays and
  // the join-time sort scratch through its persistent pool; without one
  // those fall back to the heap (standalone buffers in tests). `predict`
  // enables the per-slot value predictor (table storage also from the
  // arena pool).
  void init(BufferBackend backend, int log2_entries, size_t overflow_cap,
            int growable_max_log2 = GrowableSet::kMaxLog2,
            Arena* arena = nullptr, PredictPolicy predict = {}) {
    backend_ = backend;
    predict_ = predict;
    scratch_.attach(arena);
    predicted_.attach(arena);
    predictor_.init(predict, arena);
    if (predict.enabled) {
      // Pre-size the bet side table to its hard bound: a predicted read
      // needs a confident direct-mapped entry matching its word, so one
      // speculation can adopt at most one prediction per table bucket.
      // Sizing it here keeps the steady state allocation-free — the first
      // adoption necessarily happens *after* warm-up (the predictor must
      // train first), which is exactly when growing would break the
      // alloc_events == 0 budget.
      predicted_.reserve(size_t{1} << predict.table_log2);
    }
    if (backend_ == BufferBackend::kGrowableLog) {
      growable_log_.init(log2_entries, overflow_cap, &stats_,
                         growable_max_log2, arena);
    } else {
      static_hash_.init(log2_entries, overflow_cap, &stats_);
    }
    view_cache_.clear();
  }

  BufferBackend backend() const { return backend_; }

  // --- speculative access path (runs on the owning speculative thread) ---

  // Aligned-word fast path: a naturally-aligned access of power-of-two
  // size <= 8 can never straddle a word, so the byte-splitting loop
  // collapses to one word-view resolution plus a shift. The load returns
  // the addressed bytes in the LOW bytes of the result (the caller copies
  // out `size` of them); the store takes the value in the low bytes.
  uint64_t load_aligned(uintptr_t addr, size_t size) {
    MUTLS_DCHECK(word_sized_aligned(addr, size),
                 "load_aligned: size must be a power of two <= 8 and addr "
                 "naturally aligned");
    (void)size;  // only the high bytes the caller ignores depend on it
    ++stats_.fastpath_hits;
    uintptr_t word_addr = addr & ~kWordMask;
    uint64_t view = 0;
    if (!cached_view(word_addr, view)) {
      view = dispatch([&](auto& b) { return word_view_miss(b, word_addr); });
    }
    return view >> (8 * (addr - word_addr));
  }

  void store_aligned(uintptr_t addr, uint64_t value, size_t size) {
    MUTLS_DCHECK(word_sized_aligned(addr, size),
                 "store_aligned: size must be a power of two <= 8 and addr "
                 "naturally aligned");
    ++stats_.fastpath_hits;
    uintptr_t word_addr = addr & ~kWordMask;
    size_t off = addr - word_addr;
    dispatch([&](auto& b) {
      word_write(b, word_addr, value << (8 * off), byte_mask(off, size));
    });
  }

  // Bulk span transfer: reads `size` bytes of the thread's speculative view
  // of `addr`. One dispatch for the whole span; a partial head word, whole
  // interior words, a partial tail — one probe per word, not per element.
  void load_span(uintptr_t addr, void* out, size_t size) {
    if (size == 0) return;  // must not touch (and first-touch insert) a word
    dispatch([&](auto& b) {
      char* dst = static_cast<char*>(out);
      uintptr_t a = addr;
      size_t left = size;
      size_t head = a & kWordMask;
      if (head != 0) {
        size_t n = std::min(kWordSize - head, left);
        uint64_t w = word_view(b, a - head);
        copy_from_word(w, head, n, dst);
        a += n;
        dst += n;
        left -= n;
      }
      while (left >= kWordSize) {
        uint64_t w = word_view(b, a);
        std::memcpy(dst, &w, kWordSize);
        a += kWordSize;
        dst += kWordSize;
        left -= kWordSize;
      }
      if (left > 0) {
        uint64_t w = word_view(b, a);
        copy_from_word(w, 0, left, dst);
      }
    });
  }

  // Bulk span transfer: buffers a write of `size` bytes at `addr`. Whole
  // interior words carry a full mark and skip the mask computation.
  void store_span(uintptr_t addr, const void* src, size_t size) {
    if (size == 0) return;  // a zero-mask write-set entry is a false entry
    dispatch([&](auto& b) {
      const char* s = static_cast<const char*>(src);
      uintptr_t a = addr;
      size_t left = size;
      size_t head = a & kWordMask;
      if (head != 0) {
        size_t n = std::min(kWordSize - head, left);
        uint64_t v = 0;
        copy_into_word(v, head, n, s);
        word_write(b, a - head, v, byte_mask(head, n));
        if (b.doomed()) return;
        a += n;
        s += n;
        left -= n;
      }
      while (left >= kWordSize) {
        uint64_t v;
        std::memcpy(&v, s, kWordSize);
        word_write(b, a, v, kFullMark);
        if (b.doomed()) return;
        a += kWordSize;
        s += kWordSize;
        left -= kWordSize;
      }
      if (left > 0) {
        uint64_t v = 0;
        copy_into_word(v, 0, left, s);
        word_write(b, a, v, byte_mask(0, left));
      }
    });
  }

  // Fully generic entries (any size, any alignment): a span of one access.
  void load_bytes(uintptr_t addr, void* out, size_t size) {
    load_span(addr, out, size);
  }
  void store_bytes(uintptr_t addr, const void* src, size_t size) {
    store_span(addr, src, size);
  }

  // --- join-time operations (both threads stopped at the flag barrier) ---

  // Validates the read-set against main memory (non-speculative joiner).
  // The comparison accumulates a XOR difference — no branch per word; a
  // cache-exceeding set is additionally gathered and sorted so main memory
  // is compared in address order (hardware prefetch instead of hash-order
  // hopping).
  bool validate_against_memory() {
    bool regions_valid = true;
    for (int i = 0; i < region_count_; ++i) {
      const RegionSlot& r = regions_[i];
      if (r.read && r.rec->version.load(std::memory_order_acquire) !=
                        r.version) {
        regions_valid = false;
      }
    }
    if (!regions_valid) lose_direct_reads();
    return dispatch([&](auto& b) {
      uint64_t diff = 0;
      uint64_t words = 0;
      if (b.read_entries() >= kAddressOrderThreshold) {
        scratch_.clear();
        b.for_each_read([&](uintptr_t word_addr, uint64_t data) {
          scratch_.push_back(SetEntry{word_addr, data, 0});
        });
        sort_scratch();
        for (const SetEntry& e : scratch_) {
          diff |= atomic_word_load(e.word_addr) ^ e.data;
        }
        words = scratch_.size();
      } else {
        b.for_each_read([&](uintptr_t word_addr, uint64_t data) {
          ++words;
          diff |= atomic_word_load(word_addr) ^ data;
        });
      }
      stats_.validated_words += words;
      bool valid = regions_valid && diff == 0;
      if (predict_.enabled) {
        valid = settle_predicted(
            b, valid, [](uintptr_t a) { return atomic_word_load(a); });
      }
      return valid;
    });
  }

  // Validates the read-set against a speculative joiner's buffered view.
  // Probes the joiner's maps (address order buys nothing there) but keeps
  // the branchless XOR accumulation. Peeks never touch the joiner's
  // word-view cache: they run on the joiner's buffer from *this* thread at
  // the flag barrier.
  bool validate_against(SpecBuffer& joiner) {
    bool regions_valid = true;
    int adopted = 0;  // read records the merge would add to the joiner
    for (int i = 0; i < region_count_; ++i) {
      const RegionSlot& r = regions_[i];
      if (!r.read) continue;
      const RegionSlot* j = joiner.find_region(r.rec);
      if (joiner.untracked_writes_ || (j != nullptr && j->written)) {
        regions_valid = false;
      }
      if (j == nullptr) ++adopted;
    }
    if (!regions_valid) lose_direct_reads();
    // Nothing but the joiner's table could guard the adopted reads after
    // the merge: a child whose records do not fit fails (no site lesson —
    // no region changed).
    if (joiner.region_count_ + adopted > kRegionSlots) regions_valid = false;
    return dispatch([&](auto& b) {
      return joiner.dispatch([&](auto& j) {
        uint64_t diff = 0;
        uint64_t words = 0;
        b.for_each_read([&](uintptr_t word_addr, uint64_t data) {
          ++words;
          diff |= word_peek(j, word_addr) ^ data;
        });
        stats_.validated_words += words;
        bool valid = regions_valid && diff == 0;
        if (predict_.enabled) {
          // The "settled value" against a speculative joiner is the
          // joiner's buffered view. Training on it is slightly optimistic
          // (the joiner may itself roll back later), but the predictor is
          // a hint table — a wrong lesson costs one mispredict, never
          // correctness.
          valid = settle_predicted(
              b, valid, [&](uintptr_t a) { return word_peek(j, a); });
        }
        return valid;
      });
    });
  }

  // Commits marked write-set bytes to main memory — in address order when
  // the set is large enough for the ordered walk to beat the sort — then
  // publishes them: every region this speculation wrote gets its version
  // bumped. Stores no region slot attributed are published word by word
  // through `space` (the manager's registered address space), when given.
  void commit_to_memory(const RegionSpace* space = nullptr) {
    dispatch([&](auto& b) {
      auto commit_one = [](uintptr_t word_addr, uint64_t data, uint64_t mark) {
        if (mark == kFullMark) {
          atomic_word_store(word_addr, data);
          return;
        }
        const char* bytes = reinterpret_cast<const char*>(&data);
        for (size_t i = 0; i < kWordSize; ++i) {
          if (mark & (0xffull << (8 * i))) {
            atomic_byte_store(word_addr + i, static_cast<uint8_t>(bytes[i]));
          }
        }
      };
      if (b.write_entries() >= kAddressOrderThreshold) {
        scratch_.clear();
        b.for_each_write(
            [&](uintptr_t word_addr, uint64_t data, uint64_t mark) {
              scratch_.push_back(SetEntry{word_addr, data, mark});
            });
        sort_scratch();
        for (const SetEntry& e : scratch_) {
          commit_one(e.word_addr, e.data, e.mark);
        }
      } else {
        b.for_each_write(commit_one);
      }
    });
    for (int i = 0; i < region_count_; ++i) {
      if (regions_[i].written) publish_region_write(regions_[i].rec);
    }
    if (untracked_writes_ && space != nullptr && space->has_owned()) {
      dispatch([&](auto& b) {
        RegionSpace::Hit last;
        b.for_each_write([&](uintptr_t word_addr, uint64_t, uint64_t) {
          publish_word(*space, word_addr, last);
        });
      });
    }
  }

  // Merges this buffer into a *speculative* joiner. The whole tree-form
  // adoption policy lives here, written once over the slot primitives:
  //   writes — overlay the joiner's write-set (this thread is logically
  //     later, so its bytes win) and union the marks;
  //   reads — a read fully covered by one of the joiner's full-mark writes
  //     carries no main-memory dependency and is skipped; everything else
  //     joins the joiner's read-set so the eventual non-speculative
  //     validation still covers it, first value (the joiner's earlier
  //     observation) winning.
  // Capacity exhaustion in the joiner dooms it through the backend's
  // merge-specific reason (insert_*'s `merging` flag).
  void merge_into(SpecBuffer& joiner) {
    // Adoption mutates the joiner's sets behind its word-view cache (and
    // runs at the flag barrier, not on the access hot path): empty it.
    joiner.view_cache_.clear();
    merge_regions_into(joiner);
    dispatch([&](auto& b) {
      joiner.dispatch([&](auto& j) {
        b.for_each_write(
            [&](uintptr_t word_addr, uint64_t data, uint64_t mark) {
              WordRef w = j.insert_write(word_addr, /*merging=*/true);
              if (!w.data) return;  // joiner doomed; keep draining
              *w.data = overlay_bytes(*w.data, data, mark);
              *w.mark |= mark;
            });
        b.for_each_read([&](uintptr_t word_addr, uint64_t data) {
          WordRef w = j.find_write(word_addr);
          if (w.data && *w.mark == kFullMark) return;  // covered: no dep
          bool inserted = false;
          WordRef r = j.insert_read(word_addr, inserted, /*merging=*/true);
          if (!r.data) return;  // joiner doomed; keep draining
          if (inserted) *r.data = data;  // first value wins
        });
      });
    });
  }

  // --- lifecycle, doom and pressure signals, statistics ---

  // Discards all buffered state; clears doom. Part of both the settle path
  // and rearm(); the cost counters intentionally survive (the settle paths
  // read them after resetting).
  void reset() {
    view_cache_.clear();
    predicted_.clear();
    region_count_ = 0;
    untracked_writes_ = direct_off_;
    ++region_gen_;
    dispatch([](auto& b) { b.reset(); });
  }

  // Re-arms this buffer for the next speculation on its virtual-CPU slot:
  // resets buffered state, zeroes the per-speculation counters and forgets
  // the previous speculation's fork site (direct reads stay off, and writes
  // untracked, until set_fork_site turns them on).
  void rearm() {
    reset();
    clear_stats();
    fork_site_ = nullptr;
    direct_off_ = true;
    untracked_writes_ = true;
  }

  // --- direct reads of unwritten regions (see the tier list above) ---

  // How a caller serves accesses to one region in the current generation.
  // kBuffered and kWritten both take the buffered tiers; kWritten also
  // tells the caller that stores into the region need no note_store().
  enum RegionMode : uint8_t {
    kUnresolved = 0,
    kDirect = 1,
    kBuffered = 2,
    kWritten = 3,
  };
  static constexpr int kRegionSlots = 16;

  // Bumped whenever a decision resolve_load() handed out may no longer
  // hold (a region newly written, a merge, a reset); callers cache their
  // decisions tagged with it.
  uint64_t region_gen() const { return region_gen_; }

  // Decides how loads from `rec` (null: memory with no record) are served.
  // The first direct decision for a region records its version.
  RegionMode resolve_load(RegionRecord* rec) {
    if (rec == nullptr) return kBuffered;
    RegionSlot* s = find_region(rec);
    if (s != nullptr && s->written) return kWritten;
    if (direct_off_ || untracked_writes_) return kBuffered;
    if (s != nullptr) return kDirect;
    if (region_count_ == kRegionSlots) return kBuffered;
    regions_[region_count_++] = RegionSlot{
        rec, rec->version.load(std::memory_order_acquire), true, false};
    ++stats_.direct_regions;
    return kDirect;
  }

  // Notes a store into `rec` (null: memory with no record) before it is
  // buffered: marks the region written, so its loads leave the direct tier
  // and the commit publishes it. A store no slot can hold is untracked: it
  // ends direct reads for the rest of the speculation.
  void note_store(RegionRecord* rec) {
    RegionSlot* s = rec != nullptr ? find_region(rec) : nullptr;
    if (s == nullptr && rec != nullptr && region_count_ < kRegionSlots) {
      s = &regions_[region_count_++];
      *s = RegionSlot{rec, 0, false, false};
    }
    if (s != nullptr) {
      if (s->written) return;
      s->written = true;
    } else {
      if (untracked_writes_) return;
      untracked_writes_ = true;
    }
    ++region_gen_;
  }

  // Binds this speculation to its fork site's flag: a set flag keeps the
  // speculation off direct reads, and a validation this speculation loses
  // to a region sets it. `forker_direct` is false when the forker is a
  // speculation that may not read directly; its children may not either.
  // A speculation that may not read directly keeps its caller (Ctx) off
  // the region checks altogether, so its stores are untracked from the
  // start: its commit publishes them through the address space, and its
  // merge ends the joiner's direct reads. Returns whether this speculation
  // may read directly.
  bool set_fork_site(std::atomic<bool>* lost_direct, bool forker_direct) {
    fork_site_ = lost_direct;
    direct_off_ =
        !forker_direct || lost_direct->load(std::memory_order_relaxed);
    untracked_writes_ = direct_off_;
    return !direct_off_;
  }
  bool direct_reads_allowed() const { return !direct_off_; }

  // A speculation rolled back without validation (doomed, forced or
  // injected) still teaches its fork site when a region it read directly
  // has moved since: the rollback hid a direct read it would have lost.
  void learn_from_unvalidated_rollback() {
    for (int i = 0; i < region_count_; ++i) {
      const RegionSlot& r = regions_[i];
      if (r.read &&
          r.rec->version.load(std::memory_order_acquire) != r.version) {
        teach_fork_site();
        return;
      }
    }
  }

  bool doomed() const {
    return dispatch([](const auto& b) { return b.doomed(); });
  }
  const char* doom_reason() const {
    return dispatch([](const auto& b) { return b.doom_reason(); });
  }
  // Dooming empties the word-view cache: a doomed buffer serves no hit,
  // so its next access reaches the caller's doom check.
  void doom(const char* reason) {
    view_cache_.clear();
    dispatch([&](auto& b) { b.doom(reason); });
  }

  // Backend-defined capacity pressure: the static hash is spilling into its
  // bounded overflow map, or the growable log resized this speculation.
  bool pressure() const {
    return dispatch([](const auto& b) { return b.pressure(); });
  }

  size_t read_entries() const {
    return dispatch([](const auto& b) { return b.read_entries(); });
  }
  size_t write_entries() const {
    return dispatch([](const auto& b) { return b.write_entries(); });
  }

  // Cost-counter snapshot. One block per buffer, written by the backend.
  // Survives reset(); zeroed by clear_stats()/rearm() when a virtual-CPU
  // slot is re-armed for a new speculation.
  const SpecBufferStats& stats() const { return stats_; }
  void clear_stats() { stats_.clear(); }

  // The slot's value predictor (tests, diagnostics). It persists across
  // rearm(): the slot learns across speculations.
  const ValuePredictor& predictor() const { return predictor_; }

 private:
  // --- the word-view cache + view composition ---

  // Serves the view of `word_addr` from the word-view cache; false on a
  // miss (the caller resolves it through the backend).
  bool cached_view(uintptr_t word_addr, uint64_t& view) {
    const WordViewCache::Line& l = view_cache_.line(word_addr);
    if (!WordViewCache::holds(l, word_addr)) return false;
    ++stats_.mru_hits;
    stats_.probe_skips += WordViewCache::probes_saved(l);
    view = l.view;
    return true;
  }

  // The thread's current view of one whole word: write-set marked bytes
  // over the read-set observation over main memory.
  template <typename B>
  uint64_t word_view(B& b, uintptr_t word_addr) {
    uint64_t view = 0;
    if (cached_view(word_addr, view)) return view;
    return word_view_miss(b, word_addr);
  }

  // Resolves a view the cache does not hold and caches it. First touch
  // inserts the word into the read-set; capacity exhaustion dooms the
  // thread (via the backend's insert_read) and falls back to the
  // main-memory value, which is never cached.
  template <typename B>
  uint64_t word_view_miss(B& b, uintptr_t word_addr) {
    ++stats_.mru_misses;
    WordRef w = b.find_write(word_addr);
    if (w.data && *w.mark == kFullMark) {
      if (!b.doomed()) view_cache_.fill(word_addr, *w.data, w.handle, true);
      return *w.data;
    }

    bool inserted = false;
    WordRef r = b.insert_read(word_addr, inserted, /*merging=*/false);
    if (!r.data) {
      uint64_t base = atomic_word_load(word_addr);
      if (w.data) base = overlay_bytes(base, *w.data, *w.mark);
      view_cache_.clear();  // the backend just doomed itself
      return base;
    }
    if (inserted) {
      // First touch: load the whole word from main memory and remember it
      // for validation — unless a confident predictor entry bets on the
      // word's *settled* value, in which case the read adopts the
      // prediction: validation then passes exactly when the bet lands,
      // and the access-time observation is kept aside so the settle can
      // tell a saved rollback (memory moved under us, prediction held)
      // from a read that never conflicted at all.
      uint64_t observed = atomic_word_load(word_addr);
      uint64_t predicted;
      if (predict_.enabled && predictor_.predict(word_addr, &predicted)) {
        *r.data = predicted;
        predicted_.push_back(PredictedRead{word_addr, predicted, observed});
        ++stats_.predicted_reads;
      } else {
        *r.data = observed;
      }
    }
    uint64_t view = *r.data;
    if (w.data) {
      // Overlay the bytes this thread already wrote. `w` points into the
      // write set, untouched by the read-set insertion above.
      view = overlay_bytes(view, *w.data, *w.mark);
    }
    if (!b.doomed()) {
      view_cache_.fill(word_addr, view, w.data ? w.handle : 0, false);
    }
    return view;
  }

  // Like word_view but never inserts into the read-set and leaves the
  // word-view cache untouched (used when a speculative joiner's view is
  // evaluated from the child's thread).
  template <typename B>
  static uint64_t word_peek(B& b, uintptr_t word_addr) {
    WordRef w = b.find_write(word_addr);
    if (w.data && *w.mark == kFullMark) return *w.data;
    WordRef r = b.find_read(word_addr);
    uint64_t base = r.data ? *r.data : atomic_word_load(word_addr);
    if (w.data) base = overlay_bytes(base, *w.data, *w.mark);
    return base;
  }

  // Settles the speculation's predicted reads against the outcome the XOR
  // walk just computed (prediction enabled only; called once per
  // validation, off the access hot path). `final_value` maps a word
  // address to the value the read-set was validated against — main memory
  // for a rank-0 joiner, the joiner's buffered view otherwise.
  //
  // On a *valid* speculation every predicted read's bet landed (its value
  // is part of the read-set the XOR walk accepted): count the hits, train
  // the proven values, and count one saved rollback iff some predicted
  // word's memory moved between access and settle — that is precisely a
  // speculation the unpredicted runtime would have rolled back.
  //
  // On a *failed* one: train the predictor from the final values of the
  // conflicting (mismatched) words — this is how an address earns a table
  // entry in the first place, a word that never conflicts never costs
  // one — then attribute the failure: any predicted read whose bet missed
  // is a mispredict, and the doom carries the distinct mispredict reason
  // so rollback accounting can separate lost bets from true conflicts.
  template <typename B, typename FinalFn>
  bool settle_predicted(B& b, bool valid, FinalFn&& final_value) {
    if (valid) {
      if (predicted_.size() != 0) {
        bool saved = false;
        for (const PredictedRead& p : predicted_) {
          ++stats_.predictor_hits;
          saved |= p.predicted != p.observed;
          predictor_.train(p.word_addr, p.predicted);
        }
        if (saved) ++stats_.saved_rollbacks;
      }
      return true;
    }
    b.for_each_read([&](uintptr_t word_addr, uint64_t data) {
      uint64_t actual = final_value(word_addr);
      if (actual != data) predictor_.train(word_addr, actual);
    });
    bool mispredicted = false;
    for (const PredictedRead& p : predicted_) {
      uint64_t actual = final_value(p.word_addr);
      if (actual == p.predicted) {
        // The bet landed but some *other* word conflicted. Still a hit —
        // and not trained by the mismatch walk above, so train it here.
        ++stats_.predictor_hits;
        predictor_.train(p.word_addr, actual);
      } else {
        ++stats_.predictor_mispredicts;
        mispredicted = true;
      }
    }
    if (mispredicted && !b.doomed()) doom(kMispredictDoomReason);
    return false;
  }

  // Overlays the bytes selected by `mask` onto the buffered word; dooms on
  // capacity exhaustion (via the backend's insert_write). Writes through
  // to a cached view, whose write handle skips the insert_write probe.
  template <typename B>
  void word_write(B& b, uintptr_t word_addr, uint64_t value, uint64_t mask) {
    WordViewCache::Line& l = view_cache_.line(word_addr);
    const bool cached = WordViewCache::holds(l, word_addr);
    uint32_t& handle = view_cache_.write_handle(word_addr);
    WordRef w;
    if (cached && handle != 0) {
      ++stats_.mru_hits;
      ++stats_.probe_skips;
      w = WordRef{&b.write_data(handle), &b.write_mark(handle), handle};
    } else {
      ++stats_.mru_misses;
      w = b.insert_write(word_addr, /*merging=*/false);
      if (!w.data) {
        view_cache_.clear();  // capacity doom; the backend set the reason
        return;
      }
    }
    *w.data = overlay_bytes(*w.data, value, mask);
    *w.mark |= mask;
    const bool full = *w.mark == kFullMark;
    if (cached) {
      l.view = overlay_bytes(l.view, value, mask);
      handle = w.handle;
      if (full) l.tag |= WordViewCache::kFullWrite;
    } else if (full && !b.doomed()) {
      // A fully written word's view is its write-set data: cache it, so
      // the load after a whole-word store hits.
      view_cache_.fill(word_addr, *w.data, w.handle, true);
    }
  }

  // --- the region table ---

  struct RegionSlot {
    RegionRecord* rec;
    uint64_t version;  // recorded at the first direct read (read only)
    bool read;         // a version was recorded: direct reads happened
    bool written;      // this speculation (or a merged child) stored here
  };

  RegionSlot* find_region(const RegionRecord* rec) {
    for (int i = 0; i < region_count_; ++i) {
      if (regions_[i].rec == rec) return &regions_[i];
    }
    return nullptr;
  }

  // A validation lost to a region: count it and teach the fork site.
  void lose_direct_reads() {
    ++stats_.region_rollbacks;
    teach_fork_site();
  }
  void teach_fork_site() {
    if (fork_site_ != nullptr) {
      fork_site_->store(true, std::memory_order_relaxed);
    }
  }

  // The region half of merge_into: first recorded version wins, written
  // marks merge. validate_against() made room for every read record, and a
  // read record the joiner already holds is a read the joiner recorded
  // first (one it wrote would have failed the child). A written-only
  // record the joiner's full table cannot take makes its writes untracked.
  void merge_regions_into(SpecBuffer& joiner) {
    for (bool reads : {true, false}) {
      for (int i = 0; i < region_count_; ++i) {
        const RegionSlot& c = regions_[i];
        if (c.read != reads) continue;
        if (RegionSlot* j = joiner.find_region(c.rec)) {
          j->written |= c.written;
        } else if (joiner.region_count_ < kRegionSlots) {
          joiner.regions_[joiner.region_count_++] = c;
        } else {
          joiner.untracked_writes_ = true;
        }
      }
    }
    joiner.untracked_writes_ |= untracked_writes_;
    ++joiner.region_gen_;
  }

  BufferBackend backend_ = BufferBackend::kStaticHash;
  GlobalBuffer static_hash_;
  GrowableLogBuffer growable_log_;
  SpecBufferStats stats_;
  WordViewCache view_cache_;

  RegionSlot regions_[kRegionSlots];
  int region_count_ = 0;
  // Some store of this speculation is not attributed to a region slot;
  // always set while direct reads are off (see set_fork_site).
  bool untracked_writes_ = true;
  bool direct_off_ = true;  // direct reads off: see set_fork_site
  uint64_t region_gen_ = 1;
  std::atomic<bool>* fork_site_ = nullptr;

  // Value prediction (PredictPolicy.enabled only). The predictor persists
  // across rearm(); the per-speculation side table of bets is cleared with
  // the sets on reset().
  PredictPolicy predict_;
  ValuePredictor predictor_;
  struct PredictedRead {
    uintptr_t word_addr;
    uint64_t predicted;  // what the read-set adopted (and validation saw)
    uint64_t observed;   // what memory actually held at access time
  };
  PodVec<PredictedRead> predicted_;

  // Reused gather buffer for the join-time set walks: large sets are
  // streamed into it, sorted by address, and then touch main memory in
  // address order (sequential prefetch instead of hash-order hopping).
  // Small sets fit in cache, where the sort costs more than hash-order
  // misses ever could — they are walked directly instead; the threshold is
  // roughly where a set's footprint outgrows L1/L2. Arena-pooled (capacity
  // retained across epochs): the settle path stays allocation-free.
  struct SetEntry {
    uintptr_t word_addr;
    uint64_t data;
    uint64_t mark;
  };
  static constexpr size_t kAddressOrderThreshold = 4096;
  PodVec<SetEntry> scratch_;

  void sort_scratch() {
    std::sort(scratch_.begin(), scratch_.end(),
              [](const SetEntry& a, const SetEntry& b) {
                return a.word_addr < b.word_addr;
              });
  }
};

}  // namespace mutls
