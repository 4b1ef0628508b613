// Execution context of the native MUTLS embedding (API v2, layer 1 of 4).
//
// `Ctx` is the per-thread view of shared memory: every shared access inside
// a speculated region routes through it, hitting the speculative buffer map
// (paper IV-G2) when the thread is speculative and the relaxed direct path
// otherwise. Ctx::load/store are the raw MUTLS_load_*/MUTLS_store_*
// wrappers; application code should prefer the typed views of
// "api/shared.h" (`Shared<T>`, `SharedSpan<T>`, `shared()`), which wrap
// these calls behind ordinary `a[i] += x` syntax.
//
// A speculative access takes one of these tiers, fastest first (the buffer
// tiers are listed in "runtime/spec_buffer.h"):
//   direct region read — a load from a registered region this speculation
//     has not written is a relaxed load from memory, validated at the join
//     by the region's version (see "Direct reads of unwritten regions" in
//     the README). The span cache entry that proved the access registered
//     also holds the region's record and the SpecBuffer's decision for it,
//     tagged with SpecBuffer::region_gen(); a store into any region moves
//     the generation on, so no stale decision survives it.
//   buffered — the word-view cache, the aligned-word path, spans and bytes
//     of SpecBuffer.
// A speculation that may not read directly (its fork site lost a direct
// read, or its forker may not read directly: SpecBuffer::set_fork_site)
// skips the region checks altogether — one flag, fixed for the Ctx's
// life, picks the buffered tier for every access and leaves its stores
// untracked, to be published at commit. The registration check runs
// before either tier. A non-speculative store publishes its write by
// bumping the region's version after the data — only while a speculation
// that may read directly can be live (ThreadData::publish_stores), so a
// run whose fork sites all lost their direct reads pays one flag test per
// store.
//
// Layering: ctx.h (this file) -> spec.h (fork/join/Runtime) -> shared.h
// (typed views) -> parallel.h (loop drivers + mutls::par algorithms), all
// re-exported by the "mutls/mutls.h" umbrella.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "api/scalar_access.h"
#include "runtime/memory.h"
#include "runtime/region.h"
#include "runtime/spec_abort.h"
#include "runtime/thread_data.h"

namespace mutls {

class Runtime;

// Execution context of one thread (speculative or not). Every shared-memory
// access inside a speculated region must go through this wrapper.
class Ctx {
 public:
  bool speculative() const { return td_->is_speculative(); }
  int rank() const { return td_->rank; }
  Runtime& runtime() const { return *rt_; }
  ThreadData& thread_data() const { return *td_; }

  // The buffer backend serving this thread's virtual-CPU slot: always
  // Options::buffer_backend (diagnostics).
  BufferBackend buffer_backend() const { return td_->sbuf.backend(); }

  // True when a T can ever take the aligned-word fast path: power-of-two
  // size <= 8, checked at compile time so oversized types skip the branch;
  // the per-address natural-alignment half of the rule is
  // word_sized_aligned ("runtime/memory.h").
  template <typename T>
  static constexpr bool kWordSized = word_sized_aligned(0, sizeof(T));

  template <typename T>
  T load(const T* p) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (!td_->is_speculative()) {
      ++td_->stats.loads;
      return relaxed_load_scalar(p);
    }
    uintptr_t a = reinterpret_cast<uintptr_t>(p);
    int e = check_registered(a, sizeof(T));
    if (direct_ && reads_direct(e)) return relaxed_load_scalar(p);
    ++td_->stats.loads;
    T out;
    if constexpr (kWordSized<T>) {
      if (word_sized_aligned(a, sizeof(T))) {
        uint64_t raw = td_->sbuf.load_aligned(a, sizeof(T));
        std::memcpy(&out, &raw, sizeof(T));
        if (td_->sbuf.doomed()) throw SpecAbort{td_->sbuf.doom_reason()};
        return out;
      }
    }
    load_generic(a, &out, sizeof(T));
    return out;
  }

  template <typename T>
  void store(T* p, T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    ++td_->stats.stores;
    uintptr_t a = reinterpret_cast<uintptr_t>(p);
    if (!td_->is_speculative()) {
      relaxed_store_scalar(p, v);
      if (td_->publish_stores) publish(a, sizeof(T));
      return;
    }
    int e = check_registered(a, sizeof(T));
    if (direct_) note_store(e);
    if constexpr (kWordSized<T>) {
      if (word_sized_aligned(a, sizeof(T))) {
        uint64_t raw = 0;
        std::memcpy(&raw, &v, sizeof(T));
        td_->sbuf.store_aligned(a, raw, sizeof(T));
        if (td_->sbuf.doomed()) throw SpecAbort{td_->sbuf.doom_reason()};
        return;
      }
    }
    store_generic(a, &v, sizeof(T));
  }

  // Bulk transfers: move `count` contiguous T's through the speculative
  // view with one registration check, one stats bump and one buffer-map
  // probe per *word* instead of per element. The workhorse behind
  // SharedSpan<T>::read/write.
  template <typename T>
  void load_n(const T* p, T* out, size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (count == 0) return;
    if (!td_->is_speculative()) {
      td_->stats.loads += count;
      relaxed_load_bytes(p, out, count * sizeof(T));
      return;
    }
    uintptr_t a = reinterpret_cast<uintptr_t>(p);
    int e = check_registered(a, count * sizeof(T));
    if (direct_ && reads_direct(e)) {
      relaxed_load_bytes(p, out, count * sizeof(T));
      return;
    }
    td_->stats.loads += count;
    td_->sbuf.load_span(a, out, count * sizeof(T));
    if (td_->sbuf.doomed()) throw SpecAbort{td_->sbuf.doom_reason()};
  }

  template <typename T>
  void store_n(T* p, const T* src, size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (count == 0) return;
    td_->stats.stores += count;
    uintptr_t a = reinterpret_cast<uintptr_t>(p);
    if (!td_->is_speculative()) {
      relaxed_store_bytes(p, src, count * sizeof(T));
      if (td_->publish_stores) publish(a, count * sizeof(T));
      return;
    }
    int e = check_registered(a, count * sizeof(T));
    if (direct_) note_store(e);
    td_->sbuf.store_span(a, src, count * sizeof(T));
    if (td_->sbuf.doomed()) throw SpecAbort{td_->sbuf.doom_reason()};
  }

  // Read-modify-write convenience.
  template <typename T>
  void add(T* p, T v) {
    store(p, static_cast<T>(load(p) + v));
  }

  // MUTLS_check_point: polls the synchronization flags. Inserted inside
  // loops and before calls so a speculative thread notices abort signals
  // promptly (paper IV-E).
  void check_point() {
    if (!td_->is_speculative()) return;
    SyncStatus s = td_->sync_status.load(std::memory_order_acquire);
    if (s == SyncStatus::kNoSync) {
      throw SpecAbort{"NOSYNC received at check point"};
    }
    if (td_->sbuf.doomed()) throw SpecAbort{td_->sbuf.doom_reason()};
  }

  // Live-in value stored at fork (paper IV-G3): reads slot `offset` of this
  // thread's RegisterBuffer.
  template <typename T>
  T get_livein(int offset) {
    static_assert(sizeof(T) <= 8 && std::is_trivially_copyable_v<T>);
    uint64_t raw = 0;
    if (!td_->lbuf.top().regs.get(offset, raw)) {
      td_->sbuf.doom("register buffer offset out of range");
      throw SpecAbort{"register buffer offset out of range"};
    }
    T out;
    std::memcpy(&out, &raw, sizeof(T));
    return out;
  }

 private:
  friend class Runtime;
  Ctx(Runtime& rt, ThreadData& td);  // defined in "api/spec.h"

  // Span-cache entry covering [a, a+n) under the current address-space
  // epoch, or -1.
  int cached_span(uintptr_t a, size_t n) const {
    if (space_epoch_->load(std::memory_order_acquire) == span_epoch_) {
      for (int i = 0; i < kSpanCache; ++i) {
        if (a >= span_lo_[i] && a + n <= span_hi_[i]) return i;
      }
    }
    return -1;
  }

  // Wild-access check (paper IV-G1), run on every speculative access:
  // inline when the span cache proves [a, a+n) registered under the
  // current address-space epoch, the out-of-line lookup otherwise. Returns
  // the covering entry.
  int check_registered(uintptr_t a, size_t n) {
    int e = cached_span(a, n);
    return e >= 0 ? e : check_registered_slow(a, n);
  }
  int check_registered_slow(uintptr_t a, size_t n);

  // True when loads through entry `e` read memory directly: the entry's
  // cached decision is current, or SpecBuffer::resolve_load makes a new one.
  bool reads_direct(int e) {
    const uint64_t now = td_->sbuf.region_gen() << 2;
    if (span_mode_[e] == (now | SpecBuffer::kDirect)) return true;
    if (span_mode_[e] >= now) return false;
    span_mode_[e] = now | td_->sbuf.resolve_load(span_rec_[e]);
    return span_mode_[e] == (now | SpecBuffer::kDirect);
  }

  // Notes a speculative store through entry `e` with the SpecBuffer once
  // per region and generation.
  void note_store(int e) {
    if (span_mode_[e] == ((td_->sbuf.region_gen() << 2) | SpecBuffer::kWritten)) {
      return;
    }
    td_->sbuf.note_store(span_rec_[e]);
    span_mode_[e] = (td_->sbuf.region_gen() << 2) | SpecBuffer::kWritten;
  }

  // Non-speculative write publication: bumps the version of the region
  // holding [a, a+n), if any, after the caller stored the data.
  void publish(uintptr_t a, size_t n) {
    int e = cached_span(a, n);
    if (e < 0) {
      publish_slow(a, n);
    } else if (span_rec_[e] != nullptr) {
      publish_region_write(span_rec_[e]);
    }
  }
  void publish_slow(uintptr_t a, size_t n);

  // Empties the span cache when the address-space epoch moved on.
  void sync_span_epoch();
  // Claims the next span-cache entry for [lo, hi) and `rec`.
  int fill_span(uintptr_t lo, uintptr_t hi, RegionRecord* rec);

  // The byte-splitting path of load/store (unaligned or odd-sized types),
  // out of line so the aligned-word path stays small enough to inline at
  // every access site.
  void load_generic(uintptr_t a, void* out, size_t n);
  void store_generic(uintptr_t a, const void* src, size_t n);

  Runtime* rt_;
  ThreadData* td_;
  const std::atomic<uint64_t>* space_epoch_;  // the manager's epoch word
  // Small cache of recent address-space lookups: workloads typically touch
  // a handful of registered arrays in rotation, so a few entries remove
  // the shared-mutex lookup from the speculative hot path entirely. An
  // entry never spans two region records: it is one record's span, a
  // record-free stretch (rec null), or on a speculative thread exactly the
  // range of an access that straddled records (rec null). A null entry is
  // always buffered, and a store through it is untracked.
  static constexpr int kSpanCache = 4;
  uintptr_t span_lo_[kSpanCache] = {1, 1, 1, 1};
  uintptr_t span_hi_[kSpanCache] = {0, 0, 0, 0};
  RegionRecord* span_rec_[kSpanCache] = {};
  // Per entry: (SpecBuffer::region_gen() << 2) | RegionMode of the last
  // decision; 0 = none yet.
  uint64_t span_mode_[kSpanCache] = {};
  int span_next_ = 0;
  // The speculation may read regions directly (see the tier list above);
  // decided once, when the Ctx is made for it.
  bool direct_ = false;
  // Address-space epoch the cache entries were filled under; a mismatch
  // (some region was unregistered or registered since) flushes them.
  uint64_t span_epoch_ = 0;
};

}  // namespace mutls
