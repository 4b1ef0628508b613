// Address-space registration (paper section IV-G1).
//
// MUTLS registers the [start, end) span of every static and heap object so
// a speculative thread can detect wild reads/writes and roll back instead
// of faulting. Registration happens at allocation sites (rare);
// containment queries happen on the speculative hot path, so the set is a
// sorted vector of disjoint spans under a shared mutex.
//
// A span is either plain or owned:
//   - plain spans carry no payload; adjacent or overlapping plain
//     registrations merge, as the paper suggests, to keep lookups short;
//   - an owned span is one registration with its own payload (the region
//     version records of "runtime/region.h") and never merges, so it keeps
//     the identity of the registration that made it.
// Containment is coverage by a contiguous run of spans, so an access that
// straddles two adjacent registrations is still registered.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "support/check.h"

namespace mutls {

template <typename V>
class IntervalMap {
 public:
  // The span containing an address (`registered`), or the gap between the
  // neighbouring spans that contains it. `value` is the payload of an owned
  // span, null for a plain span or a gap.
  struct Hit {
    uintptr_t lo = 0;
    uintptr_t hi = 0;  // exclusive
    V* value = nullptr;
    bool registered = false;
  };

  // Registers [start, start+size) as plain. Merges with overlapping or
  // adjacent plain spans; bytes an owned span covers stay owned.
  void insert(uintptr_t start, size_t size) {
    if (size == 0) return;
    uintptr_t lo = start;
    uintptr_t hi = start + size;
    MUTLS_CHECK(hi > lo, "interval wraps the address space");
    std::unique_lock lock(mu_);
    // Every span touching or adjacent to [lo, hi): plain ones are absorbed,
    // owned ones are kept and cut out of the merged range.
    size_t first = lower_bound_locked(lo == 0 ? 0 : lo - 1);
    size_t last = first;
    bool any_owned = false;
    for (; last < spans_.size() && spans_[last].lo <= hi; ++last) {
      const Entry& s = spans_[last];
      if (s.value != nullptr) {
        any_owned = true;
      } else {
        lo = std::min(lo, s.lo);
        hi = std::max(hi, s.hi);
      }
    }
    if (!any_owned) {  // the common case: one merged plain span
      const Entry merged{lo, hi, nullptr};
      replace_locked(first, last, &merged, &merged + 1);
      return;
    }
    std::vector<Entry> out;
    uintptr_t cur = lo;
    for (size_t i = first; i < last; ++i) {
      const Entry& o = spans_[i];
      if (o.value == nullptr) continue;
      if (o.lo > cur && cur < hi) {
        out.push_back(Entry{cur, std::min(o.lo, hi), nullptr});
      }
      out.push_back(o);
      cur = std::max(cur, o.hi);
    }
    if (cur < hi) out.push_back(Entry{cur, hi, nullptr});
    replace_locked(first, last, out.data(), out.data() + out.size());
  }

  // Registers [start, start+size) as one owned span carrying `value`; the
  // bytes it takes from plain spans stay registered, now owned. False (and
  // no change) when the range is empty or overlaps another owned span.
  bool insert_owned(uintptr_t start, size_t size, V* value) {
    if (size == 0) return false;
    const uintptr_t lo = start;
    const uintptr_t hi = start + size;
    MUTLS_CHECK(hi > lo, "interval wraps the address space");
    std::unique_lock lock(mu_);
    size_t first = lower_bound_locked(lo);
    size_t last = first;
    for (; last < spans_.size() && spans_[last].lo < hi; ++last) {
      if (spans_[last].value != nullptr) return false;
    }
    // No temporary on the heap: a registration sits between the
    // allocations of the objects it registers.
    Entry pieces[3];
    size_t k = 0;
    if (first < last && spans_[first].lo < lo) {
      pieces[k++] = Entry{spans_[first].lo, lo, nullptr};
    }
    pieces[k++] = Entry{lo, hi, value};
    if (first < last && spans_[last - 1].hi > hi) {
      pieces[k++] = Entry{hi, spans_[last - 1].hi, nullptr};
    }
    replace_locked(first, last, pieces, pieces + k);
    owned_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  // Unregisters [start, start+size). Plain spans are split when the
  // removal covers an interior range (frees of suballocations in tests);
  // an owned span it touches is dropped whole — its payload handed to
  // `on_dropped` (under the lock) — and the bytes of it outside the range
  // stay registered as plain.
  template <typename Fn>
  void erase(uintptr_t start, size_t size, Fn&& on_dropped) {
    if (size == 0) return;
    const uintptr_t lo = start;
    const uintptr_t hi = start + size;
    std::unique_lock lock(mu_);
    std::vector<Entry> out;
    out.reserve(spans_.size() + 1);
    auto keep_plain = [&out](uintptr_t a, uintptr_t b) {
      if (!out.empty() && out.back().value == nullptr && out.back().hi == a) {
        out.back().hi = b;
      } else {
        out.push_back(Entry{a, b, nullptr});
      }
    };
    for (const Entry& s : spans_) {
      if (s.hi <= lo || s.lo >= hi) {
        if (s.value == nullptr) {
          keep_plain(s.lo, s.hi);
        } else {
          out.push_back(s);
        }
        continue;
      }
      if (s.value != nullptr) {
        on_dropped(s.value);
        owned_.fetch_sub(1, std::memory_order_relaxed);
      }
      if (s.lo < lo) keep_plain(s.lo, lo);
      if (s.hi > hi) keep_plain(hi, s.hi);
    }
    spans_ = std::move(out);
  }
  void erase(uintptr_t start, size_t size) {
    erase(start, size, [](V*) {});
  }

  // True if [addr, addr+size) is covered by a contiguous run of spans.
  bool contains(uintptr_t addr, size_t size) const {
    if (size == 0) return true;
    std::shared_lock lock(mu_);
    size_t i = lower_bound_locked(addr);
    if (i >= spans_.size() || spans_[i].lo > addr) return false;
    uintptr_t reach = spans_[i].hi;
    while (reach < addr + size) {
      if (++i >= spans_.size() || spans_[i].lo != reach) return false;
      reach = spans_[i].hi;
    }
    return true;
  }

  // The span containing `addr`, or the gap around it (see Hit).
  Hit find(uintptr_t addr) const {
    std::shared_lock lock(mu_);
    size_t i = lower_bound_locked(addr);
    Hit h;
    h.lo = i > 0 ? spans_[i - 1].hi : 0;
    h.hi = UINTPTR_MAX;
    if (i < spans_.size()) {
      const Entry& s = spans_[i];
      if (s.lo <= addr) return Hit{s.lo, s.hi, s.value, true};
      h.hi = s.lo;
    }
    return h;
  }

  // Calls `fn` on the payload of every owned span overlapping
  // [start, start+size) (under the shared lock).
  template <typename Fn>
  void for_each_owned(uintptr_t start, size_t size, Fn&& fn) const {
    std::shared_lock lock(mu_);
    for (size_t i = lower_bound_locked(start);
         i < spans_.size() && spans_[i].lo < start + size; ++i) {
      if (spans_[i].value != nullptr) fn(spans_[i].value);
    }
  }

  // True while some owned span exists; lets callers skip the lock when no
  // payload could be found.
  bool has_owned() const {
    return owned_.load(std::memory_order_relaxed) != 0;
  }

  size_t span_count() const {
    std::shared_lock lock(mu_);
    return spans_.size();
  }

  // Total registered bytes.
  uint64_t total_bytes() const {
    std::shared_lock lock(mu_);
    uint64_t t = 0;
    for (const Entry& s : spans_) t += s.hi - s.lo;
    return t;
  }

  // Drops every span (owned payloads are not reported).
  void clear() {
    std::unique_lock lock(mu_);
    spans_.clear();
    owned_.store(0, std::memory_order_relaxed);
  }

 private:
  struct Entry {
    uintptr_t lo;
    uintptr_t hi;  // exclusive
    V* value;      // null: plain
  };

  // Index of the first span with hi > addr, under lock.
  size_t lower_bound_locked(uintptr_t addr) const {
    auto it = std::upper_bound(
        spans_.begin(), spans_.end(), addr,
        [](uintptr_t a, const Entry& e) { return a < e.hi; });
    return static_cast<size_t>(it - spans_.begin());
  }

  // Replaces spans_[first, last) with [from, to), under the unique lock.
  void replace_locked(size_t first, size_t last, const Entry* from,
                      const Entry* to) {
    auto at = spans_.erase(spans_.begin() + static_cast<ptrdiff_t>(first),
                           spans_.begin() + static_cast<ptrdiff_t>(last));
    spans_.insert(at, from, to);
  }

  mutable std::shared_mutex mu_;
  std::vector<Entry> spans_;  // sorted by lo, disjoint
  std::atomic<size_t> owned_{0};
};

// The plain registration set (no payloads).
using IntervalSet = IntervalMap<void>;

}  // namespace mutls
