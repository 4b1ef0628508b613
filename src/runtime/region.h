// Region versions: the validation word behind direct reads of registered
// regions that no speculation writes.
//
// Every versioned registration (a SharedArray, Shared<T> or
// RegisteredRegion of the native API) owns one RegionRecord. Its version
// changes whenever the region's memory may have changed:
//   - a non-speculative store into the region (Ctx::store/store_n,
//     exec::store_mem) bumps it after the data, while a speculation that
//     may read directly can be live (ThreadData::publish_stores; with none
//     live, no version record exists that the store could invalidate);
//   - a commit bumps every region its speculation wrote, after the data
//     (writes no region slot attributed are looked up in the address
//     space, only while a speculation that may read directly can be live);
//   - unregistering the region bumps it before the record is recycled, so
//     a speculation still holding the record fails instead of validating
//     against the record's next registration.
// A speculation that reads a region it has not written records the
// (record, version) pair once and then reads the region straight from
// memory; validation compares the version instead of every word read (see
// "Direct reads of unwritten regions" in the README).
//
// Only the non-speculative thread and the child it is joining ever write
// main memory, and the join barrier serializes them, so a write bump is a
// plain load plus a release store — no read-modify-write on the store path.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "support/interval_set.h"

namespace mutls {

struct RegionRecord {
  std::atomic<uint64_t> version{0};
};

// Publishes a write into `r`: the caller has already stored the data.
inline void publish_region_write(RegionRecord* r) {
  r->version.store(r->version.load(std::memory_order_relaxed) + 1,
                   std::memory_order_release);
}

// The registered address space: plain spans plus one owned span per
// versioned registration, whose payload is the region's record
// ("support/interval_set.h").
using RegionSpace = IntervalMap<RegionRecord>;

// Bumps every record overlapping [addr, addr+n): the publication of a
// write that no span cache attributed to a single record.
inline void publish_range(const RegionSpace& space, uintptr_t addr,
                          size_t n) {
  if (!space.has_owned()) return;
  space.for_each_owned(addr, n, publish_region_write);
}

// Publishes the write of the word at `word_addr`, skipping it when `last`
// (the caller's previous hit, empty at first) already covers it: a write
// set walked in about-address order bumps each record about once.
inline void publish_word(const RegionSpace& space, uintptr_t word_addr,
                         RegionSpace::Hit& last) {
  constexpr size_t kWord = sizeof(uint64_t);
  if (word_addr >= last.lo && word_addr + kWord <= last.hi) return;
  RegionSpace::Hit h = space.find(word_addr);
  if (word_addr + kWord > h.hi) {
    publish_range(space, word_addr, kWord);  // straddles spans
    return;
  }
  if (h.value != nullptr) publish_region_write(h.value);
  last = h;
}

// The manager-owned storage of region records. Records live in chunks that
// are never freed while the pool lives (speculation tables and Ctx span
// caches hold raw pointers to them); a released record — bumped by its
// releaser — is reused by a later registration.
class RegionPool {
 public:
  // The first chunk is made up front, so the first registrations allocate
  // nothing between the objects they register.
  RegionPool() { grow(); }

  RegionRecord* acquire() {
    std::lock_guard lock(mu_);
    if (free_.empty()) grow();
    RegionRecord* r = free_.back();
    free_.pop_back();
    return r;
  }

  void release(RegionRecord* r) {
    std::lock_guard lock(mu_);
    free_.push_back(r);
  }

 private:
  static constexpr size_t kChunk = 64;

  void grow() {
    chunks_.push_back(std::make_unique<RegionRecord[]>(kChunk));
    free_.reserve(free_.size() + kChunk);
    for (size_t i = kChunk; i-- > 0;) free_.push_back(&chunks_.back()[i]);
  }

  std::mutex mu_;
  std::vector<std::unique_ptr<RegionRecord[]>> chunks_;
  std::vector<RegionRecord*> free_;
};

}  // namespace mutls
