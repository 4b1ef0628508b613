// WordViewCache — the direct-mapped word-view cache in front of every
// SpecBuffer backend (see "Access-path tiers" in "runtime/spec_buffer.h").
//
// Each line caches one word's *composed* speculative view — write-set
// marked bytes over the read-set observation over main memory — so a
// repeated load of the word returns the cached value without a backend
// dispatch or a hash probe. A line logically holds
//
//   {word_addr, view, write-set handle}
//
// stored as two arrays: the hot {tag, view} pairs that every load probes
// (16 bytes a line, 16 KiB in all — about a third of a 48 KiB L1d), and
// the write handles, which only stores read. The handle is the backend's
// WordRef::handle for the word's write-set slot (0 = absent from the write
// set, or not cacheable), so a store into a cached word skips the
// insert_write probe.
//
// The tag is the word address with its low bit set when the word is fully
// written (every byte marked): such a word resolves on a miss with one
// probe instead of two, and a hit credits probe_skips accordingly. Word
// addresses are 8-aligned, so the bit never aliases an address.
//
// The size is a compile-time constant, not a tuning knob: it bounds the
// cache's L1 footprint, not any workload's working set. Clearing costs
// O(lines filled) through a fill list — the same trick BufferMap's offsets
// stack plays — because serving speculations live for microseconds and a
// 16 KiB sweep per settle would dominate them. Storage is inline, so the
// cache never allocates.
#pragma once

#include <cstddef>
#include <cstdint>

#include "runtime/memory.h"

namespace mutls {

class WordViewCache {
  static constexpr uintptr_t kEmpty = ~uintptr_t{0};

 public:
  static constexpr size_t kLines = 1024;
  static constexpr uintptr_t kFullWrite = 1;

  struct alignas(16) Line {
    uintptr_t tag = kEmpty;  // word address | kFullWrite if fully written
    uint64_t view = 0;       // the thread's composed view of the word
  };

  WordViewCache() = default;
  WordViewCache(const WordViewCache&) = delete;
  WordViewCache& operator=(const WordViewCache&) = delete;

  static size_t index(uintptr_t word_addr) {
    return (word_addr / kWordSize) & (kLines - 1);
  }

  Line& line(uintptr_t word_addr) { return lines_[index(word_addr)]; }
  uint32_t& write_handle(uintptr_t word_addr) {
    return write_handles_[index(word_addr)];
  }

  // True when `l` caches `word_addr` (fully written or not). An empty tag
  // never matches: it differs from any aligned address in its high bits.
  static bool holds(const Line& l, uintptr_t word_addr) {
    return (l.tag ^ word_addr) <= kFullWrite;
  }
  static bool fully_written(const Line& l) { return l.tag & kFullWrite; }

  // The probes a hit on `l` saves: the miss path's find_write, plus the
  // insert_read it needs unless the word is fully written.
  static uint64_t probes_saved(const Line& l) {
    return fully_written(l) ? 1 : 2;
  }

  // Caches `view` for `word_addr`, evicting whatever shared its line.
  void fill(uintptr_t word_addr, uint64_t view, uint32_t write_handle,
            bool fully_written) {
    size_t i = index(word_addr);
    if (lines_[i].tag == kEmpty) {
      filled_[filled_count_++] = static_cast<uint16_t>(i);
    }
    lines_[i].tag = word_addr | (fully_written ? kFullWrite : 0);
    lines_[i].view = view;
    write_handles_[i] = write_handle;
  }

  // Empties every filled line in O(lines filled).
  void clear() {
    for (size_t k = 0; k < filled_count_; ++k) {
      lines_[filled_[k]].tag = kEmpty;
    }
    filled_count_ = 0;
  }

 private:
  static_assert(kLines <= 65536, "fill-list entries are 16-bit line indices");

  Line lines_[kLines];
  uint32_t write_handles_[kLines] = {};
  uint16_t filled_[kLines] = {};
  size_t filled_count_ = 0;
};

}  // namespace mutls
