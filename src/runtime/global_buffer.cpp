#include "runtime/global_buffer.h"

#include <algorithm>

namespace mutls {

void BufferMap::init(int log2_entries, size_t overflow_cap, bool with_marks,
                     SpecBufferStats* stats) {
  MUTLS_CHECK(log2_entries >= 4 && log2_entries <= 28,
              "buffer log2 size out of range");
  size_t n = size_t{1} << log2_entries;
  buffer_ = std::make_unique<uint64_t[]>(n);
  addresses_ = std::make_unique<uintptr_t[]>(n);
  std::fill_n(addresses_.get(), n, uintptr_t{0});
  if (with_marks) {
    marks_ = std::make_unique<uint64_t[]>(n);
  }
  offsets_.reserve(1024);
  overflow_.reserve(std::min<size_t>(overflow_cap, 1024));
  mask_ = n - 1;
  overflow_cap_ = overflow_cap;
  stats_ = stats;
}

bool BufferMap::overflow_find(uintptr_t word_addr, Slot& out) {
  for (OverflowEntry& e : overflow_) {
    if (stats_) ++stats_->probe_steps;
    if (e.word_addr == word_addr) {
      out.data = &e.data;
      out.mark = marks_ ? &e.mark : nullptr;
      out.table_index = kNoSlot;
      return true;
    }
  }
  return false;
}

BufferMap::Find BufferMap::overflow_find_or_insert(uintptr_t word_addr,
                                                   Slot& out) {
  if (overflow_find(word_addr, out)) return Find::kFound;
  if (overflow_.size() >= overflow_cap_) {
    return Find::kFull;
  }
  overflow_.push_back(OverflowEntry{word_addr, 0, 0});
  out.data = &overflow_.back().data;
  out.mark = marks_ ? &overflow_.back().mark : nullptr;
  out.table_index = kNoSlot;
  return Find::kInserted;
}

void BufferMap::clear() {
  for (uint32_t idx : offsets_) addresses_[idx] = 0;
  offsets_.clear();
  overflow_.clear();
}

void GlobalBuffer::init(int log2_entries, size_t overflow_cap,
                        SpecBufferStats* stats) {
  stats_ = stats;
  read_set_.init(log2_entries, overflow_cap, /*with_marks=*/false, stats);
  write_set_.init(log2_entries, overflow_cap, /*with_marks=*/true, stats);
}

void GlobalBuffer::reset() {
  read_set_.clear();
  write_set_.clear();
  doomed_ = false;
  doom_reason_ = "";
  // The stats block belongs to the owning SpecBuffer and intentionally
  // survives reset: the settle paths read the counters after resetting.
}

}  // namespace mutls
