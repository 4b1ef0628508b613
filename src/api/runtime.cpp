#include "api/ctx.h"

#include "api/spec.h"

namespace mutls {

void Ctx::sync_span_epoch() {
  // A cached lookup must not outlive what it proved: an unregistration
  // (a positive lookup) or a region registration (a record-free gap) bumps
  // the manager's epoch and flushes the cache.
  uint64_t epoch = space_epoch_->load(std::memory_order_acquire);
  if (epoch == span_epoch_) return;
  span_epoch_ = epoch;
  for (int i = 0; i < kSpanCache; ++i) {
    span_lo_[i] = 1;
    span_hi_[i] = 0;
    span_rec_[i] = nullptr;
    span_mode_[i] = 0;
  }
}

int Ctx::fill_span(uintptr_t lo, uintptr_t hi, RegionRecord* rec) {
  int slot = span_next_;
  span_next_ = (span_next_ + 1) % kSpanCache;
  span_lo_[slot] = lo;
  span_hi_[slot] = hi;
  span_rec_[slot] = rec;
  span_mode_[slot] = 0;
  return slot;
}

int Ctx::check_registered_slow(uintptr_t a, size_t n) {
  sync_span_epoch();
  const RegionSpace& space = rt_->manager().address_space();
  RegionSpace::Hit h = space.find(a);
  // One span (a region's owned span, or a plain stretch without a record)
  // is cached whole; an access straddling adjacent spans is cached as
  // itself, with no record.
  if (h.registered && a + n <= h.hi) return fill_span(h.lo, h.hi, h.value);
  if (!h.registered || !space.contains(a, n)) {
    // Wild speculative access (paper IV-G1): roll back instead of faulting.
    td_->sbuf.doom("access outside the registered address space");
    throw SpecAbort{td_->sbuf.doom_reason()};
  }
  return fill_span(a, a + n, nullptr);
}

void Ctx::publish_slow(uintptr_t a, size_t n) {
  sync_span_epoch();
  const RegionSpace& space = rt_->manager().address_space();
  RegionSpace::Hit h = space.find(a);
  if (a + n > h.hi) {
    // Straddles spans: bump each record, cache nothing.
    publish_range(space, a, n);
    return;
  }
  fill_span(h.lo, h.hi, h.value);
  if (h.value != nullptr) publish_region_write(h.value);
}

void Ctx::load_generic(uintptr_t a, void* out, size_t n) {
  td_->sbuf.load_bytes(a, out, n);
  if (td_->sbuf.doomed()) throw SpecAbort{td_->sbuf.doom_reason()};
}

void Ctx::store_generic(uintptr_t a, const void* src, size_t n) {
  td_->sbuf.store_bytes(a, src, n);
  if (td_->sbuf.doomed()) throw SpecAbort{td_->sbuf.doom_reason()};
}

}  // namespace mutls
