#include "api/ctx.h"

#include "api/spec.h"

namespace mutls {

void Ctx::check_registered_slow(uintptr_t a, size_t n) {
  // A cached positive lookup must not outlive the registration it proved:
  // any unregistration bumps the manager's epoch and flushes the cache.
  uint64_t epoch = space_epoch_->load(std::memory_order_acquire);
  if (epoch != span_epoch_) {
    span_epoch_ = epoch;
    for (int i = 0; i < kSpanCache; ++i) {
      span_lo_[i] = 1;
      span_hi_[i] = 0;
    }
  }
  for (int i = 0; i < kSpanCache; ++i) {
    if (a >= span_lo_[i] && a + n <= span_hi_[i]) return;
  }
  int slot = span_next_;
  span_next_ = (span_next_ + 1) % kSpanCache;
  if (rt_->manager().address_space().lookup(a, n, &span_lo_[slot],
                                            &span_hi_[slot])) {
    return;
  }
  span_lo_[slot] = 1;
  span_hi_[slot] = 0;
  // Wild speculative access (paper IV-G1): roll back instead of faulting.
  td_->sbuf.doom("access outside the registered address space");
  throw SpecAbort{td_->sbuf.doom_reason()};
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
