// Unit tests for speculative memory buffering, validation, commit and the
// tree-form merge (paper IV-G2 and IV-F), run against the SpecBuffer API
// and value-parameterized over every backend: the buffered-view semantics
// are a backend-independent contract. Backend-specific capacity behavior
// (overflow doom vs resize) and cross-backend merges are covered at the
// bottom.
#include "runtime/spec_buffer.h"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "api/spec.h"
#include "runtime/spec_abort.h"
#include "runtime/thread_data.h"
#include "support/prng.h"
#include "tests/backend_param.h"

namespace mutls {
namespace {

std::string backend_test_name(
    const ::testing::TestParamInfo<BufferBackend>& info) {
  return backend_camel_name(info.param);
}

class SpecBufferTest : public ::testing::TestWithParam<BufferBackend> {
 protected:
  void SetUp() override { buf_.init(GetParam(), 8, 64); }

  template <typename T>
  T spec_load(SpecBuffer& b, const T& var) {
    T out;
    b.load_bytes(reinterpret_cast<uintptr_t>(&var), &out, sizeof(T));
    return out;
  }

  template <typename T>
  void spec_store(SpecBuffer& b, T& var, T v) {
    b.store_bytes(reinterpret_cast<uintptr_t>(&var), &v, sizeof(T));
  }

  SpecBuffer buf_;
};

TEST_P(SpecBufferTest, LoadReadsMainMemoryFirstTouch) {
  alignas(8) uint64_t x = 1234;
  EXPECT_EQ(spec_load(buf_, x), 1234u);
  EXPECT_EQ(buf_.read_entries(), 1u);
}

TEST_P(SpecBufferTest, LoadReturnsBufferedWrite) {
  alignas(8) uint64_t x = 1;
  spec_store(buf_, x, uint64_t{77});
  EXPECT_EQ(spec_load(buf_, x), 77u);
  EXPECT_EQ(x, 1u) << "store must not touch main memory before commit";
}

TEST_P(SpecBufferTest, ReadSetKeepsFirstObservation) {
  alignas(8) uint64_t x = 10;
  EXPECT_EQ(spec_load(buf_, x), 10u);
  x = 20;  // main memory changes behind the speculation
  EXPECT_EQ(spec_load(buf_, x), 10u)
      << "subsequent loads come from the read-set";
}

TEST_P(SpecBufferTest, WriteThenReadDoesNotTouchReadSet) {
  alignas(8) uint64_t x = 5;
  spec_store(buf_, x, uint64_t{6});
  EXPECT_EQ(spec_load(buf_, x), 6u);
  EXPECT_EQ(buf_.read_entries(), 0u)
      << "a fully written word carries no memory dependency";
}

TEST_P(SpecBufferTest, ValidationSucceedsWhenMemoryUnchanged) {
  alignas(8) uint64_t x = 42;
  spec_load(buf_, x);
  EXPECT_TRUE(buf_.validate_against_memory());
  EXPECT_EQ(buf_.stats().validated_words, 1u);
}

TEST_P(SpecBufferTest, ValidationFailsWhenMemoryChanged) {
  alignas(8) uint64_t x = 42;
  spec_load(buf_, x);
  x = 43;
  EXPECT_FALSE(buf_.validate_against_memory());
}

TEST_P(SpecBufferTest, CommitWritesWholeWords) {
  alignas(8) uint64_t x = 0;
  spec_store(buf_, x, uint64_t{0x1122334455667788ull});
  buf_.commit_to_memory();
  EXPECT_EQ(x, 0x1122334455667788ull);
}

TEST_P(SpecBufferTest, SubWordStoreCommitsOnlyMarkedBytes) {
  alignas(8) uint64_t x = 0xffffffffffffffffull;
  auto* bytes = reinterpret_cast<uint8_t*>(&x);
  uint8_t v = 0xab;
  buf_.store_bytes(reinterpret_cast<uintptr_t>(bytes + 2), &v, 1);
  buf_.commit_to_memory();
  EXPECT_EQ(bytes[2], 0xab);
  EXPECT_EQ(bytes[0], 0xff);
  EXPECT_EQ(bytes[3], 0xff);
}

TEST_P(SpecBufferTest, SubWordLoadBuffersWholeWord) {
  alignas(8) uint32_t pair[2] = {111, 222};
  uint32_t out;
  buf_.load_bytes(reinterpret_cast<uintptr_t>(&pair[0]), &out, 4);
  EXPECT_EQ(out, 111u);
  pair[1] = 999;  // same word, other half changes
  EXPECT_FALSE(buf_.validate_against_memory())
      << "whole-word validation is conservative, as in the paper";
}

TEST_P(SpecBufferTest, SubWordReadAfterSubWordWriteCombines) {
  alignas(8) uint32_t pair[2] = {1, 2};
  uint32_t nv = 10;
  buf_.store_bytes(reinterpret_cast<uintptr_t>(&pair[0]), &nv, 4);
  // Reading the other (unwritten) half must come from memory.
  uint32_t out;
  buf_.load_bytes(reinterpret_cast<uintptr_t>(&pair[1]), &out, 4);
  EXPECT_EQ(out, 2u);
  // Reading the written half must come from the write-set.
  buf_.load_bytes(reinterpret_cast<uintptr_t>(&pair[0]), &out, 4);
  EXPECT_EQ(out, 10u);
}

TEST_P(SpecBufferTest, MultiWordAccessSplitsAcrossWords) {
  alignas(8) std::array<uint64_t, 4> arr = {1, 2, 3, 4};
  std::array<uint64_t, 3> nv = {11, 12, 13};
  buf_.store_bytes(reinterpret_cast<uintptr_t>(&arr[0]), nv.data(),
                   sizeof(nv));
  std::array<uint64_t, 3> out{};
  buf_.load_bytes(reinterpret_cast<uintptr_t>(&arr[0]), out.data(),
                  sizeof(out));
  EXPECT_EQ(out, nv);
  buf_.commit_to_memory();
  EXPECT_EQ(arr[0], 11u);
  EXPECT_EQ(arr[1], 12u);
  EXPECT_EQ(arr[2], 13u);
  EXPECT_EQ(arr[3], 4u);
}

TEST_P(SpecBufferTest, UnalignedAccessStraddlingWordsRoundTrips) {
  alignas(8) std::array<uint8_t, 24> arr{};
  for (size_t i = 0; i < arr.size(); ++i) arr[i] = static_cast<uint8_t>(i);
  // 8-byte access at offset 5 crosses a word boundary.
  uint64_t out = 0;
  buf_.load_bytes(reinterpret_cast<uintptr_t>(arr.data() + 5), &out, 8);
  uint64_t expect = 0;
  std::memcpy(&expect, arr.data() + 5, 8);
  EXPECT_EQ(out, expect);

  uint64_t nv = 0xa0a1a2a3a4a5a6a7ull;
  buf_.store_bytes(reinterpret_cast<uintptr_t>(arr.data() + 5), &nv, 8);
  buf_.commit_to_memory();
  uint64_t readback = 0;
  std::memcpy(&readback, arr.data() + 5, 8);
  EXPECT_EQ(readback, nv);
  EXPECT_EQ(arr[4], 4u);
  EXPECT_EQ(arr[13], 13u);
}

TEST_P(SpecBufferTest, ResetDiscardsBufferedState) {
  alignas(8) uint64_t x = 3;
  spec_store(buf_, x, uint64_t{9});
  spec_load(buf_, x);
  buf_.reset();
  EXPECT_EQ(buf_.read_entries(), 0u);
  EXPECT_EQ(buf_.write_entries(), 0u);
  buf_.commit_to_memory();
  EXPECT_EQ(x, 3u) << "reset state must not commit anything";
}

// --- tree-form merge (speculative joiner) ---

TEST_P(SpecBufferTest, ValidateAgainstJoinerSeesJoinerWrites) {
  alignas(8) uint64_t x = 100;
  SpecBuffer parent;
  parent.init(GetParam(), 8, 64);
  // Parent speculatively wrote x = 200 before forking the child; the child
  // read main memory (100) -- a conflict the tree validation must catch.
  spec_store(parent, x, uint64_t{200});
  SpecBuffer child;
  child.init(GetParam(), 8, 64);
  spec_load(child, x);
  EXPECT_FALSE(child.validate_against(parent));
  // If the parent's buffered value matches what the child read, it passes.
  SpecBuffer child2;
  child2.init(GetParam(), 8, 64);
  spec_store(parent, x, uint64_t{100});
  spec_load(child2, x);
  EXPECT_TRUE(child2.validate_against(parent));
}

TEST_P(SpecBufferTest, MergeOverlaysChildWritesOntoJoiner) {
  alignas(8) uint64_t x = 0, y = 0;
  SpecBuffer parent, child;
  parent.init(GetParam(), 8, 64);
  child.init(GetParam(), 8, 64);
  spec_store(parent, x, uint64_t{1});
  spec_store(child, y, uint64_t{2});
  child.merge_into(parent);
  // Parent now holds both writes; committing publishes both.
  parent.commit_to_memory();
  EXPECT_EQ(x, 1u);
  EXPECT_EQ(y, 2u);
}

TEST_P(SpecBufferTest, MergeChildWriteWinsOverJoinerWrite) {
  // The child is logically *later*, so its write supersedes the joiner's.
  alignas(8) uint64_t x = 0;
  SpecBuffer parent, child;
  parent.init(GetParam(), 8, 64);
  child.init(GetParam(), 8, 64);
  spec_store(parent, x, uint64_t{1});
  spec_store(child, x, uint64_t{2});
  child.merge_into(parent);
  parent.commit_to_memory();
  EXPECT_EQ(x, 2u);
}

TEST_P(SpecBufferTest, MergePropagatesChildReadsForFinalValidation) {
  alignas(8) uint64_t x = 7;
  SpecBuffer parent, child;
  parent.init(GetParam(), 8, 64);
  child.init(GetParam(), 8, 64);
  spec_load(child, x);
  child.merge_into(parent);
  EXPECT_TRUE(parent.validate_against_memory());
  x = 8;  // memory changes after the merge: the adopted read must fail
  EXPECT_FALSE(parent.validate_against_memory());
}

TEST_P(SpecBufferTest, MergeSkipsReadsFullyCoveredByJoinerWrites) {
  alignas(8) uint64_t x = 7;
  SpecBuffer parent, child;
  parent.init(GetParam(), 8, 64);
  child.init(GetParam(), 8, 64);
  spec_store(parent, x, uint64_t{7});  // full-word write, same value
  spec_load(child, x);
  child.merge_into(parent);
  x = 99;  // adopted read carried no memory dependency -> still valid
  EXPECT_TRUE(parent.validate_against_memory());
}

TEST_P(SpecBufferTest, SubWordMergeCombinesMarks) {
  alignas(8) uint64_t x = 0;
  auto* b = reinterpret_cast<uint8_t*>(&x);
  SpecBuffer parent, child;
  parent.init(GetParam(), 8, 64);
  child.init(GetParam(), 8, 64);
  uint8_t v1 = 0x11, v2 = 0x22;
  parent.store_bytes(reinterpret_cast<uintptr_t>(b + 0), &v1, 1);
  child.store_bytes(reinterpret_cast<uintptr_t>(b + 1), &v2, 1);
  child.merge_into(parent);
  parent.commit_to_memory();
  EXPECT_EQ(b[0], 0x11);
  EXPECT_EQ(b[1], 0x22);
  EXPECT_EQ(b[2], 0x00);
}

INSTANTIATE_TEST_SUITE_P(Backends, SpecBufferTest,
                         ::testing::ValuesIn(kBufferBackends),
                         backend_test_name);

// --- backend-specific capacity behavior ---

TEST(SpecBufferStaticHash, DoomOnOverflowExhaustion) {
  SpecBuffer tiny;
  tiny.init(BufferBackend::kStaticHash, 4, 2);  // 16 slots, 2 overflow
  alignas(8) static uint64_t arena[256];
  // Store to 4 colliding words: slot + 2 overflow + 1 too many.
  for (int i = 0; i < 4; ++i) {
    uint64_t v = static_cast<uint64_t>(i);
    tiny.store_bytes(reinterpret_cast<uintptr_t>(&arena[i * 16]), &v, 8);
  }
  EXPECT_TRUE(tiny.doomed());
  EXPECT_TRUE(tiny.pressure());
  EXPECT_GT(tiny.stats().overflow_events, 0u);
}

TEST(SpecBufferGrowableLog, ResizesInsteadOfDooming) {
  SpecBuffer tiny;
  tiny.init(BufferBackend::kGrowableLog, 4, 2);  // 16 initial slots
  alignas(8) static uint64_t arena[256];
  // Far more writes (and reads) than the initial capacity: the same access
  // pattern that dooms the static hash must force resizes and carry on.
  for (int i = 0; i < 200; ++i) {
    uint64_t v = static_cast<uint64_t>(i) + 1;
    tiny.store_bytes(reinterpret_cast<uintptr_t>(&arena[i]), &v, 8);
  }
  ASSERT_FALSE(tiny.doomed());
  EXPECT_TRUE(tiny.pressure()) << "a resize this speculation is pressure";
  EXPECT_GT(tiny.stats().resize_events, 0u);
  EXPECT_EQ(tiny.write_entries(), 200u);
  // Every buffered value survives the rehashes.
  for (int i = 0; i < 200; ++i) {
    uint64_t out = 0;
    tiny.load_bytes(reinterpret_cast<uintptr_t>(&arena[i]), &out, 8);
    ASSERT_EQ(out, static_cast<uint64_t>(i) + 1) << "word " << i;
  }
  EXPECT_TRUE(tiny.validate_against_memory());
  tiny.commit_to_memory();
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(arena[i], static_cast<uint64_t>(i) + 1);
  }
}

TEST(SpecBufferGrowableLog, PressureClearsOnReset) {
  SpecBuffer buf;
  buf.init(BufferBackend::kGrowableLog, 4, 0);
  alignas(8) static uint64_t arena[64];
  for (int i = 0; i < 64; ++i) {
    uint64_t v = 1;
    buf.store_bytes(reinterpret_cast<uintptr_t>(&arena[i]), &v, 8);
  }
  ASSERT_TRUE(buf.pressure());
  buf.reset();
  EXPECT_FALSE(buf.pressure()) << "the grown table is no longer pressured";
  // The grown capacity is retained: re-buffering the same footprint does
  // not resize again.
  uint64_t resizes = buf.stats().resize_events;
  for (int i = 0; i < 64; ++i) {
    uint64_t v = 2;
    buf.store_bytes(reinterpret_cast<uintptr_t>(&arena[i]), &v, 8);
  }
  EXPECT_EQ(buf.stats().resize_events, resizes);
}

// --- cross-backend join-time pairings ---
//
// A ThreadManager configures all its buffers with the same BufferBackend,
// but the SpecBuffer join-time operations are generic over the (child,
// joiner) backend pair. Pin every pairing down so backends stay
// interchangeable at the contract level, including the merge-time
// read-adoption policy that lives once in SpecBuffer::merge_into.

struct BackendPair {
  BufferBackend child;
  BufferBackend joiner;
};

// Every (child, joiner) pairing of the backend list.
std::vector<BackendPair> all_backend_pairs() {
  std::vector<BackendPair> pairs;
  for (BufferBackend child : kBufferBackends) {
    for (BufferBackend joiner : kBufferBackends) {
      pairs.push_back(BackendPair{child, joiner});
    }
  }
  return pairs;
}

class SpecBufferCrossBackend : public ::testing::TestWithParam<BackendPair> {};

TEST_P(SpecBufferCrossBackend, MergeAndValidateCompose) {
  alignas(8) uint64_t x = 0, y = 7;
  SpecBuffer joiner, child;
  joiner.init(GetParam().joiner, 8, 64);
  child.init(GetParam().child, 8, 64);

  uint64_t out;
  child.load_bytes(reinterpret_cast<uintptr_t>(&y), &out, 8);  // read dep
  uint64_t v = 5;
  child.store_bytes(reinterpret_cast<uintptr_t>(&x), &v, 8);
  EXPECT_TRUE(child.validate_against(joiner));

  child.merge_into(joiner);
  EXPECT_FALSE(joiner.doomed());
  // The adopted read keeps guarding the final validation...
  y = 8;
  EXPECT_FALSE(joiner.validate_against_memory());
  y = 7;
  EXPECT_TRUE(joiner.validate_against_memory());
  // ...and the adopted write commits.
  joiner.commit_to_memory();
  EXPECT_EQ(x, 5u);
}

// Read adoption is policy, not backend code: a child read fully covered by
// one of the joiner's *full-mark* writes carries no main-memory dependency
// and must be skipped; a partial-mark cover must NOT suppress it. Every
// (child, joiner) pairing runs the same hoisted SpecBuffer::merge_into.
TEST_P(SpecBufferCrossBackend, FullMarkWriteSuppressesReadAdoption) {
  alignas(8) uint64_t full = 7, partial = 7;
  SpecBuffer joiner, child;
  joiner.init(GetParam().joiner, 8, 64);
  child.init(GetParam().child, 8, 64);

  uint64_t v = 7;
  joiner.store_bytes(reinterpret_cast<uintptr_t>(&full), &v, 8);  // full mark
  uint8_t b = 7;
  joiner.store_bytes(reinterpret_cast<uintptr_t>(&partial), &b, 1);  // partial
  uint64_t out;
  child.load_bytes(reinterpret_cast<uintptr_t>(&full), &out, 8);
  child.load_bytes(reinterpret_cast<uintptr_t>(&partial), &out, 8);
  child.merge_into(joiner);
  ASSERT_FALSE(joiner.doomed());
  EXPECT_EQ(joiner.read_entries(), 1u)
      << "only the partially covered read may be adopted";

  // The fully covered word can change behind the joiner with no effect...
  full = 99;
  EXPECT_TRUE(joiner.validate_against_memory())
      << "a read covered by a full-mark write carries no memory dependency";
  // ...while the partially covered one still guards validation.
  partial = 99;
  EXPECT_FALSE(joiner.validate_against_memory())
      << "a partial-mark cover must not suppress read adoption";
}

TEST_P(SpecBufferCrossBackend, AdoptedReadKeepsJoinersFirstObservation) {
  alignas(8) uint64_t x = 10;
  SpecBuffer joiner, child;
  joiner.init(GetParam().joiner, 8, 64);
  child.init(GetParam().child, 8, 64);

  uint64_t out;
  joiner.load_bytes(reinterpret_cast<uintptr_t>(&x), &out, 8);  // observes 10
  x = 20;  // memory moves between the two observations
  child.load_bytes(reinterpret_cast<uintptr_t>(&x), &out, 8);  // observes 20
  ASSERT_EQ(out, 20u);
  child.merge_into(joiner);

  // First value wins: the joiner's earlier observation (10) must survive
  // the merge, so validation fails against the current 20 and passes once
  // memory returns to 10. (Were the child's 20 adopted over it, the two
  // outcomes would be inverted.)
  EXPECT_FALSE(joiner.validate_against_memory());
  x = 10;
  EXPECT_TRUE(joiner.validate_against_memory());
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, SpecBufferCrossBackend,
    ::testing::ValuesIn(all_backend_pairs()),
    [](const ::testing::TestParamInfo<BackendPair>& info) {
      return backend_camel_name(info.param.child) + "ChildInto" +
             backend_camel_name(info.param.joiner) + "Joiner";
    });

// --- fast-path / slow-path equivalence ---
//
// The aligned-word fast path (load_aligned/store_aligned), the bulk span
// transfers and the word-view cache are pure shortcuts: a
// random mix of aligned, unaligned and word-straddling accesses routed
// through them must leave byte-identical buffer state — and identical
// validation outcomes and committed bytes — as the same mix through the
// fully generic byte loop. The generic reference below issues every access
// one byte at a time, which bypasses the aligned shortcut entirely.

class SpecBufferEquivalence : public ::testing::TestWithParam<BufferBackend> {
 protected:
  static constexpr size_t kArenaWords = 48;

  void SetUp() override {
    fast_.init(GetParam(), 8, 64);
    slow_.init(GetParam(), 8, 64);
    for (size_t i = 0; i < kArenaWords; ++i) {
      arena_[i] = 0x0101010101010101ull * (i + 1);
    }
  }

  uintptr_t base() const { return reinterpret_cast<uintptr_t>(&arena_[0]); }

  // Generic reference: the access split into single bytes (worst-case
  // generic path; sub-word loads still insert whole words, so the sets end
  // up the same).
  void ref_store(uintptr_t a, const uint8_t* src, size_t n) {
    for (size_t i = 0; i < n; ++i) slow_.store_bytes(a + i, src + i, 1);
  }
  void ref_load(uintptr_t a, uint8_t* out, size_t n) {
    for (size_t i = 0; i < n; ++i) slow_.load_bytes(a + i, out + i, 1);
  }

  // Fast path where eligible (the production routing rule), span transfer
  // otherwise.
  void fast_store(uintptr_t a, const uint8_t* src, size_t n) {
    if (word_sized_aligned(a, n)) {
      uint64_t raw = 0;
      std::memcpy(&raw, src, n);
      fast_.store_aligned(a, raw, n);
    } else {
      fast_.store_span(a, src, n);
    }
  }
  void fast_load(uintptr_t a, uint8_t* out, size_t n) {
    if (word_sized_aligned(a, n)) {
      uint64_t raw = fast_.load_aligned(a, n);
      std::memcpy(out, &raw, n);
    } else {
      fast_.load_span(a, out, n);
    }
  }

  alignas(8) uint64_t arena_[kArenaWords];
  SpecBuffer fast_;
  SpecBuffer slow_;
};

TEST_P(SpecBufferEquivalence, RandomAccessMixMatchesGenericByteLoop) {
  Xorshift64 rng(0xfeedbeef);
  const size_t arena_bytes = kArenaWords * sizeof(uint64_t);
  for (int op = 0; op < 2000; ++op) {
    // Sizes 1..16 cover aligned scalars, odd widths and word straddles.
    size_t n = 1 + rng.next() % 16;
    uintptr_t a = base() + rng.next() % (arena_bytes - n);
    if (rng.next() % 2 == 0) {
      uint8_t data[16];
      for (size_t i = 0; i < n; ++i) {
        data[i] = static_cast<uint8_t>(rng.next());
      }
      fast_store(a, data, n);
      ref_store(a, data, n);
    } else {
      uint8_t got_fast[16] = {0};
      uint8_t got_slow[16] = {0};
      fast_load(a, got_fast, n);
      ref_load(a, got_slow, n);
      ASSERT_EQ(std::memcmp(got_fast, got_slow, n), 0)
          << "op " << op << ": fast and generic loads disagree";
    }
  }
  ASSERT_FALSE(fast_.doomed());
  ASSERT_FALSE(slow_.doomed());
  EXPECT_EQ(fast_.read_entries(), slow_.read_entries());
  EXPECT_EQ(fast_.write_entries(), slow_.write_entries());

  // Identical validation outcomes: valid now, and both spot the same
  // main-memory change behind a word that at least one load observed.
  EXPECT_TRUE(fast_.validate_against_memory());
  EXPECT_TRUE(slow_.validate_against_memory());
  for (size_t i = 0; i < kArenaWords; ++i) {
    uint64_t saved = arena_[i];
    arena_[i] ^= 0xff00ull;
    EXPECT_EQ(fast_.validate_against_memory(),
              slow_.validate_against_memory())
        << "validation outcomes diverge when word " << i << " changes";
    arena_[i] = saved;
  }

  // Byte-identical committed state: commit each buffer onto a pristine
  // copy of the arena and compare the results.
  alignas(8) uint64_t snapshot[kArenaWords];
  std::memcpy(snapshot, arena_, sizeof(arena_));
  fast_.commit_to_memory();
  alignas(8) uint64_t after_fast[kArenaWords];
  std::memcpy(after_fast, arena_, sizeof(arena_));
  std::memcpy(arena_, snapshot, sizeof(arena_));
  slow_.commit_to_memory();
  EXPECT_EQ(std::memcmp(after_fast, arena_, sizeof(arena_)), 0)
      << "fast and generic commits leave different memory";
}

INSTANTIATE_TEST_SUITE_P(Backends, SpecBufferEquivalence,
                         ::testing::ValuesIn(kBufferBackends),
                         backend_test_name);

// --- word-view cache coherence ---
//
// The direct-mapped word-view cache in front of every backend serves
// repeated loads without probing the sets. It is a pure shortcut: each
// case below pins one way its cached views could go stale — a store, a
// merge, a doom, a re-armed slot, a capacity-doom fallback, a predicted
// read — and checks the next access sees exactly what the sets hold.

class SpecBufferViewCache : public ::testing::TestWithParam<BufferBackend> {
 protected:
  // Words 0..2 sit on distinct cache lines; word kLines shares word 0's.
  static constexpr size_t kWords = WordViewCache::kLines + 1;

  void SetUp() override {
    buf_.init(GetParam(), 8, 64);
    for (size_t i = 0; i < kWords; ++i) words_[i] = 0x0101010101010101ull * i;
  }

  uintptr_t addr(size_t i) const {
    return reinterpret_cast<uintptr_t>(&words_[i]);
  }

  SpecBuffer buf_;
  alignas(8) uint64_t words_[kWords];
};

// Walks a line through every state with exact hit/miss/skip accounting.
// A hit credits the probes the miss path would have paid: find_write plus
// insert_read (2), or find_write alone for a fully written word (1); a
// store through a cached write handle skips its insert_write (1).
TEST_P(SpecBufferViewCache, WalksEveryLineState) {
  const uintptr_t x = addr(0), y = addr(1), z = addr(2), x2 = addr(kWords - 1);
  words_[0] = 0x0807060504030201ull;
  const SpecBufferStats& s = buf_.stats();
  auto counts = [&](uint64_t hits, uint64_t misses, uint64_t skips) {
    EXPECT_EQ(s.mru_hits, hits);
    EXPECT_EQ(s.mru_misses, misses);
    EXPECT_EQ(s.probe_skips, skips);
  };

  // 1. Partial store to an empty line: probes the write set; a partial
  //    word's view still needs memory, so nothing is cached.
  buf_.store_aligned(x, 0xAA, 1);
  counts(0, 1, 0);
  // 2. Load: miss, resolved over the partial write and cached with the
  //    write handle.
  EXPECT_EQ(buf_.load_aligned(x, 8), 0x08070605040302AAull);
  counts(0, 2, 0);
  // 3. Load again: hit on the overlay line.
  EXPECT_EQ(buf_.load_aligned(x, 8), 0x08070605040302AAull);
  counts(1, 2, 2);
  // 4. Whole-word store through the cached handle: hit; the line is now
  //    fully written.
  buf_.store_aligned(x, 0x1111111111111111ull, 8);
  counts(2, 2, 3);
  // 5. Load of the fully written word: hit worth one probe.
  EXPECT_EQ(buf_.load_aligned(x, 8), 0x1111111111111111ull);
  counts(3, 2, 4);
  // 6. Read-only word: miss, cached with no write handle...
  EXPECT_EQ(buf_.load_aligned(y, 8), words_[1]);
  counts(3, 3, 4);
  // 7. ...so the repeat load is a hit worth two probes.
  EXPECT_EQ(buf_.load_aligned(y, 8), words_[1]);
  counts(4, 3, 6);
  // 8. Store into the read-only line: the handle is unknown, so the store
  //    probes (miss), writes through and the line learns the handle.
  buf_.store_aligned(y + 1, 0xCC, 1);
  counts(4, 4, 6);
  const uint64_t y_view = (words_[1] & ~0xff00ull) | 0xCC00ull;
  // 9. The written byte is visible from the line.
  EXPECT_EQ(buf_.load_aligned(y, 8), y_view);
  counts(5, 4, 8);
  // 10. The next store reuses the learned handle.
  buf_.store_aligned(y + 1, 0xDD, 1);
  counts(6, 4, 9);
  // 11. Whole-word store to an empty line: miss, cached as fully written.
  buf_.store_aligned(z, 0x2222222222222222ull, 8);
  counts(6, 5, 9);
  // 12. The load after it hits.
  EXPECT_EQ(buf_.load_aligned(z, 8), 0x2222222222222222ull);
  counts(7, 5, 10);
  // 13. A word sharing x's line evicts it...
  EXPECT_EQ(buf_.load_aligned(x2, 8), words_[kWords - 1]);
  counts(7, 6, 10);
  // 14. ...so x misses again, and still resolves to its buffered write.
  EXPECT_EQ(buf_.load_aligned(x, 8), 0x1111111111111111ull);
  counts(7, 7, 10);

  // The shortcuts must not have perturbed the sets themselves.
  EXPECT_EQ(buf_.read_entries(), 3u);  // x, y, x2
  EXPECT_EQ(buf_.write_entries(), 3u);  // x, y, z
  EXPECT_TRUE(buf_.validate_against_memory());
  buf_.commit_to_memory();
  EXPECT_EQ(words_[0], 0x1111111111111111ull);
  EXPECT_EQ(words_[1], (y_view & ~0xff00ull) | 0xDD00ull);
  EXPECT_EQ(words_[2], 0x2222222222222222ull);
}

TEST_P(SpecBufferViewCache, SubWordStoreIntoCachedWordIsVisible) {
  const uint64_t before = words_[1];
  ASSERT_EQ(buf_.load_aligned(addr(1), 8), before);  // cached
  buf_.store_aligned(addr(1) + 3, 0x5A, 1);
  buf_.store_aligned(addr(1) + 6, 0x1234, 2);
  const uint64_t want =
      (before & ~0xffff0000ff000000ull) | 0x123400005A000000ull;
  EXPECT_EQ(buf_.load_aligned(addr(1), 8), want);
  EXPECT_EQ(buf_.load_aligned(addr(1) + 3, 1) & 0xff, 0x5Au);
  EXPECT_EQ(buf_.load_aligned(addr(1) + 4, 4) & 0xffffffffull, want >> 32);
  uint8_t span[3];
  buf_.load_span(addr(1) + 2, span, 3);
  EXPECT_EQ(span[1], 0x5A);
  EXPECT_EQ(words_[1], before) << "stores stay buffered until commit";
}

TEST_P(SpecBufferViewCache, MergeIntoClearsTheJoinersView) {
  SpecBuffer child;
  child.init(GetParam(), 8, 64);
  const uint64_t before = words_[1];
  ASSERT_EQ(buf_.load_aligned(addr(1), 8), before);  // joiner caches it
  child.store_aligned(addr(1), 0x77, 1);
  child.store_aligned(addr(2), 0x88, 8);
  ASSERT_TRUE(child.validate_against(buf_));
  child.merge_into(buf_);
  const uint64_t hits = buf_.stats().mru_hits;
  EXPECT_EQ(buf_.load_aligned(addr(1), 8), (before & ~0xffull) | 0x77)
      << "the joiner served its pre-merge view of a word the child wrote";
  EXPECT_EQ(buf_.load_aligned(addr(2), 8), 0x88u);
  EXPECT_EQ(buf_.stats().mru_hits, hits) << "merge must empty the cache";
}

TEST_P(SpecBufferViewCache, DoomedBufferServesNoHit) {
  ASSERT_EQ(buf_.load_aligned(addr(1), 8), words_[1]);  // cached
  buf_.doom("test doom");
  const uint64_t hits = buf_.stats().mru_hits;
  buf_.load_aligned(addr(1), 8);
  buf_.load_aligned(addr(1), 8);
  buf_.store_aligned(addr(2), 1, 8);
  buf_.load_aligned(addr(2), 8);
  EXPECT_EQ(buf_.stats().mru_hits, hits)
      << "a doomed buffer must reach the caller's doom check every access";
  EXPECT_TRUE(buf_.doomed());
  EXPECT_STREQ(buf_.doom_reason(), "test doom");
}

TEST_P(SpecBufferViewCache, RearmedSlotNeverReturnsThePreviousView) {
  ASSERT_EQ(buf_.load_aligned(addr(1), 8), words_[1]);
  buf_.store_aligned(addr(2), 99, 8);
  buf_.rearm();
  words_[1] = 424242;
  words_[2] = 515151;
  EXPECT_EQ(buf_.load_aligned(addr(1), 8), 424242u)
      << "a re-armed slot served the previous speculation's read";
  EXPECT_EQ(buf_.load_aligned(addr(2), 8), 515151u)
      << "a re-armed slot served the previous speculation's write";
  EXPECT_EQ(buf_.stats().mru_hits, 0u);
}

TEST_P(SpecBufferViewCache, ClearedAcrossReset) {
  buf_.store_aligned(addr(0), 0xAB, 1);
  ASSERT_EQ(buf_.load_aligned(addr(0), 1) & 0xff, 0xABu);
  buf_.reset();
  words_[0] = 0x1122334455667788ull;
  const uint64_t hits = buf_.stats().mru_hits;
  EXPECT_EQ(buf_.load_aligned(addr(0), 8), 0x1122334455667788ull)
      << "stale line served a discarded slot after reset";
  EXPECT_EQ(buf_.stats().mru_hits, hits);
  EXPECT_EQ(buf_.read_entries(), 1u);
}

TEST_P(SpecBufferViewCache, ClearedAcrossResetForSpeculation) {
  // One layer up: re-arming a virtual-CPU slot
  // (ThreadData::reset_for_speculation) empties the cache with the sets.
  ThreadData td;
  td.sbuf.init(GetParam(), 8, 64);
  td.lbuf.init(4);
  td.sbuf.store_aligned(addr(1), 99, 8);
  ASSERT_EQ(td.sbuf.load_aligned(addr(1), 8), 99u);
  td.reset_for_speculation(0, 0, 1, 0x5eed, 0.0);
  words_[1] = 424242;
  EXPECT_EQ(td.sbuf.load_aligned(addr(1), 8), 424242u)
      << "reused slot leaked the previous speculation's buffered view";
  EXPECT_EQ(td.sbuf.stats().mru_hits, 0u);
}

TEST_P(SpecBufferViewCache, PredictedReadCachesThePredictedView) {
  constexpr uint64_t kStride = 7;
  SpecBuffer buf;
  buf.init(GetParam(), 8, 64, GrowableSet::kMaxLog2, nullptr,
           SpecPredictPolicy{.enabled = true,
                             .confidence_threshold = 2,
                             .stride_window = uint64_t{1} << 16,
                             .table_log2 = 8});
  // Three conflicting epochs train a confident stride entry.
  for (int epoch = 0; epoch < 3; ++epoch) {
    ASSERT_EQ(buf.load_aligned(addr(1), 8), words_[1]);
    words_[1] += kStride;
    ASSERT_FALSE(buf.validate_against_memory());
    buf.rearm();
  }
  const uint64_t predicted = words_[1] + kStride;
  ASSERT_EQ(buf.load_aligned(addr(1), 8), predicted);
  ASSERT_EQ(buf.stats().predicted_reads, 1u);
  EXPECT_EQ(buf.load_aligned(addr(1), 8), predicted)
      << "the repeat load must serve the adopted prediction, not memory";
  EXPECT_EQ(buf.stats().mru_hits, 1u);
  words_[1] += kStride;
  EXPECT_TRUE(buf.validate_against_memory());
}

INSTANTIATE_TEST_SUITE_P(Backends, SpecBufferViewCache,
                         ::testing::ValuesIn(kBufferBackends),
                         backend_test_name);

// A capacity doom falls back to the main-memory value, which must never be
// cached: the word is in no set, so a later load cannot be served from one.
TEST(SpecBufferViewCacheCapacity, DoomFallbackValueIsNeverCached) {
  alignas(8) static uint64_t words[64];
  for (BufferBackend backend : kBufferBackends) {
    SCOPED_TRACE(buffer_backend_name(backend));
    SpecBuffer tiny;
    // 16 static slots with 2 overflow entries; a 2^4 growable hard cap.
    tiny.init(backend, 4, 2, /*growable_max_log2=*/4);
    for (size_t i = 0; i < 64; ++i) words[i] = i;
    size_t doomed_at = 0;
    // Stride 16 words: every load collides in static slot 0.
    for (size_t i = 0; i < 64 && !tiny.doomed(); ++i) {
      size_t w = backend == BufferBackend::kStaticHash ? (i * 16) % 64 + i / 4
                                                       : i;
      EXPECT_EQ(tiny.load_aligned(reinterpret_cast<uintptr_t>(&words[w]), 8),
                words[w]);
      doomed_at = w;
    }
    ASSERT_TRUE(tiny.doomed());
    const uint64_t hits = tiny.stats().mru_hits;
    words[doomed_at] = 0xfeed;
    EXPECT_EQ(
        tiny.load_aligned(reinterpret_cast<uintptr_t>(&words[doomed_at]), 8),
        0xfeedu)
        << "the capacity-doom fallback value was cached";
    EXPECT_EQ(tiny.stats().mru_hits, hits);
  }
}

// The registration check runs before every fast path, direct or cached: a
// load of the unregistered half of a word whose registered half was just
// served without touching the buffer maps — straight from memory (a direct
// region read) or from the word-view cache (once a store has moved the
// region to the buffer) — is still a wild access.
TEST(SpecBufferViewCacheCtx, UnregisteredHalfOfCachedWordDoomsAsWild) {
  for (BufferBackend backend : kBufferBackends) {
    for (bool direct : {true, false}) {
      SCOPED_TRACE(std::string(buffer_backend_name(backend)) +
                   (direct ? "/direct" : "/cached"));
      Runtime::Options opts;
      opts.num_cpus = 1;
      opts.buffer_log2 = 10;
      opts.buffer_backend = backend;
      Runtime rt(opts);
      alignas(8) static uint32_t halves[2];
      halves[0] = 11;
      halves[1] = 22;
      rt.register_memory(&halves[0], sizeof(uint32_t));
      std::string reason;
      SpecBufferStats served;
      RunStats rs = rt.run([&](Ctx& ctx) {
        Spec s = rt.fork(ctx, ForkModel::kMixed, [&](Ctx& c) {
          // A store moves the region to the buffer, where the next loads
          // are served by the word-view cache.
          if (!direct) c.store(&halves[0], uint32_t{11});
          EXPECT_EQ(c.load(&halves[0]), 11u);
          EXPECT_EQ(c.load(&halves[0]), 11u);  // direct, or a cache hit
          if (c.speculative()) {
            served = c.thread_data().sbuf.stats();
            try {
              c.load(&halves[1]);
            } catch (const SpecAbort& a) {
              reason = a.reason;
              throw;
            }
            ADD_FAILURE() << "the wild half-word load did not doom";
          }
          EXPECT_EQ(c.load(&halves[1]), 22u);  // inline re-execution
        });
        ASSERT_TRUE(s.speculated());
        EXPECT_EQ(rt.join(ctx, s), JoinOutcome::kRolledBack);
      });
      rt.unregister_memory(&halves[0], sizeof(uint32_t));
      if (direct) {
        EXPECT_EQ(served.direct_regions, 1u)
            << "the registered half was not read directly";
        EXPECT_EQ(served.mru_hits + served.mru_misses, 0u)
            << "a direct read reached the buffer";
      } else {
        EXPECT_EQ(served.direct_regions, 0u);
        EXPECT_GE(served.mru_hits, 1u) << "the registered half was never cached";
      }
      EXPECT_EQ(reason, "access outside the registered address space");
      EXPECT_EQ(rs.speculative.rollbacks, 1u);
    }
  }
}

}  // namespace
}  // namespace mutls
