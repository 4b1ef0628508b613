// Unit tests for the address-space registration structure (paper IV-G1).
#include "support/interval_set.h"

#include <gtest/gtest.h>

namespace mutls {
namespace {

TEST(IntervalSet, EmptyContainsNothing) {
  IntervalSet s;
  EXPECT_FALSE(s.contains(0x1000, 1));
  EXPECT_EQ(s.span_count(), 0u);
  EXPECT_EQ(s.total_bytes(), 0u);
}

TEST(IntervalSet, SingleSpanContainment) {
  IntervalSet s;
  s.insert(0x1000, 0x100);
  EXPECT_TRUE(s.contains(0x1000, 1));
  EXPECT_TRUE(s.contains(0x10ff, 1));
  EXPECT_TRUE(s.contains(0x1000, 0x100));
  EXPECT_FALSE(s.contains(0xfff, 1));
  EXPECT_FALSE(s.contains(0x1100, 1));
  EXPECT_FALSE(s.contains(0x10ff, 2));  // straddles the end
}

TEST(IntervalSet, ZeroSizeQueriesAndInserts) {
  IntervalSet s;
  s.insert(0x1000, 0);  // no-op
  EXPECT_EQ(s.span_count(), 0u);
  EXPECT_TRUE(s.contains(0x1234, 0));  // empty range is trivially covered
}

TEST(IntervalSet, AdjacentSpansMerge) {
  IntervalSet s;
  s.insert(0x1000, 0x100);
  s.insert(0x1100, 0x100);  // exactly adjacent
  EXPECT_EQ(s.span_count(), 1u);
  EXPECT_TRUE(s.contains(0x1000, 0x200));
}

TEST(IntervalSet, OverlappingSpansMerge) {
  IntervalSet s;
  s.insert(0x1000, 0x100);
  s.insert(0x1080, 0x100);
  EXPECT_EQ(s.span_count(), 1u);
  EXPECT_TRUE(s.contains(0x1000, 0x180));
  EXPECT_EQ(s.total_bytes(), 0x180u);
}

TEST(IntervalSet, InsertBridgingManySpans) {
  IntervalSet s;
  s.insert(0x1000, 0x10);
  s.insert(0x2000, 0x10);
  s.insert(0x3000, 0x10);
  EXPECT_EQ(s.span_count(), 3u);
  s.insert(0x1008, 0x2100);  // bridges all three
  EXPECT_EQ(s.span_count(), 1u);
  EXPECT_TRUE(s.contains(0x1000, 0x2010));
}

TEST(IntervalSet, DisjointSpansStayDisjoint) {
  IntervalSet s;
  s.insert(0x1000, 0x10);
  s.insert(0x3000, 0x10);
  EXPECT_EQ(s.span_count(), 2u);
  EXPECT_FALSE(s.contains(0x2000, 1));
  EXPECT_FALSE(s.contains(0x100f, 2));  // spans are not bridged
}

TEST(IntervalSet, EraseWholeSpan) {
  IntervalSet s;
  s.insert(0x1000, 0x100);
  s.erase(0x1000, 0x100);
  EXPECT_EQ(s.span_count(), 0u);
  EXPECT_FALSE(s.contains(0x1000, 1));
}

TEST(IntervalSet, EraseInteriorSplitsSpan) {
  IntervalSet s;
  s.insert(0x1000, 0x100);
  s.erase(0x1040, 0x10);
  EXPECT_EQ(s.span_count(), 2u);
  EXPECT_TRUE(s.contains(0x1000, 0x40));
  EXPECT_FALSE(s.contains(0x1040, 1));
  EXPECT_TRUE(s.contains(0x1050, 0xb0));
}

TEST(IntervalSet, ErasePrefixAndSuffix) {
  IntervalSet s;
  s.insert(0x1000, 0x100);
  s.erase(0x0f00, 0x140);  // clips the front
  EXPECT_FALSE(s.contains(0x1000, 1));
  EXPECT_TRUE(s.contains(0x1040, 1));
  s.erase(0x10c0, 0x1000);  // clips the back
  EXPECT_TRUE(s.contains(0x1040, 0x80));
  EXPECT_FALSE(s.contains(0x10c0, 1));
}

TEST(IntervalSet, FindReportsSpanBounds) {
  IntervalSet s;
  s.insert(0x1000, 0x100);
  IntervalSet::Hit h = s.find(0x1040);
  ASSERT_TRUE(h.registered);
  EXPECT_EQ(h.lo, 0x1000u);
  EXPECT_EQ(h.hi, 0x1100u);
  EXPECT_FALSE(s.find(0x2000).registered);
}

TEST(IntervalSet, ClearEmptiesEverything) {
  IntervalSet s;
  s.insert(0x1000, 0x10);
  s.insert(0x2000, 0x10);
  s.clear();
  EXPECT_EQ(s.span_count(), 0u);
  EXPECT_FALSE(s.contains(0x1000, 1));
}

// Property sweep: random inserts into a model set must agree with the
// IntervalSet on byte-level membership.
class IntervalSetProperty : public ::testing::TestWithParam<int> {};

TEST_P(IntervalSetProperty, MatchesByteModel) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  uint64_t state = seed * 2654435761u + 12345;
  auto rnd = [&state](uint64_t n) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state % n;
  };

  constexpr uintptr_t kBase = 0x10000;
  constexpr size_t kBytes = 4096;
  std::vector<bool> model(kBytes, false);
  IntervalSet s;

  for (int op = 0; op < 200; ++op) {
    uintptr_t off = rnd(kBytes - 64);
    size_t len = 1 + rnd(64);
    if (rnd(3) == 0) {
      s.erase(kBase + off, len);
      for (size_t i = 0; i < len; ++i) model[off + i] = false;
    } else {
      s.insert(kBase + off, len);
      for (size_t i = 0; i < len; ++i) model[off + i] = true;
    }
  }

  for (size_t i = 0; i < kBytes; ++i) {
    EXPECT_EQ(s.contains(kBase + i, 1), model[i]) << "byte " << i;
  }
  // Span-level query: a random window is contained iff all bytes are set.
  for (int q = 0; q < 100; ++q) {
    uintptr_t off = rnd(kBytes - 32);
    size_t len = 1 + rnd(32);
    bool all = true;
    for (size_t i = 0; i < len; ++i) all = all && model[off + i];
    EXPECT_EQ(s.contains(kBase + off, len), all);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalSetProperty,
                         ::testing::Range(1, 9));

// Owned spans keep one entry per registration: the region records of the
// runtime hang off them, so spans must keep their identity.
TEST(IntervalMapOwned, AdjacentOwnedSpansStayDistinct) {
  IntervalMap<int> m;
  int a = 1, b = 2;
  EXPECT_TRUE(m.insert_owned(0x1000, 0x100, &a));
  EXPECT_TRUE(m.insert_owned(0x1100, 0x100, &b));  // exactly adjacent
  EXPECT_EQ(m.span_count(), 2u);
  IntervalMap<int>::Hit h = m.find(0x10ff);
  EXPECT_EQ(h.value, &a);
  EXPECT_EQ(h.lo, 0x1000u);
  EXPECT_EQ(h.hi, 0x1100u);
  EXPECT_EQ(m.find(0x1100).value, &b);
  EXPECT_TRUE(m.contains(0x10f8, 0x10)) << "a straddling access is registered";
}

TEST(IntervalMapOwned, OverlappingOwnedOrEmptyInsertIsRefused) {
  IntervalMap<int> m;
  int a = 1, b = 2;
  EXPECT_TRUE(m.insert_owned(0x1000, 0x100, &a));
  EXPECT_FALSE(m.insert_owned(0x10f0, 0x20, &b));
  EXPECT_FALSE(m.insert_owned(0x0ff0, 0x20, &b));
  EXPECT_FALSE(m.insert_owned(0x2000, 0, &b));
  EXPECT_EQ(m.find(0x10f8).value, &a);
  EXPECT_FALSE(m.find(0x2000).registered);
}

TEST(IntervalMapOwned, PlainAndOwnedSpansShareTheSpace) {
  IntervalMap<int> m;
  int a = 1;
  m.insert(0x1000, 0x300);  // plain
  // An owned span carves its bytes out of the plain span...
  EXPECT_TRUE(m.insert_owned(0x1100, 0x100, &a));
  EXPECT_EQ(m.span_count(), 3u);
  EXPECT_EQ(m.find(0x1000).value, nullptr);
  EXPECT_TRUE(m.find(0x1000).registered);
  EXPECT_EQ(m.find(0x1100).value, &a);
  EXPECT_EQ(m.find(0x11ff).hi, 0x1200u);
  EXPECT_TRUE(m.contains(0x1000, 0x300));
  // ...a plain registration over it leaves it owned...
  m.insert(0x0f00, 0x500);
  EXPECT_EQ(m.find(0x1180).value, &a);
  EXPECT_EQ(m.total_bytes(), 0x500u);
  // ...and dropping part of it drops the payload, not the other bytes.
  int dropped = 0;
  m.erase(0x11f0, 0x20, [&](int* p) { dropped += *p; });
  EXPECT_EQ(dropped, 1);
  EXPECT_FALSE(m.has_owned());
  EXPECT_TRUE(m.contains(0x0f00, 0x2f0));
  EXPECT_FALSE(m.contains(0x11f0, 1));
  EXPECT_TRUE(m.contains(0x1210, 0x1f0));
  EXPECT_EQ(m.span_count(), 2u) << "plain remainders merge";
}

TEST(IntervalMapOwned, MissReportsTheGapBetweenNeighbours) {
  IntervalMap<int> m;
  int a = 1, b = 2;
  m.insert_owned(0x1000, 0x100, &a);
  m.insert_owned(0x2000, 0x100, &b);
  IntervalMap<int>::Hit gap = m.find(0x1800);
  EXPECT_FALSE(gap.registered);
  EXPECT_EQ(gap.value, nullptr);
  EXPECT_EQ(gap.lo, 0x1100u);
  EXPECT_EQ(gap.hi, 0x2000u);
  IntervalMap<int>::Hit below = m.find(0x10);
  EXPECT_EQ(below.lo, 0u);
  EXPECT_EQ(below.hi, 0x1000u);
  IntervalMap<int>::Hit above = m.find(0x3000);
  EXPECT_EQ(above.lo, 0x2100u);
  EXPECT_EQ(above.hi, UINTPTR_MAX);
}

TEST(IntervalMapOwned, EraseAndVisitOverlappingSpans) {
  IntervalMap<int> m;
  int v[3] = {0, 1, 2};
  for (int i = 0; i < 3; ++i) {
    m.insert_owned(0x1000 + 0x100 * static_cast<uintptr_t>(i), 0x100, &v[i]);
  }
  int visited = 0;
  m.for_each_owned(0x10ff, 2, [&](int* p) { visited += 1 << *p; });
  EXPECT_EQ(visited, 0b011);
  int erased = 0;
  m.erase(0x1180, 0x100, [&](int* p) { erased += 1 << *p; });
  EXPECT_EQ(erased, 0b110);
  EXPECT_EQ(m.find(0x1000).value, &v[0]);
  EXPECT_EQ(m.find(0x1100).value, nullptr);
  EXPECT_TRUE(m.contains(0x1100, 0x80)) << "bytes outside the erase stay";
  EXPECT_FALSE(m.contains(0x1180, 1));
  EXPECT_EQ(m.find(0x1280).value, nullptr);
}

// Property sweep: random plain and owned inserts and erases must agree with
// a byte model on membership, and with an owner model on which payload
// owns each byte.
class IntervalMapProperty : public ::testing::TestWithParam<int> {};

TEST_P(IntervalMapProperty, MatchesByteAndOwnerModel) {
  uint64_t state = static_cast<uint64_t>(GetParam()) * 2654435761u + 99;
  auto rnd = [&state](uint64_t n) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state % n;
  };

  constexpr uintptr_t kBase = 0x10000;
  constexpr size_t kBytes = 2048;
  std::vector<bool> model(kBytes, false);
  std::vector<int> owner(kBytes, -1);
  std::vector<int> payload(400);
  IntervalMap<int> m;

  for (int op = 0; op < 400; ++op) {
    uintptr_t off = rnd(kBytes - 64);
    size_t len = 1 + rnd(64);
    uint64_t kind = rnd(4);
    if (kind == 0) {
      std::vector<int> dropped;
      m.erase(kBase + off, len, [&](int* p) { dropped.push_back(*p); });
      for (int id : dropped) {
        for (int& o : owner) {
          if (o == id) o = -1;
        }
      }
      for (size_t i = 0; i < len; ++i) model[off + i] = false;
    } else if (kind == 1) {
      int* value = &payload[static_cast<size_t>(op)];
      *value = op;
      bool free = true;
      for (size_t i = 0; i < len; ++i) free = free && owner[off + i] < 0;
      EXPECT_EQ(m.insert_owned(kBase + off, len, value), free);
      if (free) {
        for (size_t i = 0; i < len; ++i) {
          model[off + i] = true;
          owner[off + i] = op;
        }
      }
    } else {
      m.insert(kBase + off, len);
      for (size_t i = 0; i < len; ++i) model[off + i] = true;
    }
  }

  for (size_t i = 0; i < kBytes; ++i) {
    EXPECT_EQ(m.contains(kBase + i, 1), model[i]) << "byte " << i;
    IntervalMap<int>::Hit h = m.find(kBase + i);
    EXPECT_EQ(h.registered, model[i]) << "byte " << i;
    EXPECT_EQ(h.value != nullptr ? *h.value : -1, owner[i]) << "byte " << i;
  }
  for (int q = 0; q < 100; ++q) {
    uintptr_t off = rnd(kBytes - 32);
    size_t len = 1 + rnd(32);
    bool all = true;
    for (size_t i = 0; i < len; ++i) all = all && model[off + i];
    EXPECT_EQ(m.contains(kBase + off, len), all);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalMapProperty, ::testing::Range(1, 9));

}  // namespace
}  // namespace mutls
