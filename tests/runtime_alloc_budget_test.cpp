// CI-enforced allocation budget: after a short warm-up, a fork/join steady
// state performs ZERO global-heap allocations — on every buffer backend.
//
// Two independent meters agree:
//   1. counting global operator new/delete overrides (ground truth for the
//      whole process, gated so only the measured window counts), and
//   2. the runtime's own alloc_events counter (per-slot Arena heap-fallback
//      trips, aggregated through SpecBufferStats at settle time) — the
//      number bench_json.py and the CI budget step watch.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "api/spec.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_news{0};

void* counted_alloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_news.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n ? n : 1);
}

void* counted_alloc_aligned(std::size_t n, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_news.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     n ? n : 1) != 0) {
    return nullptr;
  }
  return p;
}

}  // namespace

void* operator new(std::size_t n) {
  void* p = counted_alloc(n);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  void* p = counted_alloc_aligned(n, static_cast<std::size_t>(a));
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return operator new(n, a);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted_alloc_aligned(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted_alloc_aligned(n, static_cast<std::size_t>(a));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, std::size_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t, std::size_t) noexcept {
  std::free(p);
}

namespace mutls {
namespace {

constexpr int kWarmup = 10;
constexpr int kMeasured = 20;

struct SteadyState {
  uint64_t heap_news = 0;      // from the operator new overrides
  uint64_t alloc_events = 0;   // from the runtime's arena counters
  uint64_t commits = 0;
};

// One iteration: speculate a child that writes `touch` distinct shared
// words, while the parent writes a disjoint word; join at scope exit.
SteadyState run_steady(BufferBackend backend, size_t touch) {
  Runtime rt({.num_cpus = 2,
              .buffer_log2 = 8,
              .overflow_cap = 64,
              .buffer_backend = backend});
  std::vector<uint64_t> data(touch + 1, 0);
  rt.register_memory(data.data(), data.size() * sizeof(uint64_t));

  auto one_run = [&] {
    return rt.run([&](Ctx& root) {
      auto s = rt.fork_scoped(root, ForkModel::kMixed, [&](Ctx& c) {
        for (size_t i = 0; i < touch; ++i) {
          c.store(&data[i], static_cast<uint64_t>(i + 1));
        }
      });
      root.store(&data[touch], uint64_t{7});
    });
  };

  // Warm-up: first speculations pay for arena segments, pool classes along
  // the growable doubling ladder and retired local frames. Everything after
  // that must recycle.
  for (int i = 0; i < kWarmup; ++i) (void)one_run();

  SteadyState out;
  g_news.store(0);
  g_counting.store(true);
  for (int i = 0; i < kMeasured; ++i) {
    RunStats rs = one_run();
    out.alloc_events +=
        rs.speculative.buffer.alloc_events + rs.critical.buffer.alloc_events;
    out.commits += rs.speculative.commits;
  }
  g_counting.store(false);
  out.heap_news = g_news.load();
  return out;
}

TEST(AllocBudget, StaticHashSteadyStateIsAllocationFree) {
  SteadyState s = run_steady(BufferBackend::kStaticHash, 100);
  EXPECT_EQ(s.heap_news, 0u);
  EXPECT_EQ(s.alloc_events, 0u);
  EXPECT_GT(s.commits, 0u);
}

TEST(AllocBudget, GrowableLogSteadyStateIsAllocationFree) {
  SteadyState s = run_steady(BufferBackend::kGrowableLog, 2048);
  EXPECT_EQ(s.heap_news, 0u);
  EXPECT_EQ(s.alloc_events, 0u);
  EXPECT_GT(s.commits, 0u);
}

// The fork path itself (handle + speculated wrapper) must stay off the heap
// even when bodies capture more than InlineTask's buffer: the spill goes to
// the forker's/child's arena, warmed after the first epoch.
TEST(AllocBudget, OversizedCapturesSpillIntoArenasNotTheHeap) {
  Runtime rt({.num_cpus = 2, .buffer_log2 = 8, .overflow_cap = 64});
  std::vector<uint64_t> data(8, 0);
  rt.register_memory(data.data(), data.size() * sizeof(uint64_t));
  struct Fat {
    uint64_t pad[40];  // 320B: over the 128B inline buffer
  };
  auto one_run = [&] {
    return rt.run([&](Ctx& root) {
      Fat fat{};
      fat.pad[0] = 5;
      auto s = rt.fork_scoped(root, ForkModel::kMixed, [&data, fat](Ctx& c) {
        c.store(&data[0], fat.pad[0]);
      });
      root.store(&data[1], uint64_t{9});
    });
  };
  for (int i = 0; i < kWarmup; ++i) (void)one_run();
  g_news.store(0);
  g_counting.store(true);
  uint64_t alloc_events = 0;
  for (int i = 0; i < kMeasured; ++i) {
    RunStats rs = one_run();
    alloc_events +=
        rs.speculative.buffer.alloc_events + rs.critical.buffer.alloc_events;
  }
  g_counting.store(false);
  EXPECT_EQ(g_news.load(), 0u);
  EXPECT_EQ(alloc_events, 0u);
}

// A speculation reading more registered regions than its inline region
// table holds: the first kRegionSlots regions are read directly, the rest
// fall back to word buffering, and none of it touches the heap.
TEST(AllocBudget, RegionTableOverflowFallsBackToBufferingWithoutHeap) {
  constexpr int kRegions = SpecBuffer::kRegionSlots + 8;
  constexpr size_t kWords = 4;
  Runtime rt({.num_cpus = 2, .buffer_log2 = 8, .overflow_cap = 64});
  std::vector<std::vector<uint64_t>> regions(
      kRegions, std::vector<uint64_t>(kWords, 1));
  for (auto& r : regions) rt.register_memory(r.data(), kWords * 8);
  std::vector<uint64_t> sink(1, 0);
  rt.register_memory(sink.data(), sizeof(uint64_t));

  auto one_run = [&] {
    return rt.run([&](Ctx& root) {
      auto s = rt.fork_scoped(root, ForkModel::kMixed, [&](Ctx& c) {
        uint64_t sum = 0;
        for (const auto& r : regions) {
          for (const uint64_t& w : r) sum += c.load(&w);
        }
        c.store(&sink[0], sum);
      });
    });
  };
  for (int i = 0; i < kWarmup; ++i) (void)one_run();
  g_news.store(0);
  g_counting.store(true);
  uint64_t alloc_events = 0;
  uint64_t direct_regions = 0;
  uint64_t loads = 0;
  uint64_t commits = 0;
  for (int i = 0; i < kMeasured; ++i) {
    RunStats rs = one_run();
    alloc_events +=
        rs.speculative.buffer.alloc_events + rs.critical.buffer.alloc_events;
    direct_regions += rs.speculative.buffer.direct_regions;
    loads += rs.speculative.loads;
    commits += rs.speculative.commits;
  }
  g_counting.store(false);
  for (auto& r : regions) rt.unregister_memory(r.data(), kWords * 8);
  rt.unregister_memory(sink.data(), sizeof(uint64_t));
  EXPECT_EQ(g_news.load(), 0u);
  EXPECT_EQ(alloc_events, 0u);
  ASSERT_GT(commits, 0u);
  EXPECT_EQ(direct_regions, commits * SpecBuffer::kRegionSlots)
      << "a full table must not record more regions";
  EXPECT_EQ(loads, commits * (kRegions - SpecBuffer::kRegionSlots) * kWords)
      << "the regions past the table must be buffered";
  EXPECT_EQ(sink[0], static_cast<uint64_t>(kRegions) * kWords);
}

}  // namespace
}  // namespace mutls
