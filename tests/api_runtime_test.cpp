// End-to-end tests of the native embedding API: fork/join semantics,
// buffered accesses, conflicts, nesting (tree-form model), live-in
// prediction, spec_for, and address-space policing. The raw Ctx::load /
// Ctx::store calls here are deliberate — this suite tests the access layer
// the typed views of api/shared.h are built on.
#include "mutls/mutls.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <optional>
#include <thread>

namespace mutls {
namespace {

Runtime::Options small_opts(int cpus = 2) {
  Runtime::Options o;
  o.num_cpus = cpus;
  o.buffer_log2 = 10;
  o.overflow_cap = 256;
  return o;
}

TEST(ApiRuntime, CommittedSpeculationPublishesWrites) {
  Runtime rt(small_opts());
  SharedArray<uint64_t> data(rt, 4, 0);
  uint64_t* const data_ptr = data.data();
  rt.run([&](Ctx& ctx) {
    Spec s = rt.fork(ctx, ForkModel::kMixed, [&](Ctx& c) {
      c.store(&data_ptr[1], uint64_t{11});
      c.store(&data_ptr[2], uint64_t{22});
    });
    ctx.store(&data_ptr[0], uint64_t{7});
    JoinOutcome r = rt.join(ctx, s);
    EXPECT_NE(r, JoinOutcome::kRolledBack);
  });
  EXPECT_EQ(data[0], 7u);
  EXPECT_EQ(data[1], 11u);
  EXPECT_EQ(data[2], 22u);
}

TEST(ApiRuntime, DeniedSpeculationRunsInline) {
  Runtime rt(small_opts(1));
  SharedArray<uint64_t> data(rt, 2, 0);
  uint64_t* const data_ptr = data.data();
  rt.run([&](Ctx& ctx) {
    Spec s1 = rt.fork(ctx, ForkModel::kMixed,
                      [&](Ctx& c) { c.store(&data_ptr[0], uint64_t{1}); });
    // Only one CPU: the second fork must be denied and defer to join().
    Spec s2 = rt.fork(ctx, ForkModel::kMixed,
                      [&](Ctx& c) { c.store(&data_ptr[1], uint64_t{2}); });
    EXPECT_FALSE(s2.speculated());
    EXPECT_EQ(rt.join(ctx, s2), JoinOutcome::kSequential);
    rt.join(ctx, s1);
  });
  EXPECT_EQ(data[0], 1u);
  EXPECT_EQ(data[1], 2u);
}

TEST(ApiRuntime, ReadConflictRollsBackAndReexecutes) {
  Runtime rt(small_opts());
  SharedArray<uint64_t> data(rt, 2, 0);
  uint64_t* const data_ptr = data.data();
  data[0] = 1;
  std::atomic<bool> child_read{false};
  rt.run([&](Ctx& ctx) {
    Spec s = rt.fork(ctx, ForkModel::kMixed, [&](Ctx& c) {
      uint64_t v = c.load(&data_ptr[0]);
      child_read = true;
      c.store(&data_ptr[1], v * 100);
    });
    if (s.speculated()) {
      // Guarantee the speculative read happens before the conflicting
      // parent write, making rollback deterministic.
      while (!child_read) std::this_thread::yield();
    }
    ctx.store(&data_ptr[0], uint64_t{5});
    JoinOutcome r = rt.join(ctx, s);
    if (s.speculated()) {
      EXPECT_EQ(r, JoinOutcome::kRolledBack);
    }
  });
  EXPECT_EQ(data[1], 500u) << "re-execution must observe the parent's write";
}

TEST(ApiRuntime, RunsWithoutSpeculationStillWork) {
  Runtime rt(small_opts());
  SharedArray<int> data(rt, 8, 0);
  int* const data_ptr = data.data();
  RunStats rs = rt.run([&](Ctx& ctx) {
    for (size_t i = 0; i < data.size(); ++i) {
      ctx.store(&data_ptr[i], static_cast<int>(i));
    }
  });
  EXPECT_EQ(data[7], 7);
  EXPECT_EQ(rs.speculative_threads, 0u);
  EXPECT_EQ(rs.critical.stores, 8u);
}

TEST(ApiRuntime, NestedSpeculationFormsTree) {
  // Mixed model: a speculative child forks its own child (paper's thread
  // tree); the grandchild's effects must survive both commits.
  Runtime rt(small_opts(3));
  SharedArray<uint64_t> data(rt, 3, 0);
  uint64_t* const data_ptr = data.data();
  rt.run([&](Ctx& ctx) {
    Spec s = rt.fork(ctx, ForkModel::kMixed, [&](Ctx& c) {
      Spec g = rt.fork(c, ForkModel::kMixed,
                       [&](Ctx& cc) { cc.store(&data_ptr[2], uint64_t{3}); });
      c.store(&data_ptr[1], uint64_t{2});
      rt.join(c, g);
    });
    ctx.store(&data_ptr[0], uint64_t{1});
    rt.join(ctx, s);
  });
  EXPECT_EQ(data[0], 1u);
  EXPECT_EQ(data[1], 2u);
  EXPECT_EQ(data[2], 3u);
}

TEST(ApiRuntime, NestedConflictStaysInSubtree) {
  // A grandchild conflicting with its (speculative) parent rolls back and
  // re-executes inside the subtree; the root still commits everything.
  Runtime rt(small_opts(3));
  SharedArray<uint64_t> data(rt, 3, 0);
  uint64_t* const data_ptr = data.data();
  data[0] = 1;
  rt.run([&](Ctx& ctx) {
    Spec s = rt.fork(ctx, ForkModel::kMixed, [&](Ctx& c) {
      std::atomic<bool> gc_read{false};
      Spec g = rt.fork(c, ForkModel::kMixed, [&](Ctx& cc) {
        uint64_t v = cc.load(&data_ptr[0]);
        gc_read = true;
        cc.store(&data_ptr[2], v + 100);
      });
      if (g.speculated()) {
        while (!gc_read) std::this_thread::yield();
      }
      c.store(&data_ptr[0], uint64_t{50});  // conflicts with grandchild's read
      rt.join(c, g);
    });
    rt.join(ctx, s);
  });
  EXPECT_EQ(data[0], 50u);
  EXPECT_EQ(data[2], 150u)
      << "grandchild re-execution sees the speculative parent's write";
}

TEST(ApiRuntime, UnregisteredAccessRollsBackSafely) {
  Runtime rt(small_opts());
  alignas(8) static uint64_t unregistered;
  unregistered = 0;
  SharedArray<uint64_t> data(rt, 1, 0);
  rt.run([&](Ctx& ctx) {
    Spec s = rt.fork(ctx, ForkModel::kMixed, [&](Ctx& c) {
      c.store(&unregistered, uint64_t{1});  // dooms the speculation
      // The speculative attempt aborts at the store above; only the inline
      // (non-speculative) re-execution reaches this line.
      EXPECT_FALSE(c.speculative());
    });
    JoinOutcome r = rt.join(ctx, s);
    if (s.speculated()) {
      EXPECT_EQ(r, JoinOutcome::kRolledBack);
    }
  });
  // The inline re-execution runs non-speculatively where direct access is
  // legal, so the value is eventually written exactly once.
  EXPECT_EQ(unregistered, 1u);
}

TEST(ApiRuntime, NonSpeculativeAccessBypassesBuffers) {
  Runtime rt(small_opts());
  alignas(8) static uint64_t anywhere;
  anywhere = 3;
  rt.run([&](Ctx& ctx) {
    EXPECT_EQ(ctx.load(&anywhere), 3u);
    ctx.store(&anywhere, uint64_t{4});
  });
  EXPECT_EQ(anywhere, 4u);
}

TEST(ApiRuntime, LiveInPredictionValidates) {
  Runtime rt(small_opts());
  SharedArray<uint64_t> data(rt, 1, 0);
  uint64_t* const data_ptr = data.data();
  rt.run([&](Ctx& ctx) {
    int64_t i = 0;
    Spec s = rt.fork(
        ctx,
        ForkOpts{.predictions = {Prediction::of<int64_t>(&i, 10)}},
        [&](Ctx& c) {
          int64_t start = c.get_livein<int64_t>(0);
          c.store(&data_ptr[0], static_cast<uint64_t>(start * 2));
        });
    i = 10;  // parent reaches the join point with the predicted value
    JoinOutcome r = rt.join(ctx, s);
    if (s.speculated()) EXPECT_EQ(r, JoinOutcome::kCommitted);
  });
  EXPECT_EQ(data[0], 20u);
}

TEST(ApiRuntime, MispredictedLiveInForcesRollback) {
  Runtime rt(small_opts());
  SharedArray<uint64_t> data(rt, 1, 0);
  uint64_t* const data_ptr = data.data();
  rt.run([&](Ctx& ctx) {
    int64_t i = 0;
    Spec s = rt.fork(
        ctx,
        ForkOpts{.predictions = {Prediction::of<int64_t>(&i, 10)}},
        [&](Ctx& c) {
          // On re-execution the live-in fetch is meaningless, so read the
          // parent's actual variable non-speculatively via capture.
          c.store(&data_ptr[0], uint64_t{1});
        });
    i = 11;  // prediction was wrong
    JoinOutcome r = rt.join(ctx, s);
    if (s.speculated()) EXPECT_EQ(r, JoinOutcome::kRolledBack);
  });
  EXPECT_EQ(data[0], 1u);
}

TEST(ApiRuntime, SpecForComputesCorrectSums) {
  for (ForkModel m : {ForkModel::kInOrder, ForkModel::kOutOfOrder,
                      ForkModel::kMixed}) {
    Runtime rt(small_opts(2));
    SharedArray<uint64_t> partial(rt, 8, 0);
    uint64_t* const partial_ptr = partial.data();
    rt.run([&](Ctx& ctx) {
      spec_for(rt, ctx, 0, 1000, 8, m,
               [&](Ctx& c, int chunk, int64_t lo, int64_t hi) {
                 uint64_t sum = 0;
                 for (int64_t i = lo; i < hi; ++i) {
                   sum += static_cast<uint64_t>(i);
                 }
                 c.store(&partial_ptr[static_cast<size_t>(chunk)], sum);
                 c.check_point();
               });
    });
    uint64_t total = 0;
    for (size_t i = 0; i < partial.size(); ++i) total += partial[i];
    EXPECT_EQ(total, 499500u) << "model " << fork_model_name(m);
  }
}

TEST(ApiRuntime, SpecForSingleChunkRunsSequentially) {
  Runtime rt(small_opts());
  SharedArray<uint64_t> acc(rt, 1, 0);
  uint64_t* const acc_ptr = acc.data();
  RunStats rs = rt.run([&](Ctx& ctx) {
    spec_for(rt, ctx, 0, 10, 1, ForkModel::kMixed,
             [&](Ctx& c, int, int64_t lo, int64_t hi) {
               for (int64_t i = lo; i < hi; ++i) {
                 c.add(&acc_ptr[0], uint64_t{1});
               }
             });
  });
  EXPECT_EQ(acc[0], 10u);
  EXPECT_EQ(rs.critical.forks, 0u);
}

TEST(ApiRuntime, SpecForEmptyRangeIsNoop) {
  Runtime rt(small_opts());
  rt.run([&](Ctx& ctx) {
    spec_for(rt, ctx, 5, 5, 4, ForkModel::kMixed,
             [&](Ctx&, int, int64_t, int64_t) {
               ADD_FAILURE() << "body must not run for an empty range";
             });
  });
}

TEST(ApiRuntime, RollbackInjectionDegradesButStaysCorrect) {
  Runtime::Options o = small_opts(2);
  o.rollback_probability = 1.0;
  Runtime rt(o);
  SharedArray<uint64_t> partial(rt, 4, 0);
  uint64_t* const partial_ptr = partial.data();
  RunStats rs = rt.run([&](Ctx& ctx) {
    spec_for(rt, ctx, 0, 100, 4, ForkModel::kMixed,
             [&](Ctx& c, int chunk, int64_t lo, int64_t hi) {
               uint64_t sum = 0;
               for (int64_t i = lo; i < hi; ++i) {
                 sum += static_cast<uint64_t>(i);
               }
               c.store(&partial_ptr[static_cast<size_t>(chunk)], sum);
             });
  });
  uint64_t total = 0;
  for (size_t i = 0; i < partial.size(); ++i) total += partial[i];
  EXPECT_EQ(total, 4950u);
  EXPECT_GT(rs.speculative.rollbacks, 0u);
  EXPECT_EQ(rs.speculative.commits, 0u);
}

TEST(ApiRuntime, StatsCountAccesses) {
  Runtime rt(small_opts());
  SharedArray<uint64_t> data(rt, 4, 0);
  uint64_t* const data_ptr = data.data();
  RunStats rs = rt.run([&](Ctx& ctx) {
    Spec s = rt.fork(ctx, ForkModel::kMixed, [&](Ctx& c) {
      c.store(&data_ptr[1], c.load(&data_ptr[0]) + 1);
    });
    ctx.store(&data_ptr[0], uint64_t{0});
    rt.join(ctx, s);
  });
  EXPECT_GE(rs.critical.stores, 1u);
  // A speculative direct read of the unwritten region is counted once per
  // region (direct_regions), not as a load.
  EXPECT_GE(rs.speculative.loads + rs.critical.loads +
                rs.speculative.buffer.direct_regions,
            1u);
}

TEST(ApiRuntime, SequentialEquivalenceUnderChaos) {
  // Property: whatever mix of commits/rollbacks happens, the final state
  // must equal the sequential execution. Stress with tiny buffers (forcing
  // overflow dooms) and injected rollbacks.
  for (uint64_t seed : {1u, 2u, 3u}) {
    Runtime::Options o;
    o.num_cpus = 2;
    o.buffer_log2 = 4;  // 16 slots: heavy collision pressure
    o.overflow_cap = 4;
    o.rollback_probability = 0.3;
    o.seed = seed;
    Runtime rt(o);
    const int n = 64;
    SharedArray<uint64_t> v(rt, n, 0);
    uint64_t* const v_ptr = v.data();
    rt.run([&](Ctx& ctx) {
      spec_for(rt, ctx, 0, n, 8, ForkModel::kMixed,
               [&](Ctx& c, int, int64_t lo, int64_t hi) {
                 for (int64_t i = lo; i < hi; ++i) {
                   c.store(&v_ptr[static_cast<size_t>(i)],
                           static_cast<uint64_t>(i * i));
                   c.check_point();
                 }
               });
    });
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(v[static_cast<size_t>(i)], static_cast<uint64_t>(i) * i)
          << "seed " << seed << " index " << i;
    }
  }
}

// --- Direct reads of unwritten regions ---
//
// A speculation reads a registered region it has not written straight from
// memory and validates it by the region's version, not word by word. Each
// case below pins one rule of that protocol: an end state that matches the
// sequential oracle, plus the counters that show the version (not a word
// compare) made the decision.
//
// A fork site (one lambda type) learns for the life of the process, so
// each case forks from its own lambdas, and a case rerun in the same
// process (--gtest_repeat) meets sites that have already learned.

uint64_t sum_span(SharedSpan<uint64_t> v) {
  uint64_t sum = 0;
  for (size_t i = 0; i < v.size(); ++i) sum += v[i];
  return sum;
}

void wait_for(const std::atomic<bool>& flag) {
  while (!flag.load()) std::this_thread::yield();
}

TEST(ApiRuntimeDirectRead, NonSpeculativeStoreBeforeJoinRollsBack) {
  Runtime rt(small_opts());
  SharedArray<uint64_t> in(rt, 64, 0);
  SharedArray<uint64_t> out(rt, 1, 0);
  for (size_t i = 0; i < in.size(); ++i) in[i] = i + 1;
  std::atomic<bool> child_read{false};
  RunStats rs = rt.run([&](Ctx& ctx) {
    Spec s = rt.fork(ctx, ForkModel::kMixed, [&](Ctx& c) {
      uint64_t sum = sum_span(in.span(c));
      if (c.speculative()) child_read = true;
      out.span(c)[0] = sum;
    });
    ASSERT_TRUE(s.speculated());
    wait_for(child_read);
    in.span(ctx)[63] = 1000;  // after the direct reads, before the join
    EXPECT_EQ(rt.join(ctx, s), JoinOutcome::kRolledBack);
  });
  EXPECT_EQ(out[0], 63u * 64u / 2u + 1000u)
      << "the re-execution must observe the non-speculative store";
  EXPECT_EQ(rs.speculative.buffer.direct_regions, 1u);
  EXPECT_EQ(rs.speculative.buffer.region_rollbacks, 1u);
  EXPECT_EQ(rs.speculative.buffer.validated_words, 0u)
      << "the reads were buffered, not direct";
}

TEST(ApiRuntimeDirectRead, SpeculativeJoinerWriteRollsBackChild) {
  // A forks B; B reads `in` directly; A then stores into `in` (buffered)
  // before joining B. A's store is logically before B's read, so B must
  // fail against A and re-execute inside A, reading A's buffered value.
  Runtime rt(small_opts(3));
  SharedArray<uint64_t> in(rt, 8, 1);
  SharedArray<uint64_t> out(rt, 1, 0);
  std::atomic<bool> b_read{false};
  bool b_speculated = false;
  RunStats rs = rt.run([&](Ctx& ctx) {
    Spec a = rt.fork(ctx, ForkModel::kMixed, [&](Ctx& c) {
      Spec b = rt.fork(c, ForkModel::kMixed, [&](Ctx& cc) {
        uint64_t sum = sum_span(in.span(cc));
        if (cc.speculative()) b_read = true;
        out.span(cc)[0] = sum;
      });
      if (c.speculative()) b_speculated = b.speculated();
      if (b.speculated()) wait_for(b_read);
      in.span(c)[0] = 100;
      rt.join(c, b);
    });
    ASSERT_TRUE(a.speculated());
    rt.join(ctx, a);
  });
  ASSERT_TRUE(b_speculated);
  EXPECT_EQ(out[0], 100u + 7u);
  EXPECT_EQ(rs.speculative.commits, 1u) << "A commits";
  EXPECT_EQ(rs.speculative.rollbacks, 1u) << "B rolls back inside A";
  EXPECT_EQ(rs.speculative.buffer.region_rollbacks, 1u);
}

TEST(ApiRuntimeDirectRead, MergedRecordsKeepGuardingAgainstMemory) {
  // B reads `in` directly and commits into A (A never touches `in`); the
  // root then stores into `in` before joining A. Only the record A adopted
  // from B at the merge can tell A's validation that B's reads went stale.
  Runtime rt(small_opts(3));
  SharedArray<uint64_t> in(rt, 8, 1);
  SharedArray<uint64_t> out(rt, 2, 0);
  std::atomic<bool> a_joined_b{false};
  bool b_committed = false;
  RunStats rs = rt.run([&](Ctx& ctx) {
    Spec a = rt.fork(ctx, ForkModel::kMixed, [&](Ctx& c) {
      Spec b = rt.fork(c, ForkModel::kMixed, [&](Ctx& cc) {
        out.span(cc)[1] = sum_span(in.span(cc));
      });
      out.span(c)[0] = 5;
      JoinOutcome r = rt.join(c, b);
      if (c.speculative()) {
        b_committed = b.speculated() && r != JoinOutcome::kRolledBack;
        a_joined_b = true;
      }
    });
    ASSERT_TRUE(a.speculated());
    wait_for(a_joined_b);
    in.span(ctx)[3] = 10;
    EXPECT_EQ(rt.join(ctx, a), JoinOutcome::kRolledBack);
  });
  ASSERT_TRUE(b_committed) << "B must have merged into A";
  EXPECT_EQ(out[0], 5u);
  EXPECT_EQ(out[1], 7u + 10u) << "B's stale direct reads were committed";
  EXPECT_GE(rs.speculative.buffer.region_rollbacks, 1u);
}

TEST(ApiRuntimeDirectRead, ReRegistrationUnderLiveSpeculationFails) {
  // Unregistering recycles the range's version record; the next
  // registration of the same range takes it back. The unregister bump must
  // fail the live speculation even though no registered write happened.
  Runtime rt(small_opts());
  alignas(8) static uint64_t buf[4];
  for (uint64_t& w : buf) w = 2;
  rt.register_memory(buf, sizeof(buf));
  SharedArray<uint64_t> out(rt, 1, 0);
  std::atomic<bool> child_read{false};
  RunStats rs = rt.run([&](Ctx& ctx) {
    Spec s = rt.fork(ctx, ForkModel::kMixed, [&](Ctx& c) {
      uint64_t sum = 0;
      for (const uint64_t& w : buf) sum += c.load(&w);
      if (c.speculative()) child_read = true;
      out.span(c)[0] = sum;
    });
    ASSERT_TRUE(s.speculated());
    wait_for(child_read);
    rt.unregister_memory(buf, sizeof(buf));
    ctx.store(&buf[0], uint64_t{40});  // unregistered: nothing to publish
    rt.register_memory(buf, sizeof(buf));
    EXPECT_EQ(rt.join(ctx, s), JoinOutcome::kRolledBack);
  });
  rt.unregister_memory(buf, sizeof(buf));
  EXPECT_EQ(out[0], 40u + 3u * 2u);
  EXPECT_EQ(rs.speculative.buffer.direct_regions, 1u);
  EXPECT_EQ(rs.speculative.buffer.region_rollbacks, 1u);
}

TEST(ApiRuntimeDirectRead, ForkSiteThatLostStopsReadingDirectly) {
  // One fork site (one lambda type), two runs. The first loses its direct
  // read to a non-speculative store; the second reads through the buffer.
  Runtime rt(small_opts());
  SharedArray<uint64_t> in(rt, 8, 1);
  SharedArray<uint64_t> out(rt, 1, 0);
  for (bool conflict : {true, false}) {
    SCOPED_TRACE(conflict ? "losing run" : "learned run");
    std::atomic<bool> child_read{false};
    RunStats rs = rt.run([&](Ctx& ctx) {
      Spec s = rt.fork(ctx, ForkModel::kMixed, [&](Ctx& c) {
        uint64_t sum = sum_span(in.span(c));
        if (c.speculative()) child_read = true;
        out.span(c)[0] = sum;
      });
      ASSERT_TRUE(s.speculated());
      wait_for(child_read);
      if (conflict) in.span(ctx)[0] = in.span(ctx)[0] + 1;
      rt.join(ctx, s);
    });
    const SpecBufferStats& b = rs.speculative.buffer;
    if (conflict) {
      EXPECT_EQ(b.direct_regions, 1u);
      EXPECT_EQ(b.region_rollbacks, 1u);
    } else {
      EXPECT_EQ(b.direct_regions, 0u) << "the fork site kept reading directly";
      EXPECT_GE(rs.speculative.loads, in.size());
      EXPECT_EQ(rs.speculative.commits, 1u);
    }
  }
  EXPECT_EQ(out[0], 9u);
}

TEST(ApiRuntimeDirectRead, UnvalidatedRollbackStillTeachesTheForkSite) {
  // Every speculation is rolled back without validation (injected), so no
  // validation can lose to a region; the moved version of a region the
  // first speculation read directly must still teach the site.
  Runtime::Options o = small_opts();
  o.rollback_probability = 1.0;
  Runtime rt(o);
  SharedArray<uint64_t> in(rt, 8, 1);
  SharedArray<uint64_t> out(rt, 1, 0);
  for (bool conflict : {true, false}) {
    SCOPED_TRACE(conflict ? "losing run" : "learned run");
    std::atomic<bool> child_read{false};
    RunStats rs = rt.run([&](Ctx& ctx) {
      Spec s = rt.fork(ctx, ForkModel::kMixed, [&](Ctx& c) {
        uint64_t sum = sum_span(in.span(c));
        if (c.speculative()) child_read = true;
        out.span(c)[0] = sum;
      });
      ASSERT_TRUE(s.speculated());
      wait_for(child_read);
      if (conflict) in.span(ctx)[0] = 2;
      EXPECT_EQ(rt.join(ctx, s), JoinOutcome::kRolledBack);
    });
    EXPECT_EQ(rs.speculative.buffer.region_rollbacks, 0u)
        << "no validation ran";
    EXPECT_EQ(rs.speculative.buffer.direct_regions, conflict ? 1u : 0u);
  }
  EXPECT_EQ(out[0], 9u);
}

TEST(ApiRuntimeDirectRead, BufferedSpeculationsCommitPublishesItsStores) {
  // D, from a site that never lost, reads `in` directly. C, from a site
  // that has lost (round 0 teaches it), is logically before D and stores
  // into `in` through the buffer without telling it which region it
  // wrote. C's commit must still move the region's version, or D would
  // commit a sum that misses C's store.
  Runtime rt(small_opts(3));
  SharedArray<uint64_t> in(rt, 8, 1);
  SharedArray<uint64_t> out(rt, 2, 0);
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round == 0 ? "teaching run" : "publishing run");
    std::atomic<bool> c_read{false};
    std::atomic<bool> d_read{false};
    RunStats rs = rt.run([&](Ctx& ctx) {
      std::optional<Spec> d;
      if (round == 1) {
        d.emplace(rt.fork(ctx, ForkModel::kMixed, [&](Ctx& c) {
          uint64_t sum = sum_span(in.span(c));
          if (c.speculative()) d_read = true;
          out.span(c)[1] = sum;
        }));
        ASSERT_TRUE(d->speculated());
        wait_for(d_read);
      }
      Spec cs = rt.fork(ctx, ForkModel::kMixed, [&](Ctx& c) {
        uint64_t sum = sum_span(in.span(c));
        if (c.speculative()) c_read = true;
        out.span(c)[0] = sum;
        in.span(c)[0] = in.span(c)[0] + 10;
      });
      ASSERT_TRUE(cs.speculated());
      wait_for(c_read);
      if (round == 0) in.span(ctx)[1] = 2;  // C loses: its site learns
      rt.join(ctx, cs);
      if (d) rt.join(ctx, *d);
    });
    if (round == 1) {
      EXPECT_EQ(rs.speculative.commits, 1u) << "C commits";
      EXPECT_EQ(rs.speculative.buffer.direct_regions, 1u) << "D's record";
      EXPECT_EQ(rs.speculative.buffer.region_rollbacks, 1u);
    }
  }
  EXPECT_EQ(out[0], 11u + 2u + 6u);
  EXPECT_EQ(out[1], 21u + 2u + 6u) << "D committed reads that miss C's store";
}

TEST(ApiRuntimeDirectRead, ChildOfBufferedSpeculationStaysBuffered) {
  // Direct readers descend only from direct-capable forks (that is what
  // tells the non-speculative thread to publish its stores): once the
  // outer fork site has lost, the inner site — which never lost — still
  // reads through the buffer when the outer speculation forks it.
  Runtime rt(small_opts(3));
  SharedArray<uint64_t> in(rt, 8, 1);
  SharedArray<uint64_t> out(rt, 2, 0);
  for (bool conflict : {true, false}) {
    SCOPED_TRACE(conflict ? "losing run" : "learned run");
    std::atomic<bool> outer_read{false};
    bool inner_speculated = false;
    RunStats rs = rt.run([&](Ctx& ctx) {
      Spec s = rt.fork(ctx, ForkModel::kMixed, [&](Ctx& c) {
        if (conflict) {
          uint64_t sum = sum_span(in.span(c));
          if (c.speculative()) outer_read = true;
          out.span(c)[0] = sum;
          return;
        }
        Spec inner = rt.fork(c, ForkModel::kMixed, [&](Ctx& cc) {
          out.span(cc)[1] = sum_span(in.span(cc));
        });
        if (c.speculative()) inner_speculated = inner.speculated();
        rt.join(c, inner);
      });
      ASSERT_TRUE(s.speculated());
      if (conflict) {
        wait_for(outer_read);
        in.span(ctx)[0] = in.span(ctx)[0] + 1;
      }
      rt.join(ctx, s);
    });
    if (!conflict) {
      ASSERT_TRUE(inner_speculated);
      EXPECT_EQ(rs.speculative.buffer.direct_regions, 0u)
          << "a child of a buffered speculation read directly";
      EXPECT_GE(rs.speculative.loads, in.size());
    }
  }
  EXPECT_EQ(out[1], 9u);
}

TEST(ApiRuntimeDirectRead, RootPublishesOnlyWhileADirectReaderCanBeLive) {
  Runtime rt(small_opts());
  SharedArray<uint64_t> in(rt, 8, 1);
  rt.run([&](Ctx& ctx) {
    const ThreadData& root = ctx.thread_data();
    EXPECT_FALSE(root.publish_stores);
    Spec s = rt.fork(ctx, ForkModel::kMixed,
                     [&](Ctx& c) { (void)sum_span(in.span(c)); });
    ASSERT_TRUE(s.speculated());
    EXPECT_TRUE(root.publish_stores) << "a direct reader is live";
    rt.join(ctx, s);
    EXPECT_FALSE(root.publish_stores) << "no speculation is live";
  });
}

}  // namespace
}  // namespace mutls
