// Behavior of the DGC_PARALLEL_AUDIT write-set race auditor in both compile
// modes. With the CMake option ON, disjoint chunk writes must pass, kernel
// instrumentation must be live, and a seeded cross-chunk overlap must abort
// the process; with it OFF (the default), AuditSpan must compile to nothing
// and register nothing.
#include "util/parallel_audit.h"

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/csr_matrix.h"
#include "linalg/spgemm.h"
#include "util/thread_pool.h"

namespace dgc {
namespace {

CsrMatrix SmallRing(Index n) {
  std::vector<Triplet> t;
  for (Index i = 0; i < n; ++i) {
    t.push_back({i, (i + 1) % n, 1.0});
    t.push_back({i, (i + 2) % n, 0.5});
  }
  return CsrMatrix::FromTriplets(n, n, std::move(t)).ValueOrDie();
}

#if defined(DGC_PARALLEL_AUDIT)

TEST(ParallelAuditTest, DisjointChunkWritesPassAndRegister) {
  const int64_t before = audit::TotalSpansRegistered();
  std::vector<double> out(64, 0.0);
  // grain = 1: every index is its own chunk, the sharpest audit setting.
  ParallelForWorkers(0, 64, /*num_threads=*/4, /*grain=*/1,
                     [&](int, int64_t lo, int64_t hi) {
                       audit::AuditSpan span(out.data() + lo,
                                             static_cast<size_t>(hi - lo),
                                             "test.disjoint");
                       for (int64_t i = lo; i < hi; ++i) {
                         out[static_cast<size_t>(i)] =
                             static_cast<double>(i);
                       }
                     });
  EXPECT_GT(audit::TotalSpansRegistered(), before);
  for (int64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(out[static_cast<size_t>(i)], static_cast<double>(i));
  }
}

TEST(ParallelAuditTest, SerialLoopIsOneChunkEvenWhenRangesRepeat) {
  // threads = 1 runs the whole range as a single chunk on the caller;
  // re-registering the same buffer from one chunk coalesces, never fires.
  std::vector<double> out(8, 0.0);
  ParallelForWorkers(0, 4, /*num_threads=*/1, /*grain=*/1,
                     [&](int, int64_t lo, int64_t hi) {
                       for (int64_t i = lo; i < hi; ++i) {
                         audit::AuditSpan span(out.data(), out.size(),
                                               "test.serial");
                         out[0] += static_cast<double>(i);  // dgc-analyze: allow(par-shared-element-write) threads=1: single-chunk serial execution is the property under test
                       }
                     });
  EXPECT_EQ(out[0], 0.0 + 1.0 + 2.0 + 3.0);
}

TEST(ParallelAuditTest, NestedLoopInheritsTheEnclosingChunk) {
  // A nested ParallelFor is serialized into the caller's chunk, so its
  // writes must attribute to that chunk: overlapping registrations between
  // a chunk and its own nested loop are not a hazard.
  std::vector<double> out(16, 0.0);
  ParallelForWorkers(
      0, 16, /*num_threads=*/2, /*grain=*/8,
      [&](int, int64_t lo, int64_t hi) {
        audit::AuditSpan outer(out.data() + lo,
                               static_cast<size_t>(hi - lo), "test.outer");
        ParallelForWorkers(lo, hi, /*num_threads=*/2, /*grain=*/1,
                           [&](int, int64_t nlo, int64_t nhi) {
                             audit::AuditSpan inner(
                                 out.data() + nlo,
                                 static_cast<size_t>(nhi - nlo),
                                 "test.inner");
                             for (int64_t i = nlo; i < nhi; ++i) {
                               out[static_cast<size_t>(i)] = 1.0;
                             }
                           });
      });
  for (double v : out) EXPECT_EQ(v, 1.0);
}

TEST(ParallelAuditTest, InstrumentedSpGemmRegistersSpans) {
  // The kernels' own AuditSpans (row_nnz pass + assembly copy) must be
  // live, and an audited product must still be correct and race-clean.
  const int64_t before = audit::TotalSpansRegistered();
  const CsrMatrix a = SmallRing(64);
  SpGemmOptions options;
  options.num_threads = 4;
  const CsrMatrix c = SpGemm(a, a, options).ValueOrDie();
  EXPECT_GT(c.nnz(), 0);
  EXPECT_GT(audit::TotalSpansRegistered(), before);
}

TEST(ParallelAuditTest, SequentialLoopsStayApartWhileAnotherThreadIsInALoop) {
  // Thread B holds a loop open until A is done. A's two loops are ordered
  // one after the other on A's thread, so their writes to the same buffer
  // are no hazard, even though B's loop is still running somewhere else.
  std::mutex mutex;
  std::condition_variable cv;
  bool b_inside = false;
  bool a_done = false;
  auto hold_until_a_is_done = [&] {
    std::unique_lock<std::mutex> lock(mutex);
    b_inside = true;
    cv.notify_all();
    cv.wait(lock, [&] { return a_done; });
  };
  std::thread b([&] {
    ParallelForWorkers(
        0, 1, /*num_threads=*/1, /*grain=*/1,
        [&](int, int64_t, int64_t) { hold_until_a_is_done(); });
  });
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return b_inside; });
  }
  std::vector<double> out(16, 0.0);
  for (int pass = 0; pass < 2; ++pass) {
    ParallelForWorkers(0, 16, /*num_threads=*/2, /*grain=*/1,
                       [&](int, int64_t lo, int64_t hi) {
                         audit::AuditSpan span(out.data() + lo,
                                               static_cast<size_t>(hi - lo),
                                               "test.sequential");
                         for (int64_t i = lo; i < hi; ++i) {
                           out[static_cast<size_t>(i)] = 1.0 + pass;
                         }
                       });
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    a_done = true;
  }
  cv.notify_all();
  b.join();
  for (double v : out) EXPECT_EQ(v, 2.0);
}

TEST(ParallelAuditDeathTest, CrossChunkOverlapAborts) {
  // "threadsafe" re-execs the child from main(): the parent's pool
  // threads never leak into the forked death-test child.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::vector<double> out(8, 0.0);
  // Both chunks claim the whole buffer: a scheduling-dependent write-write
  // conflict, exactly what the auditor exists to catch. The audited abort
  // is deterministic even when one worker happens to run both chunks.
  EXPECT_DEATH(
      ParallelForWorkers(0, 2, /*num_threads=*/2, /*grain=*/1,
                         [&](int, int64_t, int64_t) {
                           audit::AuditSpan span(out.data(), out.size(),
                                                 "test.overlap");
                         }),
      "parallel write-set overlap");
}

TEST(ParallelAuditDeathTest, PartialOverlapAcrossChunksAborts) {
  // "threadsafe" re-execs the child from main(): the parent's pool
  // threads never leak into the forked death-test child.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::vector<double> out(8, 0.0);
  // Chunks write [i, i + 2): neighbouring chunks share one element.
  EXPECT_DEATH(
      ParallelForWorkers(0, 4, /*num_threads=*/2, /*grain=*/1,
                         [&](int, int64_t lo, int64_t) {
                           audit::AuditSpan span(out.data() + lo, 2,
                                                 "test.partial");
                         }),
      "parallel write-set overlap");
}

#else  // !DGC_PARALLEL_AUDIT

TEST(ParallelAuditTest, DisabledAuditorIsANoOp) {
  EXPECT_FALSE(audit::kEnabled);
  const int64_t before = audit::TotalSpansRegistered();
  EXPECT_EQ(before, 0);
  std::vector<double> out(8, 0.0);
  ParallelForWorkers(0, 8, /*num_threads=*/2, /*grain=*/1,
                     [&](int, int64_t lo, int64_t hi) {
                       // Deliberately overlapping *registrations* (no
                       // overlapping writes): with the auditor compiled
                       // out they must be ignored entirely.
                       audit::AuditSpan span(out.data(), out.size(),
                                             "test.ignored");
                       for (int64_t i = lo; i < hi; ++i) {
                         out[static_cast<size_t>(i)] = 1.0;
                       }
                     });
  EXPECT_EQ(audit::TotalSpansRegistered(), 0);
}

TEST(ParallelAuditTest, InstrumentedKernelStillCorrectWithAuditOff) {
  const CsrMatrix a = SmallRing(64);
  SpGemmOptions options;
  options.num_threads = 4;
  const CsrMatrix c = SpGemm(a, a, options).ValueOrDie();
  EXPECT_GT(c.nnz(), 0);
  EXPECT_EQ(audit::TotalSpansRegistered(), 0);
}

#endif  // DGC_PARALLEL_AUDIT

}  // namespace
}  // namespace dgc
