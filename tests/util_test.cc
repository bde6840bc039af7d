#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>
#include <vector>

#include "linalg/vector_ops.h"
#include "util/options.h"
#include "util/radix.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace dgc {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kNotFound), "NotFound");
  EXPECT_EQ(StatusCodeToString(StatusCode::kIOError), "IOError");
  EXPECT_EQ(StatusCodeToString(StatusCode::kNotConverged), "NotConverged");
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::OutOfRange("negative");
  return Status::OK();
}

Status UsesReturnIfError(int x) {
  DGC_RETURN_IF_ERROR(FailIfNegative(x));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorMacro) {
  EXPECT_TRUE(UsesReturnIfError(1).ok());
  EXPECT_TRUE(UsesReturnIfError(-1).IsOutOfRange());
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Result<int> DoublePositive(int x) {
  DGC_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok = 5;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ValueOrDie(), 5);
  Result<int> err = Status::NotFound("x");
  EXPECT_FALSE(err.ok());
  EXPECT_TRUE(err.status().IsNotFound());
  EXPECT_EQ(err.ValueOr(42), 42);
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(DoublePositive(4).ValueOrDie(), 8);
  EXPECT_FALSE(DoublePositive(-1).ok());
}

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.UniformU64(17);
    EXPECT_LT(v, 17u);
    const double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    const int64_t x = rng.UniformInt(-5, 5);
    EXPECT_GE(x, -5);
    EXPECT_LE(x, 5);
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(3);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.UniformU64(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(9);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(RngTest, NormalMoments) {
  Rng rng(17);
  double sum = 0.0, sum2 = 0.0;
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) {
    const double v = rng.Normal();
    sum += v;
    sum2 += v * v;
  }
  EXPECT_NEAR(sum / trials, 0.0, 0.03);
  EXPECT_NEAR(sum2 / trials, 1.0, 0.05);
}

TEST(RngTest, ZipfRangeAndSkew) {
  Rng rng(21);
  ZipfDistribution zipf(100, 1.5);
  int64_t ones = 0;
  const int trials = 10000;
  for (int i = 0; i < trials; ++i) {
    const uint64_t v = zipf.Sample(rng);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 100u);
    if (v == 1) ++ones;
  }
  // Rank 1 should dominate under s = 1.5 (its mass is ~38%).
  EXPECT_GT(ones, trials / 4);
}

TEST(RngTest, ZipfZeroExponentIsUniform) {
  Rng rng(22);
  ZipfDistribution zipf(4, 0.0);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 40000; ++i) ++counts[zipf.Sample(rng)];
  for (int k = 1; k <= 4; ++k) {
    EXPECT_NEAR(counts[k] / 40000.0, 0.25, 0.02);
  }
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(33);
  auto sample = rng.SampleWithoutReplacement(100, 30);
  std::set<uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (uint64_t v : sample) EXPECT_LT(v, 100u);
  // Dense path.
  auto all = rng.SampleWithoutReplacement(10, 10);
  std::set<uint64_t> full(all.begin(), all.end());
  EXPECT_EQ(full.size(), 10u);
}

TEST(OptionsTest, ParsesFlagsAndPositional) {
  const char* argv[] = {"prog", "--nodes=500", "--threshold=0.25",
                        "--verbose", "input.txt"};
  auto opts = Options::Parse(5, argv);
  ASSERT_TRUE(opts.ok());
  EXPECT_EQ(opts->GetInt("nodes", 0), 500);
  EXPECT_DOUBLE_EQ(opts->GetDouble("threshold", 0.0), 0.25);
  EXPECT_TRUE(opts->GetBool("verbose", false));
  EXPECT_FALSE(opts->GetBool("quiet", false));
  ASSERT_EQ(opts->positional().size(), 1u);
  EXPECT_EQ(opts->positional()[0], "input.txt");
}

// A comma-separated value is one flag value; no typed list getter exists.
TEST(OptionsTest, ParsesLists) {
  const char* argv[] = {"prog", "--ks=10,20,30", "--ts=0.5,1.5"};
  auto opts = Options::Parse(3, argv);
  ASSERT_TRUE(opts.ok());
  EXPECT_EQ(opts->GetString("ks", ""), "10,20,30");
  EXPECT_EQ(opts->GetString("ts", ""), "0.5,1.5");
}

TEST(OptionsTest, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  auto opts = Options::Parse(1, argv);
  ASSERT_TRUE(opts.ok());
  EXPECT_EQ(opts->GetInt("n", 7), 7);
  EXPECT_EQ(opts->GetString("name", "x"), "x");
}

TEST(OptionsTest, CheckAllReadNamesFlagsNoLookupRead) {
  const char* argv[] = {"prog", "--labels=a.txt", "--labels_b=b.txt",
                        "--verbose", "--n=3", "input.txt"};
  auto opts = Options::Parse(6, argv);
  ASSERT_TRUE(opts.ok());
  EXPECT_EQ(opts->GetString("labels", ""), "a.txt");
  EXPECT_EQ(opts->GetString("labels-b", ""), "");
  Status status = opts->CheckAllRead();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("unused flags --labels_b, --n, --verbose"),
            std::string::npos)
      << status.ToString();
  // Has() counts as a read, whatever its answer; positionals never count.
  EXPECT_TRUE(opts->Has("verbose"));
  EXPECT_EQ(opts->GetInt("n", 0), 3);
  status = opts->CheckAllRead();
  EXPECT_NE(status.message().find("unused flag --labels_b ("),
            std::string::npos)
      << status.ToString();
  EXPECT_EQ(opts->GetString("labels_b", ""), "b.txt");
  EXPECT_TRUE(opts->CheckAllRead().ok());
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ParallelForTest, CoversRangeOnce) {
  std::vector<std::atomic<int>> hits(200);
  ParallelFor(0, 200, 4, [&hits](int64_t i) {
    hits[static_cast<size_t>(i)].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, SingleThreadInline) {
  int sum = 0;
  ParallelFor(0, 10, 1, [&sum](int64_t i) {
    sum += static_cast<int>(i);  // dgc-analyze: allow(par-shared-compound-assign) threads=1 runs inline on the caller; this test pins that contract
  });
  EXPECT_EQ(sum, 45);
}

TEST(ParallelForTest, EmptyRange) {
  bool called = false;
  ParallelFor(5, 5, 4, [&called](int64_t) {
    called = true;  // dgc-analyze: allow(par-shared-compound-assign) empty range: the body must never run; the write is the tripwire
  });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, ZeroThreadsResolvesToHardwareConcurrency) {
  std::vector<std::atomic<int>> hits(100);
  ParallelFor(0, 100, 0, [&hits](int64_t i) {
    hits[static_cast<size_t>(i)].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ResolveNumThreadsTest, Convention) {
  EXPECT_EQ(ResolveNumThreads(1), 1);
  EXPECT_EQ(ResolveNumThreads(7), 7);
  EXPECT_GE(ResolveNumThreads(0), 1);  // hardware concurrency
  EXPECT_EQ(ResolveNumThreads(-3), 1);
}

TEST(ParallelForWorkersTest, WorkerIdsAreInRangeAndRangeIsCovered) {
  constexpr int kThreads = 4;
  std::vector<std::atomic<int>> hits(512);
  std::atomic<bool> bad_worker{false};
  ParallelForWorkers(0, 512, kThreads, /*grain=*/16,
                     [&](int worker, int64_t lo, int64_t hi) {
                       if (worker < 0 || worker >= kThreads) {
                         bad_worker.store(true);
                       }
                       for (int64_t i = lo; i < hi; ++i) {
                         hits[static_cast<size_t>(i)].fetch_add(1);
                       }
                     });
  EXPECT_FALSE(bad_worker.load());
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForWorkersTest, NestedCallsRunInline) {
  // A parallel region inside a parallel region must serialize instead of
  // deadlocking the shared pool.
  std::vector<std::atomic<int>> hits(64);
  ParallelFor(0, 8, 4, [&hits](int64_t outer) {
    ParallelFor(0, 8, 4, [&hits, outer](int64_t inner) {
      hits[static_cast<size_t>(outer * 8 + inner)].fetch_add(1);
    });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, EnsureWorkersGrowsPool) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  pool.EnsureWorkers(3);
  EXPECT_EQ(pool.num_threads(), 3);
  pool.EnsureWorkers(2);  // never shrinks
  EXPECT_EQ(pool.num_threads(), 3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ParallelForTest, ManyMoreThreadsThanCoresStillCovers) {
  // Requesting more threads than hardware cores must still terminate and
  // cover the range exactly once (the pool grows on demand).
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(0, 1000, 16, [&hits](int64_t i) {
    hits[static_cast<size_t>(i)].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(VectorOpsTest, BasicOps) {
  std::vector<Scalar> x = {3.0, 4.0};
  std::vector<Scalar> y = {1.0, -1.0};
  EXPECT_DOUBLE_EQ(Dot(x, y), -1.0);
  EXPECT_DOUBLE_EQ(Norm2(x), 5.0);
  EXPECT_DOUBLE_EQ(Norm1(y), 2.0);
  Axpy(2.0, y, x);
  EXPECT_DOUBLE_EQ(x[0], 5.0);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
  EXPECT_DOUBLE_EQ(L1Distance(x, y), 7.0);
}

TEST(VectorOpsTest, Normalization) {
  std::vector<Scalar> x = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(NormalizeL2(x), 5.0);
  EXPECT_NEAR(Norm2(x), 1.0, 1e-12);
  std::vector<Scalar> p = {1.0, 3.0};
  EXPECT_DOUBLE_EQ(NormalizeL1(p), 4.0);
  EXPECT_DOUBLE_EQ(p[0], 0.25);
  std::vector<Scalar> zero = {0.0, 0.0};
  EXPECT_DOUBLE_EQ(NormalizeL2(zero), 0.0);
}

TEST(VectorOpsTest, InversePowerHandlesZeros) {
  std::vector<Scalar> d = {4.0, 0.0, 9.0};
  auto inv = InversePower(d, 0.5);
  EXPECT_DOUBLE_EQ(inv[0], 0.5);
  EXPECT_DOUBLE_EQ(inv[1], 0.0);  // zero-degree convention
  EXPECT_NEAR(inv[2], 1.0 / 3.0, 1e-12);
}

TEST(RadixSortTest, RadixSortMatchesStdSortOnDistinctKeys) {
  // EmitRow sorts a row's surviving columns with RadixSortIndices; CSR
  // rows hold distinct keys, for which LSD radix and std::sort agree
  // exactly.
  for (size_t n : {size_t{0}, size_t{5}, size_t{127}, size_t{128},
                   size_t{1000}, size_t{4096}}) {
    Rng rng(8000 + n);
    const int32_t bound = static_cast<int32_t>(3 * n + 7);
    std::vector<uint64_t> sample = rng.SampleWithoutReplacement(
        static_cast<uint64_t>(bound), static_cast<uint64_t>(n));
    std::vector<int32_t> data(sample.begin(), sample.end());
    std::vector<int32_t> expected = data;
    std::sort(expected.begin(), expected.end());
    std::vector<int32_t> scratch(n);
    RadixSortIndices(data.data(), n, scratch.data(), bound);
    EXPECT_EQ(expected, data) << "n=" << n;
  }
}

TEST(TimerTest, MeasuresElapsed) {
  WallTimer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(i);
  EXPECT_GE(timer.ElapsedSeconds(), 0.0);
  timer.Restart();
  EXPECT_LT(timer.ElapsedSeconds(), 1.0);
}

}  // namespace
}  // namespace dgc
