#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "util/logging.h"
#include "util/parallel_audit.h"

namespace dgc {

namespace {

/// Set while a thread is executing chunks of a parallel region; nested
/// ParallelFor calls from inside a region run inline instead of deadlocking
/// the pool.
thread_local bool t_inside_parallel_region = false;

}  // namespace

int ResolveNumThreads(int num_threads) {
  if (num_threads > 0) return num_threads;
  if (num_threads < 0) return 1;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int num_threads) {
  DGC_CHECK_GE(num_threads, 1);
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  task_available_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::EnsureWorkers(int num_threads) {
  std::lock_guard<std::mutex> lock(mutex_);
  while (static_cast<int>(workers_.size()) < num_threads) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

int ThreadPool::num_threads() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(workers_.size());
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_available_.wait(lock,
                           [this] { return shutdown_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

ThreadPool& GlobalThreadPool() {
  static ThreadPool pool(std::max(
      1, static_cast<int>(std::thread::hardware_concurrency()) - 1));
  return pool;
}

void ParallelForWorkers(
    int64_t begin, int64_t end, int num_threads, int64_t grain,
    const std::function<void(int, int64_t, int64_t)>& body) {
  if (end <= begin) return;
  const int64_t n = end - begin;
  const int threads = static_cast<int>(
      std::min<int64_t>(ResolveNumThreads(num_threads), n));
  if (threads <= 1 || t_inside_parallel_region) {
    // Serial/nested path: still bracketed for the write-set auditor so a
    // top-level serial loop gets a region (one chunk, trivially race-free)
    // and a nested loop keeps attributing writes to the enclosing chunk.
    audit::RegionScope audit_region;
    [[maybe_unused]] audit::ChunkScope audit_chunk(0, audit_region.region());
    body(0, begin, end);
    return;
  }
  if (grain <= 0) grain = std::max<int64_t>(1, n / (8 * threads));

  struct CallState {
    std::atomic<int64_t> next;
    std::mutex mutex;
    std::condition_variable done;
    int pending;
  } state;
  state.next.store(begin, std::memory_order_relaxed);
  state.pending = threads - 1;

  // The region goes to every chunk, whichever thread runs it.
  audit::RegionScope audit_region;
  audit::Region* region = audit_region.region();
  auto run = [&state, &body, end, grain, region](int worker) {
    t_inside_parallel_region = true;
    for (;;) {
      const int64_t lo =
          state.next.fetch_add(grain, std::memory_order_relaxed);
      if (lo >= end) break;
      // Each claimed chunk gets its own audit identity: cross-chunk write
      // overlaps are scheduling hazards even when both chunks happen to
      // land on the same worker this run.
      [[maybe_unused]] audit::ChunkScope audit_chunk(worker, region);
      body(worker, lo, std::min(end, lo + grain));
    }
    t_inside_parallel_region = false;
  };

  ThreadPool& pool = GlobalThreadPool();
  pool.EnsureWorkers(threads - 1);
  for (int w = 1; w < threads; ++w) {
    pool.Submit([&state, &run, w] {
      run(w);
      std::lock_guard<std::mutex> lock(state.mutex);
      if (--state.pending == 0) state.done.notify_all();
    });
  }
  run(0);
  std::unique_lock<std::mutex> lock(state.mutex);
  state.done.wait(lock, [&state] { return state.pending == 0; });
}

void ParallelFor(int64_t begin, int64_t end, int num_threads,
                 const std::function<void(int64_t)>& body) {
  ParallelForWorkers(begin, end, num_threads, /*grain=*/0,
                     [&body](int, int64_t lo, int64_t hi) {
                       for (int64_t i = lo; i < hi; ++i) body(i);
                     });
}

void ParallelForChunked(int64_t begin, int64_t end, int num_threads,
                        const std::function<void(int64_t, int64_t)>& body) {
  ParallelForWorkers(begin, end, num_threads, /*grain=*/0,
                     [&body](int, int64_t lo, int64_t hi) { body(lo, hi); });
}

}  // namespace dgc
