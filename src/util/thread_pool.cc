#include "util/thread_pool.h"

#include <algorithm>
#include <exception>
#include <memory>

#include "util/check.h"
#include "util/trace.h"

namespace stindex {

namespace {

// Set while a worker thread executes tasks for its pool; lets ParallelFor
// detect nesting (a batch issued from inside a task of the same pool) and
// fall back to inline execution instead of deadlocking.
thread_local ThreadPool* current_pool = nullptr;

}  // namespace

// Completion state of one ParallelFor call. Chunk tasks hold a
// shared_ptr so the state outlives an early-exiting caller (which cannot
// happen today — the caller always waits — but keeps the lifetime local).
struct ThreadPool::Batch {
  std::mutex mu;
  std::condition_variable done_cv;
  size_t pending = 0;
  std::exception_ptr error;  // first failure wins

  void Finish(std::exception_ptr e) {
    std::lock_guard<std::mutex> lock(mu);
    if (e && !error) error = e;
    if (--pending == 0) done_cv.notify_all();
  }
};

ThreadPool::ThreadPool(int num_threads) {
  std::lock_guard<std::mutex> lock(mu_);
  AddWorkers(std::max(num_threads, 1));
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

int ThreadPool::num_threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(workers_.size());
}

void ThreadPool::AddWorkers(int count) {
  for (int i = 0; i < count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void ThreadPool::WorkerLoop() {
  current_pool = this;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping_ and drained
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    task();
    lock.lock();
  }
}

void ThreadPool::ParallelFor(
    size_t n, int chunks,
    const std::function<void(size_t, size_t, size_t)>& body) {
  if (n == 0) return;
  const size_t num_chunks =
      std::min(n, static_cast<size_t>(std::max(chunks, 1)));
  // The chunk decomposition below is the single source of truth for both
  // the inline and the pooled path: chunk c covers
  //   [c*q + min(c, r), (c+1)*q + min(c+1, r))  with q = n / chunks,
  //   r = n % chunks,
  // i.e. the first r chunks get one extra element. It depends only on
  // (n, chunks), which is what makes per-chunk output slots deterministic.
  const size_t quot = n / num_chunks;
  const size_t rem = n % num_chunks;
  auto chunk_begin = [quot, rem](size_t c) {
    return c * quot + std::min(c, rem);
  };

  if (num_chunks == 1 || current_pool == this) {
    for (size_t c = 0; c < num_chunks; ++c) {
      TraceSpan span("pool", "chunk");
      span.Arg("chunk", static_cast<int64_t>(c))
          .Arg("size", static_cast<int64_t>(chunk_begin(c + 1) -
                                            chunk_begin(c)));
      body(c, chunk_begin(c), chunk_begin(c + 1));
    }
    return;
  }

  auto batch = std::make_shared<Batch>();
  batch->pending = num_chunks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    STINDEX_CHECK_MSG(!stopping_, "ParallelFor on a stopping ThreadPool");
    for (size_t c = 0; c < num_chunks; ++c) {
      const size_t begin = chunk_begin(c);
      const size_t end = chunk_begin(c + 1);
      queue_.emplace_back([batch, c, begin, end, &body] {
        std::exception_ptr error;
        try {
          TraceSpan span("pool", "chunk");
          span.Arg("chunk", static_cast<int64_t>(c))
              .Arg("size", static_cast<int64_t>(end - begin));
          body(c, begin, end);
        } catch (...) {
          error = std::current_exception();
        }
        batch->Finish(error);
      });
    }
  }
  work_cv_.notify_all();

  std::unique_lock<std::mutex> lock(batch->mu);
  batch->done_cv.wait(lock, [&batch] { return batch->pending == 0; });
  if (batch->error) std::rethrow_exception(batch->error);
}

ThreadPool& ThreadPool::Shared(int min_threads) {
  static ThreadPool* pool = new ThreadPool(1);  // never destroyed: workers
  // may still be draining when static destructors run, and the OS reclaims
  // the threads anyway.
  std::lock_guard<std::mutex> lock(pool->mu_);
  const int have = static_cast<int>(pool->workers_.size());
  constexpr int kMaxShared = 256;
  const int want = std::min(std::max(min_threads, 1), kMaxShared);
  if (want > have) pool->AddWorkers(want - have);
  return *pool;
}

size_t ParallelChunks(int num_threads, size_t n) {
  const size_t chunks =
      num_threads <= 1 ? 1
                       : static_cast<size_t>(num_threads) *
                             static_cast<size_t>(kParallelChunksPerThread);
  return std::min(n, chunks);
}

void ParallelFor(int num_threads, size_t n,
                 const std::function<void(size_t, size_t, size_t)>& body) {
  if (n == 0) return;
  if (num_threads <= 1) {
    TraceSpan span("pool", "chunk");
    span.Arg("chunk", static_cast<int64_t>(0)).Arg("size",
                                                   static_cast<int64_t>(n));
    body(0, 0, n);
    return;
  }
  ThreadPool::Shared(num_threads)
      .ParallelFor(n, static_cast<int>(ParallelChunks(num_threads, n)), body);
}

}  // namespace stindex
