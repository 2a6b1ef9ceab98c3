#ifndef STINDEX_UTIL_THREAD_POOL_H_
#define STINDEX_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace stindex {

// A fixed-size, reusable worker pool with a chunked, work-stealing-free
// ParallelFor. Designed for the split pipeline's needs:
//
//  * Determinism. ParallelFor splits [0, n) into exactly `chunks`
//    contiguous ranges whose boundaries depend only on (n, chunks) —
//    never on scheduling, pool size, or which worker ran what. Callers
//    that write results into per-index or per-chunk slots therefore
//    produce byte-identical output at any thread count.
//  * Reuse. Workers are started once and reused across calls; the
//    process-wide pool (`Shared`) grows on demand and is shared by every
//    ParallelFor in the process, so nested/sequential parallel phases do
//    not multiply threads.
//  * No deadlock on nesting. A ParallelFor issued from inside a pool
//    task runs its chunks inline on the calling worker (same chunk
//    decomposition, sequential order) instead of queueing behind the
//    task that is waiting for it.
//
// Exceptions thrown by chunk bodies are captured and the first one is
// rethrown from ParallelFor after all chunks of the batch finished.
// The pool itself stays usable after a throwing batch.
class ThreadPool {
 public:
  // Starts `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(int num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Joins all workers; pending tasks are completed first.
  ~ThreadPool();

  int num_threads() const;

  // Runs body(chunk, begin, end) over [0, n) split into min(chunks, n)
  // contiguous ranges of near-equal size (the first n % chunks ranges are
  // one element longer). Blocks until every chunk finished; rethrows the
  // first chunk exception. chunks <= 1 (or a call from inside one of this
  // pool's tasks) runs inline on the calling thread. `chunk` is the
  // 0-based index of the range, matching ParallelChunks below — callers
  // use it to address pre-sized per-chunk output slots.
  void ParallelFor(size_t n, int chunks,
                   const std::function<void(size_t, size_t, size_t)>& body);

  // The process-wide pool, grown to at least `min_threads` workers (it
  // never shrinks). Thread-safe.
  static ThreadPool& Shared(int min_threads);

 private:
  struct Batch;

  void AddWorkers(int count);  // callers hold mu_
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

// Chunks per thread of the free ParallelFor below: the chunks queue up
// and each worker takes the next as it finishes one, so a slow core or
// an expensive stretch of the range delays one small chunk instead of a
// third of the work.
inline constexpr int kParallelChunksPerThread = 8;

// Number of chunks ParallelFor(num_threads, n, ...) executes: 1 when
// num_threads <= 1, else kParallelChunksPerThread * num_threads, capped at
// n (0 for an empty range). Callers pre-size per-chunk output slots with
// this.
size_t ParallelChunks(int num_threads, size_t n);

// Convenience wrapper: chunked deterministic parallel-for over the shared
// pool, with ParallelChunks(num_threads, n) chunks — boundaries that
// depend only on n and num_threads, so callers that write per-index or
// per-chunk slots (and merge chunk results in chunk order) produce the
// same output at any thread count. `num_threads <= 1` runs body(0, 0, n)
// inline without touching the pool, so serial callers pay nothing. This
// is the entry point the split pipeline, distribution, and benchmark
// drivers use.
void ParallelFor(int num_threads, size_t n,
                 const std::function<void(size_t, size_t, size_t)>& body);

}  // namespace stindex

#endif  // STINDEX_UTIL_THREAD_POOL_H_
