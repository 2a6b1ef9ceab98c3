#ifndef STINDEX_TESTS_LRU_ORACLE_H_
#define STINDEX_TESTS_LRU_ORACLE_H_

// The paper's I/O metric, defined without any pool: an LRU of `capacity`
// pages, reset before every query. By recency, an access misses iff its
// page is not among the last `capacity` distinct pages accessed since the
// last reset. Tests score recorded page-access sequences with this and
// compare SharedBufferPool::Session protocol accounting against it.
//
// Also here: the per-query protocol run the differential suites share.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "datagen/query_gen.h"
#include "pprtree/ppr_tree.h"
#include "rstar/rstar_tree.h"
#include "storage/buffer_pool.h"
#include "storage/shared_buffer_pool.h"
#include "util/thread_pool.h"

namespace stindex {

// The paper's per-query buffer: a 10-page LRU reset before every query.
constexpr size_t kPaperBufferPages = 10;

// Misses of one access sequence that starts right after a reset.
inline uint64_t LruOracleMisses(const std::vector<PageId>& accesses,
                                size_t capacity) {
  uint64_t misses = 0;
  std::vector<PageId> recent;  // distinct pages, most recent first
  for (size_t i = 0; i < accesses.size(); ++i) {
    recent.clear();
    bool hit = false;
    for (size_t j = i; j-- > 0 && recent.size() < capacity;) {
      if (accesses[j] == accesses[i]) {
        hit = true;
        break;
      }
      if (std::find(recent.begin(), recent.end(), accesses[j]) ==
          recent.end()) {
        recent.push_back(accesses[j]);
      }
    }
    if (!hit) ++misses;
  }
  return misses;
}

// Forwards to `inner` and records every page id fetched, in order. The
// refs it returns are the inner cache's own.
class RecordingPageCache : public PageCache {
 public:
  explicit RecordingPageCache(PageCache* inner) : inner_(inner) {}

  PageRef FetchPinned(PageId id) override {
    accesses.push_back(id);
    return inner_->FetchPinned(id);
  }
  const IoStats& stats() const override { return inner_->stats(); }

  std::vector<PageId> accesses;

 protected:
  void Unpin(PageId /*id*/) override {}  // never minted a ref

 private:
  PageCache* inner_;
};

// What one query produced: the answer ids in traversal order plus the
// buffer misses it cost. Equality means "indistinguishable runs".
struct QueryOutcome {
  std::vector<uint64_t> results;
  uint64_t misses = 0;

  bool operator==(const QueryOutcome& other) const {
    return results == other.results && misses == other.misses;
  }
};

// Runs one query through `cache` and returns its answer; the callers
// fill in the misses.
using QueryFn = std::function<QueryOutcome(const STQuery&, PageCache*)>;

inline QueryFn PprQuery(const PprTree& tree) {
  return [&tree](const STQuery& query, PageCache* cache) {
    std::vector<PprDataId> results;
    if (query.IsSnapshot()) {
      tree.SnapshotQuery(query.area, query.range.start, cache, &results);
    } else {
      tree.IntervalQuery(query.area, query.range, cache, &results);
    }
    QueryOutcome outcome;
    outcome.results.assign(results.begin(), results.end());
    return outcome;
  };
}

inline QueryFn RStarQuery(const RStarTree& tree, Time time_domain) {
  return [&tree, time_domain](const STQuery& query, PageCache* cache) {
    std::vector<DataId> results;
    tree.Search(QueryToBox(query, 0, time_domain), cache, &results);
    QueryOutcome outcome;
    outcome.results.assign(results.begin(), results.end());
    return outcome;
  };
}

// The baseline, independent of any pool's accounting: each query's page
// accesses are recorded serially and scored by the LRU oracle.
inline std::vector<QueryOutcome> OracleBaseline(
    SharedBufferPool* pool, const std::vector<STQuery>& queries,
    const QueryFn& run_query) {
  std::vector<QueryOutcome> outcomes;
  SharedBufferPool::Session session(pool);
  for (const STQuery& query : queries) {
    RecordingPageCache recorder(&session);
    outcomes.push_back(run_query(query, &recorder));
    outcomes.back().misses =
        LruOracleMisses(recorder.accesses, kPaperBufferPages);
  }
  return outcomes;
}

// The bench drivers' shape: `num_threads` workers share `pool`, each
// chunk through one protocol-mode Session reset before every query.
inline std::vector<QueryOutcome> RunSessions(
    SharedBufferPool* pool, const std::vector<STQuery>& queries,
    int num_threads, const QueryFn& run_query) {
  std::vector<QueryOutcome> outcomes(queries.size());
  ParallelFor(num_threads, queries.size(),
              [&](size_t /*chunk*/, size_t begin, size_t end) {
                SharedBufferPool::Session session(pool, kPaperBufferPages);
                for (size_t q = begin; q < end; ++q) {
                  session.ResetCache();
                  session.ResetStats();
                  outcomes[q] = run_query(queries[q], &session);
                  outcomes[q].misses = session.stats().misses;
                }
              });
  return outcomes;
}

inline uint64_t TotalMisses(const std::vector<QueryOutcome>& outcomes) {
  uint64_t total = 0;
  for (const QueryOutcome& outcome : outcomes) total += outcome.misses;
  return total;
}

}  // namespace stindex

#endif  // STINDEX_TESTS_LRU_ORACLE_H_
