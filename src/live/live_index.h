#ifndef STINDEX_LIVE_LIVE_INDEX_H_
#define STINDEX_LIVE_LIVE_INDEX_H_

#include <cstdint>
#include <limits>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/online_split.h"
#include "geometry/interval.h"
#include "geometry/rect.h"
#include "storage/page_codec.h"
#include "trajectory/trajectory.h"
#include "util/bytes.h"
#include "util/status.h"

namespace stindex {

// Buffering and sealing knobs of the live tier, mirroring LIT's update
// parameters: `capacity` is the per-object instant budget (-c), `duration`
// the per-object time budget (-d), `buffer` the global buffered-instant
// budget across all live objects (-b). 0 disables a knob.
struct LiveIndexOptions {
  size_t capacity = 64;
  Time duration = 0;
  size_t buffer = 0;
  OnlineSplitter::Options split;
};

// The in-memory half of the live ingestion tier: per-object buffers of
// recent movement observations, each paired with an OnlineSplitter that
// decides segment cuts incrementally. LiveIndex is pure state — it
// appends, dedups and seals, but *when* to seal is the caller's policy
// (LiveTier in normal operation, the WAL's kSeal records during replay),
// which is what makes replay deterministic.
//
// Stream invariants enforced here:
//  - global observation times are non-decreasing;
//  - per-object instants are consecutive (each observation is at the
//    instant after the object's previous one);
//  - an ended object never moves again.
// Re-delivered records (the unacknowledged tail re-ingested after crash
// recovery) are detected by per-object high-water marks and skipped, so
// replay + re-ingest reconstruct the exact logical stream.
class LiveIndex {
 public:
  // An object's buffer sealed into a migration chunk: `cuts` are the
  // splitter's decisions over `rects` (first instant `start`), ready for
  // ApplySplits.
  struct SealedChunk {
    ObjectId object = 0;
    Time start = 0;
    std::vector<Rect2D> rects;
    std::vector<int> cuts;
  };

  explicit LiveIndex(LiveIndexOptions options);

  // Appends one observation. `*applied` is false when the record is a
  // duplicate of one already absorbed (then the call is a no-op). Errors:
  // a gap in an object's instants, a global time regression, or movement
  // of an ended object.
  Status Observe(ObjectId object, Time t, const Rect2D& rect, bool* applied);

  // Retires the object; `t` must be one past its last observed instant.
  // The buffer is left in place — the caller seals it (policy above).
  Status End(ObjectId object, Time t, bool* applied);

  // Validation-only halves of Observe/End: the exact status and
  // would-apply answer the mutating call would produce, with no state
  // change. LiveTier journals between Check and apply so an update is
  // never visible unless its record reached the WAL ("visibility implies
  // journaled").
  Status CheckObserve(ObjectId object, Time t, const Rect2D& rect,
                      bool* would_apply) const;
  Status CheckEnd(ObjectId object, Time t, bool* would_apply) const;

  // Seals `object`'s buffer into a chunk and clears it. The object must
  // have a non-empty buffer.
  Result<SealedChunk> Seal(ObjectId object);

  // What Seal would journal, without sealing: the chunk's first instant
  // and the number of segments ApplySplits will produce (cuts + 1).
  struct SealPreview {
    Time start = 0;
    uint32_t segments = 0;
  };
  Result<SealPreview> PreviewSeal(ObjectId object) const;

  // --- checkpoint state -------------------------------------------------

  // Serializes the full index state (deterministic: maps are emitted in
  // sorted order). DecodeState restores it into a fresh index with the
  // same options; splitters are rebuilt by re-feeding each buffer's
  // rects, which reproduces their cut decisions exactly (the splitter is
  // deterministic in its observed sequence). A buffer listed twice, one
  // with no rects, or one that does not end at its object's last
  // instant is rejected with InvalidArgument naming the object.
  void EncodeState(ByteSink* out) const;
  Status DecodeState(PageReader* in);

  // --- sealing policy inputs -------------------------------------------
  //
  // Observe, End and Seal keep three ordered indexes in step with the
  // buffers, so no policy query walks every open buffer: one update
  // costs O(log n) in the n open buffers, plus O(log n) per id a query
  // returns.

  // True when the global buffered-instant total exceeds the buffer knob.
  bool OverBudget() const {
    return options_.buffer != 0 && buffered_instants_ > options_.buffer;
  }
  // The buffer to evict when over budget: oldest first instant, smallest
  // id on ties. kInvalidObject when no buffers exist. O(1).
  ObjectId BudgetVictim() const;
  // Buffers that should already have been sealed: ended objects whose
  // buffer survived (ascending id), then buffers over the capacity or
  // duration knob (ascending id) — the deterministic catch-up order
  // recovery uses when the tail of the log lost its seal records. At
  // most one trigger can be pending (seal records directly follow their
  // trigger in the log), so this order always matches the order the
  // lost seals originally had.
  // O(k log k) for k returned ids; the usual empty answer allocates
  // nothing.
  std::vector<ObjectId> RipeForCatchUp() const;

  static constexpr ObjectId kInvalidObject =
      std::numeric_limits<ObjectId>::max();

  // --- queries ----------------------------------------------------------

  // Objects with a buffered instant in `range` whose rectangle at that
  // instant intersects `area`. Appends to `out` (unsorted, no duplicates
  // within one call).
  void CollectLive(const Rect2D& area, const TimeInterval& range,
                   std::vector<ObjectId>* out) const;

  // --- introspection ----------------------------------------------------

  bool HasBuffer(ObjectId object) const {
    return buffers_.count(object) != 0;
  }
  // Every object with a non-empty buffer, ascending id — the order
  // Finish seals the stragglers in.
  std::vector<ObjectId> BufferedObjects() const;

  size_t live_objects() const { return buffers_.size(); }
  size_t buffered_instants() const { return buffered_instants_; }
  Time last_time() const { return last_global_; }
  // Migration watermark: every future segment starts at or after this
  // time. Minimum first-buffered-instant over live buffers; the last
  // global observation time when no buffer is open. O(1).
  Time Watermark() const;

 private:
  struct Buffer {
    Time start = 0;
    std::vector<Rect2D> rects;
    OnlineSplitter splitter;

    explicit Buffer(Time t, OnlineSplitter::Options options)
        : start(t), splitter(options) {}
  };

  LiveIndexOptions options_;
  std::unordered_map<ObjectId, Buffer> buffers_;
  // Last observed instant per object, across seals (the dedup and
  // consecutiveness high-water mark).
  std::unordered_map<ObjectId, Time> last_instant_;
  std::unordered_set<ObjectId> retired_;
  size_t buffered_instants_ = 0;
  Time last_global_ = std::numeric_limits<Time>::min();

  // The sealing policy's indexes (DecodeState rebuilds them):
  //  - by_start_: (first instant, object) of every open buffer, so its
  //    first entry is the watermark and the budget victim;
  //  - ended_buffered_: retired objects that still hold a buffer;
  //  - over_capacity_: unretired objects whose buffer holds at least
  //    `capacity` instants.
  std::set<std::pair<Time, ObjectId>> by_start_;
  std::set<ObjectId> ended_buffered_;
  std::set<ObjectId> over_capacity_;
};

}  // namespace stindex

#endif  // STINDEX_LIVE_LIVE_INDEX_H_
