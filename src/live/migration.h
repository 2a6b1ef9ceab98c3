#ifndef STINDEX_LIVE_MIGRATION_H_
#define STINDEX_LIVE_MIGRATION_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "core/segment.h"
#include "live/live_index.h"
#include "pprtree/ppr_tree.h"
#include "util/bytes.h"
#include "util/status.h"

namespace stindex {

struct QueryProfile;

// Moves sealed live-tier chunks into the persistent PPR-tree.
//
// The PPR-tree demands updates in globally non-decreasing time order, but
// chunks seal out of time order (whichever buffer ripens first). The
// pipeline therefore splits each chunk into segment records immediately —
// data ids are assigned in migration order, exactly as BuildPprTree
// numbers its input — and queues the resulting insert/delete events,
// applied in the order (time, deletes-first, data id) in which
// BuildPprTree replays a batch. Advance(watermark) applies every event
// strictly below the watermark (no later chunk can produce an earlier
// event, see LiveIndex::Watermark), so feeding the same chunks in the
// same order as a batch build yields a byte-identical tree.
//
// Events still queued are invisible to (delete-pending: overstated by)
// the tree; CollectPending and ClipToInterval give queries exact answers
// over the in-flight records. The pipeline keeps no id set: the queued
// insert events are the insert-pending segments — exactly those that
// start at or after the watermark W of the last Advance — and everything
// else in flight, and the active tree itself, follows from the segment
// table and two watermarks (see EncodeState).
class MigrationPipeline {
 public:
  explicit MigrationPipeline(PprTree* tree);

  // Splits `chunk` into segment records and queues their events. Returns
  // the number of segments produced.
  size_t Enqueue(const LiveIndex::SealedChunk& chunk);

  // Applies every queued event with time < `watermark` to the tree.
  // Watermarks must be non-decreasing across calls.
  void Advance(Time watermark);

  // Applies everything, and sets the watermark to kTimeInfinity. Only
  // valid at end of stream: a later Enqueue could produce events before
  // ones already applied.
  void Drain();

  // --- packing the historical tree --------------------------------------

  // Rewires the pipeline after its tree was packed into a frozen layer,
  // at the watermark of the last Advance, which becomes the pack
  // watermark: ids whose insert was already applied — the segments that
  // start before it — can never see their delete applied (the layer is
  // read-only), so their delete events are dropped — ClipToInterval
  // clips their hits against the true segment interval forever. The
  // event queue keeps exactly the events of the insert-pending ids, which
  // now target `tree` (the fresh active tree, empty at time 0; events pop
  // in globally non-decreasing time order, so the new tree's clock is
  // respected).
  void RetargetAfterPack(PprTree* tree);

  // Every migrated segment, in migration order: segment i has PprDataId i.
  const SegmentTable& segments() const { return segments_; }

  size_t pending_events() const { return inserts_.size() + deletes_.size(); }
  // W: the watermark of the last Advance (EncodeState).
  Time watermark() const { return watermark_; }

  // --- checkpoint state -------------------------------------------------

  // Serializes the two watermarks that, with the segment table, determine
  // the pipeline and its active tree: W, that of the last Advance (every
  // event before it is applied, and no later chunk can produce one), and
  // W_pack, that of the last pack (the minimum Time before any). The
  // active tree holds exactly the events before W of the segments that
  // start at or after W_pack — a pack froze those that start before it —
  // applied in BuildPprTree's order; the queue holds both events of each
  // segment that starts at or after W, and the delete of each segment of
  // the active tree still alive at W. The segments themselves are not
  // serialized: the checkpoint keeps them in its append-only segment
  // chain.
  void EncodeState(ByteSink* out) const;
  // Restores into a fresh pipeline over a fresh tree, taking `segments`
  // (read from the segment chain) as its table: reads the watermarks,
  // replays the active tree (ReplayPprEvents) and queues what is
  // pending. The rebuilt tree saw the same Insert and Delete calls in the
  // same order as the one checkpointed, so it is byte-identical to it.
  // InvalidArgument when the watermarks are truncated or W < W_pack.
  Status DecodeState(SegmentTable segments, PageReader* in);

  // --- query support over in-flight records ----------------------------

  // Segments whose insert has not been applied (the tree cannot see
  // them; the queued inserts): appends the objects of those intersecting
  // the query to `out`, in no particular order. They all start at or
  // after W, so a range that ends at or before W tests none. A non-null
  // `profile` counts the segments tested as pending_scanned.
  void CollectPending(const Rect2D& area, const TimeInterval& range,
                      std::vector<ObjectId>* out,
                      QueryProfile* profile = nullptr) const;

  // A tree reports `id` for `range`; true if the segment really does
  // intersect `range` in time. An insert-applied, delete-pending record —
  // in a frozen layer, forever — looks alive-to-infinity inside its tree;
  // once a delete is applied, the record's tree lifetime is exactly its
  // segment interval, so the clip keeps every hit.
  bool ClipToInterval(PprDataId id, const TimeInterval& range) const {
    return segments_[static_cast<size_t>(id)].box.interval.Intersects(range);
  }

  ObjectId ObjectOf(PprDataId id) const {
    return segments_[static_cast<size_t>(id)].object;
  }

 private:
  struct Event {
    Time time = 0;
    PprDataId id = 0;
  };
  // Orders a min-heap by (time, data id). Each id has one event per heap,
  // so the order is strict and total and the pop order does not depend
  // on the heap's layout.
  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const {
      return a.time != b.time ? a.time > b.time : a.id > b.id;
    }
  };

  // Queues id's insert (at its segment's start) or delete (at its end).
  void Queue(PprDataId id, bool is_insert);
  // The heap whose top is the next event in BuildPprTree's order — the
  // earlier time, deletes first at equal times — or nullptr when nothing
  // is queued.
  std::vector<Event>* NextHeap();
  // Pops and applies the top event of `heap`.
  void ApplyTop(std::vector<Event>* heap);

  PprTree* tree_;
  SegmentTable segments_;
  // The queued inserts and deletes, two binary min-heaps under EventAfter
  // (std::push_heap / std::pop_heap). Kept apart so that CollectPending
  // walks only the inserts: the deletes also hold one event for every
  // segment the active tree holds alive.
  std::vector<Event> inserts_;
  std::vector<Event> deletes_;
  // W and W_pack (EncodeState).
  Time watermark_ = std::numeric_limits<Time>::min();
  Time pack_watermark_ = std::numeric_limits<Time>::min();
};

}  // namespace stindex

#endif  // STINDEX_LIVE_MIGRATION_H_
