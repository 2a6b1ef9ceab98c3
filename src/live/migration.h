#ifndef STINDEX_LIVE_MIGRATION_H_
#define STINDEX_LIVE_MIGRATION_H_

#include <cstdint>
#include <queue>
#include <unordered_set>
#include <vector>

#include "core/segment.h"
#include "live/live_index.h"
#include "pprtree/ppr_tree.h"
#include "util/bytes.h"
#include "util/status.h"

namespace stindex {

// Moves sealed live-tier chunks into the persistent PPR-tree.
//
// The PPR-tree demands updates in globally non-decreasing time order, but
// chunks seal out of time order (whichever buffer ripens first). The
// pipeline therefore splits each chunk into segment records immediately —
// data ids are assigned in migration order, exactly as BuildPprTree
// numbers its input — and holds the resulting insert/delete events in a
// priority queue keyed (time, deletes-first, data id), the same order
// BuildPprTree replays a batch. Advance(watermark) applies every event
// strictly below the watermark (no later chunk can produce an earlier
// event, see LiveIndex::Watermark), so feeding the same chunks in the
// same order as a batch build yields a byte-identical tree.
//
// Events still queued are invisible to (delete-pending: overstated by)
// the tree; CollectPending and ClipToInterval give queries exact answers
// over the in-flight records. The pipeline keeps one id set, the
// insert-pending ids: every other in-flight fact follows from the
// segment table and the active tree (see DecodeState).
class MigrationPipeline {
 public:
  explicit MigrationPipeline(PprTree* tree);

  // Splits `chunk` into segment records and queues their events. Returns
  // the number of segments produced.
  size_t Enqueue(const LiveIndex::SealedChunk& chunk);

  // Applies every queued event with time < `watermark` to the tree.
  // Watermarks must be non-decreasing across calls.
  void Advance(Time watermark);

  // Applies everything. Only valid at end of stream: a later Enqueue
  // could produce events before ones already applied.
  void Drain();

  // --- packing the historical tree --------------------------------------

  // Rewires the pipeline after its tree was packed into a frozen layer:
  // ids whose insert was already applied can never see their delete
  // applied (the layer is read-only), so their delete events are dropped
  // — ClipToInterval clips their hits against the true segment interval
  // forever. The event queue is rebuilt to hold exactly the events of
  // the insert-pending ids, which now target `tree` (the fresh active
  // tree, empty at time 0; events pop in globally non-decreasing time
  // order, so the new tree's clock is respected).
  void RetargetAfterPack(PprTree* tree);

  // Recovery hook: points the pipeline at `tree` without touching state
  // (the restored layering re-creates trees before DecodeState runs).
  void SetTree(PprTree* tree) { tree_ = tree; }

  // Every migrated segment, in migration order: segment i has PprDataId i.
  const std::vector<SegmentRecord>& segments() const { return segments_; }

  size_t applied_events() const { return applied_events_; }
  size_t pending_events() const { return events_.size(); }

  // --- checkpoint state -------------------------------------------------

  // Serializes the insert-pending ids (sorted — deterministic bytes) and
  // the applied-event count. The segments are not serialized: the
  // checkpoint keeps them in its append-only segment chain. Nor is the
  // event queue: it is exactly {insert and delete event of every
  // insert-pending id} ∪ {delete event of every record alive in the
  // active tree} — a record's delete is applied to the tree its insert
  // was, unless a pack froze that tree — so DecodeState rebuilds it.
  void EncodeState(ByteSink* out) const;
  // Restores into a fresh pipeline whose active tree was already
  // restored, taking `segments` (read from the segment chain) as its
  // table and the tree's AliveRecords() as the delete-pending ids beyond
  // the insert-pending ones. InvalidArgument when an id is listed twice,
  // lies beyond the table, or is both alive and insert-pending.
  Status DecodeState(std::vector<SegmentRecord> segments, ByteSource* in);

  // --- query support over in-flight records ----------------------------

  // Segments whose insert has not been applied (the tree cannot see
  // them): appends the objects of those intersecting the query to `out`.
  void CollectPending(const Rect2D& area, const TimeInterval& range,
                      std::vector<ObjectId>* out) const;

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
    bool is_insert = false;
    PprDataId id = 0;
  };
  // Orders the min-heap by (time, deletes-first, data id) — BuildPprTree's
  // replay order.
  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.is_insert != b.is_insert) return a.is_insert && !b.is_insert;
      return a.id > b.id;
    }
  };

  // Queues id's insert (at its segment's start) or delete (at its end).
  void Queue(PprDataId id, bool is_insert);
  void Apply(const Event& event);

  PprTree* tree_;
  std::vector<SegmentRecord> segments_;
  std::priority_queue<Event, std::vector<Event>, EventAfter> events_;
  std::unordered_set<PprDataId> insert_pending_;
  size_t applied_events_ = 0;
};

}  // namespace stindex

#endif  // STINDEX_LIVE_MIGRATION_H_
