#include "live/migration.h"

#include <algorithm>

#include "util/check.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace stindex {
namespace {

struct MigrationMetrics {
  Counter* chunks;
  Counter* segments;
  Counter* applied;
};

const MigrationMetrics& Metrics() {
  static const MigrationMetrics m = [] {
    MetricRegistry& r = MetricRegistry::Global();
    return MigrationMetrics{r.GetCounter("live.migration.chunks"),
                            r.GetCounter("live.migration.segments"),
                            r.GetCounter("live.migration.applied_events")};
  }();
  return m;
}

}  // namespace

MigrationPipeline::MigrationPipeline(PprTree* tree) : tree_(tree) {}

size_t MigrationPipeline::Enqueue(const LiveIndex::SealedChunk& chunk) {
  TraceSpan span("live", "migrate_seal");
  span.Arg("object", static_cast<int64_t>(chunk.object));
  const std::vector<SegmentRecord> records =
      ApplySplits(chunk.object, chunk.rects, chunk.start, chunk.cuts);
  for (const SegmentRecord& record : records) {
    const PprDataId id = static_cast<PprDataId>(segments_.size());
    segments_.push_back(record);
    insert_pending_.insert(id);
    Queue(id, /*is_insert=*/true);
    Queue(id, /*is_insert=*/false);
  }
  Metrics().chunks->Add(1);
  Metrics().segments->Add(records.size());
  return records.size();
}

void MigrationPipeline::Queue(PprDataId id, bool is_insert) {
  const TimeInterval& life = segments_[static_cast<size_t>(id)].box.interval;
  events_.push(Event{is_insert ? life.start : life.end, is_insert, id});
}

void MigrationPipeline::Apply(const Event& event) {
  if (event.is_insert) {
    const SegmentRecord& record = segments_[static_cast<size_t>(event.id)];
    tree_->Insert(record.box.rect, event.time, event.id);
    insert_pending_.erase(event.id);
  } else {
    tree_->Delete(event.id, event.time);
  }
  ++applied_events_;
  Metrics().applied->Add(1);
}

void MigrationPipeline::Advance(Time watermark) {
  while (!events_.empty() && events_.top().time < watermark) {
    const Event event = events_.top();
    events_.pop();
    Apply(event);
  }
}

void MigrationPipeline::Drain() {
  while (!events_.empty()) {
    const Event event = events_.top();
    events_.pop();
    Apply(event);
  }
}

void MigrationPipeline::RetargetAfterPack(PprTree* tree) {
  // The queue keeps the insert-pending ids' events; the deletes of ids
  // whose insert went into the now-frozen layer are dropped.
  events_ = std::priority_queue<Event, std::vector<Event>, EventAfter>();
  for (PprDataId id : insert_pending_) {
    Queue(id, /*is_insert=*/true);
    Queue(id, /*is_insert=*/false);
  }
  tree_ = tree;
}

void MigrationPipeline::EncodeState(ByteSink* out) const {
  std::vector<PprDataId> ids(insert_pending_.begin(), insert_pending_.end());
  std::sort(ids.begin(), ids.end());
  out->Write(static_cast<uint64_t>(ids.size()));
  for (PprDataId id : ids) out->Write(id);
  out->Write(static_cast<uint64_t>(applied_events_));
}

Status MigrationPipeline::DecodeState(std::vector<SegmentRecord> segments,
                                      ByteSource* in) {
  STINDEX_CHECK_MSG(segments_.empty() && events_.empty(),
                    "checkpoint restore into a non-empty pipeline");
  segments_ = std::move(segments);
  uint64_t count = 0;
  if (!in->Read(&count)) {
    return Status::InvalidArgument("checkpoint: truncated pending set");
  }
  // Each listed id takes sizeof(PprDataId) bytes of what is left.
  if (count > in->remaining() / sizeof(PprDataId)) {
    return Status::InvalidArgument(
        "checkpoint: pending set of " + std::to_string(count) +
        " ids overruns the " + std::to_string(in->remaining()) +
        " metadata bytes left");
  }
  for (uint64_t i = 0; i < count; ++i) {
    PprDataId id = 0;
    STINDEX_CHECK(in->Read(&id));  // the count fits the bytes left
    if (static_cast<size_t>(id) >= segments_.size()) {
      return Status::InvalidArgument("checkpoint: pending id " +
                                     std::to_string(id) +
                                     " beyond the segment list");
    }
    // A duplicate would queue its events twice, and the second apply
    // would hit a record the tree already holds.
    if (!insert_pending_.insert(id).second) {
      return Status::InvalidArgument("checkpoint: pending id " +
                                     std::to_string(id) + " listed twice");
    }
    Queue(id, /*is_insert=*/true);
    Queue(id, /*is_insert=*/false);
  }
  // A record alive in the active tree awaits its delete.
  for (PprDataId id : tree_->AliveRecords()) {
    if (static_cast<size_t>(id) >= segments_.size()) {
      return Status::InvalidArgument("checkpoint: alive record " +
                                     std::to_string(id) +
                                     " beyond the segment list");
    }
    if (insert_pending_.count(id) != 0) {
      return Status::InvalidArgument("checkpoint: alive record " +
                                     std::to_string(id) +
                                     " is also insert-pending");
    }
    Queue(id, /*is_insert=*/false);
  }
  uint64_t applied = 0;
  if (!in->Read(&applied)) {
    return Status::InvalidArgument("checkpoint: truncated pipeline state");
  }
  applied_events_ = static_cast<size_t>(applied);
  return Status::OK();
}

void MigrationPipeline::CollectPending(const Rect2D& area,
                                       const TimeInterval& range,
                                       std::vector<ObjectId>* out) const {
  const STBox query(area, range);
  for (const PprDataId id : insert_pending_) {
    if (segments_[static_cast<size_t>(id)].box.Intersects(query)) {
      out->push_back(ObjectOf(id));
    }
  }
}

}  // namespace stindex
