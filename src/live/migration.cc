#include "live/migration.h"

#include <utility>

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
  Metrics().applied->Add(1);
}

void MigrationPipeline::Advance(Time watermark) {
  STINDEX_DCHECK(watermark >= watermark_);
  watermark_ = watermark;
  while (!events_.empty() && events_.top().time < watermark) {
    const Event event = events_.top();
    events_.pop();
    Apply(event);
  }
}

void MigrationPipeline::Drain() {
  watermark_ = kTimeInfinity;
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
  pack_watermark_ = watermark_;
}

void MigrationPipeline::EncodeState(ByteSink* out) const {
  out->Write(watermark_);
  out->Write(pack_watermark_);
}

Status MigrationPipeline::DecodeState(std::vector<SegmentRecord> segments,
                                      ByteSource* in) {
  STINDEX_CHECK_MSG(segments_.empty() && events_.empty() && tree_->Size() == 0,
                    "checkpoint restore into a non-empty pipeline");
  if (!in->Read(&watermark_) || !in->Read(&pack_watermark_)) {
    return Status::InvalidArgument("checkpoint: truncated pipeline watermarks");
  }
  if (watermark_ < pack_watermark_) {
    return Status::InvalidArgument(
        "checkpoint: pipeline watermark " + std::to_string(watermark_) +
        " precedes the pack watermark " + std::to_string(pack_watermark_));
  }
  segments_ = std::move(segments);
  {
    TraceSpan span("live", "replay_active_tree");
    ReplayPprEvents(segments_, pack_watermark_, watermark_, tree_);
    span.Arg("records", static_cast<int64_t>(tree_->Size()));
  }
  // Pending: both events of a segment from W on, and the delete of a
  // replayed segment still alive at W. After Drain (W = kTimeInfinity)
  // nothing is.
  if (watermark_ == kTimeInfinity) return Status::OK();
  for (size_t i = 0; i < segments_.size(); ++i) {
    const TimeInterval& life = segments_[i].box.interval;
    const PprDataId id = static_cast<PprDataId>(i);
    if (life.start >= watermark_) {
      insert_pending_.insert(id);
      Queue(id, /*is_insert=*/true);
      Queue(id, /*is_insert=*/false);
    } else if (life.start >= pack_watermark_ && life.end >= watermark_) {
      Queue(id, /*is_insert=*/false);
    }
  }
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
