#include "live/migration.h"

#include <algorithm>
#include <utility>

#include "core/query_profile.h"
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
    Queue(id, /*is_insert=*/true);
    Queue(id, /*is_insert=*/false);
  }
  Metrics().chunks->Add(1);
  Metrics().segments->Add(records.size());
  return records.size();
}

void MigrationPipeline::Queue(PprDataId id, bool is_insert) {
  const TimeInterval& life = segments_[static_cast<size_t>(id)].box.interval;
  // CollectPending relies on it: every queued insert starts at or after W.
  STINDEX_DCHECK(!is_insert || life.start >= watermark_);
  std::vector<Event>& heap = is_insert ? inserts_ : deletes_;
  heap.push_back(Event{is_insert ? life.start : life.end, id});
  std::push_heap(heap.begin(), heap.end(), EventAfter());
}

std::vector<MigrationPipeline::Event>* MigrationPipeline::NextHeap() {
  if (deletes_.empty()) return inserts_.empty() ? nullptr : &inserts_;
  if (inserts_.empty() || deletes_.front().time <= inserts_.front().time) {
    return &deletes_;
  }
  return &inserts_;
}

void MigrationPipeline::ApplyTop(std::vector<Event>* heap) {
  std::pop_heap(heap->begin(), heap->end(), EventAfter());
  const Event event = heap->back();
  heap->pop_back();
  if (heap == &inserts_) {
    const SegmentRecord& record = segments_[static_cast<size_t>(event.id)];
    tree_->Insert(record.box.rect, event.time, event.id);
  } else {
    tree_->Delete(event.id, event.time);
  }
  Metrics().applied->Add(1);
}

void MigrationPipeline::Advance(Time watermark) {
  STINDEX_DCHECK(watermark >= watermark_);
  watermark_ = watermark;
  for (std::vector<Event>* heap = NextHeap();
       heap != nullptr && heap->front().time < watermark; heap = NextHeap()) {
    ApplyTop(heap);
  }
}

void MigrationPipeline::Drain() {
  watermark_ = kTimeInfinity;
  for (std::vector<Event>* heap = NextHeap(); heap != nullptr;
       heap = NextHeap()) {
    ApplyTop(heap);
  }
}

void MigrationPipeline::RetargetAfterPack(PprTree* tree) {
  // The queue keeps the insert-pending ids' events: those of the
  // segments that start at or after W (every Enqueue since the last
  // Advance starts at or after the live index's watermark, which is at
  // least W), so every queued insert stays. The deletes of ids whose
  // insert went into the now-frozen layer are dropped.
  std::erase_if(deletes_, [this](const Event& event) {
    return segments_[static_cast<size_t>(event.id)].box.interval.start <
           watermark_;
  });
  std::make_heap(deletes_.begin(), deletes_.end(), EventAfter());
  tree_ = tree;
  pack_watermark_ = watermark_;
}

void MigrationPipeline::EncodeState(ByteSink* out) const {
  out->Write(watermark_);
  out->Write(pack_watermark_);
}

Status MigrationPipeline::DecodeState(SegmentTable segments,
                                      PageReader* in) {
  STINDEX_CHECK_MSG(
      segments_.size() == 0 && pending_events() == 0 && tree_->Size() == 0,
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
                                       std::vector<ObjectId>* out,
                                       QueryProfile* profile) const {
  // Every queued insert starts at or after W.
  if (range.end <= watermark_) return;
  if (profile != nullptr) profile->pending_scanned += inserts_.size();
  const STBox query(area, range);
  for (const Event& event : inserts_) {
    if (segments_[static_cast<size_t>(event.id)].box.Intersects(query)) {
      out->push_back(ObjectOf(event.id));
    }
  }
}

}  // namespace stindex
