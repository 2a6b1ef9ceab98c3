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
    delete_pending_.insert(id);
    events_.push(Event{record.box.interval.start, /*is_insert=*/true, id});
    events_.push(Event{record.box.interval.end, /*is_insert=*/false, id});
  }
  Metrics().chunks->Add(1);
  Metrics().segments->Add(records.size());
  return records.size();
}

void MigrationPipeline::Apply(const Event& event) {
  const SegmentRecord& record = segments_[static_cast<size_t>(event.id)];
  if (event.is_insert) {
    tree_->Insert(record.box.rect, event.time, event.id);
    insert_pending_.erase(event.id);
  } else {
    tree_->Delete(event.id, event.time);
    delete_pending_.erase(event.id);
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
  // An id in delete_pending_ but not insert_pending_ had its insert
  // applied to the now-frozen layer; its delete is unappliable from here
  // on. Afterwards delete_pending_ == insert_pending_, so the queue is
  // exactly the fully-pending ids' events — rebuild it the same way
  // DecodeState does, now aimed at the fresh active tree.
  for (PprDataId id : delete_pending_) {
    if (insert_pending_.count(id) == 0) frozen_deletes_.insert(id);
  }
  for (PprDataId id : frozen_deletes_) delete_pending_.erase(id);
  events_ = std::priority_queue<Event, std::vector<Event>, EventAfter>();
  for (PprDataId id : insert_pending_) {
    const STBox& box = segments_[static_cast<size_t>(id)].box;
    events_.push(Event{box.interval.start, /*is_insert=*/true, id});
  }
  for (PprDataId id : delete_pending_) {
    const STBox& box = segments_[static_cast<size_t>(id)].box;
    events_.push(Event{box.interval.end, /*is_insert=*/false, id});
  }
  tree_ = tree;
}

void MigrationPipeline::EncodeState(ByteSink* out) const {
  const auto write_sorted = [out](const std::unordered_set<PprDataId>& set) {
    std::vector<PprDataId> ids(set.begin(), set.end());
    std::sort(ids.begin(), ids.end());
    out->Write(static_cast<uint64_t>(ids.size()));
    for (PprDataId id : ids) out->Write(id);
  };
  write_sorted(insert_pending_);
  write_sorted(delete_pending_);
  write_sorted(frozen_deletes_);
  out->Write(static_cast<uint64_t>(applied_events_));
}

Status MigrationPipeline::DecodeState(std::vector<SegmentRecord> segments,
                                      ByteSource* in) {
  STINDEX_CHECK_MSG(segments_.empty() && events_.empty(),
                    "checkpoint restore into a non-empty pipeline");
  segments_ = std::move(segments);
  // Each listed id takes sizeof(PprDataId) bytes of what is left.
  const auto read_count = [in](const char* what, uint64_t* count) -> Status {
    if (!in->Read(count)) {
      return Status::InvalidArgument(std::string("checkpoint: truncated ") +
                                     what);
    }
    if (*count > in->remaining() / sizeof(PprDataId)) {
      return Status::InvalidArgument(
          std::string("checkpoint: ") + what + " of " +
          std::to_string(*count) + " ids overruns the " +
          std::to_string(in->remaining()) + " metadata bytes left");
    }
    return Status::OK();
  };
  const auto read_set = [&](std::unordered_set<PprDataId>* set,
                            bool is_insert) -> Status {
    uint64_t count = 0;
    Status status = read_count("pending set", &count);
    if (!status.ok()) return status;
    for (uint64_t i = 0; i < count; ++i) {
      PprDataId id = 0;
      if (!in->Read(&id)) {
        return Status::InvalidArgument("checkpoint: truncated pending set");
      }
      if (static_cast<size_t>(id) >= segments_.size()) {
        return Status::InvalidArgument(
            "checkpoint: pending id " + std::to_string(id) +
            " beyond the segment list");
      }
      // A duplicate would queue its event twice, and the second apply
      // would hit a record the tree already holds.
      if (!set->insert(id).second) {
        return Status::InvalidArgument("checkpoint: pending id " +
                                       std::to_string(id) + " listed twice");
      }
      const STBox& box = segments_[static_cast<size_t>(id)].box;
      events_.push(Event{is_insert ? box.interval.start : box.interval.end,
                         is_insert, id});
    }
    return Status::OK();
  };
  Status status = read_set(&insert_pending_, /*is_insert=*/true);
  if (!status.ok()) return status;
  status = read_set(&delete_pending_, /*is_insert=*/false);
  if (!status.ok()) return status;
  // Frozen deletes rebuild the set only — their events are unappliable by
  // construction, so none are queued.
  uint64_t frozen_count = 0;
  status = read_count("frozen-delete set", &frozen_count);
  if (!status.ok()) return status;
  for (uint64_t i = 0; i < frozen_count; ++i) {
    PprDataId id = 0;
    if (!in->Read(&id)) {
      return Status::InvalidArgument("checkpoint: truncated frozen-delete set");
    }
    if (static_cast<size_t>(id) >= segments_.size()) {
      return Status::InvalidArgument("checkpoint: frozen-delete id " +
                                     std::to_string(id) +
                                     " beyond the segment list");
    }
    if (!frozen_deletes_.insert(id).second) {
      return Status::InvalidArgument("checkpoint: frozen-delete id " +
                                     std::to_string(id) + " listed twice");
    }
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

bool MigrationPipeline::ClipToInterval(PprDataId id,
                                       const TimeInterval& range) const {
  if (delete_pending_.count(id) == 0 && frozen_deletes_.count(id) == 0) {
    return true;
  }
  return segments_[static_cast<size_t>(id)].box.interval.Intersects(range);
}

}  // namespace stindex
