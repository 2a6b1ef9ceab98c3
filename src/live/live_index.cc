#include "live/live_index.h"

#include <algorithm>

namespace stindex {
namespace {

std::string ObjTime(ObjectId object, Time t) {
  return "object " + std::to_string(object) + " at t=" + std::to_string(t);
}

}  // namespace

LiveIndex::LiveIndex(LiveIndexOptions options) : options_(options) {}

Status LiveIndex::CheckObserve(ObjectId object, Time t, const Rect2D& rect,
                               bool* would_apply) const {
  *would_apply = false;
  if (!rect.IsValid()) {
    return Status::InvalidArgument(ObjTime(object, t) + ": invalid rectangle");
  }
  const auto last = last_instant_.find(object);
  if (last != last_instant_.end() && t <= last->second) {
    return Status::OK();  // already absorbed (re-ingested tail)
  }
  if (retired_.count(object) != 0) {
    return Status::InvalidArgument(ObjTime(object, t) +
                                   ": observation of an ended object");
  }
  if (t < last_global_) {
    return Status::InvalidArgument(
        ObjTime(object, t) + ": out of order (stream is at t=" +
        std::to_string(last_global_) + ")");
  }
  if (last != last_instant_.end() && t != last->second + 1) {
    return Status::InvalidArgument(
        ObjTime(object, t) + ": non-consecutive instant (previous t=" +
        std::to_string(last->second) + ")");
  }
  *would_apply = true;
  return Status::OK();
}

Status LiveIndex::Observe(ObjectId object, Time t, const Rect2D& rect,
                          bool* applied) {
  Status status = CheckObserve(object, t, rect, applied);
  if (!status.ok() || !*applied) return status;
  auto buffer = buffers_.find(object);
  if (buffer == buffers_.end()) {
    buffer = buffers_.emplace(object, Buffer(t, options_.split)).first;
    by_start_.emplace(t, object);
  }
  buffer->second.rects.push_back(rect);
  buffer->second.splitter.Observe(rect);
  if (buffer->second.rects.size() == options_.capacity) {
    over_capacity_.insert(object);  // an observed object is unretired
  }
  last_instant_[object] = t;
  last_global_ = t;
  ++buffered_instants_;
  return Status::OK();
}

Status LiveIndex::CheckEnd(ObjectId object, Time t, bool* would_apply) const {
  *would_apply = false;
  const auto last = last_instant_.find(object);
  if (last == last_instant_.end()) {
    return Status::InvalidArgument(ObjTime(object, t) +
                                   ": end of an unknown object");
  }
  if (t != last->second + 1) {
    return Status::InvalidArgument(
        ObjTime(object, t) + ": end does not follow the last instant (t=" +
        std::to_string(last->second) + ")");
  }
  if (retired_.count(object) != 0) {
    return Status::OK();  // already ended (re-ingested tail)
  }
  *would_apply = true;
  return Status::OK();
}

Status LiveIndex::End(ObjectId object, Time t, bool* applied) {
  Status status = CheckEnd(object, t, applied);
  if (!status.ok() || !*applied) return status;
  retired_.insert(object);
  if (buffers_.count(object) != 0) {
    over_capacity_.erase(object);
    ended_buffered_.insert(object);
  }
  return Status::OK();
}

Result<LiveIndex::SealedChunk> LiveIndex::Seal(ObjectId object) {
  auto buffer = buffers_.find(object);
  if (buffer == buffers_.end()) {
    return Status::InvalidArgument("object " + std::to_string(object) +
                                   ": seal without a buffered observation");
  }
  SealedChunk chunk;
  chunk.object = object;
  chunk.start = buffer->second.start;
  chunk.rects = std::move(buffer->second.rects);
  chunk.cuts = buffer->second.splitter.cuts();
  buffered_instants_ -= chunk.rects.size();
  buffers_.erase(buffer);
  by_start_.erase({chunk.start, object});
  ended_buffered_.erase(object);
  over_capacity_.erase(object);
  return chunk;
}

Result<LiveIndex::SealPreview> LiveIndex::PreviewSeal(ObjectId object) const {
  const auto buffer = buffers_.find(object);
  if (buffer == buffers_.end()) {
    return Status::InvalidArgument("object " + std::to_string(object) +
                                   ": seal without a buffered observation");
  }
  SealPreview preview;
  preview.start = buffer->second.start;
  // ApplySplits yields one segment per cut plus the tail.
  preview.segments =
      static_cast<uint32_t>(buffer->second.splitter.cuts().size() + 1);
  return preview;
}

void LiveIndex::EncodeState(ByteSink* out) const {
  std::vector<ObjectId> objects = BufferedObjects();
  out->Write(static_cast<uint64_t>(objects.size()));
  for (ObjectId object : objects) {
    const Buffer& buffer = buffers_.at(object);
    out->Write(object);
    out->Write(buffer.start);
    out->Write(static_cast<uint64_t>(buffer.rects.size()));
    for (const Rect2D& rect : buffer.rects) out->Write(rect);
  }
  std::vector<std::pair<ObjectId, Time>> lasts(last_instant_.begin(),
                                               last_instant_.end());
  std::sort(lasts.begin(), lasts.end());
  out->Write(static_cast<uint64_t>(lasts.size()));
  for (const auto& [object, t] : lasts) {
    out->Write(object);
    out->Write(t);
  }
  std::vector<ObjectId> retired(retired_.begin(), retired_.end());
  std::sort(retired.begin(), retired.end());
  out->Write(static_cast<uint64_t>(retired.size()));
  for (ObjectId object : retired) out->Write(object);
  out->Write(last_global_);
}

Status LiveIndex::DecodeState(PageReader* in) {
  STINDEX_CHECK_MSG(buffers_.empty() && last_instant_.empty(),
                    "checkpoint restore into a non-empty index");
  // A count of items that take at least `bytes` each must fit the bytes
  // that are left.
  const auto check_count = [in](const char* what, uint64_t count,
                                size_t bytes) {
    if (count <= in->remaining() / bytes) return Status::OK();
    return Status::InvalidArgument(
        std::string("checkpoint: ") + what + " of " + std::to_string(count) +
        " entries overruns the " + std::to_string(in->remaining()) +
        " metadata bytes left");
  };
  uint64_t buffer_count = 0;
  if (!in->Read(&buffer_count)) {
    return Status::InvalidArgument("checkpoint: truncated live-index state");
  }
  constexpr size_t kMinBufferBytes =
      sizeof(ObjectId) + sizeof(Time) + sizeof(uint64_t) + sizeof(Rect2D);
  Status status =
      check_count("live-buffer list", buffer_count, kMinBufferBytes);
  if (!status.ok()) return status;
  for (uint64_t i = 0; i < buffer_count; ++i) {
    ObjectId object = 0;
    Time start = 0;
    uint64_t rect_count = 0;
    if (!in->Read(&object) || !in->Read(&start) || !in->Read(&rect_count) ||
        rect_count > in->remaining() / sizeof(Rect2D)) {
      return Status::InvalidArgument("checkpoint: truncated live buffer");
    }
    if (rect_count == 0) {
      return Status::InvalidArgument("checkpoint: live buffer of object " +
                                     std::to_string(object) +
                                     " holds no observations");
    }
    const auto [buffer, fresh] =
        buffers_.emplace(object, Buffer(start, options_.split));
    if (!fresh) {
      return Status::InvalidArgument("checkpoint: live buffer of object " +
                                     std::to_string(object) +
                                     " listed twice");
    }
    buffer->second.rects.reserve(static_cast<size_t>(rect_count));
    for (uint64_t j = 0; j < rect_count; ++j) {
      Rect2D rect;
      if (!in->Read(&rect)) {
        return Status::InvalidArgument("checkpoint: truncated live buffer");
      }
      buffer->second.rects.push_back(rect);
      // Re-feeding the splitter reproduces its cuts exactly — it is
      // deterministic in the observed sequence.
      buffer->second.splitter.Observe(rect);
    }
    buffered_instants_ += static_cast<size_t>(rect_count);
  }
  uint64_t last_count = 0;
  if (!in->Read(&last_count)) {
    return Status::InvalidArgument("checkpoint: truncated live-index state");
  }
  status = check_count("last-instant list", last_count,
                       sizeof(ObjectId) + sizeof(Time));
  if (!status.ok()) return status;
  for (uint64_t i = 0; i < last_count; ++i) {
    ObjectId object = 0;
    Time t = 0;
    if (!in->Read(&object) || !in->Read(&t)) {
      return Status::InvalidArgument("checkpoint: truncated live-index state");
    }
    last_instant_[object] = t;
  }
  uint64_t retired_count = 0;
  if (!in->Read(&retired_count)) {
    return Status::InvalidArgument("checkpoint: truncated live-index state");
  }
  status = check_count("retired-object list", retired_count, sizeof(ObjectId));
  if (!status.ok()) return status;
  for (uint64_t i = 0; i < retired_count; ++i) {
    ObjectId object = 0;
    if (!in->Read(&object)) {
      return Status::InvalidArgument("checkpoint: truncated live-index state");
    }
    retired_.insert(object);
  }
  if (!in->Read(&last_global_)) {
    return Status::InvalidArgument("checkpoint: truncated live-index state");
  }
  for (const auto& [object, buffer] : buffers_) {
    // A buffer holds its object's most recent instants, so it ends at the
    // object's last observed instant (unsigned: a hostile start must not
    // overflow the subtraction).
    const auto last = last_instant_.find(object);
    if (last == last_instant_.end() || last->second < buffer.start ||
        static_cast<uint64_t>(last->second) -
                static_cast<uint64_t>(buffer.start) + 1 !=
            buffer.rects.size()) {
      return Status::InvalidArgument(
          "checkpoint: live buffer of object " + std::to_string(object) +
          " does not end at the object's last instant");
    }
    by_start_.emplace(buffer.start, object);
    if (retired_.count(object) != 0) {
      ended_buffered_.insert(object);
    } else if (options_.capacity != 0 &&
               buffer.rects.size() >= options_.capacity) {
      over_capacity_.insert(object);
    }
  }
  return Status::OK();
}

ObjectId LiveIndex::BudgetVictim() const {
  return by_start_.empty() ? kInvalidObject : by_start_.begin()->second;
}

std::vector<ObjectId> LiveIndex::RipeForCatchUp() const {
  std::vector<ObjectId> ripe(ended_buffered_.begin(), ended_buffered_.end());
  const auto ended = static_cast<std::ptrdiff_t>(ripe.size());
  ripe.insert(ripe.end(), over_capacity_.begin(), over_capacity_.end());
  if (options_.duration != 0) {
    // Duration counts global time: a buffer is over it once the clock is
    // `duration` past its first instant, so the over-duration buffers
    // are a prefix of by_start_ (and ripen while *other* objects advance
    // the clock).
    for (const auto& [start, object] : by_start_) {
      if (last_global_ - start + 1 < options_.duration) break;
      if (ended_buffered_.count(object) == 0) ripe.push_back(object);
    }
  }
  std::sort(ripe.begin() + ended, ripe.end());
  ripe.erase(std::unique(ripe.begin() + ended, ripe.end()), ripe.end());
  return ripe;
}

std::vector<ObjectId> LiveIndex::BufferedObjects() const {
  std::vector<ObjectId> objects;
  objects.reserve(buffers_.size());
  for (const auto& [object, buffer] : buffers_) objects.push_back(object);
  std::sort(objects.begin(), objects.end());
  return objects;
}

void LiveIndex::CollectLive(const Rect2D& area, const TimeInterval& range,
                            std::vector<ObjectId>* out) const {
  for (const auto& [object, buffer] : buffers_) {
    const Time end = buffer.start + static_cast<Time>(buffer.rects.size());
    const Time lo = std::max(range.start, buffer.start);
    const Time hi = std::min(range.end, end);
    for (Time t = lo; t < hi; ++t) {
      if (buffer.rects[static_cast<size_t>(t - buffer.start)]
              .Intersects(area)) {
        out->push_back(object);
        break;
      }
    }
  }
}

Time LiveIndex::Watermark() const {
  return by_start_.empty() ? last_global_ : by_start_.begin()->first;
}

}  // namespace stindex
