#include "live/wal.h"

#include <algorithm>
#include <cstring>

#include "util/check.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace stindex {
namespace {

struct WalMetrics {
  Counter* records;
  Counter* pages;
  Counter* commits;
  Counter* truncated_pages;
  Counter* replayed_records;
  Counter* replayed_pages;
};

const WalMetrics& Metrics() {
  static const WalMetrics m = [] {
    MetricRegistry& r = MetricRegistry::Global();
    return WalMetrics{r.GetCounter("live.wal.records"),
                      r.GetCounter("live.wal.pages"),
                      r.GetCounter("live.wal.commits"),
                      r.GetCounter("live.wal.truncated_pages"),
                      r.GetCounter("live.wal.replayed_records"),
                      r.GetCounter("live.wal.replayed_pages")};
  }();
  return m;
}

// Page payload: [u64 page sequence][u32 record count][records...].
constexpr size_t kPageHeaderBytes = sizeof(uint64_t) + sizeof(uint32_t);

// Serialized sizes (payload bytes) per record kind; a fixed header of
// kind + object + time, plus kind-specific fields.
constexpr size_t kHeaderBytes =
    sizeof(uint8_t) + sizeof(ObjectId) + sizeof(Time);

size_t RecordBytes(const WalRecord& record) {
  switch (record.kind) {
    case WalRecord::Kind::kObserve:
      return kHeaderBytes + 4 * sizeof(double);
    case WalRecord::Kind::kEnd:
      return kHeaderBytes;
    case WalRecord::Kind::kSeal:
      return kHeaderBytes + sizeof(uint32_t);
    case WalRecord::Kind::kCheckpoint:
      return kHeaderBytes;
  }
  return 0;
}

void SerializeRecord(const WalRecord& record, PageWriter* writer) {
  writer->Write(static_cast<uint8_t>(record.kind));
  writer->Write(record.object);
  writer->Write(record.time);
  switch (record.kind) {
    case WalRecord::Kind::kObserve:
      writer->Write(record.rect.xlo);
      writer->Write(record.rect.ylo);
      writer->Write(record.rect.xhi);
      writer->Write(record.rect.yhi);
      break;
    case WalRecord::Kind::kEnd:
      break;
    case WalRecord::Kind::kSeal:
      writer->Write(record.segments);
      break;
    case WalRecord::Kind::kCheckpoint:
      break;
  }
}

// Returns false on a short or malformed payload (the caller decides
// whether that is a torn tail or corruption).
bool DeserializeRecord(PageReader* reader, WalRecord* out) {
  uint8_t kind = 0;
  if (!reader->Read(&kind) || !reader->Read(&out->object) ||
      !reader->Read(&out->time)) {
    return false;
  }
  switch (kind) {
    case static_cast<uint8_t>(WalRecord::Kind::kObserve):
      out->kind = WalRecord::Kind::kObserve;
      return reader->Read(&out->rect.xlo) && reader->Read(&out->rect.ylo) &&
             reader->Read(&out->rect.xhi) && reader->Read(&out->rect.yhi);
    case static_cast<uint8_t>(WalRecord::Kind::kEnd):
      out->kind = WalRecord::Kind::kEnd;
      return true;
    case static_cast<uint8_t>(WalRecord::Kind::kSeal):
      out->kind = WalRecord::Kind::kSeal;
      return reader->Read(&out->segments);
    case static_cast<uint8_t>(WalRecord::Kind::kCheckpoint):
      out->kind = WalRecord::Kind::kCheckpoint;
      return true;
    default:
      return false;  // unknown kind: garbage
  }
}

// True when `page`'s envelope checksum holds, whatever its kind.
bool ChecksumHolds(const uint8_t* page) {
  uint32_t stored = 0;
  std::memcpy(&stored, page, sizeof(stored));
  return stored == Crc32(page + sizeof(stored), kPageSize - sizeof(stored));
}

}  // namespace

bool WalRecord::operator==(const WalRecord& o) const {
  if (kind != o.kind || object != o.object || time != o.time) return false;
  switch (kind) {
    case Kind::kObserve:
      return rect.xlo == o.rect.xlo && rect.ylo == o.rect.ylo &&
             rect.xhi == o.rect.xhi && rect.yhi == o.rect.yhi;
    case Kind::kEnd:
      return true;
    case Kind::kSeal:
      return segments == o.segments;
    case Kind::kCheckpoint:
      return true;
  }
  return false;
}

WalSlotAllocator::WalSlotAllocator(const PageBackend& backend) {
  for (PageId slot = kWalFirstDataSlot;
       slot < static_cast<PageId>(backend.SlotCount()); ++slot) {
    if (backend.IsAllocated(slot)) {
      frontier_ = slot + 1;
    }
  }
  // Holes below the frontier are free.
  for (PageId slot = kWalFirstDataSlot; slot < frontier_; ++slot) {
    if (!backend.IsAllocated(slot)) Release(slot);
  }
}

PageId WalSlotAllocator::Acquire() {
  if (!free_.empty()) {
    std::pop_heap(free_.begin(), free_.end(), std::greater<PageId>());
    const PageId slot = free_.back();
    free_.pop_back();
    return slot;
  }
  return frontier_++;
}

void WalSlotAllocator::Release(PageId slot) {
  STINDEX_CHECK(slot >= kWalFirstDataSlot && slot < frontier_);
  free_.push_back(slot);
  std::push_heap(free_.begin(), free_.end(), std::greater<PageId>());
}

WalWriter::WalWriter(PageBackend* backend, WalSlotAllocator* slots,
                     uint64_t next_seq, std::vector<WalPageRef> tail)
    : backend_(backend),
      slots_(slots),
      next_seq_(next_seq),
      tail_(std::move(tail)) {
  buffered_.reserve(kPagePayloadBytes);
}

Status WalWriter::FlushPage() {
  const PageId slot = slots_->Acquire();
  uint8_t page[kPageSize];
  PageWriter writer = PayloadWriter(page);
  writer.Write(next_seq_);
  writer.Write(buffered_count_);
  writer.WriteBytes(buffered_.data(), buffered_.size());
  SealPage(page, PageKind::kWalPage);
  Status status = backend_->Write(slot, page);
  if (!status.ok()) {
    slots_->Release(slot);
    return status;
  }
  tail_.push_back(WalPageRef{next_seq_, slot});
  ++next_seq_;
  ++pages_written_;
  Metrics().pages->Add(1);
  buffered_.clear();
  buffered_count_ = 0;
  dirty_since_sync_ = true;
  return Status::OK();
}

Status WalWriter::Append(const WalRecord& record) {
  const size_t bytes = RecordBytes(record);
  if (kPageHeaderBytes + buffered_.size() + bytes > kPagePayloadBytes) {
    Status status = FlushPage();
    if (!status.ok()) return status;
  }
  const size_t offset = buffered_.size();
  buffered_.resize(offset + bytes);
  PageWriter writer(buffered_.data() + offset, bytes);
  SerializeRecord(record, &writer);
  ++buffered_count_;
  ++appended_records_;
  Metrics().records->Add(1);
  return Status::OK();
}

Status WalWriter::Flush() {
  if (buffered_count_ == 0) return Status::OK();
  return FlushPage();
}

Status WalWriter::Commit() {
  if (buffered_count_ > 0) {
    Status status = FlushPage();
    if (!status.ok()) return status;
  }
  if (!dirty_since_sync_) return Status::OK();
  TraceSpan span("live", "wal_commit");
  Status status = backend_->Sync();
  if (!status.ok()) return status;
  dirty_since_sync_ = false;
  ++commits_;
  Metrics().commits->Add(1);
  return Status::OK();
}

Status WalWriter::TruncateBefore(uint64_t seq, size_t* freed) {
  *freed = 0;
  // tail_ is ascending by seq, so the pages to free are a prefix. Freeing
  // before erasing keeps a crash mid-loop recoverable: replay treats an
  // already-freed prefix page as covered by the checkpoint, and a
  // not-yet-freed one as stale garbage it frees itself.
  size_t cut = 0;
  for (; cut < tail_.size() && tail_[cut].seq < seq; ++cut) {
    Status status = backend_->Free(tail_[cut].slot);
    if (!status.ok()) {
      tail_.erase(tail_.begin(), tail_.begin() + static_cast<long>(cut));
      return status;
    }
    slots_->Release(tail_[cut].slot);
    ++*freed;
  }
  tail_.erase(tail_.begin(), tail_.begin() + static_cast<long>(cut));
  Metrics().truncated_pages->Add(*freed);
  return Status::OK();
}

Result<WalReplayStats> ReplayWal(
    const PageBackend& backend, const WalReplayOptions& options,
    const std::function<Status(const WalRecord&)>& apply) {
  TraceSpan span("live", "wal_replay");
  WalReplayStats stats;
  stats.next_seq = options.start_seq;

  // Pass 1: classify every allocated data slot. A slot holds either a
  // valid journal page (keyed by its sequence) or debris — a torn tail,
  // a page an interrupted truncation failed to free, the pages of a
  // checkpoint that never committed or of one since superseded.
  struct Candidate {
    uint64_t seq = 0;
    PageId slot = 0;
    std::vector<WalRecord> records;
    bool malformed = false;  // valid envelope, short record payload
  };
  std::vector<Candidate> candidates;
  uint8_t page[kPageSize];
  for (PageId slot = kWalFirstDataSlot;
       slot < static_cast<PageId>(backend.SlotCount()); ++slot) {
    if (!backend.IsAllocated(slot) || options.owned.count(slot) != 0) continue;
    Status status = backend.Read(slot, page);
    if (!status.ok()) return status;  // environment failure, not corruption
    Result<PageReader> payload =
        OpenPagePayload(page, PageKind::kWalPage, slot);
    if (!payload.ok()) {
      // A sealed page of another kind is a slot the journal freed, such
      // as a superseded checkpoint's metadata page, whose bytes a page
      // file keeps; only a page that fails its checksum is torn.
      if (!ChecksumHolds(page)) stats.torn_tail = true;
      stats.garbage.push_back(slot);
      continue;
    }
    PageReader reader = payload.value();
    Candidate candidate;
    candidate.slot = slot;
    uint32_t count = 0;
    bool well_formed = reader.Read(&candidate.seq) && reader.Read(&count);
    // A CRC-valid page cannot claim more records than its payload holds:
    // every record takes at least its kind + object + time header.
    if (well_formed && count > reader.remaining() / kHeaderBytes) {
      return Status::InvalidArgument(
          "wal: page in slot " + std::to_string(slot) + " (seq " +
          std::to_string(candidate.seq) + ") claims " + std::to_string(count) +
          " records, more than its payload holds");
    }
    if (well_formed) {
      candidate.records.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        WalRecord record;
        if (!DeserializeRecord(&reader, &record)) {
          well_formed = false;
          break;
        }
        candidate.records.push_back(record);
      }
    }
    if (!well_formed && candidate.seq == 0) {
      // Not even a sequence number: indistinguishable from a torn page.
      stats.torn_tail = true;
      stats.garbage.push_back(slot);
      continue;
    }
    candidate.malformed = !well_formed;
    if (candidate.seq < options.start_seq) {
      // Covered by the committed checkpoint; an interrupted truncation
      // left it behind.
      stats.garbage.push_back(slot);
      continue;
    }
    candidates.push_back(std::move(candidate));
  }

  // Pass 2: the surviving sequences must be exactly start_seq,
  // start_seq + 1, ... — the log's committed pages are a contiguous run,
  // so a hole means a committed page was lost (satellite of truncation:
  // an unexpected gap is an error, never silent data loss).
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) { return a.seq < b.seq; });
  uint64_t expected = options.start_seq;
  for (size_t i = 0; i < candidates.size(); ++i) {
    const Candidate& candidate = candidates[i];
    if (candidate.seq != expected) {
      return Status::InvalidArgument(
          "wal: journal page seq " + std::to_string(expected) +
          " missing (slot " + std::to_string(candidate.slot) + " holds seq " +
          std::to_string(candidate.seq) + ") — log lost a committed page");
    }
    if (candidate.malformed) {
      // The checksum passed but the payload decodes short: only plausible
      // as a torn tail of a half-written final page; anywhere else the
      // log is corrupt.
      if (i + 1 == candidates.size()) {
        stats.torn_tail = true;
        stats.garbage.push_back(candidate.slot);
        break;
      }
      return Status::InvalidArgument("wal page seq " +
                                     std::to_string(candidate.seq) +
                                     ": malformed record payload");
    }
    ++expected;
  }

  // Pass 3: deliver, in sequence order.
  for (const Candidate& candidate : candidates) {
    if (candidate.seq >= expected) break;  // torn tail dropped above
    for (const WalRecord& record : candidate.records) {
      Status status = apply(record);
      if (!status.ok()) return status;
      ++stats.records;
    }
    stats.tail.push_back(WalPageRef{candidate.seq, candidate.slot});
    ++stats.pages;
  }
  stats.next_seq = expected;
  Metrics().replayed_records->Add(stats.records);
  Metrics().replayed_pages->Add(stats.pages);
  return stats;
}

}  // namespace stindex
