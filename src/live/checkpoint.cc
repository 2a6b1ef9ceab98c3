#include "live/checkpoint.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "storage/page_codec.h"
#include "util/check.h"

namespace stindex {
namespace {

// kCheckpointPage payload: a chain link plus its slice of the metadata
// byte stream.
//   u64 checkpoint_seq   (guards against mixing chains)
//   u32 page_index       (0-based position in the chain)
//   u32 next_slot        (kInvalidPage on the last page)
//   u32 byte_count
//   bytes...
constexpr size_t kMetaPageHeaderBytes =
    sizeof(uint64_t) + 3 * sizeof(uint32_t);
static_assert(kMetaBytesPerPage == kPagePayloadBytes - kMetaPageHeaderBytes);

// kSegmentPage: {u32 page_index, u32 prev_slot, u32 count} + records.
constexpr size_t kSegmentPageHeaderBytes = 3 * sizeof(uint32_t);
constexpr size_t kSegmentBytes =
    sizeof(ObjectId) + sizeof(Rect2D) + sizeof(TimeInterval);
static_assert(kSegmentBytes == 52);
static_assert(kSegmentsPerPage ==
              (kPagePayloadBytes - kSegmentPageHeaderBytes) / kSegmentBytes);

std::string Named(const CheckpointHeader& header) {
  return "checkpoint " + std::to_string(header.checkpoint_seq) +
         " (header slot " + std::to_string(header.checkpoint_seq % 2) + ")";
}

bool HoldsPage(const PageBackend& backend, PageId slot) {
  return slot != kInvalidPage &&
         static_cast<size_t>(slot) < backend.SlotCount();
}

}  // namespace

Result<CheckpointHeader> ReadLatestCheckpointHeader(
    const PageBackend& backend) {
  CheckpointHeader best;
  uint8_t page[kPageSize];
  for (PageId slot = 0; slot < kWalFirstDataSlot; ++slot) {
    if (!HoldsPage(backend, slot)) continue;
    // A slot that cannot be read may hold the newer header: refuse
    // rather than recover from the other one.
    const Status read = backend.Read(slot, page);
    if (!read.ok()) {
      return Status(read.code(), "checkpoint header slot " +
                                     std::to_string(slot) +
                                     " unreadable: " + read.message());
    }
    Result<PageReader> payload =
        OpenPagePayload(page, PageKind::kCheckpointHeader, slot);
    if (!payload.ok()) continue;  // torn or foreign: the other slot decides
    PageReader reader = payload.value();
    CheckpointHeader header;
    if (!reader.Read(&header.checkpoint_seq) ||
        !reader.Read(&header.wal_start_seq) || !reader.Read(&header.meta_head) ||
        !reader.Read(&header.meta_pages) || !reader.Read(&header.meta_bytes) ||
        !reader.Read(&header.layout) || !reader.Read(&header.segment_tail) ||
        !reader.Read(&header.segment_pages) ||
        !reader.Read(&header.segment_count) ||
        !reader.Read(&header.segment_base)) {
      continue;
    }
    if (header.checkpoint_seq > best.checkpoint_seq) best = header;
  }
  if (best.checkpoint_seq > 0 && best.layout != kCheckpointLayout) {
    const char* why = "";
    if (best.layout < 2) {
      why = ": the journal predates the append-only segment chain";
    } else if (best.layout < 3) {
      why = ": the journal predates named frozen layers";
    } else if (best.layout < 4) {
      why = ": the journal predates derived active trees";
    } else if (best.layout < kCheckpointLayout) {
      why = ": the journal predates frozen layers that hold their records";
    }
    return Status::InvalidArgument(
        Named(best) + " has layout " + std::to_string(best.layout) +
        ", but this build reads layout " + std::to_string(kCheckpointLayout) +
        why);
  }
  return best;
}

Status WriteCheckpointHeader(PageBackend* backend,
                             const CheckpointHeader& header) {
  STINDEX_CHECK(header.checkpoint_seq > 0);
  const PageId slot = static_cast<PageId>(header.checkpoint_seq % 2);
  uint8_t page[kPageSize];
  PageWriter writer = PayloadWriter(page);
  writer.Write(header.checkpoint_seq);
  writer.Write(header.wal_start_seq);
  writer.Write(header.meta_head);
  writer.Write(header.meta_pages);
  writer.Write(header.meta_bytes);
  writer.Write(header.layout);
  writer.Write(header.segment_tail);
  writer.Write(header.segment_pages);
  writer.Write(header.segment_count);
  writer.Write(header.segment_base);
  SealPage(page, PageKind::kCheckpointHeader);
  return backend->Write(slot, page);
}

CheckpointMetaWriter::CheckpointMetaWriter(PageBackend* backend,
                                           WalSlotAllocator* allocator,
                                           uint64_t checkpoint_seq)
    : backend_(backend),
      allocator_(allocator),
      checkpoint_seq_(checkpoint_seq),
      chain_{allocator->Acquire()} {}

void CheckpointMetaWriter::WriteBytes(const void* data, size_t size) {
  const uint8_t* in = static_cast<const uint8_t*>(data);
  while (size > 0) {
    if (used_ == kMetaBytesPerPage) {
      // A byte for the next page: the full page can link to it.
      const PageId next = allocator_->Acquire();
      WritePage(next);
      chain_.push_back(next);
      used_ = 0;
    }
    const size_t count = std::min(size, kMetaBytesPerPage - used_);
    std::memcpy(slice_ + used_, in, count);
    used_ += count;
    in += count;
    size -= count;
  }
}

void CheckpointMetaWriter::WritePage(PageId next) {
  uint8_t page[kPageSize];
  PageWriter writer = PayloadWriter(page);
  writer.Write(checkpoint_seq_);
  writer.Write(static_cast<uint32_t>(chain_.size() - 1));
  writer.Write(next);
  writer.Write(static_cast<uint32_t>(used_));
  writer.WriteBytes(slice_, used_);
  SealPage(page, PageKind::kCheckpointPage);
  if (status_.ok()) status_ = backend_->Write(chain_.back(), page);
}

Status CheckpointMetaWriter::Finish(CheckpointHeader* header,
                                    std::vector<PageId>* slots) {
  WritePage(kInvalidPage);
  if (!status_.ok()) return status_;
  header->meta_head = chain_.front();
  header->meta_pages = static_cast<uint32_t>(chain_.size());
  header->meta_bytes = (chain_.size() - 1) * kMetaBytesPerPage + used_;
  slots->insert(slots->end(), chain_.begin(), chain_.end());
  return Status::OK();
}

Result<std::vector<uint8_t>> ReadCheckpointMeta(const PageBackend& backend,
                                                const CheckpointHeader& header,
                                                std::vector<PageId>* slots) {
  if (header.meta_pages > backend.SlotCount() ||
      header.meta_bytes > uint64_t{header.meta_pages} * kMetaBytesPerPage) {
    return Status::InvalidArgument(
        Named(header) + ": " + std::to_string(header.meta_bytes) +
        " metadata bytes cannot fit its " + std::to_string(header.meta_pages) +
        " metadata pages");
  }
  std::vector<uint8_t> bytes;
  bytes.reserve(static_cast<size_t>(header.meta_bytes));
  uint8_t page[kPageSize];
  PageId slot = header.meta_head;
  for (uint32_t i = 0; i < header.meta_pages; ++i) {
    if (!HoldsPage(backend, slot)) {
      return Status::InvalidArgument(
          "checkpoint " + std::to_string(header.checkpoint_seq) +
          ": metadata chain broken at page " + std::to_string(i));
    }
    Status status = backend.Read(slot, page);
    if (!status.ok()) return status;
    Result<PageReader> payload =
        OpenPagePayload(page, PageKind::kCheckpointPage, slot);
    if (!payload.ok()) return payload.status();
    PageReader reader = payload.value();
    uint64_t seq = 0;
    uint32_t index = 0;
    PageId next = kInvalidPage;
    uint32_t count = 0;
    if (!reader.Read(&seq) || !reader.Read(&index) || !reader.Read(&next) ||
        !reader.Read(&count) || seq != header.checkpoint_seq || index != i ||
        count > reader.remaining()) {
      return Status::InvalidArgument(
          "checkpoint " + std::to_string(header.checkpoint_seq) +
          ": corrupt metadata page " + std::to_string(slot));
    }
    const size_t offset = bytes.size();
    bytes.resize(offset + count);
    // An empty stream's one page holds no byte, and its buffer is null.
    if (count > 0 && !reader.ReadBytes(bytes.data() + offset, count)) {
      return Status::InvalidArgument(
          "checkpoint " + std::to_string(header.checkpoint_seq) +
          ": truncated metadata page " + std::to_string(slot));
    }
    slots->push_back(slot);
    slot = next;
  }
  if (bytes.size() != header.meta_bytes) {
    return Status::InvalidArgument(
        "checkpoint " + std::to_string(header.checkpoint_seq) +
        ": metadata is " + std::to_string(bytes.size()) + " bytes, header says " +
        std::to_string(header.meta_bytes));
  }
  return bytes;
}

std::string MetaLocation(const CheckpointHeader& header,
                         const std::vector<PageId>& slots, uint64_t offset) {
  std::string where = "checkpoint " + std::to_string(header.checkpoint_seq) +
                      ": metadata byte " + std::to_string(offset);
  const uint64_t page = offset / kMetaBytesPerPage;
  if (page < slots.size()) {
    where += " (page " + std::to_string(page) + ", slot " +
             std::to_string(slots[page]) + ")";
  }
  return where;
}

Status AppendSegmentChain(PageBackend* backend, WalSlotAllocator* allocator,
                          const SegmentTable& segments,
                          SegmentChain* chain, CheckpointHeader* header,
                          std::vector<PageId>* superseded, size_t* written) {
  STINDEX_CHECK(chain->base <= segments.base() &&
                chain->segments <= segments.size());
  *written = 0;
  const size_t base = segments.base();
  // A page whose segments all lie below the table's base holds frozen
  // ones only: release it. The pages kept are not rewritten.
  size_t first_page = static_cast<size_t>(chain->base) / kSegmentsPerPage;
  size_t released = 0;
  while (released < chain->pages.size() &&
         std::min<uint64_t>((first_page + released + 1) * kSegmentsPerPage,
                            chain->segments) <= base) {
    ++released;
  }
  const auto kept = chain->pages.begin() + static_cast<ptrdiff_t>(released);
  superseded->insert(superseded->end(), chain->pages.begin(), kept);
  chain->pages.erase(chain->pages.begin(), kept);
  first_page += released;
  chain->base = base;
  // The first page holding a new segment: the partial last page, or the
  // page after the last full one. With no new segment, none.
  size_t first = std::max<size_t>(static_cast<size_t>(chain->segments), base);
  if (first < segments.size()) first -= first % kSegmentsPerPage;
  if (chain->pages.empty()) first_page = first / kSegmentsPerPage;
  uint8_t page[kPageSize];
  for (; first < segments.size(); first += kSegmentsPerPage) {
    const size_t index = first / kSegmentsPerPage;
    const size_t begin = std::max(first, base);
    const size_t end = std::min(first + kSegmentsPerPage, segments.size());
    if (index < first_page + chain->pages.size()) {
      // Only the last page can be partial.
      STINDEX_CHECK(index + 1 == first_page + chain->pages.size());
      superseded->push_back(chain->pages.back());
      chain->pages.pop_back();
    }
    const PageId slot = allocator->Acquire();
    PageWriter writer = PayloadWriter(page);
    writer.Write(static_cast<uint32_t>(index));
    writer.Write(chain->pages.empty() ? kInvalidPage : chain->pages.back());
    writer.Write(static_cast<uint32_t>(end - begin));
    for (size_t i = begin; i < end; ++i) {
      writer.Write(segments[i].object);
      writer.Write(segments[i].box.rect);
      writer.Write(segments[i].box.interval);
    }
    SealPage(page, PageKind::kSegmentPage);
    Status status = backend->Write(slot, page);
    if (!status.ok()) return status;
    chain->pages.push_back(slot);
    ++*written;
  }
  chain->segments = segments.size();
  header->segment_tail =
      chain->pages.empty() ? kInvalidPage : chain->pages.back();
  header->segment_pages = static_cast<uint32_t>(chain->pages.size());
  header->segment_count = chain->segments;
  header->segment_base = chain->base;
  return Status::OK();
}

Status ReadSegmentChain(const PageBackend& backend,
                        const CheckpointHeader& header, SegmentTable* segments,
                        SegmentChain* chain) {
  const uint64_t count = header.segment_count;
  const uint64_t base = header.segment_base;
  const uint64_t pages = header.segment_pages;
  // The pages from the one holding `base` to the last hold [base, count).
  const uint64_t first_page = base / kSegmentsPerPage;
  if (base > count || pages > backend.SlotCount() ||
      pages != (count > base ? count / kSegmentsPerPage +
                                   (count % kSegmentsPerPage != 0) - first_page
                             : 0)) {
    return Status::InvalidArgument(
        Named(header) + ": a segment chain of " + std::to_string(count) +
        " segments from id " + std::to_string(base) + " cannot fill its " +
        std::to_string(pages) + " pages");
  }
  *segments = SegmentTable(static_cast<size_t>(base));
  segments->resize(static_cast<size_t>(count));
  chain->pages.assign(static_cast<size_t>(pages), kInvalidPage);
  chain->base = base;
  chain->segments = count;
  uint8_t page[kPageSize];
  PageId slot = header.segment_tail;
  for (size_t j = static_cast<size_t>(pages); j-- > 0;) {
    const size_t index = static_cast<size_t>(first_page) + j;
    const auto page_error = [&](const std::string& what) {
      return Status::InvalidArgument(
          Named(header) + ": segment page " + std::to_string(index) +
          " in slot " + std::to_string(slot) + " is " + what);
    };
    if (!HoldsPage(backend, slot)) return page_error("past the journal's end");
    Status status = backend.Read(slot, page);
    if (!status.ok()) return status;
    Result<PageReader> payload =
        OpenPagePayload(page, PageKind::kSegmentPage, slot);
    if (!payload.ok()) return payload.status();
    PageReader reader = payload.value();
    // The page holds the last `held` segments of its range, from
    // `lowest` on at least: all of them, or on the chain's first page
    // those from `base` (it may also hold frozen ones before).
    const size_t end =
        std::min((index + 1) * kSegmentsPerPage, static_cast<size_t>(count));
    const size_t lowest =
        j == 0 ? static_cast<size_t>(base) : index * kSegmentsPerPage;
    uint32_t page_index = 0;
    PageId prev = kInvalidPage;
    uint32_t held = 0;
    if (!reader.Read(&page_index) || !reader.Read(&prev) ||
        !reader.Read(&held) || page_index != index ||
        held > end - index * kSegmentsPerPage || held < end - lowest ||
        (j > 0 && prev == kInvalidPage)) {
      return page_error("corrupt");
    }
    for (size_t i = end - held; i < end; ++i) {
      SegmentRecord record;
      if (!reader.Read(&record.object) || !reader.Read(&record.box.rect) ||
          !reader.Read(&record.box.interval)) {
        return page_error("truncated");
      }
      // Recovery replays these into a tree, which takes only a valid
      // rect alive over a non-empty interval from time 0 on.
      const TimeInterval& life = record.box.interval;
      if (!record.box.rect.IsValid() || life.start < 0 ||
          life.start >= life.end) {
        return page_error("corrupt: segment " + std::to_string(i) +
                          " cannot be replayed");
      }
      if (i >= base) (*segments)[i] = record;
    }
    chain->pages[j] = slot;
    slot = prev;
  }
  return Status::OK();
}

}  // namespace stindex
