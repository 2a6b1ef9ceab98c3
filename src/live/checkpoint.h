#ifndef STINDEX_LIVE_CHECKPOINT_H_
#define STINDEX_LIVE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/segment.h"
#include "live/wal.h"
#include "storage/page_backend.h"
#include "util/bytes.h"
#include "util/status.h"

namespace stindex {

// The commit record of a live-tier checkpoint, stored in the journal
// backend's slots 0 and 1 (checkpoint N writes slot N % 2, so a torn
// header write can never destroy the previous checkpoint — the other
// slot still holds it, CRC-valid). A checkpoint consists of:
//
//   * the segment chain, the migrated segments no pack froze (below);
//   * a chain of kCheckpointPage pages carrying the serialized metadata,
//     rewritten by every checkpoint, which streams it into the chain a
//     page at a time (CheckpointMetaWriter):
//       u64 frozen layer count
//       per frozen layer, oldest first: tree meta (size, clock, root
//         journal), u32 superblock checksum and u64 length + bytes of the
//         path of its snapshot file, as given to LiveTier::PackHistorical
//       the migration pipeline: i64 W, the watermark of its last
//         Advance, and i64 W_pack, the watermark at the last pack
//       the live index (open buffers, last instants);
//   * this header, whose durable write *is* the commit point.
//
// The active tree writes no page: it is derived state. A PPR-tree is a
// function of its records replayed in (time, deletes-first, id) order,
// and the active tree holds exactly the events before W of the segments
// that start at or after W_pack, so recovery replays those
// (ReplayPprEvents) into a tree byte-identical to the one checkpointed
// and queues the rest (MigrationPipeline::DecodeState).
//
// A frozen layer is not in the journal either: a packed layer never
// changes, so the checkpoint names its snapshot file, and recovery maps
// that file again (MmapSnapshotBackend::Open verifies every page) and
// refuses it unless its superblock checksum is the one named. The file
// holds the layer's records too — the object of each of its ids and the
// true end of each record alive at the pack (FrozenRecords, the
// snapshot's attachment, which the checksums cover) — so the segment
// chain keeps only the segments no pack froze. The snapshot files a
// committed checkpoint names must outlive it; the tier never deletes
// one, and refuses to checkpoint while a layer's path no longer names
// the file it maps.
//
// A checkpoint never writes a slot the previous one owns, and syncs all
// its pages before the header is written, so a valid header always
// points at complete, durable state, and a crash before the header
// leaves the previous checkpoint intact. Once the header commits, the
// previous checkpoint's slots that the new one did not inherit are
// released to the slot allocator: its metadata chain, a re-sealed
// segment tail page and the segment pages a pack retired. Everything a
// failed checkpoint left behind is unreferenced debris, whose slots
// recovery's allocator holds free.
//
// The segment chain holds the migrated segments from the header's
// segment_base — the segment table's base, the lowest id no pack froze —
// to segment_count, one past the last migrated. Page k, a kSegmentPage,
// covers ids [k * kSegmentsPerPage, (k + 1) * kSegmentsPerPage), and the
// chain keeps the pages from the one covering segment_base to the last.
// Each holds the ids of its range from some first one to the range's end
// (the last page: to segment_count): every page but the chain's first
// holds its whole range, and the first holds at least the ids from
// segment_base. Its payload:
//   u32 page_index  (k)
//   u32 prev_slot   (page k - 1's slot when the page was written;
//                    kInvalidPage when it was the chain's first. On the
//                    chain's first page it may name a retired page, and
//                    recovery does not follow it.)
//   u32 count       (the ids it holds: the last `count` of its range)
//   count x {u32 object, f64 xlo, ylo, xhi, yhi, i64 start, end}
// A checkpoint writes only the segments migrated since the previous one:
// it re-seals the previous last page, if partial, with new segments
// appended into a fresh slot, and writes further pages after it. After a
// pack it first releases every page whose segments all lie below the new
// base. No page it keeps is rewritten. The header names the last page,
// whose backward links reach the first.
//
// Recovery reads the header with the highest sequence, the metadata
// chain, every frozen layer's snapshot file, and the segment chain from
// its last page back, decoding each page straight into its place in the
// segment table, which starts at segment_base; then it replays the
// active tree. The checkpoint owns every slot it references, inherited
// or fresh; every other data slot is journal tail or debris.

// The checkpoint layout this build writes and reads. Layout 1, which
// carried the segment table in the metadata stream, had no layout field
// (it reads as 0); layout 2 copied every frozen layer's pages into the
// journal and kept two more pipeline id sets; layout 3 copied the active
// tree's nodes into the journal; layout 4 kept every migrated segment in
// the segment chain, frozen ones too, and had no segment_base. A journal
// whose newest checkpoint has another layout is refused, naming it.
inline constexpr uint32_t kCheckpointLayout = 5;

struct CheckpointHeader {
  uint64_t checkpoint_seq = 0;  // 0 = no committed checkpoint
  // Journal pages with seq >= this are the post-checkpoint tail replay
  // starts from; everything earlier was truncated (or is stale debris).
  uint64_t wal_start_seq = 1;
  PageId meta_head = kInvalidPage;  // first page of the metadata chain
  uint32_t meta_pages = 0;
  uint64_t meta_bytes = 0;
  uint32_t layout = kCheckpointLayout;
  // The segment chain: its last page, its length, one past the last
  // segment id and the first id it holds.
  PageId segment_tail = kInvalidPage;
  uint32_t segment_pages = 0;
  uint64_t segment_count = 0;
  uint64_t segment_base = 0;
};

// Reads slots 0 and 1 and returns the valid header with the highest
// checkpoint_seq; a header with checkpoint_seq == 0 when neither slot
// holds one (fresh journal, or no checkpoint ever committed). A torn or
// foreign slot — one that reads but fails its envelope — is skipped; a
// slot whose read fails is that read's error (IoError) naming the slot,
// since without it the newer header cannot be told; a newest header of
// another layout is refused with InvalidArgument naming its checkpoint
// and slot.
Result<CheckpointHeader> ReadLatestCheckpointHeader(const PageBackend& backend);

// Writes `header` into its slot (checkpoint_seq % 2). Does not sync —
// the caller syncs to make the commit durable.
Status WriteCheckpointHeader(PageBackend* backend,
                             const CheckpointHeader& header);

// Metadata bytes per kCheckpointPage: its payload after the page's chain
// link (u64 checkpoint_seq, u32 page_index, u32 next_slot, u32
// byte_count).
inline constexpr size_t kMetaBytesPerPage = 4068;

// Streams a checkpoint's metadata into a chain of kCheckpointPage pages
// in freshly acquired slots, holding one page's slice of the stream, so
// the stream is never whole in memory. The first page's slot is
// acquired on construction. When a byte arrives for the next page, the
// sink acquires that page's slot, writes the full page with the link to
// it, and carries on; Finish writes the last page. A stream that ends on
// a page boundary adds no empty page, and an empty stream is one empty
// page. Does not sync.
class CheckpointMetaWriter final : public ByteSink {
 public:
  CheckpointMetaWriter(PageBackend* backend, WalSlotAllocator* allocator,
                       uint64_t checkpoint_seq);

  void WriteBytes(const void* data, size_t size) override;

  // Writes the last page, fills header->meta_* and appends the chain's
  // slots to `slots`. The first failed page write is the result; no page
  // is written after it.
  Status Finish(CheckpointHeader* header, std::vector<PageId>* slots);

 private:
  // Writes the page being filled, the last of `chain_`, linking it to
  // `next`.
  void WritePage(PageId next);

  PageBackend* backend_;
  WalSlotAllocator* allocator_;
  uint64_t checkpoint_seq_;
  std::vector<PageId> chain_;
  // The stream bytes of the page being filled, the last of `chain_`;
  // every page before it is full.
  uint8_t slice_[kMetaBytesPerPage] = {};
  size_t used_ = 0;
  Status status_;
};

// Reads the metadata chain `header` points at; `slots` receives the
// chain's slots (so recovery can mark them checkpoint-owned).
Result<std::vector<uint8_t>> ReadCheckpointMeta(const PageBackend& backend,
                                                const CheckpointHeader& header,
                                                std::vector<PageId>* slots);

// Where byte `offset` of the metadata stream of `header`, read from the
// chain `slots`, lives — "checkpoint N: metadata byte B (page P, slot S)"
// — for errors found while decoding it.
std::string MetaLocation(const CheckpointHeader& header,
                         const std::vector<PageId>& slots, uint64_t offset);

// Segments per segment-chain page: 52 bytes each after a 12-byte header.
inline constexpr size_t kSegmentsPerPage = 78;

// The segment chain a checkpoint holds: the slot of every page it keeps,
// the one covering id `base` first; the first id it holds, and one past
// the last.
struct SegmentChain {
  std::vector<PageId> pages;
  uint64_t base = 0;
  uint64_t segments = 0;
};

// Makes `chain` hold `segments` from their base on: releases the pages
// whose segments all lie below segments.base(), then writes only the
// segments from max(chain->segments, segments.base()) on — a partial last
// page is re-sealed with new segments appended into a fresh slot, and
// further pages go to fresh slots. The old slots of released and
// re-sealed pages are appended to `superseded`. Fills header->segment_*;
// `*written` counts the pages written. Does not sync.
Status AppendSegmentChain(PageBackend* backend, WalSlotAllocator* allocator,
                          const SegmentTable& segments,
                          SegmentChain* chain, CheckpointHeader* header,
                          std::vector<PageId>* superseded, size_t* written);

// Reads the segment chain `header` names into `segments`, a table from
// header.segment_base to header.segment_count, page by page from the
// last; `chain` receives its slots.
Status ReadSegmentChain(const PageBackend& backend,
                        const CheckpointHeader& header, SegmentTable* segments,
                        SegmentChain* chain);

}  // namespace stindex

#endif  // STINDEX_LIVE_CHECKPOINT_H_
