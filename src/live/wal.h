#ifndef STINDEX_LIVE_WAL_H_
#define STINDEX_LIVE_WAL_H_

#include <cstdint>
#include <functional>
#include <set>
#include <unordered_set>
#include <vector>

#include "geometry/rect.h"
#include "storage/page_backend.h"
#include "storage/page_codec.h"
#include "trajectory/trajectory.h"
#include "util/status.h"

namespace stindex {

// One logical record in the live-tier write-ahead log.
//
// The log is the durable form of the *input stream*, not of the derived
// state: kObserve/kEnd records replay the movement updates through the
// same code that applied them originally, and kSeal records pin down
// exactly where the migration pipeline sealed a chunk, so replay is
// log-driven rather than re-deriving threshold decisions (whose inputs —
// the unacknowledged tail — may be partially lost). kCheckpoint marks
// where a checkpoint *began*; a committed checkpoint truncates the log
// up to (and including) its marker, so replay only ever sees a marker
// whose checkpoint failed to commit — and ignores it.
struct WalRecord {
  enum class Kind : uint8_t {
    kObserve = 1,     // object occupied `rect` at instant `time`
    kEnd = 2,         // object's life ended; `time` is one past its last
                      // instant
    kSeal = 3,        // object's buffer was sealed; `time` is the chunk's
                      // first instant, `segments` the number of records
                      // produced
    kCheckpoint = 4,  // a checkpoint with sequence `time` started here
  };

  Kind kind = Kind::kObserve;
  ObjectId object = 0;
  Time time = 0;
  Rect2D rect;            // kObserve only
  uint32_t segments = 0;  // kSeal only

  static WalRecord Observe(ObjectId object, Time time, const Rect2D& rect) {
    WalRecord r;
    r.kind = Kind::kObserve;
    r.object = object;
    r.time = time;
    r.rect = rect;
    return r;
  }
  static WalRecord End(ObjectId object, Time time) {
    WalRecord r;
    r.kind = Kind::kEnd;
    r.object = object;
    r.time = time;
    return r;
  }
  static WalRecord Seal(ObjectId object, Time first_instant,
                        uint32_t segments) {
    WalRecord r;
    r.kind = Kind::kSeal;
    r.object = object;
    r.time = first_instant;
    r.segments = segments;
    return r;
  }
  static WalRecord Checkpoint(uint64_t sequence) {
    WalRecord r;
    r.kind = Kind::kCheckpoint;
    r.time = static_cast<Time>(sequence);
    return r;
  }

  bool operator==(const WalRecord& o) const;
};

// The journal backend's slot map: slots 0 and 1 are the two alternating
// checkpoint header slots (see live/checkpoint.h); everything from
// kWalFirstDataSlot up is WAL pages, checkpoint segment chain pages and
// checkpoint metadata, allocated and recycled through WalSlotAllocator.
inline constexpr PageId kWalFirstDataSlot = 2;

// A flushed journal page: its position in the logical log (`seq`) and
// the backend slot holding it. Truncation releases slots, so consecutive
// sequence numbers need not sit in consecutive slots.
struct WalPageRef {
  uint64_t seq = 0;
  PageId slot = 0;
};

// The one record of which journal data slots are free: the backend only
// stores pages, and a released slot keeps its bytes until a later write
// reuses it. Hands out the lowest free slot first, so truncation keeps
// the file's high-water mark bounded — released slots are recycled
// before the file grows — and a given sequence of acquires and releases
// always writes the same slots. Rebuilt at open from the slots the
// journal still needs (LiveTier::Recover).
class WalSlotAllocator {
 public:
  WalSlotAllocator() = default;
  // The allocator of a journal of `slot_count` slots: every slot in
  // `taken` (each below `slot_count`) is in use, every other data slot
  // below `slot_count` is free.
  WalSlotAllocator(size_t slot_count, const std::vector<PageId>& taken);

  PageId Acquire();
  // Returns `slot` to the free slots. Releasing a slot that was never
  // handed out, or one already free, is a checked error.
  void Release(PageId slot);

  // Data slots below the journal's high-water mark held free.
  size_t free_slots() const { return free_.size(); }

 private:
  std::set<PageId> free_;  // released slots below frontier_
  PageId frontier_ = kWalFirstDataSlot;
};

// Appends WalRecords to journal pages. Records accumulate in an
// in-memory page image; a page is written when full, at Flush(), or at
// Commit() (which also fsyncs). Each page carries the monotone sequence
// number of its position in the logical log; slots come from the
// allocator. Committed pages are never rewritten, so the durable log is
// always a record-sequence prefix of the logical log — the invariant
// recovery builds on. TruncateBefore releases the prefix a committed
// checkpoint has made redundant.
//
// Durability contract: a record is durable iff a Commit() issued after
// its Append() returned OK. Callers acknowledge input batches only then.
class WalWriter {
 public:
  // `backend` and `slots` are borrowed and must outlive the writer.
  // `next_seq` is the sequence of the next page to flush — 1 for a fresh
  // log, or WalReplayStats::next_seq to continue a replayed one. `tail`
  // is the replayed log's live pages (WalReplayStats::tail), which
  // TruncateBefore releases when a later checkpoint covers them.
  WalWriter(PageBackend* backend, WalSlotAllocator* slots, uint64_t next_seq,
            std::vector<WalPageRef> tail = {});

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  // Serializes `record` into the open page, flushing it to the backend
  // first if the record does not fit. An I/O failure leaves the writer
  // unusable for further appends of the same logical batch — the caller
  // must treat it as a crash and recover.
  Status Append(const WalRecord& record);

  // Writes the open page (if it holds any records) to its slot. No fsync.
  Status Flush();

  // Flush + fsync. No-op when nothing was appended or flushed since the
  // last Commit.
  Status Commit();

  // Releases the slots of every flushed page with sequence < `seq` to the
  // allocator and returns how many. Only meaningful after the checkpoint
  // covering those pages has committed: the pages stay in their slots
  // until later writes reuse them, and replay then finds them covered.
  size_t TruncateBefore(uint64_t seq);

  // Sequence the next flushed page will carry.
  uint64_t next_seq() const { return next_seq_; }
  // Flushed pages not yet truncated — what replay would read back.
  size_t tail_pages() const { return tail_.size(); }
  uint64_t appended_records() const { return appended_records_; }
  uint64_t pages_written() const { return pages_written_; }
  uint64_t commits() const { return commits_; }

 private:
  Status FlushPage();

  PageBackend* backend_;
  WalSlotAllocator* slots_;
  uint64_t next_seq_;
  std::vector<WalPageRef> tail_;   // flushed live pages, ascending seq
  std::vector<uint8_t> buffered_;  // serialized records of the open page
  uint32_t buffered_count_ = 0;
  bool dirty_since_sync_ = false;
  uint64_t appended_records_ = 0;
  uint64_t pages_written_ = 0;
  uint64_t commits_ = 0;
};

struct WalReplayOptions {
  // Sequence of the first page to replay: 1 for a full replay, the
  // committed checkpoint's wal_start_seq to replay only the tail.
  uint64_t start_seq = 1;
  // Slots owned by the committed checkpoint (segment chain + metadata
  // chain); they hold no journal page.
  std::unordered_set<PageId> owned;
};

struct WalReplayStats {
  uint64_t pages = 0;    // pages replayed cleanly
  uint64_t records = 0;  // records delivered to the callback
  // True when a slot held a page that failed its checksum, or the last
  // journal page decoded short — the torn tail of a crashed append,
  // treated as clean end of log. A sealed page of another kind (a
  // checkpoint's page, or one a released slot still holds) is garbage but
  // not a torn tail.
  bool torn_tail = false;
  uint64_t next_seq = 1;  // sequence for the continuing writer's next page
  // The replayed pages, ascending seq — the continuing writer's tail.
  std::vector<WalPageRef> tail;
  // Scanned slots that are not part of the log: torn pages, never-written
  // slots, segment/metadata pages of an uncommitted or superseded
  // checkpoint, and journal pages the committed checkpoint covers. The
  // allocator the caller builds holds them free.
  std::vector<PageId> garbage;
};

// Redo-only, checkpoint-aware replay: scans every data slot below the
// backend's SlotCount() except `options.owned`, orders the valid journal
// pages by sequence and delivers every record of pages with seq >=
// options.start_seq, in order, to `apply`. The surviving sequences must
// be exactly start_seq, start_seq + 1, ... — a missing interior sequence
// means the log lost a committed page and replay fails with
// InvalidArgument (never a silent truncation). Pages that fail their
// checksum or decode short are debris (a torn tail, a never-written
// slot) and are reported in `garbage`, as are sealed pages of other
// kinds and pages with seq < start_seq, which the checkpoint already
// covers. A non-OK status from `apply` aborts replay with that status.
Result<WalReplayStats> ReplayWal(
    const PageBackend& backend, const WalReplayOptions& options,
    const std::function<Status(const WalRecord&)>& apply);

}  // namespace stindex

#endif  // STINDEX_LIVE_WAL_H_
