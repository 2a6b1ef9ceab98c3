#ifndef STINDEX_LIVE_LIVE_TIER_H_
#define STINDEX_LIVE_LIVE_TIER_H_

#include <chrono>
#include <condition_variable>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "live/checkpoint.h"
#include "live/live_index.h"
#include "live/migration.h"
#include "live/wal.h"
#include "pprtree/ppr_tree.h"
#include "storage/page_backend.h"
#include "storage/shared_buffer_pool.h"
#include "util/status.h"

namespace stindex {

struct LiveTierOptions {
  LiveIndexOptions index;
  PprConfig ppr;
  // Frames of the shared query pool over the historical tree (0 = the
  // PprConfig default).
  size_t query_pool_pages = 0;
  // Automatic WAL checkpointing: once a successful Commit leaves at
  // least this many flushed journal pages since the last checkpoint, the
  // tier checkpoints and truncates them. 0 disables the automatic
  // trigger (explicit Checkpoint() calls still work).
  size_t checkpoint_every_pages = 0;
  // Commits are group commits: concurrent Commit() callers coalesce into
  // one fsync. This is how long the commit leader waits before flushing,
  // so later callers can join the batch (0 = flush immediately). Updates
  // keep appending while the leader waits — the lock is released.
  int64_t commit_interval_us = 0;
};

// One movement update of the input stream; `MakeObservationStream` turns
// a trajectory dataset into the tick-ordered sequence of these that a
// position feed would deliver. Fields are ordered widest first, so the
// struct carries only its 3 bytes of tail padding.
struct LiveObservation {
  Time time = 0;
  Rect2D rect;
  ObjectId object = 0;
  bool is_end = false;  // when set, `time` is one past the last instant
};
static_assert(sizeof(LiveObservation) == 48);

// The crash-safe live ingestion tier: movement updates land in an
// in-memory LiveIndex and are journaled to a write-ahead log; ripe
// buffers (capacity / duration / global-budget knobs, LIT's -c/-d/-b)
// seal into segments through the online splitter and migrate into a
// persistent PPR-tree in time order (see MigrationPipeline). Queries
// consult all three layers — historical tree, in-flight migration
// records, live buffers — so an acknowledged update is immediately and
// exactly visible.
//
// Updates journal *before* they apply: a record that never reached the
// WAL is never visible to queries, so a latched tier cannot serve
// phantom state (visibility implies journaled).
//
// Durability contract: an update is acknowledged once a later Commit()
// returns OK. On crash, reopen the WAL backend and Open() again:
// recovery loads the latest committed checkpoint (if any) and redo-
// replays only the journal tail past it (seals are log-driven, so the
// rebuilt tree is byte-identical), and re-ingesting the whole input is
// safe — absorbed records are detected and skipped. Any WAL I/O error
// latches the tier dead (kFailedPrecondition thereafter): the in-memory
// state may be ahead of the log, so the only safe continuation is
// recovery from the durable prefix.
//
// Checkpoints bound the journal: Checkpoint() (or the automatic
// checkpoint_every_pages trigger) writes the segments migrated since the
// previous checkpoint and the layering/pipeline/index state — naming
// each frozen layer's snapshot file rather than copying it, and the
// active tree by the two pipeline watermarks it is replayed from — into
// the journal backend, syncs, commits a checkpoint header, and then frees
// every journal page before the checkpoint and every page of the previous
// checkpoint it did not inherit — so a checkpoint costs what changed,
// and the journal's log and metadata pages stay bounded across
// arbitrarily long streams; the segment chain grows by a page per 78
// migrated segments (see live/checkpoint.h).
//
// Thread safety: one readers-writer lock. Queries take it shared, so any
// number of them run together (historical reads go through a sharded
// SharedBufferPool). Updates, Commit, Finish, Checkpoint and
// PackHistorical take it exclusively, so queries wait while one runs —
// a checkpoint included, whether explicit or triggered inside Commit.
// Only a commit leader's batching wait releases it.
class LiveTier {
 public:
  // `wal_backend` holds the journal: freshly Create()d for a new tier, or
  // re-Open()ed after a crash — Open replays it before returning. A
  // backend whose pages hold neither a checkpoint header nor a journal
  // page is not a journal: Open refuses it (InvalidArgument) and leaves
  // it as it found it.
  static Result<std::unique_ptr<LiveTier>> Open(
      LiveTierOptions options, std::unique_ptr<PageBackend> wal_backend);

  // --- updates (serialized; acknowledged by the next Commit) -----------

  Status Observe(ObjectId object, Time t, const Rect2D& rect);
  Status End(ObjectId object, Time t);
  Status Apply(const LiveObservation& update);

  // Makes every update since the last Commit durable. Concurrent callers
  // coalesce into one fsync (see LiveTierOptions::commit_interval_us).
  Status Commit();

  // Persists the tier state into the journal backend — what changed since
  // the previous checkpoint, inheriting the rest — and truncates every
  // journal page it covers. Holds the tier lock exclusively: queries and
  // updates wait until it returns. FailedPrecondition, naming the layer
  // and the path, when a frozen layer's snapshot path no longer names the
  // file the layer maps (deleted or replaced): the checkpoint writes
  // nothing and the tier stays usable, and so does a Commit whose
  // automatic trigger it was, though that Commit returns the refusal.
  Status Checkpoint();

  // End of stream: seals every remaining buffer, drains the migration
  // pipeline into the tree and commits. The tier is frozen afterwards
  // (further updates are kFailedPrecondition; queries keep working).
  Status Finish();

  // Packs the current historical tree into a read-only mmap snapshot at
  // `path` and freezes it as a layer served zero-copy; a fresh active
  // tree takes over migration (deletes of records already in the frozen
  // layer are clipped at query time forever — see
  // MigrationPipeline::RetargetAfterPack). Queries consult every frozen
  // layer plus the active tree, so answers are unchanged. The pack is
  // not WAL-journaled: a crash before the next checkpoint recovers to
  // the pre-pack layering with identical answers; the next checkpoint
  // persists the layering by naming the file — `path` as given, so a
  // relative path resolves against the working directory at recovery —
  // and its superblock checksum, and recovery maps the file again. The
  // tier never deletes a snapshot: the file must outlive every
  // checkpoint that names it. InvalidArgument, naming `path`, when it
  // names the file a frozen layer serves. Allowed after Finish() (the
  // tier stays finished); refused once the tier is latched.
  Status PackHistorical(const std::string& path);

  // --- queries (exact over acknowledged and in-flight updates) ---------

  // `profile` (optional) accumulates EXPLAIN counts across every layer
  // the query consulted — the slow-query log's capture payload.
  void SnapshotQuery(const Rect2D& area, Time t, std::vector<ObjectId>* out,
                     QueryProfile* profile = nullptr) const;
  // Objects occupying `area` at any instant of [range.start, range.end);
  // sorted, de-duplicated.
  void IntervalQuery(const Rect2D& area, const TimeInterval& range,
                     std::vector<ObjectId>* out,
                     QueryProfile* profile = nullptr) const;

  // --- introspection ----------------------------------------------------

  // The *active* persistent tree (frozen packed layers excluded). Only
  // stable while no update runs concurrently; the differential tests
  // compare it against a batch-built tree after Finish().
  const PprTree& historical() const { return *tree_; }
  // Frozen packed layers currently serving queries, and the tree of layer
  // `i` (oldest first; stable while no pack runs concurrently).
  size_t frozen_layers() const;
  const PprTree& frozen_layer(size_t i) const { return *frozen_.at(i).tree; }
  // Segments migrated so far, in migration order (PprDataId = index).
  const SegmentTable& migrated_segments() const {
    return pipeline_.segments();
  }

  size_t live_objects() const;
  size_t buffered_instants() const;
  size_t pending_events() const;
  uint64_t wal_records() const;
  uint64_t wal_pages() const;
  uint64_t wal_commits() const;
  // Journal pages flushed since the last checkpoint (the replay tail a
  // crash right now would read).
  uint64_t wal_tail_pages() const;
  // Committed checkpoints over this tier's lifetime, including the one
  // recovery loaded (its sequence number).
  uint64_t checkpoint_seq() const;
  // Replay statistics from Open (post-checkpoint tail only).
  const WalReplayStats& recovered() const { return recovered_; }
  // True once a WAL I/O failure latched the tier dead (every further
  // mutation returns kFailedPrecondition). The /healthz signal.
  bool latched() const;

  // One consistent reading of everything /statusz reports about the
  // tier, taken under the shared lock.
  struct Telemetry {
    bool latched = false;
    bool finished = false;
    uint64_t wal_records = 0;
    uint64_t wal_pages = 0;
    uint64_t wal_tail_pages = 0;
    uint64_t wal_commits = 0;
    uint64_t checkpoint_seq = 0;
    double seconds_since_checkpoint = 0.0;  // since Open when none yet
    size_t live_objects = 0;
    size_t buffered_instants = 0;
    size_t pending_events = 0;  // migration queue depth
    size_t frozen_layers = 0;
    // Migration watermark and the newest observed instant: their gap is
    // how far the live buffers trail the stream head.
    Time watermark = 0;
    Time last_time = 0;
    // Query-pool occupancy: the active tree's shared pool first, then
    // one entry per frozen layer's pool, flattened shard by shard.
    std::vector<SharedBufferPool::ShardOccupancy> pool_shards;
  };
  Telemetry GetTelemetry() const;

  // Test hook: the committed checkpoint's copies still match the tier —
  // the segment chain the header names decodes to the migrated segments
  // it covers. FailedPrecondition on a latched tier.
  Status VerifyCheckpointCopies() const;

  // Publishes the tier's deterministic state gauges (live.objects,
  // live.pending_events, live.frozen_layers, live.segments and the
  // segment table's bytes, live.wal.*, watermark lag)
  // to the global registry and flushes the shared pools' counter deltas.
  // Deterministic inputs only — no wall-clock or occupancy readings — so
  // bench reports that dump the registry stay byte-identical.
  void PublishGauges() const;

 private:
  LiveTier(LiveTierOptions options, std::unique_ptr<PageBackend> wal_backend);

  // Loads the latest committed checkpoint (if any), replays the journal
  // tail past it, frees debris and seals anything whose seal record was
  // lost with the log's tail.
  Status Recover();
  Status RestoreFromCheckpoint(const CheckpointHeader& header,
                               std::vector<PageId>* owned_slots);
  Status ApplyReplayRecord(const WalRecord& record);

  // Seals every ripe buffer (the deterministic order documented on
  // LiveIndex::RipeForCatchUp, then budget evictions) and advances the
  // migration pipeline. Runs after every applied update and at recovery
  // catch-up — one code path, so a crashed-and-recovered run seals
  // exactly where an uninterrupted one would.
  Status SealRipe();
  Status SealAndJournal(ObjectId object);

  // Serializes the frozen layers (oldest first, each its meta and
  // snapshot file) + pipeline + index into one byte stream (the
  // checkpoint metadata chain's content, streamed into it).
  void EncodeCheckpointState(ByteSink* out) const;
  // The checkpoint procedure; caller holds the exclusive lock.
  Status CheckpointLocked();
  // Runs CheckpointLocked when the automatic trigger is armed and due.
  Status MaybeCheckpointLocked();

  Status CheckAlive() const;
  Status Latch(Status status);  // records a WAL failure; returns it

  // One packed historical layer: a frozen tree serving from its
  // snapshot's mapping — in every process, since recovery maps the file
  // a checkpoint names again — plus the shared pool queries read it
  // through. Pool declared after the tree so it dies first.
  struct FrozenLayer {
    std::unique_ptr<PprTree> tree;
    std::unique_ptr<SharedBufferPool> pool;
  };

  LiveTierOptions options_;
  std::unique_ptr<PageBackend> wal_backend_;
  WalSlotAllocator slots_;
  std::unique_ptr<WalWriter> writer_;  // set once Recover finishes replay
  LiveIndex index_;
  std::vector<FrozenLayer> frozen_;  // oldest first
  std::unique_ptr<PprTree> tree_;    // the active tree
  MigrationPipeline pipeline_;
  std::unique_ptr<SharedBufferPool> pool_;
  WalReplayStats recovered_;
  // The committed checkpoint: its sequence (0 = none yet), its segment
  // chain, and the slots it owns that the next checkpoint does not
  // inherit, freed once that one commits: its metadata chain, joined
  // while the next checkpoint writes by a re-sealed last segment page.
  uint64_t checkpoint_seq_ = 0;
  SegmentChain segment_chain_;
  std::vector<PageId> superseded_slots_;
  // Group commit: records covered by the last successful fsync, and
  // whether a leader is mid-flush. Joiners wait on commit_cv_.
  uint64_t durable_records_ = 0;
  bool commit_leader_active_ = false;
  mutable std::condition_variable_any commit_cv_;
  // When the last checkpoint committed (Open time until the first one) —
  // the /statusz checkpoint-age reading.
  std::chrono::steady_clock::time_point last_checkpoint_at_;
  bool failed_ = false;
  bool finished_ = false;
  mutable std::shared_mutex mu_;
};

// Flattens a trajectory dataset into the live tier's input: one observe
// per alive instant plus one end per object, ordered by (tick, ends
// before observes, object id) — the order a per-tick position feed
// delivers.
std::vector<LiveObservation> MakeObservationStream(
    const std::vector<Trajectory>& objects);

}  // namespace stindex

#endif  // STINDEX_LIVE_LIVE_TIER_H_
