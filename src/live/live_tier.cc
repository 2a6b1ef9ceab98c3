#include "live/live_tier.h"

#include <algorithm>
#include <chrono>

#include "util/check.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace stindex {
namespace {

struct TierMetrics {
  Counter* observes;
  Counter* ends;
  Counter* dup_skips;
  Counter* queries;
  Counter* checkpoints;
  Counter* truncated_pages;
  Counter* checkpoint_pages_written;
  Counter* checkpoint_pages_inherited;
  Counter* packs;
};

const TierMetrics& Metrics() {
  static const TierMetrics m = [] {
    MetricRegistry& r = MetricRegistry::Global();
    return TierMetrics{r.GetCounter("live.observes"),
                       r.GetCounter("live.ends"),
                       r.GetCounter("live.dup_skips"),
                       r.GetCounter("live.queries"),
                       r.GetCounter("live.wal.checkpoints"),
                       r.GetCounter("live.wal.truncated_pages"),
                       r.GetCounter("live.wal.checkpoint_pages_written"),
                       r.GetCounter("live.wal.checkpoint_pages_inherited"),
                       r.GetCounter("live.packs")};
  }();
  return m;
}

// Maps again the snapshot file `path` that checkpoint `checkpoint_seq`
// names for frozen layer `layer`, whose tree meta `tree` already holds,
// and hands it to the tree. The file must be the one the layer was packed
// into: `checksum` is its superblock's. Errors name the checkpoint, the
// layer and the path.
Status AdoptFrozenLayer(uint64_t checkpoint_seq, size_t layer,
                        const std::string& path, uint32_t checksum,
                        PprTree* tree) {
  const auto layer_error = [&](const Status& error) {
    return Status(error.code(), "checkpoint " + std::to_string(checkpoint_seq) +
                                    ": frozen layer " + std::to_string(layer) +
                                    " snapshot " + path + ": " +
                                    error.message());
  };
  Result<std::unique_ptr<MmapSnapshotBackend>> snapshot =
      MmapSnapshotBackend::Open(path);
  if (!snapshot.ok()) return layer_error(snapshot.status());
  const uint32_t found = snapshot.value()->file().superblock_checksum();
  if (found != checksum) {
    return layer_error(Status::InvalidArgument(
        "superblock checksum " + std::to_string(found) +
        ", the checkpoint names " + std::to_string(checksum) +
        ": the file was replaced"));
  }
  Status status = tree->AdoptSnapshot(std::move(snapshot).value());
  if (!status.ok()) return layer_error(status);
  return Status::OK();
}

}  // namespace

LiveTier::LiveTier(LiveTierOptions options,
                   std::unique_ptr<PageBackend> wal_backend)
    : options_(options),
      wal_backend_(std::move(wal_backend)),
      index_(options.index),
      tree_(std::make_unique<PprTree>(options.ppr)),
      pipeline_(tree_.get()),
      pool_(tree_->NewSharedQueryPool(options.query_pool_pages)),
      last_checkpoint_at_(std::chrono::steady_clock::now()) {}

Result<std::unique_ptr<LiveTier>> LiveTier::Open(
    LiveTierOptions options, std::unique_ptr<PageBackend> wal_backend) {
  if (wal_backend == nullptr) {
    return Status::InvalidArgument("live tier requires a WAL backend");
  }
  std::unique_ptr<LiveTier> tier(
      new LiveTier(options, std::move(wal_backend)));
  Status status = tier->Recover();
  if (!status.ok()) return status;
  return tier;
}

Status LiveTier::Recover() {
  TraceSpan span("live", "recover");
  const Result<CheckpointHeader> header =
      ReadLatestCheckpointHeader(*wal_backend_);
  if (!header.ok()) return header.status();
  WalReplayOptions replay;
  if (header.value().checkpoint_seq > 0) {
    std::vector<PageId> owned;
    Status status = RestoreFromCheckpoint(header.value(), &owned);
    if (!status.ok()) return status;
    checkpoint_seq_ = header.value().checkpoint_seq;
    replay.start_seq = header.value().wal_start_seq;
    replay.owned.insert(owned.begin(), owned.end());
  }
  Result<WalReplayStats> stats = ReplayWal(
      *wal_backend_, replay,
      [this](const WalRecord& record) { return ApplyReplayRecord(record); });
  if (!stats.ok()) return stats.status();
  // Pages without a checkpoint header or a journal page among them are
  // not a journal (a zeroed or foreign file, say): refuse them before
  // the frees below and the writes after, which would start it over.
  if (header.value().checkpoint_seq == 0 && stats.value().pages == 0 &&
      wal_backend_->LivePageCount() > 0) {
    return Status::InvalidArgument(
        "not a live-tier journal: " +
        std::to_string(wal_backend_->LivePageCount()) +
        " pages hold neither a checkpoint header nor a journal page");
  }
  recovered_ = std::move(stats).value();
  // Free the debris replay classified: torn tail pages, journal pages an
  // interrupted truncation left behind, shadow pages of a checkpoint that
  // never committed. They are unreferenced — reclaiming them here is what
  // keeps crash loops from leaking slots.
  for (PageId slot : recovered_.garbage) {
    Status status = wal_backend_->Free(slot);
    if (!status.ok()) return status;
  }
  slots_ = WalSlotAllocator(*wal_backend_);
  writer_ = std::make_unique<WalWriter>(wal_backend_.get(), &slots_,
                                        recovered_.next_seq, recovered_.tail);
  // Seals directly follow their trigger in the log, so only the very tail
  // can have lost them; re-derive those now, through the same policy the
  // uninterrupted run used.
  return SealRipe();
}

Status LiveTier::RestoreFromCheckpoint(const CheckpointHeader& header,
                                       std::vector<PageId>* owned_slots) {
  TraceSpan span("live", "restore_checkpoint");
  span.Arg("checkpoint_seq", static_cast<int64_t>(header.checkpoint_seq));
  std::vector<PageId> meta_slots;
  Result<std::vector<uint8_t>> meta =
      ReadCheckpointMeta(*wal_backend_, header, &meta_slots);
  if (!meta.ok()) return meta.status();
  SegmentTable segments;
  Status status =
      ReadSegmentChain(*wal_backend_, header, &segments, &segment_chain_);
  if (!status.ok()) return status;
  PageReader in(meta.value().data(), meta.value().size());
  // A metadata error names where in the stream decoding stopped.
  const auto meta_error = [&](const Status& error) {
    return Status(error.code(),
                  MetaLocation(header, meta_slots, in.used()) +
                      ": " + error.message());
  };

  // The frozen layers, oldest first: each its tree meta, then the
  // superblock checksum and path of the snapshot file it serves, mapped
  // again.
  uint64_t frozen_count = 0;
  // A layer takes at least its tree meta's three counters and its path
  // length.
  if (!in.Read(&frozen_count) ||
      frozen_count > in.remaining() / (4 * sizeof(uint64_t))) {
    return meta_error(
        Status::InvalidArgument("checkpoint: bad frozen layer count"));
  }
  std::vector<FrozenLayer> frozen(static_cast<size_t>(frozen_count));
  for (size_t l = 0; l < frozen.size(); ++l) {
    frozen[l].tree = std::make_unique<PprTree>(options_.ppr);
    status = frozen[l].tree->DecodeCheckpointMeta(&in);
    if (!status.ok()) return meta_error(status);
    uint32_t checksum = 0;
    uint64_t path_bytes = 0;
    if (!in.Read(&checksum) || !in.Read(&path_bytes) ||
        path_bytes > in.remaining()) {
      return meta_error(Status::InvalidArgument(
          "checkpoint: frozen layer " + std::to_string(l) + " path of " +
          std::to_string(path_bytes) + " bytes overruns the " +
          std::to_string(in.remaining()) + " metadata bytes left"));
    }
    std::string path(static_cast<size_t>(path_bytes), '\0');
    STINDEX_CHECK(in.ReadBytes(path.data(), path.size()));
    status = AdoptFrozenLayer(header.checkpoint_seq, l, path, checksum,
                              frozen[l].tree.get());
    if (!status.ok()) return status;
    frozen[l].pool =
        frozen[l].tree->NewSharedQueryPool(options_.query_pool_pages);
  }
  frozen_ = std::move(frozen);

  // The pipeline rebuilds the active tree from the segments and its
  // watermarks — the tier's tree is still the fresh one it was built with
  // — and queues what is pending.
  status = pipeline_.DecodeState(std::move(segments), &in);
  if (!status.ok()) return meta_error(status);
  status = index_.DecodeState(&in);
  if (!status.ok()) return meta_error(status);
  // Every future segment starts at or after the index's watermark, so
  // the pipeline's cannot be past it: a later event would precede the
  // rebuilt tree's clock.
  if (pipeline_.watermark() > index_.Watermark()) {
    return meta_error(Status::InvalidArgument(
        "checkpoint: pipeline watermark " +
        std::to_string(pipeline_.watermark()) +
        " is past the live index's watermark " +
        std::to_string(index_.Watermark())));
  }
  if (in.remaining() != 0) {
    return meta_error(
        Status::InvalidArgument("checkpoint: trailing metadata bytes"));
  }

  owned_slots->insert(owned_slots->end(), segment_chain_.pages.begin(),
                      segment_chain_.pages.end());
  owned_slots->insert(owned_slots->end(), meta_slots.begin(),
                      meta_slots.end());
  // The next checkpoint rewrites the metadata.
  superseded_slots_ = std::move(meta_slots);
  return Status::OK();
}

Status LiveTier::ApplyReplayRecord(const WalRecord& record) {
  bool applied = false;
  switch (record.kind) {
    case WalRecord::Kind::kObserve: {
      Status status = index_.Observe(record.object, record.time, record.rect,
                                     &applied);
      if (!status.ok()) return status;
      if (!applied) {
        return Status::InvalidArgument(
            "wal replay: duplicate observation of object " +
            std::to_string(record.object));
      }
      return Status::OK();
    }
    case WalRecord::Kind::kEnd: {
      Status status = index_.End(record.object, record.time, &applied);
      if (!status.ok()) return status;
      if (!applied) {
        return Status::InvalidArgument("wal replay: duplicate end of object " +
                                       std::to_string(record.object));
      }
      return Status::OK();
    }
    case WalRecord::Kind::kSeal: {
      // Log-driven seal: do exactly what the original run journaled, and
      // verify the replayed state produces the same chunk.
      Result<LiveIndex::SealedChunk> chunk = index_.Seal(record.object);
      if (!chunk.ok()) {
        return Status::InvalidArgument(
            "wal replay: seal does not match replayed state (" +
            chunk.status().message() + ")");
      }
      if (chunk.value().start != record.time) {
        return Status::InvalidArgument(
            "wal replay: seal of object " + std::to_string(record.object) +
            " starts at t=" + std::to_string(chunk.value().start) +
            ", log says t=" + std::to_string(record.time));
      }
      const size_t produced = pipeline_.Enqueue(chunk.value());
      if (produced != record.segments) {
        return Status::InvalidArgument(
            "wal replay: seal of object " + std::to_string(record.object) +
            " produced " + std::to_string(produced) + " segments, log says " +
            std::to_string(record.segments));
      }
      pipeline_.Advance(index_.Watermark());
      return Status::OK();
    }
    case WalRecord::Kind::kCheckpoint:
      // The marker of a checkpoint that never committed (a committed one
      // truncates its marker away). Its shadow pages are debris replay
      // already routed to `garbage`; the record itself is a no-op.
      return Status::OK();
  }
  return Status::InvalidArgument("wal replay: unknown record kind");
}

Status LiveTier::CheckAlive() const {
  if (failed_) {
    return Status::FailedPrecondition(
        "live tier hit a WAL I/O failure — reopen the journal to recover");
  }
  if (finished_) {
    return Status::FailedPrecondition("live tier is finished");
  }
  return Status::OK();
}

Status LiveTier::Latch(Status status) {
  failed_ = true;
  // Joiners parked in a group commit must see the failure.
  commit_cv_.notify_all();
  return status;
}

Status LiveTier::SealAndJournal(ObjectId object) {
  // Journal first, mutate second: once the seal record is appended the
  // seal must happen (and deterministically will — PreviewSeal told us
  // exactly what the record claims); if the append fails, the buffer is
  // untouched and queries still answer exactly from it.
  Result<LiveIndex::SealPreview> preview = index_.PreviewSeal(object);
  if (!preview.ok()) return preview.status();
  Status status = writer_->Append(WalRecord::Seal(
      object, preview.value().start, preview.value().segments));
  if (!status.ok()) return Latch(status);
  Result<LiveIndex::SealedChunk> chunk = index_.Seal(object);
  STINDEX_CHECK(chunk.ok());
  const size_t produced = pipeline_.Enqueue(chunk.value());
  STINDEX_CHECK(produced == preview.value().segments);
  return Status::OK();
}

Status LiveTier::SealRipe() {
  for (ObjectId object : index_.RipeForCatchUp()) {
    Status status = SealAndJournal(object);
    if (!status.ok()) return status;
  }
  while (index_.OverBudget()) {
    const ObjectId victim = index_.BudgetVictim();
    STINDEX_CHECK(victim != LiveIndex::kInvalidObject);
    Status status = SealAndJournal(victim);
    if (!status.ok()) return status;
  }
  pipeline_.Advance(index_.Watermark());
  return Status::OK();
}

Status LiveTier::Observe(ObjectId object, Time t, const Rect2D& rect) {
  std::unique_lock lock(mu_);
  Status status = CheckAlive();
  if (!status.ok()) return status;
  // Validate, journal, then apply: if the append fails the index was
  // never touched, so a latched tier cannot serve an update that never
  // reached the log (visibility implies journaled).
  bool would_apply = false;
  status = index_.CheckObserve(object, t, rect, &would_apply);
  if (!status.ok()) return status;
  if (!would_apply) {
    Metrics().dup_skips->Add(1);
    return Status::OK();
  }
  status = writer_->Append(WalRecord::Observe(object, t, rect));
  if (!status.ok()) return Latch(status);
  bool applied = false;
  status = index_.Observe(object, t, rect, &applied);
  STINDEX_CHECK(status.ok() && applied);
  Metrics().observes->Add(1);
  return SealRipe();
}

Status LiveTier::End(ObjectId object, Time t) {
  std::unique_lock lock(mu_);
  Status status = CheckAlive();
  if (!status.ok()) return status;
  bool would_apply = false;
  status = index_.CheckEnd(object, t, &would_apply);
  if (!status.ok()) return status;
  if (!would_apply) {
    Metrics().dup_skips->Add(1);
    return Status::OK();
  }
  status = writer_->Append(WalRecord::End(object, t));
  if (!status.ok()) return Latch(status);
  bool applied = false;
  status = index_.End(object, t, &applied);
  STINDEX_CHECK(status.ok() && applied);
  Metrics().ends->Add(1);
  return SealRipe();
}

Status LiveTier::Apply(const LiveObservation& update) {
  if (update.is_end) return End(update.object, update.time);
  return Observe(update.object, update.time, update.rect);
}

Status LiveTier::Commit() {
  std::unique_lock lock(mu_);
  Status status = CheckAlive();
  if (!status.ok()) return status;
  // Group commit. Everything this caller appended is already in the
  // writer, so it is covered once `durable_records_` reaches the current
  // append count.
  const uint64_t target = writer_->appended_records();
  while (true) {
    if (failed_) return CheckAlive();
    if (durable_records_ >= target) return Status::OK();
    if (!commit_leader_active_) break;
    commit_cv_.wait(lock);  // a leader is flushing; join its batch
  }
  // Leader: optionally wait out the batching interval — the lock is
  // released while waiting, so updates keep appending and later Commit()
  // callers park as joiners; one fsync then covers them all.
  commit_leader_active_ = true;
  if (options_.commit_interval_us > 0) {
    commit_cv_.wait_for(lock,
                        std::chrono::microseconds(options_.commit_interval_us));
  }
  status = CheckAlive();  // another thread may have latched while unlocked
  if (status.ok()) {
    const uint64_t covered = writer_->appended_records();
    status = writer_->Commit();
    if (status.ok()) {
      durable_records_ = covered;
    } else {
      Latch(status);
    }
  }
  commit_leader_active_ = false;
  commit_cv_.notify_all();
  if (!status.ok()) return status;
  return MaybeCheckpointLocked();
}

Status LiveTier::MaybeCheckpointLocked() {
  if (options_.checkpoint_every_pages == 0 ||
      writer_->tail_pages() < options_.checkpoint_every_pages) {
    return Status::OK();
  }
  return CheckpointLocked();
}

Status LiveTier::Checkpoint() {
  std::unique_lock lock(mu_);
  Status status = CheckAlive();
  if (!status.ok()) return status;
  return CheckpointLocked();
}

void LiveTier::EncodeCheckpointState(ByteSink* out) const {
  out->Write(static_cast<uint64_t>(frozen_.size()));
  for (const FrozenLayer& layer : frozen_) {
    layer.tree->EncodeCheckpointMeta(out);
    const SnapshotFile& file = layer.tree->backend()->file();
    out->Write(file.superblock_checksum());
    out->Write(static_cast<uint64_t>(file.path().size()));
    out->WriteBytes(file.path().data(), file.path().size());
  }
  pipeline_.EncodeState(out);
  index_.EncodeState(out);
}

Status LiveTier::CheckpointLocked() {
  TraceSpan span("live", "checkpoint");
  const uint64_t seq = checkpoint_seq_ + 1;
  span.Arg("checkpoint_seq", static_cast<int64_t>(seq));

  // 0. The metadata names each frozen layer's snapshot file by path, and
  //    recovery maps that path again: refuse, before writing anything,
  //    while a path no longer names the file its layer maps. The tier
  //    stays intact — nothing it holds is wrong — so this does not latch.
  for (size_t l = 0; l < frozen_.size(); ++l) {
    const SnapshotFile& file = frozen_[l].tree->backend()->file();
    if (!file.IsFile(file.path())) {
      return Status::FailedPrecondition(
          "checkpoint " + std::to_string(seq) + ": frozen layer " +
          std::to_string(l) + " snapshot " + file.path() +
          " no longer names the file the layer maps");
    }
  }

  // 1. Mark the cut in the log and flush, so the state captured below
  //    corresponds exactly to the log prefix before `wal_start_seq`.
  //    The marker only survives if this checkpoint fails to commit —
  //    replay ignores it.
  Status status = writer_->Append(WalRecord::Checkpoint(seq));
  if (!status.ok()) return Latch(status);
  status = writer_->Flush();
  if (!status.ok()) return Latch(status);
  const uint64_t wal_start_seq = writer_->next_seq();

  // 2. Append the segments migrated since the previous checkpoint to the
  //    segment chain, into fresh slots. The previous checkpoint's pages
  //    stay untouched — a crash anywhere before step 5 leaves it intact.
  //    The active tree writes no page: recovery replays it from the
  //    segments (MigrationPipeline::EncodeState), and a frozen layer is
  //    named by its snapshot file.
  CheckpointHeader header;
  header.checkpoint_seq = seq;
  header.wal_start_seq = wal_start_seq;
  size_t segment_pages = 0;
  status = AppendSegmentChain(wal_backend_.get(), &slots_, pipeline_.segments(),
                              &segment_chain_, &header, &superseded_slots_,
                              &segment_pages);
  if (!status.ok()) return Latch(status);
  uint64_t written = segment_pages;
  const uint64_t inherited = segment_chain_.pages.size() - segment_pages;

  // 3. Stream the frozen layers + pipeline + live index into the
  //    metadata chain, a page at a time.
  CheckpointMetaWriter meta(wal_backend_.get(), &slots_, seq);
  EncodeCheckpointState(&meta);
  std::vector<PageId> meta_slots;
  status = meta.Finish(&header, &meta_slots);
  if (!status.ok()) return Latch(status);
  written += meta_slots.size();

  // 4. Everything the header will reference must be durable *before* the
  //    header commits.
  status = wal_backend_->Sync();
  if (!status.ok()) return Latch(status);

  // 5. The commit point: a durable header makes this checkpoint the one
  //    recovery loads.
  status = WriteCheckpointHeader(wal_backend_.get(), header);
  if (!status.ok()) return Latch(status);
  status = wal_backend_->Sync();
  if (!status.ok()) return Latch(status);

  // 6. Truncate: the journal prefix the checkpoint absorbed, and the
  //    previous checkpoint's slots this one did not inherit. A crash
  //    mid-truncation is safe — recovery frees whatever this loop did
  //    not.
  size_t freed = 0;
  status = writer_->TruncateBefore(wal_start_seq, &freed);
  if (!status.ok()) return Latch(status);
  for (PageId slot : superseded_slots_) {
    status = wal_backend_->Free(slot);
    if (!status.ok()) return Latch(status);
    slots_.Release(slot);
    ++freed;
  }
  Metrics().truncated_pages->Add(superseded_slots_.size());
  // The next checkpoint rewrites the metadata.
  superseded_slots_ = std::move(meta_slots);

  checkpoint_seq_ = seq;
  last_checkpoint_at_ = std::chrono::steady_clock::now();
  // The sync at step 4/5 covered every appended record.
  durable_records_ = writer_->appended_records();
  Metrics().checkpoints->Add(1);
  Metrics().checkpoint_pages_written->Add(written);
  Metrics().checkpoint_pages_inherited->Add(inherited);
  span.Arg("pages_written", static_cast<int64_t>(written));
  span.Arg("pages_inherited", static_cast<int64_t>(inherited));
  span.Arg("freed_pages", static_cast<int64_t>(freed));
  return Status::OK();
}

Status LiveTier::PackHistorical(const std::string& path) {
  std::unique_lock lock(mu_);
  // A latched tier must not mutate; a finished one may pack (read path
  // optimization only).
  if (failed_) {
    return Status::FailedPrecondition(
        "live tier hit a WAL I/O failure — reopen the journal to recover");
  }
  // Rewriting the file a frozen layer maps would swap that layer's pages
  // under it.
  for (const FrozenLayer& layer : frozen_) {
    if (layer.tree->backend()->file().IsFile(path)) {
      return Status::InvalidArgument("cannot pack into " + path +
                                     ": a frozen layer serves that file");
    }
  }
  TraceSpan span("live", "pack_historical");
  span.Arg("pages", static_cast<int64_t>(tree_->NodeCount()));
  // The shared pool borrows the arena a successful pack releases; drop
  // it first and rebuild it below.
  pool_.reset();
  Status status = tree_->PackSnapshot(path);
  if (!status.ok()) {
    // A failed pack leaves the tree untouched; keep serving its arena.
    pool_ = tree_->NewSharedQueryPool(options_.query_pool_pages);
    return status;
  }
  FrozenLayer layer;
  layer.tree = std::move(tree_);
  layer.pool = layer.tree->NewSharedQueryPool(options_.query_pool_pages);
  frozen_.push_back(std::move(layer));
  tree_ = std::make_unique<PprTree>(options_.ppr);
  pipeline_.RetargetAfterPack(tree_.get());
  pool_ = tree_->NewSharedQueryPool(options_.query_pool_pages);
  Metrics().packs->Add(1);
  return Status::OK();
}

Status LiveTier::Finish() {
  std::unique_lock lock(mu_);
  Status status = CheckAlive();
  if (!status.ok()) return status;
  for (ObjectId object : index_.BufferedObjects()) {
    status = SealAndJournal(object);
    if (!status.ok()) return status;
  }
  pipeline_.Drain();
  status = writer_->Commit();
  if (!status.ok()) return Latch(status);
  durable_records_ = writer_->appended_records();
  finished_ = true;
  return Status::OK();
}

void LiveTier::IntervalQuery(const Rect2D& area, const TimeInterval& range,
                             std::vector<ObjectId>* out,
                             QueryProfile* profile) const {
  std::shared_lock lock(mu_);
  Metrics().queries->Add(1);
  out->clear();
  std::vector<PprDataId> raw;
  // Every layer holds a disjoint slice of the migrated records: frozen
  // packed layers (served zero-copy from their snapshots) plus the
  // active tree. PprTree::IntervalQuery clears its output vector, so
  // each layer answers into a scratch that is appended to the union.
  std::vector<PprDataId> layer_hits;
  for (const FrozenLayer& layer : frozen_) {
    SharedBufferPool::Session frozen_session(layer.pool.get());
    layer.tree->IntervalQuery(area, range, &frozen_session, &layer_hits,
                              profile);
    raw.insert(raw.end(), layer_hits.begin(), layer_hits.end());
  }
  SharedBufferPool::Session session(pool_.get());
  tree_->IntervalQuery(area, range, &session, &layer_hits, profile);
  raw.insert(raw.end(), layer_hits.begin(), layer_hits.end());
  for (PprDataId id : raw) {
    // A record whose delete is still queued looks alive-to-infinity
    // inside the tree; re-check against the true segment interval.
    if (pipeline_.ClipToInterval(id, range)) {
      out->push_back(pipeline_.ObjectOf(id));
    }
  }
  pipeline_.CollectPending(area, range, out, profile);
  // No open buffer starts before the watermark.
  if (range.end > index_.Watermark()) index_.CollectLive(area, range, out);
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

void LiveTier::SnapshotQuery(const Rect2D& area, Time t,
                             std::vector<ObjectId>* out,
                             QueryProfile* profile) const {
  IntervalQuery(area, TimeInterval(t, t + 1), out, profile);
}

size_t LiveTier::frozen_layers() const {
  std::shared_lock lock(mu_);
  return frozen_.size();
}

size_t LiveTier::live_objects() const {
  std::shared_lock lock(mu_);
  return index_.live_objects();
}

size_t LiveTier::buffered_instants() const {
  std::shared_lock lock(mu_);
  return index_.buffered_instants();
}

size_t LiveTier::pending_events() const {
  std::shared_lock lock(mu_);
  return pipeline_.pending_events();
}

uint64_t LiveTier::wal_records() const {
  std::shared_lock lock(mu_);
  return writer_->appended_records();
}

uint64_t LiveTier::wal_pages() const {
  std::shared_lock lock(mu_);
  return writer_->pages_written();
}

uint64_t LiveTier::wal_commits() const {
  std::shared_lock lock(mu_);
  return writer_->commits();
}

uint64_t LiveTier::wal_tail_pages() const {
  std::shared_lock lock(mu_);
  return writer_->tail_pages();
}

uint64_t LiveTier::checkpoint_seq() const {
  std::shared_lock lock(mu_);
  return checkpoint_seq_;
}

bool LiveTier::latched() const {
  std::shared_lock lock(mu_);
  return failed_;
}

LiveTier::Telemetry LiveTier::GetTelemetry() const {
  std::shared_lock lock(mu_);
  Telemetry telemetry;
  telemetry.latched = failed_;
  telemetry.finished = finished_;
  telemetry.wal_records = writer_->appended_records();
  telemetry.wal_pages = writer_->pages_written();
  telemetry.wal_tail_pages = writer_->tail_pages();
  telemetry.wal_commits = writer_->commits();
  telemetry.checkpoint_seq = checkpoint_seq_;
  telemetry.seconds_since_checkpoint =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    last_checkpoint_at_)
          .count();
  telemetry.live_objects = index_.live_objects();
  telemetry.buffered_instants = index_.buffered_instants();
  telemetry.pending_events = pipeline_.pending_events();
  telemetry.frozen_layers = frozen_.size();
  telemetry.watermark = index_.Watermark();
  telemetry.last_time = index_.last_time();
  for (const auto& occupancy : pool_->ShardOccupancies()) {
    telemetry.pool_shards.push_back(occupancy);
  }
  for (const FrozenLayer& layer : frozen_) {
    for (const auto& occupancy : layer.pool->ShardOccupancies()) {
      telemetry.pool_shards.push_back(occupancy);
    }
  }
  return telemetry;
}

Status LiveTier::VerifyCheckpointCopies() const {
  std::shared_lock lock(mu_);
  if (failed_) {
    return Status::FailedPrecondition(
        "live tier hit a WAL I/O failure — its checkpoint state is unknown");
  }
  const Result<CheckpointHeader> header =
      ReadLatestCheckpointHeader(*wal_backend_);
  if (!header.ok()) return header.status();
  if (header.value().checkpoint_seq != checkpoint_seq_) {
    return Status::InvalidArgument(
        "the journal's newest checkpoint is " +
        std::to_string(header.value().checkpoint_seq) + ", the tier's " +
        std::to_string(checkpoint_seq_));
  }
  if (checkpoint_seq_ == 0) return Status::OK();
  SegmentTable copies;
  SegmentChain chain;
  const Status status =
      ReadSegmentChain(*wal_backend_, header.value(), &copies, &chain);
  if (!status.ok()) return status;
  const SegmentTable& segments = pipeline_.segments();
  if (chain.pages != segment_chain_.pages || copies.size() > segments.size()) {
    return Status::InvalidArgument(
        "the segment chain on disk is not the one the tier holds");
  }
  for (size_t i = 0; i < copies.size(); ++i) {
    if (copies[i].object != segments[i].object ||
        copies[i].box != segments[i].box) {
      return Status::InvalidArgument("segment " + std::to_string(i) +
                                     " differs from its copy in the chain");
    }
  }
  return Status::OK();
}

void LiveTier::PublishGauges() const {
  std::shared_lock lock(mu_);
  MetricRegistry& registry = MetricRegistry::Global();
  registry.GetGauge("live.objects")
      ->Set(static_cast<int64_t>(index_.live_objects()));
  registry.GetGauge("live.buffered_instants")
      ->Set(static_cast<int64_t>(index_.buffered_instants()));
  registry.GetGauge("live.pending_events")
      ->Set(static_cast<int64_t>(pipeline_.pending_events()));
  registry.GetGauge("live.frozen_layers")
      ->Set(static_cast<int64_t>(frozen_.size()));
  const SegmentTable& segments = pipeline_.segments();
  registry.GetGauge("live.segments")
      ->Set(static_cast<int64_t>(segments.size()));
  registry.GetGauge("live.segment_table_bytes")
      ->Set(static_cast<int64_t>(segments.blocks() *
                                 SegmentTable::kBlockBytes));
  registry.GetGauge("live.wal.records")
      ->Set(static_cast<int64_t>(writer_->appended_records()));
  registry.GetGauge("live.wal.pages")
      ->Set(static_cast<int64_t>(writer_->pages_written()));
  registry.GetGauge("live.wal.tail_pages")
      ->Set(static_cast<int64_t>(writer_->tail_pages()));
  registry.GetGauge("live.wal.commits")
      ->Set(static_cast<int64_t>(writer_->commits()));
  registry.GetGauge("live.wal.checkpoint_seq")
      ->Set(static_cast<int64_t>(checkpoint_seq_));
  // How far the migration watermark trails the newest observed instant —
  // stream ticks, not wall time, so the gauge is deterministic.
  registry.GetGauge("live.watermark_lag")
      ->Set(static_cast<int64_t>(index_.last_time() - index_.Watermark()));
  pool_->PublishStats();
  for (const FrozenLayer& layer : frozen_) layer.pool->PublishStats();
}

std::vector<LiveObservation> MakeObservationStream(
    const std::vector<Trajectory>& objects) {
  // One observation per alive instant plus one end per object.
  size_t size = objects.size();
  for (const Trajectory& object : objects) {
    size += static_cast<size_t>(object.Lifetime().Duration());
  }
  std::vector<LiveObservation> stream;
  stream.reserve(size);
  for (const Trajectory& object : objects) {
    const TimeInterval life = object.Lifetime();
    const std::vector<Rect2D> rects = object.Sample();
    for (Time t = life.start; t < life.end; ++t) {
      LiveObservation update;
      update.object = object.id();
      update.time = t;
      update.rect = rects[static_cast<size_t>(t - life.start)];
      stream.push_back(update);
    }
    LiveObservation end;
    end.object = object.id();
    end.time = life.end;
    end.is_end = true;
    stream.push_back(end);
  }
  STINDEX_DCHECK(stream.size() == size);
  std::sort(stream.begin(), stream.end(),
            [](const LiveObservation& a, const LiveObservation& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.is_end != b.is_end) return a.is_end;
              return a.object < b.object;
            });
  return stream;
}

}  // namespace stindex
