#include "storage/tree_pages.h"

#include <cstring>
#include <utility>

#include "core/query_profile.h"
#include "util/check.h"
#include "util/trace.h"

namespace stindex {
namespace {

// The prefix every node header starts with (NodePageView).
struct NodeHeaderPrefix {
  int32_t level;
  uint32_t count;
};

NodeHeaderPrefix ReadHeader(const uint8_t* page) {
  NodeHeaderPrefix header;
  std::memcpy(&header, page + kPageEnvelopeBytes, sizeof(header));
  return header;
}

}  // namespace

Status NodePageCheck::Check(const uint8_t* page, PageId id) const {
  Result<PageReader> payload = OpenPagePayload(page, kind_, id);
  if (!payload.ok()) return payload.status();
  const NodeHeaderPrefix header = ReadHeader(page);
  if (header.level < 0 || header.count > max_count_) {
    return Status::InvalidArgument(
        "page " + std::to_string(id) + ": implausible " + name_ +
        " node (level " + std::to_string(header.level) + ", " +
        std::to_string(header.count) + " entries)");
  }
  return Status::OK();
}

TreePages::TreePages(const char* scope, size_t buffer_pages,
                     std::optional<NodePageCheck> check)
    : scope_(scope),
      buffer_pages_(buffer_pages),
      check_(check),
      arena_(std::make_unique<MemoryPageBackend>(scope)) {
  OpenQueryPool();
}

TreePages::~TreePages() = default;

MemoryPageBackend& TreePages::arena() const {
  STINDEX_CHECK_MSG(arena_ != nullptr,
                    "the tree is frozen: it serves a packed snapshot");
  return *arena_;
}

const PageBackend& TreePages::source() const {
  return arena_ != nullptr ? static_cast<const PageBackend&>(*arena_)
                           : *snapshot_;
}

std::unique_ptr<SharedBufferPool> TreePages::NewPool(
    size_t pages, std::string metric_scope) const {
  SharedBufferPoolOptions options;
  options.capacity = pages == 0 ? buffer_pages_ : pages;
  options.metric_scope = std::move(metric_scope);
  // Arena pages are not sealed; snapshot pages are checked per miss.
  return std::make_unique<SharedBufferPool>(
      &source(), frozen() ? &*check_ : nullptr, options);
}

std::unique_ptr<SharedBufferPool> TreePages::NewSharedQueryPool(
    size_t pages) const {
  return NewPool(pages, scope_);
}

std::unique_ptr<SharedBufferPool> TreePages::NewUnpublishedPool(
    size_t pages) const {
  return NewPool(pages, "");
}

void TreePages::OpenQueryPool() {
  session_.reset();
  pool_ = NewSharedQueryPool();
  session_ =
      std::make_unique<SharedBufferPool::Session>(pool_.get(), buffer_pages_);
}

void TreePages::ResetQueryState() const {
  session_->ResetCache();
  session_->ResetStats();
}

Result<std::vector<PageId>> TreePages::Pack(const std::string& path,
                                            RemapChildren remap_children) {
  STINDEX_CHECK_MSG(!frozen(), "tree already packed");
  STINDEX_CHECK_MSG(check_.has_value(), "this tree has no sealed node pages");
  TraceSpan span(scope_, "pack_snapshot");
  span.Arg("pages", static_cast<int64_t>(arena_->LivePageCount()));
  // Bottom-up order: the allocated ids of each level in ascending order,
  // leaves first, so every level occupies one contiguous extent of the
  // snapshot. Freed ids (R*-tree deletes) get no slot.
  std::vector<std::vector<PageId>> levels;
  for (PageId id = 0; id < arena_->SlotCount(); ++id) {
    if (!arena_->IsAllocated(id)) continue;
    const auto level =
        static_cast<size_t>(ReadHeader(arena_->BorrowPage(id)).level);
    if (level >= levels.size()) levels.resize(level + 1);
    levels[level].push_back(id);
  }
  std::vector<PageId> remap(arena_->SlotCount(), kInvalidPage);
  PageId next_slot = 0;
  for (const std::vector<PageId>& ids : levels) {
    for (const PageId id : ids) remap[id] = next_slot++;
  }

  // The snapshot gets remapped, sealed copies; the arena is untouched, so
  // the tree still serves from it if writing or opening the snapshot
  // fails.
  Result<std::unique_ptr<SnapshotWriter>> writer = SnapshotWriter::Create(path);
  if (!writer.ok()) return writer.status();
  for (size_t level = 0; level < levels.size(); ++level) {
    for (const PageId id : levels[level]) {
      Page* page = writer.value()->NextPage();
      std::memcpy(page->bytes, arena_->BorrowPage(id), kPageSize);
      if (level > 0) remap_children(page, remap);
      SealPage(page->bytes, check_->kind());
      Status status = writer.value()->Append(static_cast<uint32_t>(level));
      if (!status.ok()) return status;
    }
  }
  Status status = writer.value()->Finish();
  if (!status.ok()) return status;
  Result<std::unique_ptr<MmapSnapshotBackend>> snapshot =
      MmapSnapshotBackend::Open(path);
  if (!snapshot.ok()) return snapshot.status();

  // Committed: the snapshot becomes the only page source.
  Adopt(std::move(snapshot).value());
  return remap;
}

void TreePages::Adopt(std::unique_ptr<MmapSnapshotBackend> snapshot) {
  STINDEX_CHECK_MSG(!frozen(), "tree already packed");
  STINDEX_CHECK(check_.has_value() && snapshot != nullptr);
  session_.reset();
  pool_.reset();
  arena_.reset();
  snapshot_ = std::move(snapshot);
  OpenQueryPool();
}

void ProfileNode(QueryProfile* profile, int level, size_t leaf_entries) {
  profile->CountNode(level);
  profile->leaf_entries_scanned += leaf_entries;
}

void ProfileQuery(QueryProfile* profile, const IoStats& before,
                  const PageCache& cache, size_t candidates) {
  if (profile == nullptr) return;
  const IoStats& after = cache.stats();
  profile->candidates += candidates;
  profile->pages_missed += after.misses - before.misses;
  profile->pages_hit +=
      (after.accesses - before.accesses) - (after.misses - before.misses);
}

}  // namespace stindex
