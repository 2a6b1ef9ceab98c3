#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/query_profile.h"
#include "hrtree/hr_tree.h"
#include "live/live_tier.h"
#include "pprtree/ppr_tree.h"
#include "rstar/rstar_tree.h"
#include "storage/file_backend.h"
#include "storage/page_backend.h"
#include "storage/page_codec.h"
#include "storage/shared_buffer_pool.h"
#include "storage/snapshot_file.h"
#include "storage/tree_pages.h"
#include "temp_path.h"

namespace stindex {
namespace {

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

TEST(PageCodecTest, RoundTripMixedTypes) {
  std::array<uint8_t, kPageSize> page{};
  PageWriter writer(page.data(), kPageSize);
  writer.Write<int32_t>(-7);
  writer.Write<uint64_t>(0xdeadbeefcafeULL);
  writer.Write(3.14159);
  const char blob[5] = {'a', 'b', 'c', 'd', 'e'};
  writer.WriteBytes(blob, sizeof(blob));
  EXPECT_EQ(writer.used(), 4u + 8u + 8u + 5u);

  PageReader reader(page.data(), kPageSize);
  int32_t i = 0;
  uint64_t u = 0;
  double d = 0.0;
  char out[5];
  EXPECT_TRUE(reader.Read(&i));
  EXPECT_TRUE(reader.Read(&u));
  EXPECT_TRUE(reader.Read(&d));
  EXPECT_TRUE(reader.ReadBytes(out, sizeof(out)));
  EXPECT_EQ(i, -7);
  EXPECT_EQ(u, 0xdeadbeefcafeULL);
  EXPECT_DOUBLE_EQ(d, 3.14159);
  EXPECT_EQ(std::memcmp(out, blob, 5), 0);
}

TEST(PageCodecTest, ReaderStopsAtEnd) {
  std::array<uint8_t, 16> tiny{};
  PageReader reader(tiny.data(), tiny.size());
  uint64_t a = 0, b = 0, c = 0;
  EXPECT_TRUE(reader.Read(&a));
  EXPECT_TRUE(reader.Read(&b));
  EXPECT_FALSE(reader.Read(&c));  // out of bytes
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(PageCodecTest, WriterTracksRemaining) {
  std::array<uint8_t, 32> buffer{};
  PageWriter writer(buffer.data(), buffer.size());
  writer.Write<uint64_t>(1);
  EXPECT_EQ(writer.remaining(), 24u);
  writer.Write<uint64_t>(2);
  writer.Write<uint64_t>(3);
  writer.Write<uint64_t>(4);
  EXPECT_EQ(writer.remaining(), 0u);
}

TEST(PageCodecDeathTest, OverflowAborts) {
  std::array<uint8_t, 8> buffer{};
  PageWriter writer(buffer.data(), buffer.size());
  writer.Write<uint64_t>(1);
  EXPECT_DEATH(writer.Write<uint8_t>(2), "page overflow");
}

TEST(PageCodecTest, NodeFitsInPage) {
  // Both node layouts hold the default fanout plus the one transient
  // overflow entry, with 8-byte-aligned entries that end inside the page.
  const size_t ppr_fanout = PprConfig().max_entries + 1;
  const size_t rstar_fanout = RStarConfig().max_entries + 1;
  EXPECT_GE(PprTree::kNodePageCapacity, ppr_fanout);
  EXPECT_GE(RStarTree::kNodePageCapacity, rstar_fanout);
  EXPECT_EQ(PprTree::kNodeEntryOffset % 8, 0u);
  EXPECT_EQ(RStarTree::kNodeEntryOffset % 8, 0u);
  EXPECT_LE(PprTree::kNodeEntryOffset + ppr_fanout * kNodeEntryBytes,
            kPageSize);
  EXPECT_LE(RStarTree::kNodeEntryOffset + rstar_fanout * kNodeEntryBytes,
            kPageSize);
}

// --- Page envelope (checksum / kind / version) ---

std::array<uint8_t, kPageSize> SealedTestPage(uint64_t value) {
  std::array<uint8_t, kPageSize> page{};
  PageWriter writer = PayloadWriter(page.data());
  writer.Write(value);
  SealPage(page.data(), PageKind::kTest);
  return page;
}

TEST(PageEnvelopeTest, SealAndOpenRoundTrip) {
  std::array<uint8_t, kPageSize> page = SealedTestPage(0xfeedface);
  Result<PageReader> payload =
      OpenPagePayload(page.data(), PageKind::kTest, /*id=*/9);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  uint64_t value = 0;
  PageReader reader = payload.value();
  ASSERT_TRUE(reader.Read(&value));
  EXPECT_EQ(value, 0xfeedfaceu);
}

TEST(PageEnvelopeTest, FlippedPayloadByteFailsChecksum) {
  std::array<uint8_t, kPageSize> page = SealedTestPage(1);
  page[kPageEnvelopeBytes + 100] ^= 0x40;  // one bit, deep in the payload
  const Result<PageReader> payload =
      OpenPagePayload(page.data(), PageKind::kTest, /*id=*/7);
  ASSERT_FALSE(payload.ok());
  EXPECT_EQ(payload.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(Contains(payload.status().message(), "page 7"))
      << payload.status().ToString();
  EXPECT_TRUE(Contains(payload.status().message(), "checksum mismatch"));
}

TEST(PageEnvelopeTest, FlippedChecksumByteFailsChecksum) {
  std::array<uint8_t, kPageSize> page = SealedTestPage(1);
  page[0] ^= 0x01;  // corrupt the stored CRC itself
  EXPECT_FALSE(OpenPagePayload(page.data(), PageKind::kTest, 0).ok());
}

TEST(PageEnvelopeTest, WrongKindRejected) {
  std::array<uint8_t, kPageSize> page = SealedTestPage(1);
  const Result<PageReader> payload =
      OpenPagePayload(page.data(), PageKind::kRStarNode, /*id=*/3);
  ASSERT_FALSE(payload.ok());
  EXPECT_TRUE(Contains(payload.status().message(), "page 3"))
      << payload.status().ToString();
  EXPECT_TRUE(Contains(payload.status().message(), "kind mismatch"));
}

// Stamps codec `version` into a page's envelope and re-seals its checksum,
// so only the version check (not the checksum) can reject the page.
void StampVersion(uint8_t* page, uint16_t version) {
  page[6] = static_cast<uint8_t>(version);
  page[7] = static_cast<uint8_t>(version >> 8);
  const uint32_t crc = Crc32(page + 4, kPageSize - 4);
  page[0] = static_cast<uint8_t>(crc);
  page[1] = static_cast<uint8_t>(crc >> 8);
  page[2] = static_cast<uint8_t>(crc >> 16);
  page[3] = static_cast<uint8_t>(crc >> 24);
}

TEST(PageEnvelopeTest, VersionSkewRejected) {
  std::array<uint8_t, kPageSize> page = SealedTestPage(1);
  StampVersion(page.data(), 99);  // a future codec version
  const Result<PageReader> payload =
      OpenPagePayload(page.data(), PageKind::kTest, /*id=*/5);
  ASSERT_FALSE(payload.ok());
  EXPECT_TRUE(Contains(payload.status().message(), "page 5"))
      << payload.status().ToString();
  EXPECT_TRUE(Contains(payload.status().message(), "unsupported codec version"));
}

TEST(PageEnvelopeTest, VersionOnePprNodeRejected) {
  // A PPR node page in the version-1 layout: a 28-byte header (level,
  // created, closed, uint64 count) and 60-byte packed entries. Version 2
  // reads entries as 64-byte structs from page offset 32, so the page
  // must be refused by version, never mis-decoded.
  std::array<uint8_t, kPageSize> page{};
  PageWriter writer = PayloadWriter(page.data());
  writer.Write<int32_t>(0);
  writer.Write<Time>(5);
  writer.Write<Time>(kTimeInfinity);
  writer.Write<uint64_t>(2);
  for (uint64_t data = 0; data < 2; ++data) {
    writer.Write(Rect2D(0.1, 0.1, 0.2, 0.2));
    writer.Write(TimeInterval(5, kTimeInfinity));
    writer.Write<PageId>(kInvalidPage);
    writer.Write<PprDataId>(data);
  }
  SealPage(page.data(), PageKind::kPprNode);
  StampVersion(page.data(), 1);

  // The check a pool runs on every snapshot page it loads.
  const NodePageCheck check(PageKind::kPprNode, "PPR-tree",
                            PprConfig().max_entries + 1);
  const Status status = check.Check(page.data(), 0);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(Contains(status.message(), "page 0")) << status.ToString();
  EXPECT_TRUE(Contains(status.message(), "unsupported codec version 1"))
      << status.ToString();
}

// Byte-at-a-time CRC-32 (the textbook table loop), the reference the
// sliced kernel must match bit for bit.
class BytewiseCrc32 {
 public:
  BytewiseCrc32() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      table_[i] = c;
    }
  }

  // Running state: Finish(Update(Start(), bytes)) is the CRC of `bytes`.
  static uint32_t Start() { return 0xFFFFFFFFu; }
  uint32_t Update(uint32_t state, uint8_t byte) const {
    return table_[(state ^ byte) & 0xffu] ^ (state >> 8);
  }
  static uint32_t Finish(uint32_t state) { return state ^ 0xFFFFFFFFu; }

 private:
  std::array<uint32_t, 256> table_{};
};

// `size` pseudo-random bytes.
std::vector<uint8_t> RandomBytes(size_t size) {
  std::vector<uint8_t> bytes(size);
  uint64_t seed = 0x9e3779b97f4a7c15ull;
  for (uint8_t& byte : bytes) {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    byte = static_cast<uint8_t>(seed >> 56);
  }
  return bytes;
}

TEST(PageEnvelopeTest, Crc32MatchesKnownVector) {
  // The standard check value for CRC-32/IEEE over "123456789".
  const uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32(data, sizeof(data)), 0xCBF43926u);

  // Every length up to three pages and 17 bytes, from every start offset
  // mod 8, against the bytewise reference over pseudo-random bytes: the
  // four-lane rounds, their serial tails, one and several rounds, and
  // inputs as long as a snapshot's manifest digest.
  constexpr size_t kMaxOffset = 8;
  constexpr size_t kMaxLength = 3 * kPageSize + 17;
  const std::vector<uint8_t> bytes = RandomBytes(kMaxLength + kMaxOffset);
  const BytewiseCrc32 reference;
  for (size_t offset = 0; offset < kMaxOffset; ++offset) {
    const uint8_t* start = bytes.data() + offset;
    uint32_t state = BytewiseCrc32::Start();
    for (size_t length = 0; length <= kMaxLength; ++length) {
      ASSERT_EQ(Crc32(start, length), BytewiseCrc32::Finish(state))
          << "offset " << offset << ", length " << length;
      if (length < kMaxLength) state = reference.Update(state, start[length]);
    }
  }
}

TEST(PageEnvelopeTest, Crc32CombineEqualsCrc32OfTheConcatenation) {
  // Every split point of a page, then random splits of random lengths.
  const std::vector<uint8_t> bytes = RandomBytes(3 * kPageSize);
  const uint32_t whole = Crc32(bytes.data(), kPageSize);
  for (size_t split = 0; split <= kPageSize; ++split) {
    ASSERT_EQ(Crc32Combine(Crc32(bytes.data(), split),
                           Crc32(bytes.data() + split, kPageSize - split),
                           kPageSize - split),
              whole)
        << "split " << split;
  }
  uint64_t seed = 17;
  auto next = [&seed](size_t bound) {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<size_t>((seed >> 33) % bound);
  };
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t length = next(bytes.size() + 1);
    const size_t split = next(length + 1);
    ASSERT_EQ(Crc32Combine(Crc32(bytes.data(), split),
                           Crc32(bytes.data() + split, length - split),
                           length - split),
              Crc32(bytes.data(), length))
        << "length " << length << ", split " << split;
  }
}

TEST(PageEnvelopeTest, SealedPageCrc32IsTheFullPageChecksum) {
  std::vector<uint8_t> page = RandomBytes(kPageSize);
  SealPage(page.data(), PageKind::kTest);
  EXPECT_EQ(SealedPageCrc32(page.data()), Crc32(page.data(), kPageSize));
  // It trusts the stored checksum: a payload flip after sealing leaves it
  // unchanged, so it no longer equals the page's CRC (and Open's check
  // of the page against its manifest entry fails).
  const uint32_t sealed = SealedPageCrc32(page.data());
  page[kPageSize / 2] ^= 0x40;
  EXPECT_EQ(SealedPageCrc32(page.data()), sealed);
  EXPECT_NE(SealedPageCrc32(page.data()), Crc32(page.data(), kPageSize));
}

// --- Pinned on-disk bytes ---
//
// A fixed hand-made input (integer-grid rects and times, no generated
// floats) is packed into snapshots and checkpointed; the CRC-32 of the
// bytes written must equal a recorded constant. A change to the node
// page layout, to the trees' split decisions or to the checkpoint path
// then fails here instead of silently changing users' files.

std::vector<SegmentRecord> GridRecords() {
  std::vector<SegmentRecord> records;
  for (uint64_t i = 0; i < 400; ++i) {
    const double x = static_cast<double>((i * 37) % 64);
    const double y = static_cast<double>((i * 11) % 64);
    const Time start = static_cast<Time>((i * 13) % 90);
    SegmentRecord record;
    record.object = i;
    record.box.rect = Rect2D(x, y, x + 1 + static_cast<double>(i % 3),
                             y + 1 + static_cast<double>(i % 4));
    record.box.interval =
        TimeInterval(start, start + 1 + static_cast<Time>((i * 7) % 30));
    records.push_back(record);
  }
  return records;
}

uint32_t FileCrc(const std::string& path) {
  std::vector<uint8_t> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return 0;
  uint8_t chunk[kPageSize];
  size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  std::fclose(f);
  return Crc32(bytes.data(), bytes.size());
}

TEST(PinnedBytesTest, PackedSnapshotsKeepTheirBytes) {
  const std::vector<SegmentRecord> records = GridRecords();
  const TempPath ppr_path("pinned_ppr.stsnap");
  const std::unique_ptr<PprTree> ppr = BuildPprTree(records);
  ASSERT_TRUE(ppr->PackSnapshot(ppr_path).ok());
  EXPECT_EQ(FileCrc(ppr_path), 0x626779deu);

  // The R*-tree is built by insertion, as the paper's baseline is; its
  // pack remaps every arena id to the bottom-up layout.
  RStarTree rstar;
  std::vector<Box3D> boxes;
  for (const SegmentRecord& record : records) {
    const Rect2D& r = record.box.rect;
    boxes.emplace_back(r.xlo, r.ylo,
                       static_cast<double>(record.box.interval.start), r.xhi,
                       r.yhi, static_cast<double>(record.box.interval.end));
  }
  for (size_t i = 0; i < boxes.size(); ++i) {
    rstar.Insert(boxes[i], static_cast<DataId>(i));
  }
  const TempPath rstar_path("pinned_rstar.stsnap");
  ASSERT_TRUE(rstar.PackSnapshot(rstar_path).ok());
  EXPECT_EQ(FileCrc(rstar_path), 0x79e98379u);

}

TEST(PinnedBytesTest, LiveTierNodePagesKeepTheirBytes) {
  // 48 objects on an integer grid, each alive for 12..23 ticks, fed in
  // tick order (ends before observes, then by object id).
  std::vector<LiveObservation> stream;
  for (Time t = 0; t < 60; ++t) {
    for (ObjectId object = 0; object < 48; ++object) {
      const Time start = static_cast<Time>(object % 30);
      const Time end = start + 12 + static_cast<Time>(object % 12);
      if (t == end) {
        LiveObservation update;
        update.object = object;
        update.time = t;
        update.is_end = true;
        stream.push_back(update);
      }
    }
    for (ObjectId object = 0; object < 48; ++object) {
      const Time start = static_cast<Time>(object % 30);
      const Time end = start + 12 + static_cast<Time>(object % 12);
      if (t < start || t >= end) continue;
      const double x = static_cast<double>((object * 5) % 40 + (t - start));
      const double y = static_cast<double>((object * 3) % 40);
      LiveObservation update;
      update.object = object;
      update.time = t;
      update.rect = Rect2D(x, y, x + 2, y + 1);
      stream.push_back(update);
    }
  }

  LiveTierOptions options;
  options.index.capacity = 6;
  options.ppr.max_entries = 8;
  Result<std::unique_ptr<LiveTier>> tier =
      LiveTier::Open(options, std::make_unique<MemoryPageBackend>());
  ASSERT_TRUE(tier.ok()) << tier.status().ToString();
  const TempPath snap_path("pinned_live.stsnap");
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(tier.value()->Apply(stream[i]).ok());
    if ((i + 1) % 16 == 0) {
      ASSERT_TRUE(tier.value()->Commit().ok());
    }
    if (i + 1 == stream.size() / 2) {
      ASSERT_TRUE(tier.value()->PackHistorical(snap_path).ok());
    }
  }
  ASSERT_TRUE(tier.value()->Commit().ok());
  ASSERT_TRUE(tier.value()->Checkpoint().ok());
  // The file: the frozen layer's node pages, then its records (the
  // snapshot's attachment: the objects of the ids it may hold and the
  // ends of the records alive at the pack).
  EXPECT_EQ(FileCrc(snap_path), 0x1a47539cu);

  // The tier's node pages, each sealed as a snapshot seals it: the frozen
  // layer's, from its snapshot file, in node order, then the active
  // tree's, in node order. A checkpoint writes none of them — it keeps the
  // active tree's records, and recovery replays them — so these are the
  // node pages a recovery from it serves.
  std::vector<uint8_t> node_pages;
  Result<std::unique_ptr<SnapshotFile>> snapshot =
      SnapshotFile::Open(snap_path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  const size_t frozen_pages = snapshot.value()->node_count();
  const Result<FrozenRecords> records =
      FrozenRecords::Parse(snapshot.value()->attachment());
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  EXPECT_EQ(records.value().first_id(), 0u);
  EXPECT_EQ(records.value().end_id(), 64u);
  EXPECT_EQ(records.value().alive_count(), 30u);
  uint8_t page[kPageSize];
  for (PageId id = 0; id < frozen_pages; ++id) {
    ASSERT_TRUE(snapshot.value()->Read(id, page).ok());
    node_pages.insert(node_pages.end(), page, page + kPageSize);
  }
  const PprTree& active = tier.value()->historical();
  std::unique_ptr<SharedBufferPool> pool = active.NewSharedQueryPool(1);
  for (PageId id = 0; id < active.PageCount(); ++id) {
    bool missed = false;
    const Result<const Page*> arena_page = pool->Pin(id, &missed);
    ASSERT_TRUE(arena_page.ok()) << arena_page.status().ToString();
    std::memcpy(page, arena_page.value()->bytes, kPageSize);
    pool->Unpin(id);
    SealPage(page, PageKind::kPprNode);
    node_pages.insert(node_pages.end(), page, page + kPageSize);
  }
  EXPECT_EQ(frozen_pages, 18u);
  EXPECT_EQ(node_pages.size() / kPageSize, 57u);
  EXPECT_EQ(Crc32(node_pages.data(), node_pages.size()), 0x2eb2b8dbu);
}

// --- Pinned walk order ---
//
// The order in which a query fetches node pages decides its misses under
// the paper's 10-page LRU. Fixed query sets run on small-page trees built
// from GridRecords, through a cache that records every page id fetched;
// an FNV-1a 64 hash over those ids, the results in order and the profile
// counts must equal a recorded constant per tree and query kind.

// A PageCache that records every page id it is asked for and serves it
// from `base`, whose PageRefs unpin themselves there.
class RecordingCache final : public PageCache {
 public:
  explicit RecordingCache(PageCache* base) : base_(base) {}

  PageRef FetchPinned(PageId id) override {
    fetched_.push_back(id);
    return base_->FetchPinned(id);
  }
  const IoStats& stats() const override { return base_->stats(); }

  // The ids fetched since the last call, which clears them.
  std::vector<PageId> TakeFetched() { return std::exchange(fetched_, {}); }

 protected:
  // Never called: every PageRef handed out belongs to `base`.
  void Unpin(PageId) override { ADD_FAILURE() << "unexpected Unpin"; }

 private:
  PageCache* base_;
  std::vector<PageId> fetched_;
};

class Fnv1a64 {
 public:
  void Add(uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }
  template <typename T>
  void AddAll(const std::vector<T>& values) {
    Add(values.size());
    for (const T& value : values) Add(static_cast<uint64_t>(value));
  }
  void AddProfile(const QueryProfile& profile) {
    AddAll(profile.nodes_per_level);
    for (uint64_t count : {profile.nodes_visited, profile.pages_hit,
                           profile.pages_missed, profile.leaf_entries_scanned,
                           profile.candidates}) {
      Add(count);
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

struct WalkQuery {
  Rect2D area;
  TimeInterval range;  // a snapshot query asks about range.start
};

std::vector<WalkQuery> WalkQueries() {
  std::vector<WalkQuery> queries;
  for (uint64_t i = 0; i < 40; ++i) {
    const double x = static_cast<double>((i * 17) % 60);
    const double y = static_cast<double>((i * 29) % 60);
    const Time start = static_cast<Time>((i * 7) % 125);
    queries.push_back(WalkQuery{
        Rect2D(x, y, x + 4 + static_cast<double>(i % 9),
               y + 3 + static_cast<double>(i % 7)),
        TimeInterval(start, start + 1 + static_cast<Time>(i % 15))});
  }
  return queries;
}

// Runs `query(q, cache, results, profile)` for every WalkQueries() query
// through a 10-page protocol session of `pool`, hashing the pages
// fetched, the results and the profile.
template <typename Query>
uint64_t WalkHash(SharedBufferPool* pool, Query query) {
  SharedBufferPool::Session session(pool, /*protocol_pages=*/10);
  RecordingCache cache(&session);
  Fnv1a64 hash;
  std::vector<uint64_t> results;
  for (const WalkQuery& q : WalkQueries()) {
    session.ResetCache();
    QueryProfile profile;
    query(q, &cache, &results, &profile);
    hash.AddAll(cache.TakeFetched());
    hash.AddAll(results);
    hash.AddProfile(profile);
  }
  return hash.value();
}

uint64_t PprWalkHash(const PprTree& tree, bool snapshot) {
  const std::unique_ptr<SharedBufferPool> pool = tree.NewSharedQueryPool();
  return WalkHash(pool.get(), [&](const WalkQuery& q, PageCache* cache,
                                  std::vector<uint64_t>* results,
                                  QueryProfile* profile) {
    if (snapshot) {
      tree.SnapshotQuery(q.area, q.range.start, cache, results, profile);
    } else {
      tree.IntervalQuery(q.area, q.range, cache, results, profile);
    }
  });
}

uint64_t RStarWalkHash(const RStarTree& tree) {
  const std::unique_ptr<SharedBufferPool> pool = tree.NewSharedQueryPool();
  return WalkHash(pool.get(), [&](const WalkQuery& q, PageCache* cache,
                                  std::vector<uint64_t>* results,
                                  QueryProfile* profile) {
    const Box3D box(q.area.xlo, q.area.ylo, static_cast<double>(q.range.start),
                    q.area.xhi, q.area.yhi, static_cast<double>(q.range.end));
    tree.Search(box, cache, results, profile);
  });
}

TEST(PinnedWalkOrderTest, QueriesFetchTheSamePagesInTheSameOrder) {
  const std::vector<SegmentRecord> records = GridRecords();

  PprConfig ppr_config;
  ppr_config.max_entries = 8;
  const std::unique_ptr<PprTree> ppr = BuildPprTree(records, ppr_config);
  EXPECT_EQ(PprWalkHash(*ppr, /*snapshot=*/true), 0xe97312f9c327091dull);
  EXPECT_EQ(PprWalkHash(*ppr, /*snapshot=*/false), 0xbd225b7666d6f473ull);
  const TempPath ppr_path("walk_ppr.stsnap");
  ASSERT_TRUE(ppr->PackSnapshot(ppr_path).ok());
  EXPECT_EQ(PprWalkHash(*ppr, /*snapshot=*/true), 0xa7d4d0fae7c0a10aull);
  EXPECT_EQ(PprWalkHash(*ppr, /*snapshot=*/false), 0x8650354af1b1b9b1ull);

  RStarConfig rstar_config;
  rstar_config.max_entries = 8;
  rstar_config.min_entries = 3;
  rstar_config.reinsert_count = 2;
  RStarTree rstar(rstar_config);
  for (size_t i = 0; i < records.size(); ++i) {
    const Rect2D& r = records[i].box.rect;
    rstar.Insert(Box3D(r.xlo, r.ylo,
                       static_cast<double>(records[i].box.interval.start),
                       r.xhi, r.yhi,
                       static_cast<double>(records[i].box.interval.end)),
                 static_cast<DataId>(i));
  }
  EXPECT_EQ(RStarWalkHash(rstar), 0xdae48a0279908e85ull);
  const TempPath rstar_path("walk_rstar.stsnap");
  ASSERT_TRUE(rstar.PackSnapshot(rstar_path).ok());
  EXPECT_EQ(RStarWalkHash(rstar), 0x4bd29835cfc86a53ull);

  // The HR-tree's queries take no profile; theirs hashes as empty.
  HrConfig hr_config;
  hr_config.max_entries = 8;
  hr_config.min_entries = 3;
  const std::unique_ptr<HrTree> hr = BuildHrTree(records, hr_config);
  const std::unique_ptr<SharedBufferPool> hr_pool = hr->NewSharedQueryPool();
  EXPECT_EQ(WalkHash(hr_pool.get(),
                     [&](const WalkQuery& q, PageCache* cache,
                         std::vector<uint64_t>* results, QueryProfile*) {
                       hr->SnapshotQuery(q.area, q.range.start, cache,
                                         results);
                     }),
            0xcdcbf65b0b6eee42ull);
  EXPECT_EQ(WalkHash(hr_pool.get(),
                     [&](const WalkQuery& q, PageCache* cache,
                         std::vector<uint64_t>* results, QueryProfile*) {
                       hr->IntervalQuery(q.area, q.range, cache, results);
                     }),
            0x4c9f1b1777c8d9a5ull);
}

// --- FilePageBackend: a file of whole pages and nothing else ---

class FileBackendValidationTest : public ::testing::Test {
 protected:
  // A valid two-page file, created fresh per test.
  void SetUp() override {
    Result<std::unique_ptr<FilePageBackend>> backend =
        FilePageBackend::Create(path_);
    ASSERT_TRUE(backend.ok()) << backend.status().ToString();
    for (PageId id = 0; id < 2; ++id) {
      const std::array<uint8_t, kPageSize> page = SealedTestPage(id);
      ASSERT_TRUE(backend.value()->Write(id, page.data()).ok());
    }
    ASSERT_TRUE(backend.value()->Sync().ok());
  }

  // Overwrites `count` bytes at `offset` in the page file.
  void Poke(long offset, const void* bytes, size_t count) {
    std::FILE* f = std::fopen(path_.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(bytes, 1, count, f), count);
    ASSERT_EQ(std::fclose(f), 0);
  }

  Status OpenStatus() {
    Result<std::unique_ptr<FilePageBackend>> backend =
        FilePageBackend::Open(path_);
    return backend.ok() ? Status::OK() : backend.status();
  }

  const TempPath temp_{"codec_validation.stpages"};
  const std::string& path_ = temp_.path();
};

TEST_F(FileBackendValidationTest, RoundTripReopens) {
  const Status status = OpenStatus();
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST_F(FileBackendValidationTest, MissingFileIsNotFound) {
  const TempPath missing("codec_validation_missing.stpages");
  const Result<std::unique_ptr<FilePageBackend>> backend =
      FilePageBackend::Open(missing);
  ASSERT_FALSE(backend.ok());
  EXPECT_EQ(backend.status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(Contains(backend.status().message(), missing.path()))
      << backend.status().ToString();
}

// There is no slot cap: a page far past the 131,072 slots the previous
// layout's allocation bitmap could address survives a close and reopen.
// The file is sparse, so this costs two pages of disk.
TEST_F(FileBackendValidationTest, PageFarPastTheOldSlotCapSurvivesReopen) {
  constexpr PageId kFar = 200000;
  const std::array<uint8_t, kPageSize> page = SealedTestPage(kFar);
  {
    Result<std::unique_ptr<FilePageBackend>> backend =
        FilePageBackend::Open(path_);
    ASSERT_TRUE(backend.ok()) << backend.status().ToString();
    const Status written = backend.value()->Write(kFar, page.data());
    ASSERT_TRUE(written.ok()) << written.ToString();
    ASSERT_TRUE(backend.value()->Sync().ok());
  }
  Result<std::unique_ptr<FilePageBackend>> backend =
      FilePageBackend::Open(path_);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  EXPECT_EQ(backend.value()->SlotCount(), size_t{kFar} + 1);
  std::array<uint8_t, kPageSize> read{};
  ASSERT_TRUE(backend.value()->Read(kFar, read.data()).ok());
  EXPECT_EQ(read, page);
}

TEST_F(FileBackendValidationTest, FileThatIsNotWholePagesRejected) {
  ASSERT_EQ(::truncate(path_.c_str(), 100), 0);
  const Status status = OpenStatus();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(Contains(status.message(), path_)) << status.ToString();
  EXPECT_TRUE(Contains(status.message(),
                       "100 bytes is not a whole number of 4096-byte pages"))
      << status.ToString();
}

TEST_F(FileBackendValidationTest, PreviousLayoutRejected) {
  // Page 0 of the previous layout: a sealed header (magic, format
  // version, page size, bitmap pages, slot and live counts) in front of
  // an allocation bitmap.
  std::array<uint8_t, kPageSize> header{};
  PageWriter writer = PayloadWriter(header.data());
  writer.Write<uint64_t>(0x53544e4458504701ull);
  writer.Write<uint32_t>(1);
  writer.Write<uint64_t>(kPageSize);
  writer.Write<uint64_t>(4);
  writer.Write<uint64_t>(2);
  writer.Write<uint64_t>(2);
  SealPage(header.data(), PageKind::kFileHeader);
  Poke(0, header.data(), header.size());
  const Status status = OpenStatus();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(Contains(status.message(), path_)) << status.ToString();
  EXPECT_TRUE(Contains(status.message(), "previous layout"))
      << status.ToString();
}

TEST_F(FileBackendValidationTest, CorruptDataPageRejectedAtRead) {
  // Page corruption is not an Open error (the file holds only pages); it
  // must surface when the page is decoded.
  const uint8_t garbage = 0xff;
  Poke(static_cast<long>(kPageSize) + 200, &garbage, 1);
  Result<std::unique_ptr<FilePageBackend>> backend =
      FilePageBackend::Open(path_);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  uint8_t buffer[kPageSize];
  ASSERT_TRUE(backend.value()->Read(1, buffer).ok());
  const Result<PageReader> payload =
      OpenPagePayload(buffer, PageKind::kTest, /*id=*/1);
  ASSERT_FALSE(payload.ok());
  EXPECT_TRUE(Contains(payload.status().message(), "checksum mismatch"))
      << payload.status().ToString();
}

}  // namespace
}  // namespace stindex
