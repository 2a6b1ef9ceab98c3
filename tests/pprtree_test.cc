#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "pprtree/ppr_tree.h"
#include "storage/shared_buffer_pool.h"
#include "storage/page_codec.h"
#include "util/random.h"

namespace stindex {
namespace {

// Reference implementation: linear scan over segment records.
std::vector<PprDataId> ScanSnapshot(const std::vector<SegmentRecord>& records,
                                    const Rect2D& area, Time t) {
  std::vector<PprDataId> hits;
  for (size_t i = 0; i < records.size(); ++i) {
    if (records[i].box.interval.Contains(t) &&
        records[i].box.rect.Intersects(area)) {
      hits.push_back(i);
    }
  }
  return hits;
}

std::vector<PprDataId> ScanInterval(const std::vector<SegmentRecord>& records,
                                    const Rect2D& area,
                                    const TimeInterval& range) {
  std::vector<PprDataId> hits;
  for (size_t i = 0; i < records.size(); ++i) {
    if (records[i].box.interval.Intersects(range) &&
        records[i].box.rect.Intersects(area)) {
      hits.push_back(i);
    }
  }
  return hits;
}

std::vector<SegmentRecord> RandomRecords(uint64_t seed, size_t count,
                                         Time domain = 200,
                                         Time max_life = 40) {
  Rng rng(seed);
  std::vector<SegmentRecord> records;
  for (size_t i = 0; i < count; ++i) {
    SegmentRecord record;
    record.object = static_cast<ObjectId>(i);
    const Time life = rng.UniformInt(1, max_life);
    const Time start = rng.UniformInt(0, domain - life);
    const double x = rng.UniformDouble(0, 0.95);
    const double y = rng.UniformDouble(0, 0.95);
    record.box.rect = Rect2D(x, y, x + rng.UniformDouble(0.005, 0.05),
                             y + rng.UniformDouble(0.005, 0.05));
    record.box.interval = TimeInterval(start, start + life);
    records.push_back(record);
  }
  return records;
}

TEST(PprTreeTest, EmptyTreeAnswersNothing) {
  PprTree tree;
  std::vector<PprDataId> results;
  tree.SnapshotQuery(Rect2D(0, 0, 1, 1), 5, &results);
  EXPECT_TRUE(results.empty());
  tree.IntervalQuery(Rect2D(0, 0, 1, 1), TimeInterval(0, 10), &results);
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(tree.Size(), 0u);
  tree.CheckInvariants();
}

TEST(PprTreeTest, SingleRecordLifecycle) {
  PprTree tree;
  tree.Insert(Rect2D(0.4, 0.4, 0.5, 0.5), 10, 0);
  tree.Delete(0, 20);
  std::vector<PprDataId> results;
  // Alive at 10..19 only.
  tree.SnapshotQuery(Rect2D(0, 0, 1, 1), 9, &results);
  EXPECT_TRUE(results.empty());
  tree.SnapshotQuery(Rect2D(0, 0, 1, 1), 10, &results);
  EXPECT_EQ(results.size(), 1u);
  tree.SnapshotQuery(Rect2D(0, 0, 1, 1), 19, &results);
  EXPECT_EQ(results.size(), 1u);
  tree.SnapshotQuery(Rect2D(0, 0, 1, 1), 20, &results);
  EXPECT_TRUE(results.empty());
  // Spatially disjoint query misses.
  tree.SnapshotQuery(Rect2D(0.6, 0.6, 0.9, 0.9), 15, &results);
  EXPECT_TRUE(results.empty());
  tree.CheckInvariants();
}

TEST(PprTreeTest, RecordAliveUntilDeleted) {
  PprTree tree;
  tree.Insert(Rect2D(0.1, 0.1, 0.2, 0.2), 5, 42);
  std::vector<PprDataId> results;
  tree.SnapshotQuery(Rect2D(0, 0, 1, 1), 1000000, &results);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0], 42u);
  EXPECT_EQ(tree.AliveCount(), 1u);
}

TEST(PprTreeTest, AliveCountCountsTheUndeleted) {
  PprTree tree;
  for (const PprDataId data : {7u, 3u, 5u}) {
    tree.Insert(Rect2D(0.1, 0.1, 0.2, 0.2), 1, data);
  }
  tree.Delete(5, 4);
  EXPECT_EQ(tree.AliveCount(), 2u);
}

TEST(PprTreeTest, OutOfOrderUpdatesRejected) {
  PprTree tree;
  tree.Insert(Rect2D(0, 0, 0.1, 0.1), 10, 0);
  EXPECT_DEATH(tree.Insert(Rect2D(0, 0, 0.1, 0.1), 5, 1), "time order");
}

TEST(PprTreeTest, DoubleInsertRejected) {
  PprTree tree;
  tree.Insert(Rect2D(0, 0, 0.1, 0.1), 10, 0);
  EXPECT_DEATH(tree.Insert(Rect2D(0, 0, 0.1, 0.1), 11, 0), "already alive");
}

TEST(PprTreeTest, DeleteOfDeadRecordRejected) {
  PprTree tree;
  tree.Insert(Rect2D(0, 0, 0.1, 0.1), 10, 0);
  tree.Delete(0, 12);
  EXPECT_DEATH(tree.Delete(0, 13), "not alive");
}

TEST(PprTreeTest, VersionSplitOnOverflow) {
  // Insert more records at one instant than a node can hold.
  PprTree tree;
  Rng rng(3);
  std::vector<SegmentRecord> records;
  for (size_t i = 0; i < 200; ++i) {
    SegmentRecord record;
    record.object = static_cast<ObjectId>(i);
    const double x = rng.UniformDouble(0, 0.9);
    const double y = rng.UniformDouble(0, 0.9);
    record.box.rect = Rect2D(x, y, x + 0.05, y + 0.05);
    record.box.interval = TimeInterval(0, 100);
    records.push_back(record);
    tree.Insert(record.box.rect, 0, i);
  }
  tree.CheckInvariants();
  std::vector<PprDataId> results;
  tree.SnapshotQuery(Rect2D(0, 0, 1, 1), 0, &results);
  EXPECT_EQ(results.size(), 200u);
  // A snapshot query returns each logical record exactly once.
  std::sort(results.begin(), results.end());
  EXPECT_EQ(std::adjacent_find(results.begin(), results.end()),
            results.end());
}

TEST(PprTreeTest, WeakVersionUnderflowTriggersConsolidation) {
  // Fill several nodes, then delete almost everything: the structure must
  // keep answering correctly at all times.
  std::vector<SegmentRecord> records = RandomRecords(4, 300, 100, 99);
  // Force everything alive over [0, 100) so deletions drive underflow.
  for (auto& record : records) record.box.interval = TimeInterval(0, 100);
  PprTree tree;
  for (size_t i = 0; i < records.size(); ++i) {
    tree.Insert(records[i].box.rect, 0, i);
  }
  // Kill all but 5 records, in time order, a few per instant.
  Time now = 1;
  for (size_t i = 0; i + 5 < records.size(); ++i) {
    tree.Delete(i, now);
    records[i].box.interval = TimeInterval(0, now);
    if (i % 4 == 3) ++now;
  }
  tree.CheckInvariants();
  // Snapshot at every probe time matches the scan.
  for (Time t : {0, 1, 5, 20, 50, 80}) {
    std::vector<PprDataId> results;
    tree.SnapshotQuery(Rect2D(0, 0, 1, 1), t, &results);
    std::sort(results.begin(), results.end());
    std::vector<PprDataId> expected =
        ScanSnapshot(records, Rect2D(0, 0, 1, 1), t);
    EXPECT_EQ(results, expected) << "t=" << t;
  }
}

// One entry of a node page, read from the arena through a pool (the
// layout of docs/storage.md: 64-byte entries from byte 32, the lifetime at
// entry byte 32, the child id at entry byte 48).
struct PageEntry {
  Time start = 0;
  Time end = 0;
  PageId child = kInvalidPage;
};

std::vector<PageEntry> NodeEntries(const PprTree& tree, PageId id) {
  std::unique_ptr<SharedBufferPool> pool = tree.NewSharedQueryPool(1);
  bool missed = false;
  const Result<const Page*> pinned = pool->Pin(id, &missed);
  EXPECT_TRUE(pinned.ok()) << pinned.status().ToString();
  const uint8_t* page = pinned.value()->bytes;
  uint32_t count = 0;
  std::memcpy(&count, page + kPageEnvelopeBytes + 4, sizeof(count));
  std::vector<PageEntry> entries(count);
  for (uint32_t i = 0; i < count; ++i) {
    const uint8_t* entry =
        page + PprTree::kNodeEntryOffset + i * kNodeEntryBytes;
    std::memcpy(&entries[i].start, entry + 32, sizeof(Time));
    std::memcpy(&entries[i].end, entry + 40, sizeof(Time));
    std::memcpy(&entries[i].child, entry + 48, sizeof(PageId));
  }
  pool->Unpin(id);
  return entries;
}

TEST(PprTreeTest, SameInstantEraseOfAMiddleDirectorySlot) {
  // With four entries a node, the last insert of this sequence (t = 3)
  // restructures a node whose parent entry, slot 0 of directory node 8,
  // was born at t = 3 too: the entry is erased and the later slots shift
  // down. Node 8's alive-slot bitmap must shift with them, and the slot
  // hints of its children's parent links are then one slot off: the
  // deletes that follow must find their paths anyway. CheckInvariants
  // compares the bitmaps and parent links with the pages after every
  // update.
  struct Op {
    bool insert;
    PprDataId data;
    Time t;
    double x = 0;
    double y = 0;
  };
  const std::vector<Op> ops = {
      {true, 0, 0, 0, 12},  {false, 0, 0},        {true, 1, 0, 8, 18},
      {true, 2, 0, 16, 6},  {true, 3, 0, 1, 18},  {true, 4, 1, 18, 12},
      {false, 2, 1},        {true, 5, 1, 13, 0},  {true, 6, 1, 15, 4},
      {true, 7, 2, 19, 6},  {false, 4, 2},        {true, 8, 2, 6, 18},
      {true, 9, 2, 11, 15}, {false, 5, 2},        {true, 10, 2, 18, 0},
      {false, 6, 3},        {true, 11, 3, 0, 1},  {true, 12, 3, 5, 14},
      {true, 13, 3, 6, 4}};
  constexpr PageId kDirectory = 8;
  PprConfig config;
  config.max_entries = 4;
  PprTree tree(config);
  std::vector<PageEntry> before;
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    if (i + 1 == ops.size()) before = NodeEntries(tree, kDirectory);
    if (op.insert) {
      tree.Insert(Rect2D(op.x, op.y, op.x + 1, op.y + 1), op.t, op.data);
    } else {
      tree.Delete(op.data, op.t);
    }
    tree.CheckInvariants();
  }
  const std::vector<PageEntry> after = NodeEntries(tree, kDirectory);
  ASSERT_GE(before.size(), 2u);
  EXPECT_EQ(before[0].start, 3);
  EXPECT_EQ(before[0].end, kTimeInfinity);
  ASSERT_FALSE(after.empty());
  EXPECT_EQ(after[0].child, before[1].child);
  for (const PageEntry& entry : after) {
    EXPECT_NE(entry.child, before[0].child);
  }

  // Delete the survivors, one instant each.
  const std::vector<PprDataId> survivors = {1, 3, 7, 8, 9, 10, 11, 12, 13};
  ASSERT_EQ(tree.AliveCount(), survivors.size());
  Time t = 4;
  for (const PprDataId data : survivors) {
    tree.Delete(data, t++);
    tree.CheckInvariants();
  }
  EXPECT_EQ(tree.AliveCount(), 0u);
  std::vector<PprDataId> results;
  tree.SnapshotQuery(Rect2D(0, 0, 20, 20), 3, &results);
  std::sort(results.begin(), results.end());
  EXPECT_EQ(results, survivors);
}

TEST(PprTreeTest, EraClosesWhenEverythingDies) {
  PprTree tree;
  tree.Insert(Rect2D(0, 0, 0.1, 0.1), 0, 0);
  tree.Insert(Rect2D(0.2, 0.2, 0.3, 0.3), 1, 1);
  tree.Delete(0, 5);
  tree.Delete(1, 7);
  std::vector<PprDataId> results;
  tree.SnapshotQuery(Rect2D(0, 0, 1, 1), 6, &results);
  EXPECT_EQ(results.size(), 1u);
  tree.SnapshotQuery(Rect2D(0, 0, 1, 1), 7, &results);
  EXPECT_TRUE(results.empty());
  // Re-insertion after total death starts a new era.
  tree.Insert(Rect2D(0.5, 0.5, 0.6, 0.6), 10, 2);
  tree.SnapshotQuery(Rect2D(0, 0, 1, 1), 12, &results);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0], 2u);
  EXPECT_GE(tree.NumRoots(), 2u);
  tree.CheckInvariants();
}

TEST(PprTreeTest, IntervalQueryDeduplicates) {
  // A record that survives several version splits must be reported once.
  PprTree tree;
  std::vector<SegmentRecord> records = RandomRecords(5, 400, 150, 149);
  for (auto& record : records) record.box.interval = TimeInterval(0, 150);
  for (size_t i = 0; i < records.size(); ++i) {
    tree.Insert(records[i].box.rect, 0, i);
  }
  Time now = 1;
  for (size_t i = 0; i + 30 < records.size(); ++i) {
    tree.Delete(i, now);
    records[i].box.interval = TimeInterval(0, now);
    if (i % 3 == 2) ++now;
  }
  std::vector<PprDataId> results;
  tree.IntervalQuery(Rect2D(0, 0, 1, 1), TimeInterval(0, 150), &results);
  std::sort(results.begin(), results.end());
  EXPECT_EQ(std::adjacent_find(results.begin(), results.end()),
            results.end());
  EXPECT_EQ(results.size(), records.size());
}

class PprEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PprEquivalenceTest, SnapshotAndIntervalMatchScan) {
  const std::vector<SegmentRecord> records =
      RandomRecords(GetParam(), 600, 200, 40);
  std::unique_ptr<PprTree> tree = BuildPprTree(records);
  tree->CheckInvariants();
  EXPECT_EQ(tree->Size(), records.size());

  Rng rng(GetParam() + 1000);
  for (int q = 0; q < 40; ++q) {
    const double x = rng.UniformDouble(0, 0.8);
    const double y = rng.UniformDouble(0, 0.8);
    const Rect2D area(x, y, x + rng.UniformDouble(0.02, 0.2),
                      y + rng.UniformDouble(0.02, 0.2));
    const Time t = rng.UniformInt(0, 199);
    std::vector<PprDataId> results;
    tree->SnapshotQuery(area, t, &results);
    std::sort(results.begin(), results.end());
    EXPECT_EQ(results, ScanSnapshot(records, area, t)) << "snapshot " << q;

    const Time d = rng.UniformInt(1, 20);
    const Time start = rng.UniformInt(0, 199 - d);
    const TimeInterval range(start, start + d);
    tree->IntervalQuery(area, range, &results);
    std::sort(results.begin(), results.end());
    EXPECT_EQ(results, ScanInterval(records, area, range))
        << "interval " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PprEquivalenceTest,
                         ::testing::Values(201, 202, 203, 204, 205, 206));

class PprConfigTest
    : public ::testing::TestWithParam<std::tuple<size_t, double, double>> {};

TEST_P(PprConfigTest, CorrectUnderAlternativeParameters) {
  const auto [capacity, svu, svo] = GetParam();
  PprConfig config;
  config.max_entries = capacity;
  config.p_svu = svu;
  config.p_svo = svo;
  const std::vector<SegmentRecord> records = RandomRecords(77, 400, 150, 30);
  std::unique_ptr<PprTree> tree = BuildPprTree(records, config);
  tree->CheckInvariants();
  Rng rng(78);
  for (int q = 0; q < 25; ++q) {
    const double x = rng.UniformDouble(0, 0.8);
    const double y = rng.UniformDouble(0, 0.8);
    const Rect2D area(x, y, x + 0.15, y + 0.15);
    const Time t = rng.UniformInt(0, 149);
    std::vector<PprDataId> results;
    tree->SnapshotQuery(area, t, &results);
    std::sort(results.begin(), results.end());
    EXPECT_EQ(results, ScanSnapshot(records, area, t));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, PprConfigTest,
    ::testing::Values(std::make_tuple(10, 0.4, 0.8),
                      std::make_tuple(20, 0.3, 0.7),
                      std::make_tuple(50, 0.4, 0.8),
                      std::make_tuple(8, 0.45, 0.75)));

TEST(PprTreeTest, ReplayIsTheSameOverAWideTimeSpan) {
  // BuildPprTree orders its events by radix passes over the offset from
  // the earliest instant, at most 16 bits per pass. Mapping every
  // instant t to t * 2^40 + 7 keeps the order and the ties but needs
  // three passes; the tree must come out the same.
  const std::vector<SegmentRecord> narrow = RandomRecords(91, 600);
  auto widen = [](Time t) { return t * (Time{1} << 40) + 7; };
  std::vector<SegmentRecord> wide = narrow;
  for (SegmentRecord& record : wide) {
    record.box.interval = TimeInterval(widen(record.box.interval.start),
                                       widen(record.box.interval.end));
  }
  const std::unique_ptr<PprTree> a = BuildPprTree(narrow);
  const std::unique_ptr<PprTree> b = BuildPprTree(wide);
  EXPECT_EQ(a->PageCount(), b->PageCount());
  EXPECT_EQ(a->NumRoots(), b->NumRoots());
  const Rect2D area(0.2, 0.2, 0.7, 0.7);
  std::vector<PprDataId> want;
  std::vector<PprDataId> got;
  for (Time t = 0; t < 200; ++t) {
    a->SnapshotQuery(area, t, &want);
    b->SnapshotQuery(area, widen(t), &got);
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want) << "t=" << t;
    EXPECT_EQ(got, ScanSnapshot(wide, area, widen(t))) << "t=" << t;
  }
}

// Every node page of an arena tree, in node order.
std::vector<std::vector<uint8_t>> NodePagesOf(const PprTree& tree) {
  std::unique_ptr<SharedBufferPool> pool = tree.NewSharedQueryPool(1);
  std::vector<std::vector<uint8_t>> pages;
  for (PageId id = 0; id < tree.NodeCount(); ++id) {
    bool missed = false;
    const Result<const Page*> page = pool->Pin(id, &missed);
    EXPECT_TRUE(page.ok()) << page.status().ToString();
    pages.emplace_back(page.value()->bytes, page.value()->bytes + kPageSize);
    pool->Unpin(id);
  }
  return pages;
}

// A bounded replay feeds exactly the events BuildPprTree would, among the
// records that start at or after `from`, up to `below`: continued with the
// rest of those records' events, in the same order, it leaves the tree a
// single replay from `from` builds, page for page — the live tier's
// recovery of its active tree. Unbounded, it is BuildPprTree.
TEST(PprTreeTest, BoundedReplayContinuesIntoTheFullReplay) {
  const std::vector<SegmentRecord> records = RandomRecords(19, 400);
  struct Event {
    Time time;
    bool insert;
    PprDataId id;
  };
  for (const size_t fanout : {size_t{6}, size_t{50}}) {
    SCOPED_TRACE("fanout " + std::to_string(fanout));
    PprConfig config;
    config.max_entries = fanout;
    const std::unique_ptr<PprTree> built = BuildPprTree(records, config);
    PprTree unbounded(config);
    ReplayPprEvents(records, std::numeric_limits<Time>::min(), kTimeInfinity,
                    &unbounded);
    EXPECT_TRUE(NodePagesOf(unbounded) == NodePagesOf(*built));

    for (const auto& [from, below] : std::vector<std::pair<Time, Time>>{
             {0, 1}, {0, 90}, {40, 90}, {40, 41}, {120, 500}}) {
      SCOPED_TRACE("from " + std::to_string(from) + " below " +
                   std::to_string(below));
      PprTree whole(config);
      ReplayPprEvents(records, from, kTimeInfinity, &whole);
      PprTree bounded(config);
      ReplayPprEvents(records, from, below, &bounded);
      bounded.CheckInvariants();
      // The events the bounded replay left, in replay order.
      std::vector<Event> rest;
      for (PprDataId id = 0; id < records.size(); ++id) {
        const TimeInterval& life = records[id].box.interval;
        if (life.start < from) continue;
        if (life.start >= below) rest.push_back({life.start, true, id});
        if (life.end >= below) rest.push_back({life.end, false, id});
      }
      std::sort(rest.begin(), rest.end(), [](const Event& a, const Event& b) {
        if (a.time != b.time) return a.time < b.time;
        if (a.insert != b.insert) return !a.insert;
        return a.id < b.id;
      });
      for (const Event& event : rest) {
        if (event.insert) {
          bounded.Insert(records[event.id].box.rect, event.time, event.id);
        } else {
          bounded.Delete(event.id, event.time);
        }
      }
      EXPECT_EQ(bounded.Size(), whole.Size());
      EXPECT_EQ(bounded.NumRoots(), whole.NumRoots());
      EXPECT_TRUE(NodePagesOf(bounded) == NodePagesOf(whole));
    }
  }
}

TEST(PprTreeTest, QueryIoProportionalToAliveSetNotHistory) {
  // The PPR promise: snapshot cost tracks |alive(t)|, not total history.
  // Build a long evolution with a small alive set at every instant.
  std::vector<SegmentRecord> records;
  Rng rng(9);
  for (size_t i = 0; i < 3000; ++i) {
    SegmentRecord record;
    record.object = static_cast<ObjectId>(i);
    const Time start = static_cast<Time>(i / 4);  // ~4 born per instant
    const double x = rng.UniformDouble(0, 0.9);
    const double y = rng.UniformDouble(0, 0.9);
    record.box.rect = Rect2D(x, y, x + 0.02, y + 0.02);
    record.box.interval = TimeInterval(start, start + 10);
    records.push_back(record);
  }
  std::unique_ptr<PprTree> tree = BuildPprTree(records);
  tree->CheckInvariants();
  // Alive set is ~40 records: one or two leaf levels worth of pages.
  uint64_t worst = 0;
  for (Time t : {50, 200, 400, 600}) {
    tree->ResetQueryState();
    std::vector<PprDataId> results;
    tree->SnapshotQuery(Rect2D(0, 0, 1, 1), t, &results);
    worst = std::max(worst, tree->stats().misses);
  }
  // Far fewer pages than the full structure.
  EXPECT_LT(worst, tree->PageCount() / 10);
}

}  // namespace
}  // namespace stindex
