// Fault-injection tests for the storage stack: every injected I/O error
// must surface as a Status or a CHECK naming the offending page id —
// never as silent corruption. FaultInjectingBackend wraps a
// MemoryPageBackend, so the faults are deterministic and the tests run
// without touching the filesystem. Pools borrow pages and never read
// through a backend; the read faults' production reader is the live
// tier's recovery (crash_recovery_test.cc: an unreadable checkpoint
// header slot).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include "storage/fault_backend.h"
#include "storage/page_backend.h"
#include "storage/page_codec.h"
#include "storage/shared_buffer_pool.h"

namespace stindex {
namespace {

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// One uint64 payload per sealed kTest page; enough to detect corruption
// and identity.
void SealTestPage(uint64_t value, uint8_t* out) {
  PageWriter writer = PayloadWriter(out);
  writer.Write(value);
  SealPage(out, PageKind::kTest);
}

uint64_t ValueOf(const uint8_t* page) {
  uint64_t value = 0;
  std::memcpy(&value, page + kPageEnvelopeBytes, sizeof(value));
  return value;
}

class TestCodec : public PageCodec {
 public:
  Status Check(const uint8_t* page, PageId id) const override {
    return OpenPagePayload(page, PageKind::kTest, id).status();
  }
};

// Seals a test page with `value` into slot `id` of the wrapped backend.
void WriteTestPage(PageBackend* backend, PageId id, uint64_t value) {
  uint8_t buffer[kPageSize];
  SealTestPage(value, buffer);
  ASSERT_TRUE(backend->Write(id, buffer).ok());
}

std::unique_ptr<FaultInjectingBackend> MakeFaulty(
    FaultInjectingBackend::Faults faults, int pages = 3) {
  auto memory = std::make_unique<MemoryPageBackend>();
  for (int i = 0; i < pages; ++i) {
    WriteTestPage(memory.get(), static_cast<PageId>(i),
                  1000 + static_cast<uint64_t>(i));
  }
  return std::make_unique<FaultInjectingBackend>(std::move(memory), faults);
}

TEST(FaultBackendTest, FailedReadSurfacesStatusWithPageId) {
  FaultInjectingBackend::Faults faults;
  faults.fail_read_at = 1;
  std::unique_ptr<FaultInjectingBackend> backend = MakeFaulty(faults);
  uint8_t buffer[kPageSize];
  const Status status = backend->Read(2, buffer);
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_TRUE(Contains(status.message(), "page 2")) << status.ToString();
  EXPECT_TRUE(Contains(status.message(), "injected read failure"));
}

TEST(FaultBackendTest, FaultsDisarmAfterFiring) {
  FaultInjectingBackend::Faults faults;
  faults.fail_read_at = 1;
  std::unique_ptr<FaultInjectingBackend> backend = MakeFaulty(faults);
  uint8_t buffer[kPageSize];
  EXPECT_FALSE(backend->Read(0, buffer).ok());
  EXPECT_TRUE(backend->Read(0, buffer).ok());  // the fault fired once
  EXPECT_EQ(backend->reads(), 2u);
}

TEST(FaultBackendTest, ShortReadSurfacesStatusWithPageId) {
  FaultInjectingBackend::Faults faults;
  faults.short_read_at = 2;
  std::unique_ptr<FaultInjectingBackend> backend = MakeFaulty(faults);
  uint8_t buffer[kPageSize];
  EXPECT_TRUE(backend->Read(0, buffer).ok());
  const Status status = backend->Read(1, buffer);
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_TRUE(Contains(status.message(), "page 1")) << status.ToString();
  EXPECT_TRUE(Contains(status.message(), "short read"));
}

TEST(FaultBackendTest, FailedWriteSurfacesStatusWithPageId) {
  FaultInjectingBackend::Faults faults;
  faults.fail_write_at = 1;
  auto backend = std::make_unique<FaultInjectingBackend>(
      std::make_unique<MemoryPageBackend>(), faults);
  uint8_t buffer[kPageSize];
  SealTestPage(7, buffer);
  const Status status = backend->Write(4, buffer);
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_TRUE(Contains(status.message(), "page 4")) << status.ToString();
  EXPECT_TRUE(Contains(status.message(), "injected write failure"));
  // Nothing was written, so the backend did not grow to cover slot 4.
  EXPECT_EQ(backend->SlotCount(), 0u);
}

TEST(FaultBackendTest, BitFlipIsSilentAtBackendLevel) {
  // The corrupting fault reports success — only the checksum layer can
  // catch it.
  FaultInjectingBackend::Faults faults;
  faults.corrupt_read_at = 1;
  faults.corrupt_bit = (kPageEnvelopeBytes + 3) * 8 + 5;  // payload byte
  std::unique_ptr<FaultInjectingBackend> backend = MakeFaulty(faults);
  uint8_t corrupt[kPageSize];
  uint8_t clean[kPageSize];
  ASSERT_TRUE(backend->Read(0, corrupt).ok());
  ASSERT_TRUE(backend->Read(0, clean).ok());
  EXPECT_NE(std::memcmp(corrupt, clean, kPageSize), 0);
  EXPECT_FALSE(OpenPagePayload(corrupt, PageKind::kTest, 0).ok());
  EXPECT_TRUE(OpenPagePayload(clean, PageKind::kTest, 0).ok());
}

SharedBufferPoolOptions PoolOptions() {
  SharedBufferPoolOptions options;
  options.capacity = 4;
  return options;
}

TEST(FaultPoolDeathTest, PinDiesOnBackendThatDoesNotLendNamingPage) {
  // A pool only borrows pages; a backend that cannot lend a page below
  // its SlotCount() is a checked error naming it, never a silent read
  // into a copy.
  std::unique_ptr<FaultInjectingBackend> backend =
      MakeFaulty(FaultInjectingBackend::Faults{});
  TestCodec codec;
  SharedBufferPool pool(backend.get(), &codec, PoolOptions());
  bool missed = false;
  EXPECT_DEATH(static_cast<void>(pool.Pin(2, &missed)),
               "backend fault\\(memory\\) does not lend page 2");
  EXPECT_EQ(backend->reads(), 0u);
}

TEST(FaultBackendTest, CrashTriggerFiresAtNthMutationAndLatches) {
  FaultInjectingBackend::Faults faults;
  faults.crash_at_write = 3;
  std::unique_ptr<FaultInjectingBackend> backend = MakeFaulty(faults);
  uint8_t buffer[kPageSize];
  SealTestPage(7, buffer);

  // Write and Sync share the mutation counter.
  EXPECT_TRUE(backend->Write(5, buffer).ok());  // mutation 1
  EXPECT_TRUE(backend->Sync().ok());            // mutation 2
  EXPECT_FALSE(backend->crashed());
  const Status crash = backend->Write(0, buffer);  // mutation 3: the crash
  EXPECT_EQ(crash.code(), StatusCode::kIoError);
  EXPECT_TRUE(Contains(crash.message(), "injected crash point (mutation 3)"))
      << crash.ToString();
  EXPECT_TRUE(backend->crashed());
  EXPECT_EQ(backend->mutations(), 3u);

  // The backend is dead: every later call fails, reads included, and the
  // mutation counter stops advancing.
  EXPECT_EQ(backend->Write(6, buffer).code(), StatusCode::kIoError);
  EXPECT_EQ(backend->Sync().code(), StatusCode::kIoError);
  const Status read = backend->Read(0, buffer);
  EXPECT_EQ(read.code(), StatusCode::kIoError);
  EXPECT_TRUE(Contains(read.message(), "after injected crash"))
      << read.ToString();
  EXPECT_EQ(backend->mutations(), 3u);

  // State from before the crash survives in the wrapped backend (it is
  // what a recovery re-open would see); the doomed write never happened.
  ASSERT_TRUE(backend->wrapped()->Read(5, buffer).ok());
  EXPECT_EQ(ValueOf(buffer), 7u);
  ASSERT_TRUE(backend->wrapped()->Read(0, buffer).ok());
  EXPECT_EQ(ValueOf(buffer), 1000u);
}

TEST(FaultBackendTest, CrashOnFirstMutationKillsEverything) {
  FaultInjectingBackend::Faults faults;
  faults.crash_at_write = 1;
  std::unique_ptr<FaultInjectingBackend> backend = MakeFaulty(faults);
  EXPECT_EQ(backend->Sync().code(), StatusCode::kIoError);
  EXPECT_TRUE(backend->crashed());
  uint8_t buffer[kPageSize];
  EXPECT_EQ(backend->Read(0, buffer).code(), StatusCode::kIoError);
}

TEST(FaultBackendTest, WriteFaultDoesNotCorruptOtherPages) {
  FaultInjectingBackend::Faults faults;
  faults.fail_write_at = 2;
  auto backend = std::make_unique<FaultInjectingBackend>(
      std::make_unique<MemoryPageBackend>(), faults);
  uint8_t buffer[kPageSize];
  for (PageId id = 0; id < 4; ++id) {
    SealTestPage(100 + id, buffer);
    const Status status = backend->Write(id, buffer);
    EXPECT_EQ(status.ok(), id != 1) << status.ToString();  // page 1 fails
  }
  SealTestPage(101, buffer);
  ASSERT_TRUE(backend->Write(1, buffer).ok());  // retry after disarm
  for (PageId id = 0; id < 4; ++id) {
    ASSERT_TRUE(backend->Read(id, buffer).ok());
    const Status checked = TestCodec().Check(buffer, id);
    ASSERT_TRUE(checked.ok()) << checked.ToString();
    EXPECT_EQ(ValueOf(buffer), 100u + id);
  }
}

}  // namespace
}  // namespace stindex
