#ifndef STINDEX_STORAGE_FAULT_BACKEND_H_
#define STINDEX_STORAGE_FAULT_BACKEND_H_

#include <cstdint>
#include <memory>
#include <string>

#include "storage/page_backend.h"
#include "util/status.h"

namespace stindex {

// Test-only PageBackend wrapper that injects deterministic faults into a
// wrapped backend (fail the Nth read/write, deliver a short read, flip a
// bit in delivered data). Used by tests/storage_fault_test.cc to prove
// every I/O error surfaces as a Status or CHECK naming the page id —
// never as silent corruption.
//
// Counters are 1-based: `fail_read_at = 3` makes the third Read fail.
// 0 disables that fault. Faults fire once and then disarm, so a test can
// also verify recovery behaviour after the faulty call — except the
// crash trigger, which by design never disarms.
class FaultInjectingBackend : public PageBackend {
 public:
  struct Faults {
    // Fail the Nth Read with IoError (1-based; 0 = never).
    uint64_t fail_read_at = 0;
    // Fail the Nth Write with IoError.
    uint64_t fail_write_at = 0;
    // Crash at the Nth *mutating* call — Write and Sync share one
    // 1-based counter (see mutations()). That call fails with IoError
    // and, unlike the one-shot faults above, the backend stays dead:
    // every subsequent call (reads included) also fails, simulating
    // process death at that write site. The crash-point recovery
    // harness sweeps this over every mutation of a run.
    uint64_t crash_at_write = 0;
    // On the Nth Read, deliver only the first half of the page
    // (simulates a short read of a truncated file) and report IoError.
    uint64_t short_read_at = 0;
    // On the Nth Read, flip one bit in the delivered page but report
    // success — the checksum layer must catch it.
    uint64_t corrupt_read_at = 0;
    // Which bit to flip (byte_index * 8 + bit_index into the page).
    uint64_t corrupt_bit = 0;
  };

  FaultInjectingBackend(std::unique_ptr<PageBackend> wrapped, Faults faults)
      : wrapped_(std::move(wrapped)), faults_(faults) {}

  size_t page_size() const override { return wrapped_->page_size(); }
  Status Read(PageId id, uint8_t* out) const override;
  Status Write(PageId id, const uint8_t* data) override;
  size_t SlotCount() const override { return wrapped_->SlotCount(); }
  Status Sync() override;
  std::string Name() const override {
    return "fault(" + wrapped_->Name() + ")";
  }

  uint64_t reads() const { return reads_; }
  uint64_t writes() const { return writes_; }
  // Mutating calls observed so far (Write + Sync) — the counter
  // `crash_at_write` indexes into.
  uint64_t mutations() const { return mutations_; }
  // True once the crash trigger fired; everything fails from then on.
  bool crashed() const { return crashed_; }

  // The wrapped backend, to inspect what a simulated crash left in it.
  PageBackend* wrapped() { return wrapped_.get(); }

 private:
  // Advances the mutation counter and fires/latches the crash trigger.
  // Returns non-OK when the backend is (now) dead.
  Status CheckMutation(const char* op, PageId id);

  std::unique_ptr<PageBackend> wrapped_;
  mutable Faults faults_;
  mutable uint64_t reads_ = 0;
  uint64_t writes_ = 0;
  uint64_t mutations_ = 0;
  mutable bool crashed_ = false;
};

}  // namespace stindex

#endif  // STINDEX_STORAGE_FAULT_BACKEND_H_
