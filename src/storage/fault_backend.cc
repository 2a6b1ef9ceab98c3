#include "storage/fault_backend.h"

#include <cstring>

namespace stindex {

namespace {
std::string OpTarget(const char* op, PageId id) {
  if (id == kInvalidPage) return op;
  return "page " + std::to_string(id) + ": " + op;
}
}  // namespace

Status FaultInjectingBackend::CheckMutation(const char* op, PageId id) {
  if (crashed_) {
    return Status::IoError(OpTarget(op, id) + " after injected crash");
  }
  ++mutations_;
  if (faults_.crash_at_write != 0 && mutations_ == faults_.crash_at_write) {
    crashed_ = true;
    return Status::IoError(OpTarget(op, id) +
                           " hit injected crash point (mutation " +
                           std::to_string(mutations_) + ")");
  }
  return Status::OK();
}

Status FaultInjectingBackend::Read(PageId id, uint8_t* out) const {
  if (crashed_) {
    return Status::IoError("page " + std::to_string(id) +
                           ": read after injected crash");
  }
  ++reads_;
  if (faults_.fail_read_at != 0 && reads_ == faults_.fail_read_at) {
    faults_.fail_read_at = 0;
    return Status::IoError("page " + std::to_string(id) +
                           ": injected read failure");
  }
  if (faults_.short_read_at != 0 && reads_ == faults_.short_read_at) {
    faults_.short_read_at = 0;
    // Deliver half the page, then report the failure the way a real
    // backend reports hitting EOF mid-page.
    Status status = wrapped_->Read(id, out);
    if (!status.ok()) return status;
    std::memset(out + page_size() / 2, 0, page_size() - page_size() / 2);
    return Status::IoError("page " + std::to_string(id) +
                           ": injected short read (" +
                           std::to_string(page_size() / 2) + " of " +
                           std::to_string(page_size()) + " bytes)");
  }
  if (faults_.corrupt_read_at != 0 && reads_ == faults_.corrupt_read_at) {
    faults_.corrupt_read_at = 0;
    Status status = wrapped_->Read(id, out);
    if (!status.ok()) return status;
    const uint64_t bit = faults_.corrupt_bit % (page_size() * 8);
    out[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    return Status::OK();  // silent corruption: the checksum must catch it
  }
  return wrapped_->Read(id, out);
}

Status FaultInjectingBackend::Write(PageId id, const uint8_t* data) {
  Status alive = CheckMutation("write", id);
  if (!alive.ok()) return alive;
  ++writes_;
  if (faults_.fail_write_at != 0 && writes_ == faults_.fail_write_at) {
    faults_.fail_write_at = 0;
    return Status::IoError("page " + std::to_string(id) +
                           ": injected write failure");
  }
  return wrapped_->Write(id, data);
}

Status FaultInjectingBackend::Sync() {
  Status alive = CheckMutation("sync", kInvalidPage);
  if (!alive.ok()) return alive;
  return wrapped_->Sync();
}

}  // namespace stindex
