#include "storage/buffer_pool.h"

namespace stindex {

PageRef& PageRef::operator=(PageRef&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    id_ = other.id_;
    page_ = other.page_;
    other.pool_ = nullptr;
    other.id_ = kInvalidPage;
    other.page_ = nullptr;
  }
  return *this;
}

PageRef::~PageRef() { Release(); }

void PageRef::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(id_);
  }
  pool_ = nullptr;
  id_ = kInvalidPage;
  page_ = nullptr;
}

}  // namespace stindex
