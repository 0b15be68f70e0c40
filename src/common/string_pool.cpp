#include "common/string_pool.hpp"

#include <algorithm>
#include <cstring>

#include "common/check.hpp"

namespace gems {

StringPool::~StringPool() {
  for (auto& block : blocks_) delete[] block.load(std::memory_order_relaxed);
}

std::string_view StringPool::arena_copy(std::string_view s) {
  if (s.size() > chunk_left_) {
    // Tail bytes of the old chunk are abandoned; chunks grow geometrically
    // so a small pool stays small and a large one allocates rarely.
    const std::size_t bytes = std::max(next_chunk_bytes_, s.size());
    next_chunk_bytes_ = std::min(next_chunk_bytes_ * 2, kMaxChunkBytes);
    chunks_.push_back(std::make_unique_for_overwrite<char[]>(bytes));
    chunk_cursor_ = chunks_.back().get();
    chunk_left_ = bytes;
  }
  if (s.empty()) return {};
  std::memcpy(chunk_cursor_, s.data(), s.size());
  const std::string_view out(chunk_cursor_, s.size());
  chunk_cursor_ += s.size();
  chunk_left_ -= s.size();
  return out;
}

StringId StringPool::intern(std::string_view s) {
  sync::MutexLock lock(mutex_);
  auto it = index_.find(s);
  if (it != index_.end()) return it->second;
  const std::size_t n = size_.load(std::memory_order_relaxed);
  GEMS_CHECK_MSG(n < kInvalidStringId, "string pool exhausted 2^32-1 entries");
  const StringId id = static_cast<StringId>(n);
  const Slot slot = slot_of(id);
  std::string_view* block = blocks_[slot.block].load(std::memory_order_relaxed);
  if (block == nullptr) {
    block = new std::string_view[(std::size_t{1} << kFirstBlockLog2)
                                 << slot.block];
    blocks_[slot.block].store(block, std::memory_order_release);
  }
  const std::string_view stored = arena_copy(s);
  block[slot.offset] = stored;
  bytes_ += s.size();
  // Key the index by the arena copy, which never moves.
  index_.emplace(stored, id);
  size_.store(n + 1, std::memory_order_release);
  return id;
}

StringId StringPool::find(std::string_view s) const {
  sync::MutexLock lock(mutex_);
  auto it = index_.find(s);
  return it == index_.end() ? kInvalidStringId : it->second;
}

std::size_t StringPool::byte_size() const {
  sync::MutexLock lock(mutex_);
  return bytes_;
}

}  // namespace gems
