// Append-only string interning pool.
//
// GEMS stores varchar column data as 32-bit pool ids: equality comparisons
// and hash joins on string keys (the dominant operation in the Berlin
// schema, whose keys are all varchar) become integer operations, and each
// distinct string is stored once regardless of how many rows reference it.
// Ordering comparisons go back through the pool.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"
#include "common/sync.hpp"

namespace gems {

/// Id of an interned string. Dense, starting at 0. kInvalid doubles as the
/// encoding of NULL in varchar columns.
using StringId = std::uint32_t;
inline constexpr StringId kInvalidStringId = 0xffffffffu;

/// Thread-safe append-only interner.
///
/// Contract: `view` takes no lock and is safe from any thread for any id
/// the caller obtained from published data — a column, a result table, an
/// atomic — i.e. through something that happens-after the `intern` call
/// that returned the id. `intern`, `find`, `byte_size` and `for_each` take
/// the pool mutex. Readers therefore never contend with each other or with
/// a writer interning new strings.
///
/// Layout: characters live in an append-only arena of chunks that never
/// move; an id→string_view directory is made of geometric blocks (block b
/// holds kFirstBlock << b entries), each allocated on first use and
/// published with a release store, so a small pool stays small and a large
/// one never relocates an entry a reader may be looking at.
class StringPool {
 public:
  StringPool() = default;
  ~StringPool();

  StringPool(const StringPool&) = delete;
  StringPool& operator=(const StringPool&) = delete;

  /// Interns `s`, returning its id (existing or new).
  StringId intern(std::string_view s);

  /// Returns the id of `s` if already interned, kInvalidStringId otherwise.
  /// Useful to prove a constant cannot match any row without scanning.
  StringId find(std::string_view s) const;

  /// Returns the string for a valid id, without locking. The view stays
  /// valid for the pool's lifetime (storage never relocates).
  std::string_view view(StringId id) const {
    GEMS_DCHECK(id < size());
    const Slot slot = slot_of(id);
    const std::string_view* block =
        blocks_[slot.block].load(std::memory_order_acquire);
    return block[slot.offset];
  }

  std::size_t size() const { return size_.load(std::memory_order_acquire); }

  /// Total bytes of interned character data (for catalog sizing stats).
  std::size_t byte_size() const;

  /// Calls `fn(id, string)` for every interned string in ascending id
  /// order, under one lock acquisition. The enumeration order is
  /// *deterministic* — ids are assigned densely in intern order — which is
  /// what makes gems::store snapshots byte-reproducible: two snapshots of
  /// the same database state produce identical pool sections. (Never
  /// iterate `index_` for serialization; unordered_map order is not stable
  /// across runs.)
  template <typename Fn>
  void for_each(Fn&& fn) const {
    sync::MutexLock lock(mutex_);
    const std::size_t n = size_.load(std::memory_order_relaxed);
    for (std::size_t id = 0; id < n; ++id) {
      fn(static_cast<StringId>(id), view(static_cast<StringId>(id)));
    }
  }

 private:
  // Block b covers ids [kFirstBlock * (2^b - 1), kFirstBlock * (2^(b+1) - 1)).
  // 25 blocks of a 256-entry first block span every id below
  // kInvalidStringId.
  static constexpr std::uint32_t kFirstBlockLog2 = 8;
  static constexpr std::size_t kNumBlocks = 25;
  static constexpr std::size_t kFirstChunkBytes = 4096;
  static constexpr std::size_t kMaxChunkBytes = 1u << 20;

  struct Slot {
    std::size_t block;
    std::size_t offset;
  };
  static Slot slot_of(StringId id) noexcept {
    // Block b = floor(log2(id / kFirstBlock + 1)).
    const std::uint32_t q = (id >> kFirstBlockLog2) + 1;
    const std::size_t block = static_cast<std::size_t>(std::bit_width(q)) - 1;
    const std::size_t first = ((std::size_t{1} << block) - 1)
                              << kFirstBlockLog2;
    return {block, id - first};
  }
  /// Copies `s` into the arena; the returned view never moves.
  std::string_view arena_copy(std::string_view s) GEMS_REQUIRES(mutex_);

  mutable sync::Mutex mutex_;
  std::atomic<std::string_view*> blocks_[kNumBlocks] = {};
  std::atomic<std::size_t> size_{0};
  std::vector<std::unique_ptr<char[]>> chunks_ GEMS_GUARDED_BY(mutex_);
  char* chunk_cursor_ GEMS_GUARDED_BY(mutex_) = nullptr;
  std::size_t chunk_left_ GEMS_GUARDED_BY(mutex_) = 0;
  std::size_t next_chunk_bytes_ GEMS_GUARDED_BY(mutex_) = kFirstChunkBytes;
  std::unordered_map<std::string_view, StringId> index_
      GEMS_GUARDED_BY(mutex_);
  std::size_t bytes_ GEMS_GUARDED_BY(mutex_) = 0;
};

}  // namespace gems
