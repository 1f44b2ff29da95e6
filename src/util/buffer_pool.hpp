/// \file buffer_pool.hpp
/// Recycling pool of shared byte buffers for the zero-copy wire path.
///
/// Wire sends hand a `Payload` (shared_ptr<const Bytes>) to the network,
/// which holds it until the last in-flight delivery runs. Allocating and
/// growing a fresh vector per datagram dominated the send-side allocation
/// profile; the pool instead re-issues buffers that have been released.
/// Each issued buffer carries a deleter that, when the last reference
/// drops, clears it and pushes it onto the pool's free list, so acquire()
/// is O(1) however many buffers are still in flight. Buffers keep their
/// capacity across reuse, so after warm-up a send needs no buffer growth.
/// The shared_ptr control blocks are recycled through the same free list
/// (an allocator over it), so after warm-up an acquire allocates nothing.
/// Idle blocks are kept up to kIdleBlocks, which covers steady traffic; a
/// burst beyond it (a crash makes thousands of datagrams wait) hands its
/// extra blocks back to the heap instead of pinning them for good.
///
/// Lifetime rules:
///   - acquire() returns a cleared, mutable buffer; fill it, then convert
///     to Payload (shared_ptr<const Bytes>) and send. Never mutate after
///     converting — readers hold views into it.
///   - The buffer returns to circulation automatically when the last
///     Payload copy dies; there is no release() call to forget.
///   - A buffer may outlive its pool: the free list is shared with every
///     issued buffer and is destroyed with the last of them.
///   - Single-threaded by design (one pool per simulated World / Context).
#pragma once

#include <memory>
#include <new>
#include <vector>

#include "util/types.hpp"

namespace gcs {

class BufferPool {
 public:
  /// A cleared buffer, capacity preserved from earlier use when recycled.
  std::shared_ptr<Bytes> acquire() {
    std::unique_ptr<Bytes> buf;
    if (free_->buffers.empty()) {
      buf = std::make_unique<Bytes>();
      ++created_;
    } else {
      buf = std::move(free_->buffers.back());
      free_->buffers.pop_back();
    }
    return std::shared_ptr<Bytes>(buf.release(), Recycle{free_.get()},
                                  BlockAlloc<Bytes>{free_});
  }

  /// The most buffers ever live at once (pool high-water mark): a buffer
  /// is created only when every earlier one is in use.
  std::size_t size() const { return created_; }

 private:
  static constexpr std::size_t kIdleBlocks = 256;

  struct FreeList {
    std::vector<std::unique_ptr<Bytes>> buffers;
    /// Released control blocks. acquire() makes one control-block type,
    /// so every block has the same size.
    std::vector<void*> blocks;
    FreeList() = default;
    FreeList(const FreeList&) = delete;
    FreeList& operator=(const FreeList&) = delete;
    ~FreeList() {
      for (void* b : blocks) ::operator delete(b);
    }
  };
  /// Runs while the control block, and so its allocator's reference to
  /// the free list, is still alive.
  struct Recycle {
    FreeList* free;
    void operator()(Bytes* b) const {
      b->clear();
      free->buffers.emplace_back(b);
    }
  };
  /// Control-block allocator. It holds the free list alive: the standard
  /// deallocates a control block through a copy of its allocator, after
  /// the block itself (and its deleter) is destroyed.
  template <typename T>
  struct BlockAlloc {
    using value_type = T;
    std::shared_ptr<FreeList> free;

    explicit BlockAlloc(std::shared_ptr<FreeList> f) : free(std::move(f)) {}
    template <typename U>
    BlockAlloc(const BlockAlloc<U>& other) : free(other.free) {}

    T* allocate(std::size_t n) {
      if (n == 1 && !free->blocks.empty()) {
        void* b = free->blocks.back();
        free->blocks.pop_back();
        return static_cast<T*>(b);
      }
      return static_cast<T*>(::operator new(n * sizeof(T)));
    }
    void deallocate(T* p, std::size_t n) {
      if (n == 1 && free->blocks.size() < kIdleBlocks) {
        free->blocks.push_back(p);
      } else {
        ::operator delete(p);
      }
    }
    template <typename U>
    bool operator==(const BlockAlloc<U>& other) const { return free == other.free; }
  };

  std::shared_ptr<FreeList> free_ = std::make_shared<FreeList>();
  std::size_t created_ = 0;
};

}  // namespace gcs
