// Binary buddy allocator for physical frames within one memory tier.
//
// Orders 0..kHugeOrder (4 KiB .. 2 MiB). Huge pages are real order-9
// allocations, so fragmentation behaves like the kernel's: once a tier is
// fragmented by base-page churn, huge allocations can fail even with enough
// total free frames — exactly the situation THP-aware policies must handle.

#ifndef MEMTIS_SIM_SRC_MEM_BUDDY_ALLOCATOR_H_
#define MEMTIS_SIM_SRC_MEM_BUDDY_ALLOCATOR_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/mem/types.h"

namespace memtis {

class BuddyAllocator {
 public:
  static constexpr int kMaxOrder = static_cast<int>(kHugeOrder);

  // num_frames is rounded down to a multiple of the largest block size so the
  // frame array tiles cleanly into order-9 blocks.
  explicit BuddyAllocator(uint64_t num_frames);

  // Allocates a block of 2^order contiguous frames; returns the first frame.
  std::optional<FrameId> Allocate(int order);

  // Frees a block previously returned by Allocate with the same order.
  void Free(FrameId frame, int order);

  // True if an allocation of the given order would currently succeed.
  bool CanAllocate(int order) const;

  uint64_t total_frames() const { return total_frames_; }
  uint64_t free_frames() const { return free_frames_; }
  uint64_t used_frames() const { return total_frames_ - free_frames_; }

  // Fraction of free memory that sits in order-kMaxOrder blocks; 1.0 means the
  // free space is fully defragmented. Diagnostic only.
  double huge_block_ratio() const;

  // Internal-consistency audit used by tests and the runtime auditor: walks
  // all free lists and checks block alignment, no overlaps, and that
  // free_frames() matches. The diagnostic variant describes the first
  // inconsistency found in `error` (unchanged when consistent).
  bool CheckConsistency() const { return CheckConsistency(nullptr); }
  bool CheckConsistency(std::string* error) const;

  // Number of free blocks currently queued at each order (walks the free
  // lists; diagnostic/observability only).
  std::array<uint64_t, kMaxOrder + 1> FreeBlockCounts() const;

  // Checkpointing. Free-list *order* matters for determinism (Allocate pops
  // the head), so links_/state_/heads are serialized verbatim rather than
  // re-derived. total_frames_ is configuration — the loader cross-checks it
  // and rejects a mismatched snapshot.
  template <typename Archive, typename Self>
  static void Serialize(Archive& ar, Self& self) {
    ar.Expect(self.total_frames_);
    ar.U64(self.free_frames_);
    for (auto& head : self.free_head_) ar.U64(head);
    for (auto& b : self.links_) {
      ar.U64(b.next);
      ar.U64(b.prev);
    }
    ar.Bytes(self.state_.data(), self.state_.size());
  }

 private:
  // The member initializers make links_.resize() a plain zero-store loop.
  // Without them GCC copies the first element into every slot, and that loop
  // — most of the cost of building a small cell — ran up to 1.6x slower
  // whenever code placement made it straddle a 64-byte line.
  struct Block {
    FrameId next = 0;
    FrameId prev = 0;
  };

  static constexpr FrameId kNil = static_cast<FrameId>(-1);

  void PushFree(FrameId frame, int order);
  void RemoveFree(FrameId frame, int order);

  bool IsFreeHead(FrameId frame, int order) const;

  uint64_t total_frames_ = 0;
  uint64_t free_frames_ = 0;
  // head of free list per order
  FrameId free_head_[kMaxOrder + 1];
  // link storage per frame (only meaningful while the frame heads a free block)
  std::vector<Block> links_;
  // state_[f]: 0 = not a free-block head; otherwise order + 1 of the free block
  std::vector<uint8_t> state_;
};

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_MEM_BUDDY_ALLOCATOR_H_
