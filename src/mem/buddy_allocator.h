// Binary buddy allocator for physical frames within one memory tier.
//
// Orders 0..kHugeOrder (4 KiB .. 2 MiB). Huge pages are real order-9
// allocations, so fragmentation behaves like the kernel's: once a tier is
// fragmented by base-page churn, huge allocations can fail even with enough
// total free frames — exactly the situation THP-aware policies must handle.
//
// Construction is O(1) and host memory follows the 2 MiB blocks actually
// written, not the tier's capacity (DESIGN.md, "Lazy buddy storage"):
//   - Blocks below a watermark have never been touched. They are free order-9
//     blocks forming the descending tail of the order-9 list, exactly where an
//     allocator that pushed every block at start-up would hold them. Nothing
//     but Free's coalescing (orders < 9) and Allocate's pop of the head ever
//     removes from that list, so the list is a stack and the tail stays put.
//   - Per-frame link/state storage is allocated per 2 MiB block on the
//     block's first write. Unwritten blocks read as the values the eager
//     allocator would hold there, stale links of popped blocks included, so
//     the allocation sequence and the snapshot bytes are unchanged.

#ifndef MEMTIS_SIM_SRC_MEM_BUDDY_ALLOCATOR_H_
#define MEMTIS_SIM_SRC_MEM_BUDDY_ALLOCATOR_H_

#include <cstdint>
#include <memory>
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
  // all free lists and checks block alignment, no overlaps, that the
  // untouched range below the watermark is unwritten, disjoint from every
  // listed block and linked at the tail of the order-9 list, and that
  // free_frames() matches. The diagnostic variant describes the first
  // inconsistency found in `error` (unchanged when consistent).
  bool CheckConsistency() const { return CheckConsistency(nullptr); }
  bool CheckConsistency(std::string* error) const;

  // Checkpointing. Free-list *order* matters for determinism (Allocate pops
  // the head), so every frame's link and state is serialized verbatim rather
  // than re-derived: unwritten blocks are written as the values they read
  // as, and a load materializes every block. total_frames_ is configuration
  // — the loader cross-checks it and rejects a mismatched snapshot.
  template <typename Archive, typename Self>
  static void Serialize(Archive& ar, Self& self) {
    ar.Expect(self.total_frames_);
    ar.U64(self.free_frames_);
    for (auto& head : self.free_head_) ar.U64(head);
    if constexpr (Archive::kReading) self.MaterializeAll();
    Chunk derived;
    const auto chunk = [&](uint64_t b) -> Chunk& {
      if (self.chunks_[b]) return *self.chunks_[b];
      self.DeriveChunk(b, &derived);
      return derived;
    };
    for (uint64_t b = 0; b < self.chunks_.size(); ++b) {
      for (Link& link : chunk(b).links) {
        ar.U64(link.next);
        ar.U64(link.prev);
      }
    }
    for (uint64_t b = 0; b < self.chunks_.size(); ++b) {
      Chunk& c = chunk(b);
      ar.Bytes(c.state, sizeof(c.state));
    }
  }

 private:
  static constexpr FrameId kNil = static_cast<FrameId>(-1);
  static constexpr uint64_t kBlockFrames = kSubpagesPerHuge;
  static constexpr uint64_t kFrameMask = kBlockFrames - 1;

  // List links of a frame (only meaningful while the frame heads a free
  // block; a popped head keeps its stale links, as the snapshot records).
  struct Link {
    FrameId next = 0;
    FrameId prev = 0;
  };

  // Per-frame storage of one 2 MiB block. state[i]: 0 = frame i does not
  // head a free block; otherwise order + 1 of the free block it heads.
  struct Chunk {
    Link links[kBlockFrames];
    uint8_t state[kBlockFrames];
  };

  // First frame above the untouched range.
  FrameId implicit_end() const { return implicit_blocks_ * kBlockFrames; }
  // Head frame of the highest untouched block, or kNil when none is left.
  FrameId implicit_top() const {
    return implicit_blocks_ == 0 ? kNil : implicit_end() - kBlockFrames;
  }

  // Reads of any frame, written or not.
  uint8_t StateOf(FrameId frame) const;
  Link LinkOf(FrameId frame) const;
  // Fills `out` with what block `b` reads as while unwritten.
  void DeriveChunk(uint64_t b, Chunk* out) const;

  // Storage of the block holding `frame`, allocated on first write. Never
  // called for a block below the watermark.
  Chunk& Materialize(FrameId frame);
  // Allocates every block and drops the watermark (snapshot load).
  void MaterializeAll();
  void SetPrev(FrameId frame, FrameId prev);

  void PushFree(FrameId frame, int order);
  void RemoveFree(FrameId frame, int order);

  bool IsFreeHead(FrameId frame, int order) const;

  uint64_t total_frames_ = 0;
  uint64_t free_frames_ = 0;
  // head of free list per order
  FrameId free_head_[kMaxOrder + 1];
  // Blocks [0, implicit_blocks_) are untouched free order-9 blocks, listed in
  // descending order at the tail of the order-9 list.
  uint64_t implicit_blocks_ = 0;
  // prev link of implicit_top(): kNil while it heads the order-9 list,
  // otherwise the last explicitly pushed order-9 block.
  FrameId implicit_top_prev_ = kNil;
  // One entry per 2 MiB block; null while the block is unwritten.
  std::vector<std::unique_ptr<Chunk>> chunks_;
};

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_MEM_BUDDY_ALLOCATOR_H_
