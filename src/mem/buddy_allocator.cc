#include "src/mem/buddy_allocator.h"

#include <bitset>
#include <unordered_map>

#include "src/common/check.h"

namespace memtis {

BuddyAllocator::BuddyAllocator(uint64_t num_frames) {
  total_frames_ = num_frames / kBlockFrames * kBlockFrames;
  SIM_CHECK_GT(total_frames_, 0u);
  for (auto& head : free_head_) {
    head = kNil;
  }
  // Every block starts untouched, the highest at the head of the order-9
  // list: the order an eager PushFree of blocks 0, 1, 2, ... leaves.
  implicit_blocks_ = total_frames_ / kBlockFrames;
  chunks_.resize(implicit_blocks_);
  free_head_[kMaxOrder] = implicit_top();
  free_frames_ = total_frames_;
}

uint8_t BuddyAllocator::StateOf(FrameId frame) const {
  if (const Chunk* c = chunks_[frame / kBlockFrames].get()) {
    return c->state[frame & kFrameMask];
  }
  return (frame & kFrameMask) == 0 && frame < implicit_end() ? kMaxOrder + 1 : 0;
}

BuddyAllocator::Link BuddyAllocator::LinkOf(FrameId frame) const {
  if (const Chunk* c = chunks_[frame / kBlockFrames].get()) {
    return c->links[frame & kFrameMask];
  }
  if ((frame & kFrameMask) != 0) {
    return Link{};
  }
  // An untouched block links down to the block below it; a popped one keeps
  // those links stale, with prev cleared by its removal from the head.
  const FrameId below = frame == 0 ? kNil : frame - kBlockFrames;
  if (frame >= implicit_end()) {
    return Link{below, kNil};
  }
  return Link{below, frame == implicit_top() ? implicit_top_prev_ : frame + kBlockFrames};
}

void BuddyAllocator::DeriveChunk(uint64_t b, Chunk* out) const {
  const FrameId base = b * kBlockFrames;
  *out = Chunk{};
  out->links[0] = LinkOf(base);
  out->state[0] = StateOf(base);
}

BuddyAllocator::Chunk& BuddyAllocator::Materialize(FrameId frame) {
  std::unique_ptr<Chunk>& c = chunks_[frame / kBlockFrames];
  if (c == nullptr) {
    SIM_DCHECK(frame >= implicit_end());
    const Link head = LinkOf(frame & ~kFrameMask);
    c = std::make_unique<Chunk>();
    c->links[0] = head;
  }
  return *c;
}

void BuddyAllocator::MaterializeAll() {
  for (auto& c : chunks_) {
    if (c == nullptr) c = std::make_unique<Chunk>();
  }
  implicit_blocks_ = 0;
  implicit_top_prev_ = kNil;
}

void BuddyAllocator::SetPrev(FrameId frame, FrameId prev) {
  if (frame == implicit_top()) {
    implicit_top_prev_ = prev;
  } else {
    Materialize(frame).links[frame & kFrameMask].prev = prev;
  }
}

void BuddyAllocator::PushFree(FrameId frame, int order) {
  Chunk& c = Materialize(frame);
  const uint64_t i = frame & kFrameMask;
  SIM_DCHECK(c.state[i] == 0);
  c.state[i] = static_cast<uint8_t>(order + 1);
  c.links[i].prev = kNil;
  c.links[i].next = free_head_[order];
  if (free_head_[order] != kNil) {
    SetPrev(free_head_[order], frame);
  }
  free_head_[order] = frame;
}

void BuddyAllocator::RemoveFree(FrameId frame, int order) {
  SIM_DCHECK(IsFreeHead(frame, order));
  if (frame < implicit_end()) {
    // Only Allocate's pop of the order-9 head reaches the untouched range;
    // the popped block stays unwritten and reads as its stale links.
    SIM_CHECK_EQ(frame, free_head_[kMaxOrder]);
    --implicit_blocks_;
    free_head_[kMaxOrder] = implicit_top();
    return;
  }
  Chunk& c = Materialize(frame);
  const uint64_t i = frame & kFrameMask;
  const FrameId prev = c.links[i].prev;
  const FrameId next = c.links[i].next;
  if (prev != kNil) {
    Materialize(prev).links[prev & kFrameMask].next = next;
  } else {
    free_head_[order] = next;
  }
  if (next != kNil) {
    SetPrev(next, prev);
  }
  c.state[i] = 0;
}

bool BuddyAllocator::IsFreeHead(FrameId frame, int order) const {
  return frame < total_frames_ && StateOf(frame) == static_cast<uint8_t>(order + 1);
}

std::optional<FrameId> BuddyAllocator::Allocate(int order) {
  SIM_CHECK(order >= 0 && order <= kMaxOrder);
  int found = -1;
  for (int o = order; o <= kMaxOrder; ++o) {
    if (free_head_[o] != kNil) {
      found = o;
      break;
    }
  }
  if (found < 0) {
    return std::nullopt;
  }
  FrameId frame = free_head_[found];
  RemoveFree(frame, found);
  // Split down to the requested order, returning the lower half each time.
  while (found > order) {
    --found;
    const FrameId upper = frame + (1ULL << found);
    PushFree(upper, found);
  }
  free_frames_ -= 1ULL << order;
  return frame;
}

void BuddyAllocator::Free(FrameId frame, int order) {
  SIM_CHECK(order >= 0 && order <= kMaxOrder);
  SIM_CHECK_LT(frame, total_frames_);
  SIM_CHECK_EQ(frame & ((1ULL << order) - 1), 0u);
  SIM_CHECK_EQ(StateOf(frame), 0);  // double-free guard (only exact for heads)
  free_frames_ += 1ULL << order;
  while (order < kMaxOrder) {
    const FrameId buddy = frame ^ (1ULL << order);
    if (!IsFreeHead(buddy, order)) {
      break;
    }
    RemoveFree(buddy, order);
    frame = frame < buddy ? frame : buddy;
    ++order;
  }
  PushFree(frame, order);
}

bool BuddyAllocator::CanAllocate(int order) const {
  SIM_CHECK(order >= 0 && order <= kMaxOrder);
  for (int o = order; o <= kMaxOrder; ++o) {
    if (free_head_[o] != kNil) {
      return true;
    }
  }
  return false;
}

double BuddyAllocator::huge_block_ratio() const {
  if (free_frames_ == 0) {
    return 1.0;
  }
  uint64_t huge_free = implicit_end();
  for (FrameId f = free_head_[kMaxOrder]; f != kNil && f != implicit_top();
       f = LinkOf(f).next) {
    huge_free += kBlockFrames;
  }
  return static_cast<double>(huge_free) / static_cast<double>(free_frames_);
}

bool BuddyAllocator::CheckConsistency(std::string* error) const {
  const auto fail = [error](std::string detail) {
    if (error != nullptr) {
      *error = std::move(detail);
    }
    return false;
  };
  const uint64_t blocks = chunks_.size();
  if (implicit_blocks_ > blocks) {
    return fail("watermark " + std::to_string(implicit_blocks_) + " above the " +
                std::to_string(blocks) + " blocks of the tier");
  }
  for (uint64_t b = 0; b < implicit_blocks_; ++b) {
    if (chunks_[b] != nullptr) {
      return fail("block " + std::to_string(b) + " below the watermark " +
                  std::to_string(implicit_blocks_) + " has storage");
    }
  }
  // Coverage is tracked per block for order-9 blocks and per frame only in
  // blocks that hold smaller free blocks, so untouched blocks cost nothing.
  std::vector<uint8_t> whole(blocks, 0);
  std::unordered_map<uint64_t, std::bitset<kBlockFrames>> partial;
  uint64_t counted = implicit_end();
  for (int order = kMaxOrder; order >= 0; --order) {
    FrameId last = kNil;
    FrameId f = free_head_[order];
    for (; f != kNil && f != implicit_top(); last = f, f = LinkOf(f).next) {
      if (!IsFreeHead(f, order)) {
        return fail("frame " + std::to_string(f) + " on order-" +
                    std::to_string(order) + " free list has state " +
                    std::to_string(f < total_frames_ ? StateOf(f) : 0));
      }
      if ((f & ((1ULL << order) - 1)) != 0) {
        return fail("misaligned order-" + std::to_string(order) + " free block at " +
                    std::to_string(f));
      }
      if (f < implicit_end()) {
        return fail("order-" + std::to_string(order) + " free block at " +
                    std::to_string(f) + " lies below the watermark");
      }
      const uint64_t b = f / kBlockFrames;
      if (whole[b]) {
        return fail("frame " + std::to_string(f) + " covered by two free blocks");
      }
      if (order == kMaxOrder) {
        whole[b] = 1;
      } else {
        std::bitset<kBlockFrames>& covered = partial[b];
        for (uint64_t i = 0; i < (1ULL << order); ++i) {
          if (covered[(f & kFrameMask) + i]) {
            return fail("frame " + std::to_string(f + i) +
                        " covered by two free blocks");
          }
          covered[(f & kFrameMask) + i] = true;
        }
      }
      counted += 1ULL << order;
    }
    if (order == kMaxOrder) {
      if (f != implicit_top()) {
        return fail("order-9 free list does not end at the untouched block " +
                    std::to_string(implicit_top()));
      }
      if (implicit_blocks_ > 0 && implicit_top_prev_ != last) {
        return fail("untouched block " + std::to_string(f) + " has prev " +
                    std::to_string(implicit_top_prev_) + " but follows " +
                    std::to_string(last));
      }
    } else if (f != kNil) {
      return fail("order-" + std::to_string(order) +
                  " free list reaches the untouched range at " + std::to_string(f));
    }
  }
  if (counted != free_frames_) {
    return fail("free lists hold " + std::to_string(counted) +
                " frames but free_frames() is " + std::to_string(free_frames_));
  }
  return true;
}

}  // namespace memtis
