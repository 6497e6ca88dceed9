#include "src/mem/buddy_allocator.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <vector>

#include "src/common/rng.h"
#include "src/mem/memory_system.h"

namespace memtis {
namespace {

TEST(BuddyAllocator, StartsFullyFree) {
  BuddyAllocator buddy(1024);
  EXPECT_EQ(buddy.total_frames(), 1024u);
  EXPECT_EQ(buddy.free_frames(), 1024u);
  EXPECT_DOUBLE_EQ(buddy.huge_block_ratio(), 1.0);
  EXPECT_TRUE(buddy.CheckConsistency());
}

TEST(BuddyAllocator, RoundsDownToHugeMultiple) {
  BuddyAllocator buddy(1000);
  EXPECT_EQ(buddy.total_frames(), 512u);
}

TEST(BuddyAllocator, AllocateAndFreeBasePage) {
  BuddyAllocator buddy(1024);
  auto frame = buddy.Allocate(0);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(buddy.free_frames(), 1023u);
  EXPECT_TRUE(buddy.CheckConsistency());
  buddy.Free(*frame, 0);
  EXPECT_EQ(buddy.free_frames(), 1024u);
  EXPECT_TRUE(buddy.CheckConsistency());
  // After freeing everything, merging must restore a full huge block.
  EXPECT_DOUBLE_EQ(buddy.huge_block_ratio(), 1.0);
}

TEST(BuddyAllocator, HugeAllocationIsAligned) {
  BuddyAllocator buddy(4096);
  for (int i = 0; i < 8; ++i) {
    auto frame = buddy.Allocate(BuddyAllocator::kMaxOrder);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(*frame % 512, 0u);
  }
  EXPECT_FALSE(buddy.Allocate(BuddyAllocator::kMaxOrder).has_value());
  EXPECT_EQ(buddy.free_frames(), 0u);
}

TEST(BuddyAllocator, ExhaustionReturnsNullopt) {
  BuddyAllocator buddy(512);
  std::vector<FrameId> frames;
  for (int i = 0; i < 512; ++i) {
    auto frame = buddy.Allocate(0);
    ASSERT_TRUE(frame.has_value());
    frames.push_back(*frame);
  }
  EXPECT_FALSE(buddy.Allocate(0).has_value());
  // All frames must be distinct.
  std::sort(frames.begin(), frames.end());
  EXPECT_TRUE(std::adjacent_find(frames.begin(), frames.end()) == frames.end());
}

TEST(BuddyAllocator, FragmentationBlocksHugeAllocations) {
  BuddyAllocator buddy(1024);
  auto a = buddy.Allocate(0);
  ASSERT_TRUE(a.has_value());
  auto b = buddy.Allocate(BuddyAllocator::kMaxOrder);
  ASSERT_TRUE(b.has_value());
  // 511 frames free but scattered within one huge block: no huge allocation.
  EXPECT_EQ(buddy.free_frames(), 511u);
  EXPECT_FALSE(buddy.CanAllocate(BuddyAllocator::kMaxOrder));
  buddy.Free(*a, 0);
  EXPECT_TRUE(buddy.CanAllocate(BuddyAllocator::kMaxOrder));
}

TEST(BuddyAllocator, SplitAndMergeRestoresHugeBlocks) {
  BuddyAllocator buddy(512);
  std::vector<FrameId> frames;
  for (int i = 0; i < 512; ++i) {
    frames.push_back(*buddy.Allocate(0));
  }
  for (FrameId f : frames) {
    buddy.Free(f, 0);
  }
  EXPECT_TRUE(buddy.CanAllocate(BuddyAllocator::kMaxOrder));
  EXPECT_DOUBLE_EQ(buddy.huge_block_ratio(), 1.0);
  EXPECT_TRUE(buddy.CheckConsistency());
}

TEST(BuddyAllocator, MixedOrderStressStaysConsistent) {
  BuddyAllocator buddy(8192);
  Rng rng(123);
  std::vector<std::pair<FrameId, int>> held;
  for (int step = 0; step < 5000; ++step) {
    if (held.empty() || rng.NextBool(0.55)) {
      const int order = rng.NextBool(0.2) ? BuddyAllocator::kMaxOrder
                                          : static_cast<int>(rng.NextBelow(4));
      auto frame = buddy.Allocate(order);
      if (frame.has_value()) {
        held.emplace_back(*frame, order);
      }
    } else {
      const size_t pick = rng.NextBelow(held.size());
      buddy.Free(held[pick].first, held[pick].second);
      held[pick] = held.back();
      held.pop_back();
    }
  }
  EXPECT_TRUE(buddy.CheckConsistency());
  for (auto& [frame, order] : held) {
    buddy.Free(frame, order);
  }
  EXPECT_EQ(buddy.free_frames(), buddy.total_frames());
  EXPECT_TRUE(buddy.CheckConsistency());
  EXPECT_DOUBLE_EQ(buddy.huge_block_ratio(), 1.0);
}

// Resident set size of this process in bytes, from /proc/self/statm.
uint64_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size_pages = 0;
  uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

TEST(BuddyAllocator, ConstructionTouchesNoPerFrameStorage) {
  // 256 GiB across two tiers is 64M frames: eager link and state storage
  // (17 B per frame) would make about 1.1 GB resident. Lazy storage writes
  // none of it until a block is split or freed.
  const uint64_t before = ResidentBytes();
  MemorySystem mem(
      MemoryConfig{.fast_frames = 16ULL << 20, .capacity_frames = 48ULL << 20});
  const uint64_t after = ResidentBytes();
  ASSERT_GT(before, 0u);
  EXPECT_LT(after - before, 64ULL << 20)
      << "resident growth " << (after - before) << " B";
  EXPECT_EQ(mem.tier(TierId::kFast).free_frames(), 16ULL << 20);
  EXPECT_EQ(mem.tier(TierId::kCapacity).free_frames(), 48ULL << 20);
  EXPECT_TRUE(mem.tier(TierId::kCapacity).allocator().CheckConsistency());
}

class BuddyOrderTest : public ::testing::TestWithParam<int> {};

TEST_P(BuddyOrderTest, AllocationIsAlignedToOrder) {
  const int order = GetParam();
  BuddyAllocator buddy(4096);
  auto frame = buddy.Allocate(order);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(*frame & ((1ULL << order) - 1), 0u);
  EXPECT_EQ(buddy.free_frames(), 4096u - (1ULL << order));
  buddy.Free(*frame, order);
  EXPECT_EQ(buddy.free_frames(), 4096u);
}

INSTANTIATE_TEST_SUITE_P(AllOrders, BuddyOrderTest,
                         ::testing::Range(0, BuddyAllocator::kMaxOrder + 1));

}  // namespace
}  // namespace memtis
