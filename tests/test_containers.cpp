// Tests for RingBuffer (the Logger's record store), FifoRing (FcfsServer's
// waiting jobs), BlockFifo (the ingress window) and Result<T, E>.

#include <gtest/gtest.h>

#include <string>

#include "common/result.hpp"
#include "common/ring_buffer.hpp"

namespace pam {
namespace {

TEST(RingBuffer, StartsEmpty) {
  // Storage comes on the first push; capacity() is the configured value.
  RingBuffer<int> rb{4};
  EXPECT_TRUE(rb.empty());
  EXPECT_FALSE(rb.full());
  EXPECT_EQ(rb.size(), 0u);
  EXPECT_EQ(rb.capacity(), 4u);
  EXPECT_FALSE(rb.pop().has_value());
}

TEST(RingBuffer, PushPopFifo) {
  RingBuffer<int> rb{4};
  rb.push_overwrite(1);
  rb.push_overwrite(2);
  rb.push_overwrite(3);
  EXPECT_EQ(rb.pop().value(), 1);
  EXPECT_EQ(rb.pop().value(), 2);
  EXPECT_EQ(rb.pop().value(), 3);
  EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, OverwriteDropsOldest) {
  RingBuffer<int> rb{3};
  EXPECT_FALSE(rb.push_overwrite(1));
  EXPECT_FALSE(rb.push_overwrite(2));
  EXPECT_FALSE(rb.push_overwrite(3));
  EXPECT_TRUE(rb.full());
  EXPECT_TRUE(rb.push_overwrite(4));  // evicts 1
  EXPECT_EQ(rb.size(), 3u);
  EXPECT_EQ(rb.at(0), 2);
  EXPECT_EQ(rb.at(1), 3);
  EXPECT_EQ(rb.at(2), 4);
}

TEST(RingBuffer, TryPushRespectsCapacity) {
  RingBuffer<int> rb{2};
  EXPECT_TRUE(rb.try_push(1));
  EXPECT_TRUE(rb.try_push(2));
  EXPECT_FALSE(rb.try_push(3));
  EXPECT_EQ(rb.at(0), 1);
}

TEST(RingBuffer, WrapAroundManyTimes) {
  RingBuffer<int> rb{5};
  for (int i = 0; i < 1000; ++i) {
    rb.push_overwrite(i);
  }
  EXPECT_EQ(rb.size(), 5u);
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_EQ(rb.at(k), 995 + static_cast<int>(k));
  }
}

TEST(RingBuffer, InterleavedPushPop) {
  RingBuffer<int> rb{3};
  rb.push_overwrite(1);
  rb.push_overwrite(2);
  EXPECT_EQ(rb.pop().value(), 1);
  rb.push_overwrite(3);
  rb.push_overwrite(4);
  EXPECT_TRUE(rb.full());
  EXPECT_TRUE(rb.push_overwrite(5));  // evicts 2
  EXPECT_EQ(rb.pop().value(), 3);
  EXPECT_EQ(rb.pop().value(), 4);
  EXPECT_EQ(rb.pop().value(), 5);
}

TEST(RingBuffer, ClearResets) {
  RingBuffer<int> rb{3};
  rb.push_overwrite(1);
  rb.clear();  // in the fill phase
  EXPECT_FALSE(rb.push_overwrite(2));
  EXPECT_FALSE(rb.push_overwrite(3));
  EXPECT_FALSE(rb.push_overwrite(4));
  EXPECT_TRUE(rb.full());
  EXPECT_EQ(rb.at(0), 2);
  EXPECT_EQ(rb.at(2), 4);
  rb.push_overwrite(5);
  rb.clear();  // full and wrapped
  EXPECT_TRUE(rb.empty());
  EXPECT_FALSE(rb.push_overwrite(6));
  EXPECT_FALSE(rb.push_overwrite(7));
  ASSERT_EQ(rb.size(), 2u);
  EXPECT_EQ(rb.at(0), 6);
  EXPECT_EQ(rb.at(1), 7);
  EXPECT_FALSE(rb.push_overwrite(8));
  EXPECT_TRUE(rb.push_overwrite(9));  // evicts 6
  EXPECT_EQ(rb.pop().value(), 7);
  EXPECT_EQ(rb.pop().value(), 8);
  EXPECT_EQ(rb.pop().value(), 9);
  EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, WrapsAfterTheFillPhase) {
  RingBuffer<int> rb{4};
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(rb.push_overwrite(i));
  }
  for (int i = 4; i < 10; ++i) {
    EXPECT_TRUE(rb.push_overwrite(i));
  }
  EXPECT_EQ(rb.capacity(), 4u);
  for (int expect = 6; expect < 10; ++expect) {
    EXPECT_EQ(rb.pop().value(), expect);
  }
  EXPECT_FALSE(rb.push_overwrite(10));
  EXPECT_EQ(rb.at(0), 10);
}

TEST(RingBuffer, MoveOnlyElements) {
  RingBuffer<std::unique_ptr<int>> rb{2};
  rb.push_overwrite(std::make_unique<int>(5));
  auto out = rb.pop();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(**out, 5);
}

TEST(Result, OkPath) {
  Result<int> r = 42;
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(static_cast<bool>(r));
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(FifoRing, StartsEmptyWithoutSlots) {
  FifoRing<int> ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.slots(), 0u);
}

TEST(FifoRing, GrowsAcrossWrapAroundInOrder) {
  FifoRing<int> ring;
  int pushed = 0;
  int popped = 0;
  // Keep the head moving so every doubling happens with wrapped contents.
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 3; ++i) {
      ring.push_back(pushed++);
    }
    ASSERT_EQ(ring.front(), popped);
    ring.pop_front();
    ++popped;
  }
  EXPECT_EQ(ring.size(), 400u);
  EXPECT_EQ(ring.slots(), 512u);
  while (!ring.empty()) {
    ASSERT_EQ(ring.front(), popped++);
    ring.pop_front();
  }
  EXPECT_EQ(popped, pushed);
  EXPECT_EQ(ring.slots(), 512u);  // never shrinks
}

TEST(FifoRing, SteadyLengthStopsGrowing) {
  FifoRing<int> ring;
  for (int i = 0; i < 5; ++i) {
    ring.push_back(i);
  }
  const std::size_t slots = ring.slots();
  for (int i = 5; i < 10'000; ++i) {
    ring.push_back(i);
    ring.pop_front();
  }
  EXPECT_EQ(ring.slots(), slots);
  EXPECT_EQ(ring.front(), 10'000 - 5);
}

TEST(BlockFifo, KeepsOrderAcrossBlocks) {
  BlockFifo<int, 4> fifo;
  int pushed = 0;
  int popped = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 3; ++i) {
      fifo.push_back(pushed++);
    }
    ASSERT_EQ(fifo.front(), popped);
    fifo.pop_front();
    ++popped;
  }
  EXPECT_EQ(fifo.size(), 100u);
  while (!fifo.empty()) {
    ASSERT_EQ(fifo.front(), popped++);
    fifo.pop_front();
  }
  EXPECT_EQ(popped, pushed);
  fifo.push_back(7);  // reuses a spare block
  EXPECT_EQ(fifo.front(), 7);
}

TEST(BlockFifo, ReusesEmptiedBlocks) {
  BlockFifo<int, 4> fifo;
  for (int i = 0; i < 10; ++i) {
    fifo.push_back(i);
  }
  const std::size_t blocks = fifo.blocks();
  EXPECT_EQ(blocks, 3u);
  for (int i = 10; i < 10'000; ++i) {
    fifo.push_back(i);
    fifo.pop_front();
  }
  EXPECT_LE(fifo.blocks(), blocks + 1);
  EXPECT_EQ(fifo.front(), 10'000 - 10);
}

TEST(Result, ErrPath) {
  Result<int> r = Error{"boom"};
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().what(), "boom");
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(Result, MapTransformsValue) {
  Result<int> r = 10;
  const auto mapped = r.map([](int x) { return std::to_string(x * 2); });
  ASSERT_TRUE(mapped.has_value());
  EXPECT_EQ(mapped.value(), "20");
}

TEST(Result, MapPropagatesError) {
  Result<int> r = Error{"nope"};
  const auto mapped = r.map([](int x) { return x * 2; });
  ASSERT_FALSE(mapped.has_value());
  EXPECT_EQ(mapped.error().what(), "nope");
}

TEST(Result, MoveOutValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  auto owned = std::move(r).value();
  EXPECT_EQ(*owned, 7);
}

}  // namespace
}  // namespace pam
