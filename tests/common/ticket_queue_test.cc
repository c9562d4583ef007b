#include "common/ticket_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace robopt {
namespace {

TEST(TicketQueueTest, AdmitsUpToCapacityThenSheds) {
  TicketQueue queue(2);
  uint64_t t0 = 0, t1 = 0, t2 = 0;
  EXPECT_TRUE(queue.TryEnter(&t0));
  EXPECT_TRUE(queue.TryEnter(&t1));
  EXPECT_EQ(queue.depth(), 2u);
  // Full: the third caller sheds without side effects.
  EXPECT_FALSE(queue.TryEnter(&t2));
  EXPECT_EQ(queue.depth(), 2u);
  // Serving the first ticket frees a slot.
  queue.WaitTurn(t0);
  queue.Leave();
  EXPECT_TRUE(queue.TryEnter(&t2));
  EXPECT_EQ(t2, 2u);
  queue.WaitTurn(t1);
  queue.Leave();
  queue.WaitTurn(t2);
  queue.Leave();
  EXPECT_EQ(queue.depth(), 0u);
}

TEST(TicketQueueTest, TicketsAreSequential) {
  TicketQueue queue(8);
  for (uint64_t round = 0; round < 3; ++round) {
    uint64_t ticket = 0;
    ASSERT_TRUE(queue.TryEnter(&ticket));
    EXPECT_EQ(ticket, round);
    queue.WaitTurn(ticket);
    queue.Leave();
  }
}

TEST(TicketQueueTest, SerializesConcurrentHoldersFifo) {
  // The serving window admits exactly one holder at a time, in ticket
  // order. Both invariants are checked through *plain* (non-atomic) state
  // mutated inside the window — under TSan this also proves the
  // release/acquire chain that sharded serving relies on for its
  // shard-local state.
  TicketQueue queue(64);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  uint64_t last_served = 0;  // Plain: only the window holder touches it.
  bool first = true;
  uint64_t counter = 0;
  // At most kThreads tickets are ever outstanding, far below capacity: any
  // rejection is spurious.
  std::atomic<uint64_t> rejected{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        uint64_t ticket = 0;
        while (!queue.TryEnter(&ticket)) {
          rejected.fetch_add(1);
          std::this_thread::yield();
        }
        queue.WaitTurn(ticket);
        if (!first) {
          EXPECT_EQ(ticket, last_served + 1) << "FIFO violated";
        }
        first = false;
        last_served = ticket;
        ++counter;
        queue.Leave();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(rejected.load(), 0u);
  EXPECT_EQ(queue.depth(), 0u);
}

}  // namespace
}  // namespace robopt
