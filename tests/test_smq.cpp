// Tests for the Stealing Multi-Queue (the paper's core contribution).
#include "core/stealing_multiqueue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "queues/skiplist.h"
#include "sched/task.h"

namespace smq {
namespace {

using HeapSmq = StealingMultiQueue<DAryHeap<Task, 4>>;
using SkipSmq = StealingMultiQueue<SequentialSkipList>;

template <typename Q>
class SmqTyped : public ::testing::Test {};

using SmqTypes = ::testing::Types<HeapSmq, SkipSmq>;
TYPED_TEST_SUITE(SmqTyped, SmqTypes);

TYPED_TEST(SmqTyped, SingleThreadDrainsEverything) {
  TypeParam smq(1, {.steal_size = 4, .p_steal = 0.5});
  auto h0 = smq.handle(0);
  for (std::uint64_t p = 0; p < 100; ++p) h0.push(Task{p, p});
  std::vector<std::uint64_t> got;
  while (auto t = h0.try_pop()) got.push_back(t->priority);
  ASSERT_EQ(got.size(), 100u);
  std::sort(got.begin(), got.end());
  for (std::uint64_t p = 0; p < 100; ++p) EXPECT_EQ(got[p], p);
}

TYPED_TEST(SmqTyped, SingleThreadRespectsPriorityOrder) {
  // With one thread there is nobody to steal from; pops must come out in
  // exact priority order (modulo the batch already in the buffer, which
  // also holds the best tasks).
  TypeParam smq(1, {.steal_size = 1, .p_steal = 0.0});
  auto h0 = smq.handle(0);
  for (std::uint64_t p : {5, 2, 9, 1, 7}) h0.push(Task{p, p});
  std::vector<std::uint64_t> got;
  while (auto t = h0.try_pop()) got.push_back(t->priority);
  EXPECT_EQ(got, (std::vector<std::uint64_t>{1, 2, 5, 7, 9}));
}

TYPED_TEST(SmqTyped, CrossThreadStealWorks) {
  TypeParam smq(2, {.steal_size = 2, .p_steal = 1.0});
  // Thread 0 owns all tasks; thread 1 steals the published batch. Tasks
  // still in the owner's heap stay invisible until the owner republishes
  // (by touching its queue), exactly as in Listing 4.
  auto h0 = smq.handle(0);
  auto h1 = smq.handle(1);
  for (std::uint64_t p = 0; p < 10; ++p) h0.push(Task{p, p});
  auto stolen = h1.try_pop();
  ASSERT_TRUE(stolen.has_value());
  EXPECT_EQ(stolen->priority, 0u);  // the published batch held the best task
  EXPECT_GT(smq.steals(1), 0u);

  // Owner and thief alternate; between them every task must surface.
  std::vector<std::uint64_t> got{stolen->priority};
  while (got.size() < 10) {
    if (auto t = h0.try_pop()) got.push_back(t->priority);  // owner refills
    if (auto t = h1.try_pop()) got.push_back(t->priority);
  }
  EXPECT_FALSE(h0.try_pop().has_value());
  std::sort(got.begin(), got.end());
  for (std::uint64_t p = 0; p < 10; ++p) EXPECT_EQ(got[p], p);
}

TYPED_TEST(SmqTyped, NoStealWhenLocalBetter) {
  TypeParam smq(2, {.steal_size = 1, .p_steal = 1.0});
  auto h1 = smq.handle(1);
  smq.handle(0).push(Task{100, 0});  // victim's visible top: 100
  h1.push(Task{1, 1});               // local top: 1 — better, never steal
  const auto t = h1.try_pop();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->priority, 1u);
  EXPECT_EQ(smq.steals(1), 0u);
}

TYPED_TEST(SmqTyped, ConcurrentNoLossNoDuplication) {
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kPerThread = 5000;
  TypeParam smq(kThreads, {.steal_size = 4, .p_steal = 0.25, .seed = 9});

  std::atomic<std::uint64_t> popped_count{0};
  std::mutex merge_mutex;
  std::map<std::uint64_t, int> seen;

  {
    std::vector<std::jthread> workers;
    for (unsigned tid = 0; tid < kThreads; ++tid) {
      workers.emplace_back([&, tid] {
        auto h = smq.handle(tid);
        std::vector<std::uint64_t> local_seen;
        // Interleave pushes and pops.
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
          const std::uint64_t id = tid * kPerThread + i;
          h.push(Task{id, id});
          if (i % 3 == 0) {
            if (auto t = h.try_pop()) {
              local_seen.push_back(t->payload);
              popped_count.fetch_add(1);
            }
          }
        }
        // Drain phase.
        while (auto t = h.try_pop()) {
          local_seen.push_back(t->payload);
          popped_count.fetch_add(1);
        }
        std::lock_guard<std::mutex> guard(merge_mutex);
        for (const std::uint64_t id : local_seen) ++seen[id];
      });
    }
  }

  // A lone racing claim can leave a few tasks in a thread's local queue;
  // drain once more from thread 0's perspective.
  for (unsigned tid = 0; tid < kThreads; ++tid) {
    while (auto t = smq.handle(tid).try_pop()) {
      std::lock_guard<std::mutex> guard(merge_mutex);
      ++seen[t->payload];
      popped_count.fetch_add(1);
    }
  }

  EXPECT_EQ(popped_count.load(), kThreads * kPerThread);
  EXPECT_EQ(seen.size(), kThreads * kPerThread);
  for (const auto& [id, count] : seen) {
    ASSERT_EQ(count, 1) << "task " << id << " popped " << count << " times";
  }
}

TYPED_TEST(SmqTyped, StolenBufferConsumedBeforeNewSteals) {
  TypeParam smq(2, {.steal_size = 3, .p_steal = 1.0});
  // The first add publishes a 1-task batch {5}; the owner's first pop
  // reclaims it and republishes the next batch {6, 7} from the heap.
  auto h0 = smq.handle(0);
  auto h1 = smq.handle(1);
  h0.push(Task{5, 5});
  h0.push(Task{6, 6});
  h0.push(Task{7, 7});
  ASSERT_EQ(h0.try_pop()->priority, 5u);

  // Thread 1 steals the batch {6, 7}: first pop returns 6 via a steal,
  // second returns 7 from the local stolen-task buffer, no new steal.
  auto first = h1.try_pop();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->priority, 6u);
  const std::uint64_t steals_before = smq.steals(1);
  ASSERT_GT(steals_before, 0u);
  auto second = h1.try_pop();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->priority, 7u);
  EXPECT_EQ(smq.steals(1), steals_before);
}

TEST(SmqConfigTest, DefaultsMatchPaper) {
  const SmqConfig cfg;
  EXPECT_EQ(cfg.steal_size, 4u);
  EXPECT_DOUBLE_EQ(cfg.p_steal, 1.0 / 8.0);
  EXPECT_DOUBLE_EQ(cfg.numa_weight_k, 8.0);
}

}  // namespace
}  // namespace smq
