// The per-thread handle API (scheduler_traits.h): concept coverage over
// every scheduler family, handle lifetime/reuse across runs,
// flush-before-termination through handles, and a conformance check that
// the erased AnyScheduler handles and the concrete handles drive
// identical state on a fixed seed.
#include "sched/scheduler_traits.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/stealing_multiqueue.h"
#include "queues/classic_multiqueue.h"
#include "queues/mq_variants.h"
#include "queues/obim.h"
#include "queues/reld.h"
#include "queues/sequential_scheduler.h"
#include "queues/skiplist.h"
#include "queues/spraylist.h"
#include "registry/adapters.h"
#include "registry/scheduler_registry.h"
#include "sched/executor.h"

namespace smq {
namespace {

// ---- concept coverage -----------------------------------------------------

// Every registered scheduler family exposes native handles ...
static_assert(PriorityScheduler<StealingMultiQueue<>>);
static_assert(PriorityScheduler<StealingMultiQueue<SequentialSkipList>>);
static_assert(PriorityScheduler<ClassicMultiQueue>);
static_assert(PriorityScheduler<OptimizedMultiQueue>);
static_assert(PriorityScheduler<Obim>);
static_assert(PriorityScheduler<Pmod>);
static_assert(PriorityScheduler<ReldQueue>);
static_assert(PriorityScheduler<GlobalHeapScheduler>);
static_assert(PriorityScheduler<GlobalSkipListScheduler>);
static_assert(PriorityScheduler<ChunkBagScheduler>);
static_assert(PriorityScheduler<SequentialScheduler>);
static_assert(PriorityScheduler<SprayList>);
// ... and the type-erasure boundary forwards them.
static_assert(PriorityScheduler<AnyScheduler>);
static_assert(SchedulerHandle<AnyScheduler::Handle>);

/// A handle missing flush() does not model SchedulerHandle, so its
/// scheduler is rejected too.
struct FlushlessHandle {
  void push(Task) {}
  std::optional<Task> try_pop() { return std::nullopt; }
  void push_batch(std::span<const Task>) {}
  std::size_t try_pop_batch(std::vector<Task>&, std::size_t) { return 0; }
  void collect_stats(ThreadStats&) const {}
  unsigned thread_id() const { return 0; }
};
struct FlushlessScheduler {
  using Handle = FlushlessHandle;
  Handle handle(unsigned) { return {}; }
  unsigned num_threads() const { return 1; }
};
static_assert(!SchedulerHandle<FlushlessHandle>);
static_assert(!PriorityScheduler<FlushlessScheduler>);

// ---- handle lifetime and reuse --------------------------------------------

TEST(HandleApi, HandlesStayValidAcrossRunsAndReacquisition) {
  StealingMultiQueue<> sched(2, {.p_steal = 0.25, .seed = 5});
  auto h0 = sched.handle(0);

  // Use before a run...
  h0.push(Task{7, 77});
  ASSERT_TRUE(h0.try_pop().has_value());

  // ...two full executor runs on the same scheduler instance...
  for (int round = 0; round < 2; ++round) {
    std::vector<Task> seeds;
    for (std::uint64_t i = 0; i < 100; ++i) seeds.push_back(Task{i, i});
    std::atomic<std::uint64_t> executed{0};
    run_parallel(
        sched, std::span<const Task>(seeds),
        [&](Task, auto&) { executed.fetch_add(1, std::memory_order_relaxed); },
        2);
    EXPECT_EQ(executed.load(), 100u) << "round " << round;
  }

  // ...and the pre-run handle still views the same (now drained) state,
  // interchangeably with a freshly acquired one.
  EXPECT_FALSE(h0.try_pop().has_value());
  h0.push(Task{1, 11});
  auto h0_again = sched.handle(0);
  const std::optional<Task> t = h0_again.try_pop();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->payload, 11u);
}

TEST(HandleApi, ErasedHandleMatchesConcreteHandle) {
  AnyScheduler sched = SchedulerRegistry::instance().create("smq", 2, {});
  AnyScheduler::Handle h1 = sched.handle(1);
  EXPECT_EQ(h1.thread_id(), 1u);

  h1.push(Task{5, 55});
  h1.flush();
  // The erased handle views the same thread slot as the concrete one.
  SmqHeap* concrete = sched.get_if<SmqHeap>();
  ASSERT_NE(concrete, nullptr);
  SmqHeap::Handle c1 = concrete->handle(1);
  const std::optional<Task> t = c1.try_pop();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->payload, 55u);

  // Stats collected through either handle agree.
  ThreadStats via_erased, via_concrete;
  h1.collect_stats(via_erased);
  c1.collect_stats(via_concrete);
  EXPECT_EQ(via_erased.steals, via_concrete.steals);
  EXPECT_EQ(via_erased.sampled_accesses, via_concrete.sampled_accesses);
}

// ---- flush-before-termination through handles -----------------------------

TEST(HandleApi, BufferedInsertsPublishThroughHandleFlush) {
  // mq-opt with a large insert batch: pushes sit in the thread-local
  // buffer until flush. Another thread's handle must see them only
  // after ours flushes.
  OptimizedMqConfig cfg;
  cfg.insert_policy = InsertPolicy::kBatching;
  cfg.insert_batch = 64;
  cfg.seed = 9;
  OptimizedMultiQueue sched(2, cfg);
  auto h0 = sched.handle(0);
  auto h1 = sched.handle(1);

  for (std::uint64_t i = 0; i < 10; ++i) h0.push(Task{i, i});
  EXPECT_FALSE(h1.try_pop().has_value()) << "unflushed pushes leaked";
  h0.flush();
  std::vector<Task> out;
  EXPECT_EQ(h1.try_pop_batch(out, 100), 10u);
}

TEST(HandleApi, ExecutorTerminatesWithBufferedHandlesAtEveryBatchSize) {
  // The executor's termination protocol flushes through the handle; a
  // partially filled insert buffer must never strand tasks or hang the
  // run, at any batch size.
  for (const std::size_t batch_size : {1ul, 5ul, 64ul}) {
    OptimizedMqConfig cfg;
    cfg.insert_policy = InsertPolicy::kBatching;
    cfg.insert_batch = 64;  // guaranteed partially-filled buffers
    cfg.delete_policy = DeletePolicy::kBatching;
    cfg.delete_batch = 4;
    OptimizedMultiQueue sched(2, cfg);
    std::vector<Task> seeds{Task{0, 0}};
    std::atomic<std::uint64_t> executed{0};
    run_parallel(
        sched, std::span<const Task>(seeds),
        [&](Task t, auto& ctx) {
          executed.fetch_add(1, std::memory_order_relaxed);
          if (t.priority < 6) {
            for (int i = 0; i < 3; ++i) {
              ctx.push(Task{t.priority + 1, t.payload * 3 + i});
            }
          }
        },
        2, ExecutorOptions{.batch_size = batch_size});
    std::uint64_t expected = 0, power = 1;
    for (int level = 0; level <= 6; ++level, power *= 3) expected += power;
    EXPECT_EQ(executed.load(), expected) << "batch_size=" << batch_size;
  }
}

// ---- erased/concrete conformance on a fixed seed --------------------------

/// Drive one concrete scheduler through its native handles and an
/// identically seeded twin through AnyScheduler's erased handles with the
/// same operation sequence; every state transition (RNG draws, steal
/// counters, popped order) must match.
template <typename S, typename Config>
void expect_erased_conformance(unsigned threads, const Config& cfg) {
  S direct(threads, cfg);
  AnyScheduler erased = AnyScheduler::make<S>(threads, cfg);

  std::vector<typename S::Handle> direct_handles;
  std::vector<AnyScheduler::Handle> erased_handles;
  for (unsigned tid = 0; tid < threads; ++tid) {
    direct_handles.push_back(direct.handle(tid));
    erased_handles.push_back(erased.handle(tid));
  }

  // Interleaved pushes...
  for (std::uint64_t i = 0; i < 300; ++i) {
    const unsigned tid = static_cast<unsigned>(i % threads);
    const Task t{(i * 37) % 101, i};
    direct_handles[tid].push(t);
    erased_handles[tid].push(t);
  }
  for (unsigned tid = 0; tid < threads; ++tid) {
    direct_handles[tid].flush();
    erased_handles[tid].flush();
  }

  // ...then a full interleaved drain; the pop sequences must be
  // identical because both instances make the same seeded decisions.
  std::vector<std::uint64_t> popped_direct, popped_erased;
  for (int round = 0; round < 400; ++round) {
    const unsigned tid = static_cast<unsigned>(round % threads);
    if (std::optional<Task> t = direct_handles[tid].try_pop()) {
      popped_direct.push_back(t->payload);
    }
    if (std::optional<Task> t = erased_handles[tid].try_pop()) {
      popped_erased.push_back(t->payload);
    }
  }
  EXPECT_EQ(popped_direct, popped_erased);
  EXPECT_EQ(popped_direct.size(), 300u);

  // Scheduler-private stats agree path for path.
  for (unsigned tid = 0; tid < threads; ++tid) {
    ThreadStats d_stats, e_stats;
    direct_handles[tid].collect_stats(d_stats);
    erased_handles[tid].collect_stats(e_stats);
    EXPECT_EQ(d_stats.steals, e_stats.steals) << "tid " << tid;
    EXPECT_EQ(d_stats.steal_fails, e_stats.steal_fails) << "tid " << tid;
    EXPECT_EQ(d_stats.sampled_accesses, e_stats.sampled_accesses)
        << "tid " << tid;
    EXPECT_EQ(d_stats.remote_accesses, e_stats.remote_accesses)
        << "tid " << tid;
  }
}

TEST(HandleApi, ErasedAndConcreteHandlesConformOnFixedSeed) {
  expect_erased_conformance<StealingMultiQueue<>>(
      2, SmqConfig{.p_steal = 0.25, .seed = 1234});
  expect_erased_conformance<ClassicMultiQueue>(
      2, ClassicMqConfig{.queue_multiplier = 2, .seed = 99});
  expect_erased_conformance<ReldQueue>(
      2, ReldConfig{.queue_multiplier = 2, .seed = 7});
}

TEST(HandleApi, ErasedAndConcreteHandlesConformForBufferedMq) {
  // The buffered variant moves state on both push (insert buffer) and
  // pop (delete buffer) — the strongest conformance case.
  OptimizedMqConfig cfg;
  cfg.insert_policy = InsertPolicy::kBatching;
  cfg.insert_batch = 8;
  cfg.delete_policy = DeletePolicy::kBatching;
  cfg.delete_batch = 4;
  cfg.seed = 4321;
  expect_erased_conformance<OptimizedMultiQueue>(2, cfg);
}

}  // namespace
}  // namespace smq
