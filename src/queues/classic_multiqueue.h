// The classic Multi-Queue (Rihani, Sanders, Dementiev; paper Listing 1).
//
// m = C * T sequential heaps, each guarded by a try-lock. insert(): lock
// a uniformly random queue, add, unlock; restart on lock failure.
// delete(): pick two distinct random queues, take the top of the one
// whose top has higher priority; restart on lock failure. Serves as the
// baseline of every speedup table in the paper, and supports the
// NUMA-weighted sampling extension (Section 4) through QueueSampler.
//
// Per-thread state (RNG, pop scratch, NUMA counters) is resolved once by
// the Handle.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/numa_sampler.h"
#include "queues/locked_queue_array.h"
#include "sched/scheduler_traits.h"
#include "sched/stats.h"
#include "sched/task.h"
#include "support/padding.h"
#include "support/rng.h"

namespace smq {

struct ClassicMqConfig {
  unsigned queue_multiplier = 4;  // C: queues per thread
  std::uint64_t seed = 1;
  const Topology* topology = nullptr;  // nullptr => uniform sampling
  double numa_weight_k = 1.0;

  friend bool operator==(const ClassicMqConfig&,
                         const ClassicMqConfig&) = default;
};

class ClassicMultiQueue {
 private:
  struct Local;

 public:
  using Config = ClassicMqConfig;

  ClassicMultiQueue(unsigned num_threads, Config cfg = {})
      : cfg_(cfg),
        num_threads_(num_threads),
        queues_(static_cast<std::size_t>(num_threads) * cfg.queue_multiplier),
        locals_(num_threads),
        sampler_(make_queue_sampler(queues_.size(), num_threads, cfg.topology,
                                    cfg.numa_weight_k)) {
    for (unsigned tid = 0; tid < num_threads; ++tid) {
      locals_[tid].value.rng = Xoshiro256(thread_seed(cfg.seed, tid));
    }
  }

  unsigned num_threads() const noexcept { return num_threads_; }
  std::size_t num_queues() const noexcept { return queues_.size(); }
  std::uint64_t approx_size() const noexcept { return queues_.approx_total(); }
  const Config& config() const noexcept { return cfg_; }

  /// Per-thread view over the shared queue array: the thread's RNG, pop
  /// scratch and NUMA tallies are a pointer away instead of an index.
  class Handle {
   public:
    Handle(ClassicMultiQueue& sched, unsigned tid) noexcept
        : sched_(&sched), me_(&sched.locals_[tid].value), tid_(tid) {}

    void push(Task task) {
      while (true) {
        const std::size_t target = sched_->sampler_.sample(tid_, me_->rng);
        record_touch(target);
        if (sched_->queues_.try_push(target, task)) return;
      }
    }

    /// No native bulk insert: each task goes to an independently sampled
    /// queue by definition of the classic MQ, so the batch is the loop.
    void push_batch(std::span<const Task> tasks) {
      for (const Task& task : tasks) push(task);
    }

    std::optional<Task> try_pop() {
      LockedQueueArray& queues = sched_->queues_;
      Xoshiro256& rng = me_->rng;
      me_->scratch.clear();
      for (int attempt = 0; attempt < 64; ++attempt) {
        const std::size_t i1 = sched_->sampler_.sample(tid_, rng);
        std::size_t i2 = sched_->sampler_.sample(tid_, rng);
        // Bounded distinct-pair resampling: a weighted sampler over a
        // near-singleton group could echo i1 indefinitely.
        for (int retry = 0; i2 == i1 && retry < 8; ++retry) {
          i2 = sched_->sampler_.sample(tid_, rng);
        }
        if (i2 == i1) i2 = (i1 + 1) % queues.size();
        record_touch(i1);
        record_touch(i2);
        const std::uint64_t p1 = queues.top_priority(i1);
        const std::uint64_t p2 = queues.top_priority(i2);
        if (p1 == Task::kInfinity && p2 == Task::kInfinity) {
          if (queues.all_empty()) return std::nullopt;
          continue;
        }
        auto& out = me_->scratch;
        switch (queues.try_pop_batch(p1 <= p2 ? i1 : i2, out, 1)) {
          case LockedQueueArray::PopStatus::kOk:
            return out.front();
          case LockedQueueArray::PopStatus::kEmpty:
          case LockedQueueArray::PopStatus::kLockBusy:
            continue;
        }
      }
      return queues.pop_any(rng.next_below(queues.size()));
    }

    std::size_t try_pop_batch(std::vector<Task>& out, std::size_t max) {
      return handle_pop_loop(*this, out, max);
    }

    /// Inserts publish immediately (no local buffering).
    void flush() noexcept {}

    /// Fold NUMA sampling attribution into the executor's per-thread
    /// stats. Zeros under UMA.
    void collect_stats(ThreadStats& st) const noexcept {
      st.sampled_accesses += me_->numa.sampled;
      st.remote_accesses += me_->numa.remote;
    }

    unsigned thread_id() const noexcept { return tid_; }

   private:
    /// Count one sampled queue touch; only when a topology is attached,
    /// so the UMA hot path stays increment-free.
    void record_touch(std::size_t queue) noexcept {
      if (!sched_->sampler_.topology_aware()) return;
      ++me_->numa.sampled;
      if (sched_->sampler_.is_remote(tid_, queue)) ++me_->numa.remote;
    }

    ClassicMultiQueue* sched_;
    Local* me_;
    unsigned tid_;
  };

  Handle handle(unsigned tid) noexcept { return Handle(*this, tid); }

 private:
  struct NumaCounters {
    std::uint64_t sampled = 0;
    std::uint64_t remote = 0;
  };

  struct Local {
    Xoshiro256 rng;
    // Per-thread scratch for pop batches; avoids an allocation per pop.
    std::vector<Task> scratch;
    NumaCounters numa;
  };

  Config cfg_;
  unsigned num_threads_;
  LockedQueueArray queues_;
  std::vector<Padded<Local>> locals_;
  QueueSampler sampler_;
};

static_assert(PriorityScheduler<ClassicMultiQueue>);

}  // namespace smq
