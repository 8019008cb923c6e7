// Exact sequential priority scheduler — the single-threaded baseline all
// speedups in the paper are measured against, and the source of the
// reference task counts used by the "work increase" metric (an exact
// priority order never processes a reachable SSSP vertex more than the
// label-correcting minimum).
//
// Its Handle is the degenerate case of the handle API: a bare pointer to
// the one heap, so the measured baseline pays no per-op tid plumbing at
// all.
#pragma once

#include <cassert>
#include <optional>
#include <span>
#include <vector>

#include "queues/d_ary_heap.h"
#include "sched/scheduler_traits.h"
#include "sched/stats.h"
#include "sched/task.h"

namespace smq {

class SequentialScheduler {
 public:
  explicit SequentialScheduler(unsigned num_threads = 1) {
    assert(num_threads == 1 && "SequentialScheduler is single-threaded");
    (void)num_threads;
  }

  unsigned num_threads() const noexcept { return 1; }

  class Handle {
   public:
    explicit Handle(DAryHeap<Task, 4>& heap) noexcept : heap_(&heap) {}

    void push(Task task) { heap_->push(task); }
    void push_batch(std::span<const Task> tasks) {
      for (const Task& task : tasks) heap_->push(task);
    }
    std::optional<Task> try_pop() { return heap_->try_pop(); }
    std::size_t try_pop_batch(std::vector<Task>& out, std::size_t max) {
      return handle_pop_loop(*this, out, max);
    }
    void flush() noexcept {}
    void collect_stats(ThreadStats&) const noexcept {}
    unsigned thread_id() const noexcept { return 0; }

   private:
    DAryHeap<Task, 4>* heap_;
  };

  Handle handle(unsigned /*tid*/) noexcept { return Handle(heap_); }

  std::size_t size() const noexcept { return heap_.size(); }

 private:
  DAryHeap<Task, 4> heap_;
};

static_assert(PriorityScheduler<SequentialScheduler>);

}  // namespace smq
