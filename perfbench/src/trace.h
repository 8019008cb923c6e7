// Tracing from outside the program: a forwarding scheduler that wraps a
// registry-built AnyScheduler, times every per-thread handle call, and is
// erased again with AnyScheduler::make<TracingScheduler>, so the
// executor and the service run it exactly like any registered scheduler.
//
// Each acquired handle is one Session. A session aggregates its spans in
// memory as they happen (no I/O, nothing shared between threads); the
// benchmark reads the sessions only after the run has joined its
// threads. A session's timeline is cut at the start of every pop call:
// the segment after a pop that returned tasks is busy time (kernel plus
// the push/flush calls it makes), the segment after an empty pop is idle
// time (the empty pop itself, the executor's backoff, a service worker
// parked on its condition variable).
//
// The wrapper uses only the handle surface of the inner scheduler; its
// own tid-indexed members exist because the PriorityScheduler concept
// requires them, and they too go through inner handles.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "registry/any_scheduler.h"
#include "sched/stats.h"
#include "sched/task.h"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Everything one handle did, aggregated span by span.
struct Session {
  unsigned tid = 0;
  std::uint64_t calls = 0;        // every timed handle call
  std::uint64_t pop_calls = 0;    // try_pop / try_pop_batch calls
  std::uint64_t empty_pops = 0;   // pop calls that returned nothing
  std::uint64_t popped = 0;       // tasks returned by pop calls
  std::uint64_t pushed = 0;       // tasks handed to push / push_batch
  std::int64_t push_ns = 0;       // inside push / push_batch
  std::int64_t pop_ns = 0;        // inside pops that returned tasks
  std::int64_t kernel_ns = 0;     // busy segments minus handle calls
  std::int64_t idle_ns = 0;       // idle segments minus push/flush calls
  std::int64_t first_ns = -1;     // start of the first call
  std::int64_t last_ns = 0;       // end of the last call

  /// A worker session popped at least once; seeding sessions only push.
  bool is_worker() const { return pop_calls > 0; }
  std::int64_t span_ns() const { return first_ns < 0 ? 0 : last_ns - first_ns; }

  void begin_call(std::int64_t start) {
    if (first_ns < 0) first_ns = start;
    ++calls;
  }
  void end_call(std::int64_t end) { last_ns = end; }

  /// A pop call started at `start`: close the segment the previous pop
  /// opened.
  void begin_pop(std::int64_t start) {
    begin_call(start);
    close_segment(start);
    seg_start_ = start;
    seg_other_ns_ = 0;
    ++pop_calls;
  }
  void end_pop(std::int64_t end, std::size_t taken) {
    end_call(end);
    seg_pop_ns_ = end - seg_start_;
    seg_busy_ = taken > 0;
    if (taken > 0) {
      popped += taken;
      pop_ns += seg_pop_ns_;
    } else {
      ++empty_pops;
    }
  }
  /// A push or flush call of `ns` inside the current segment.
  void other_call(std::int64_t ns) { seg_other_ns_ += ns; }

  /// Close the open segment at the last call's end; call once, after
  /// the session's thread is done.
  void finish() {
    close_segment(last_ns);
    seg_start_ = -1;
  }

 private:
  void close_segment(std::int64_t at) {
    if (seg_start_ < 0) return;
    const std::int64_t len = at - seg_start_;
    if (seg_busy_) {
      kernel_ns += len - seg_pop_ns_ - seg_other_ns_;
    } else {
      idle_ns += len - seg_other_ns_;
    }
  }

  std::int64_t seg_start_ = -1;
  std::int64_t seg_pop_ns_ = 0;
  std::int64_t seg_other_ns_ = 0;
  bool seg_busy_ = false;
};

/// The sessions of one traced scheduler. Handle acquisition (once per
/// thread per run) takes the mutex; the calls themselves touch only
/// their own session.
class Trace {
 public:
  Session* open(unsigned tid) {
    std::lock_guard<std::mutex> lock(mutex_);
    sessions_.push_back(std::make_unique<Session>());
    sessions_.back()->tid = tid;
    return sessions_.back().get();
  }

  /// Finish and hand out every session. Only after the threads that
  /// used the handles have been joined.
  std::vector<Session> collect() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Session> out;
    out.reserve(sessions_.size());
    for (auto& s : sessions_) {
      s->finish();
      out.push_back(*s);
    }
    return out;
  }

 private:
  std::mutex mutex_;
  std::vector<std::unique_ptr<Session>> sessions_;
};

class TracingScheduler {
 public:
  TracingScheduler(smq::AnyScheduler inner, std::shared_ptr<Trace> trace)
      : inner_(std::move(inner)), trace_(std::move(trace)) {}

  class Handle {
   public:
    Handle(smq::AnyScheduler::Handle inner, Session* session)
        : inner_(std::move(inner)), session_(session) {}

    void push(smq::Task t) {
      const std::int64_t start = now_ns();
      session_->begin_call(start);
      inner_.push(t);
      finish_push(start, 1);
    }
    std::optional<smq::Task> try_pop() {
      session_->begin_pop(now_ns());
      std::optional<smq::Task> task = inner_.try_pop();
      session_->end_pop(now_ns(), task ? 1 : 0);
      return task;
    }
    void push_batch(std::span<const smq::Task> tasks) {
      const std::int64_t start = now_ns();
      session_->begin_call(start);
      inner_.push_batch(tasks);
      finish_push(start, tasks.size());
    }
    std::size_t try_pop_batch(std::vector<smq::Task>& out, std::size_t max) {
      session_->begin_pop(now_ns());
      const std::size_t taken = inner_.try_pop_batch(out, max);
      session_->end_pop(now_ns(), taken);
      return taken;
    }
    void flush() {
      const std::int64_t start = now_ns();
      session_->begin_call(start);
      inner_.flush();
      const std::int64_t end = now_ns();
      session_->end_call(end);
      session_->other_call(end - start);
    }
    void collect_stats(smq::ThreadStats& st) const { inner_.collect_stats(st); }
    unsigned thread_id() const { return inner_.thread_id(); }

   private:
    void finish_push(std::int64_t start, std::size_t n) {
      const std::int64_t end = now_ns();
      session_->end_call(end);
      session_->pushed += n;
      session_->push_ns += end - start;
      session_->other_call(end - start);
    }

    smq::AnyScheduler::Handle inner_;
    Session* session_;
  };

  Handle handle(unsigned tid) {
    return Handle(inner_.handle(tid), trace_->open(tid));
  }

  // The PriorityScheduler surface, through untimed inner handles.
  void push(unsigned tid, smq::Task t) { inner_.handle(tid).push(t); }
  std::optional<smq::Task> try_pop(unsigned tid) {
    return inner_.handle(tid).try_pop();
  }
  void flush(unsigned tid) { inner_.handle(tid).flush(); }
  void collect_stats(unsigned tid, smq::ThreadStats& st) const {
    inner_.handle(tid).collect_stats(st);
  }
  unsigned num_threads() const { return inner_.num_threads(); }
  std::size_t memory_footprint() const { return inner_.memory_footprint(); }

 private:
  // handle() is non-const on AnyScheduler; collect_stats must be const.
  mutable smq::AnyScheduler inner_;
  std::shared_ptr<Trace> trace_;
};

/// One traced run folded into per-thread rows and totals. Worker
/// sessions are grouped by thread id; seeding sessions only add their
/// pushes and calls to the totals.
struct TraceSummary {
  struct Row {
    std::uint64_t tasks = 0;
    std::int64_t idle_ns = 0;
    std::int64_t span_ns = 0;
  };
  std::vector<Row> rows;  // by thread id
  std::uint64_t tasks = 0;   // popped by workers
  std::uint64_t pushed = 0;  // through every session, seeding included
  std::uint64_t calls = 0;
  std::uint64_t pop_calls = 0;
  std::uint64_t empty_pops = 0;
  std::int64_t push_ns = 0;
  std::int64_t pop_ns = 0;
  std::int64_t kernel_ns = 0;
  std::int64_t max_span_ns = 0;
};

inline TraceSummary summarize(const std::vector<Session>& sessions,
                              unsigned threads) {
  TraceSummary s;
  s.rows.resize(threads);
  for (const Session& x : sessions) {
    s.calls += x.calls;
    s.pushed += x.pushed;
    s.push_ns += x.push_ns;
    if (!x.is_worker() || x.tid >= threads) continue;
    TraceSummary::Row& row = s.rows[x.tid];
    row.tasks += x.popped;
    row.idle_ns += x.idle_ns;
    row.span_ns += x.span_ns();
    s.tasks += x.popped;
    s.pop_calls += x.pop_calls;
    s.empty_pops += x.empty_pops;
    s.pop_ns += x.pop_ns;
    s.kernel_ns += x.kernel_ns;
    s.max_span_ns = std::max(s.max_span_ns, x.span_ns());
  }
  return s;
}

/// The registry scheduler wrapped for tracing and erased again.
inline smq::AnyScheduler traced(smq::AnyScheduler inner,
                                std::shared_ptr<Trace> trace) {
  return smq::AnyScheduler::make<TracingScheduler>(std::move(inner),
                                                   std::move(trace));
}

}  // namespace perfbench
