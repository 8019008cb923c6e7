// The batch workloads: one whole-graph solve at a time, sssp on the road
// generator and bfs on rmat. Each run alternates 4-thread, 1-thread and
// sequential oracle solves until its time is up, and sets up (graph,
// oracle, scheduler) several times, spread evenly over the run. A traced
// run alternates untraced and traced 4-thread solves instead and reports
// per-layer numbers.
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "rank/live_rank.h"
#include "registry/algorithm_registry.h"
#include "registry/scheduler_registry.h"
#include "report.h"
#include "trace.h"

namespace perfbench {
namespace {

constexpr int kMinRounds = 3;
constexpr std::size_t kBatchSize = 64;
constexpr std::size_t kLiveRankElements = 100000;

struct BatchSpec {
  std::string graph;
  smq::ParamMap graph_params;
  std::string algo;
  /// Set-ups per run: one before the first solve, the rest spread evenly
  /// over the measured time, so that set-up time is sampled across the
  /// run like the solves are rather than in its first seconds only. A
  /// road set-up is short and varies by about 12% within a run, so it
  /// gets more reps; an rmat set-up takes about 2 s.
  std::size_t setup_reps;
};

BatchSpec spec_of(const std::string& workload, std::uint64_t seed) {
  const std::string s = std::to_string(seed);
  if (workload == "sssp-road") {
    return {"road", smq::params_of({{"vertices", "1000000"}, {"seed", s}}),
            "sssp", 12};
  }
  if (workload == "bfs-rmat") {
    return {"rmat", smq::params_of({{"scale", "19"}, {"seed", s}}), "bfs", 6};
  }
  throw std::invalid_argument("unknown batch workload " + workload);
}

double seconds_since(std::int64_t start) {
  return static_cast<double>(now_ns() - start) * 1e-9;
}

struct Solve {
  double ms = 0;
  smq::AlgoResult result;
  bool ok = false;
};

/// One solve on a fresh scheduler, timed from outside the run call
/// (which includes seeding, spawn/join and the oracle comparison).
Solve solve(const smq::AlgorithmEntry& entry, const smq::GraphInstance& g,
            smq::AnyScheduler& sched, unsigned threads,
            const smq::ParamMap& params, const smq::AlgoReference& ref) {
  Solve s;
  const std::int64_t start = now_ns();
  try {
    s.result = entry.run(g, sched, threads, params, &ref);
    s.ok = s.result.validated && s.result.valid;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "solve failed: %s\n", e.what());
  }
  s.ms = seconds_since(start) * 1e3;
  return s;
}

smq::AnyScheduler make_smq(unsigned threads) {
  return smq::SchedulerRegistry::instance().create("smq", threads, {});
}

}  // namespace

Outcome run_batch(const std::string& workload, const RunOptions& opts) {
  const BatchSpec spec = spec_of(workload, opts.seed);
  const smq::AlgorithmEntry* entry =
      smq::AlgorithmRegistry::instance().find(spec.algo);
  if (entry == nullptr) throw std::logic_error("algorithm not registered");
  const smq::ParamMap params =
      smq::params_of({{"batch-size", std::to_string(kBatchSize)}});

  // Set-up: graph, sequential oracle, scheduler. Every rep rebuilds the
  // same graph and oracle from the seed in place of the previous ones.
  std::vector<double> setup_ms, build_s, oracle_ms;
  smq::GraphInstance g;
  smq::AlgoReference ref;
  auto set_up = [&] {
    g = {};
    ref = {};
    const std::int64_t t0 = now_ns();
    g = smq::GraphRegistry::instance().create(spec.graph, spec.graph_params);
    const std::int64_t t1 = now_ns();
    ref = entry->make_reference(g, params);
    const std::int64_t t2 = now_ns();
    smq::AnyScheduler sched = make_smq(kThreads);
    const std::int64_t t3 = now_ns();
    setup_ms.push_back(static_cast<double>(t3 - t0) * 1e-6);
    build_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    oracle_ms.push_back(static_cast<double>(t2 - t1) * 1e-6);
  };
  set_up();

  Outcome out;
  {
    const smq::Graph& graph = *g.graph;
    char input[512];
    std::snprintf(
        input, sizeof input,
        "%s %s source=%u vertices=%u edges=%zu graph_checksum=%016llx "
        "query_checksum=%016llx",
        g.name.c_str(), spec.algo.c_str(), g.default_source,
        graph.num_vertices(), graph.num_edges(),
        static_cast<unsigned long long>(graph_checksum(graph)),
        static_cast<unsigned long long>(
            query_checksum({{g.default_source, g.default_source}})));
    out.input = input;
  }

  auto record = [&out](const Solve& s) {
    ++out.attempted;
    if (!s.ok) ++out.failed;
  };
  auto fresh_solve = [&](unsigned threads) {
    smq::AnyScheduler sched = make_smq(threads);
    return solve(*entry, g, sched, threads, params, ref);
  };

  // Warm the graph and the allocator; not recorded. The peak resident
  // set is read here, after one set-up and one solve of each kind: the
  // set-ups that follow rebuild the graph beside whatever the allocator
  // kept from the solves, which no user of one graph would see.
  fresh_solve(kThreads);
  fresh_solve(1);
  const double peak_rss = peak_rss_mib();

  const std::int64_t start = now_ns();
  auto more = [&](int rounds) {
    return rounds < kMinRounds || seconds_since(start) < opts.seconds;
  };
  // Set up again when the next rep is due: rep i at i / setup_reps of
  // the run. After the last round, the reps still missing (a short run).
  auto set_up_when_due = [&] {
    if (setup_ms.size() < spec.setup_reps &&
        seconds_since(start) >= opts.seconds *
                                    static_cast<double>(setup_ms.size()) /
                                    static_cast<double>(spec.setup_reps)) {
      set_up();
    }
  };
  auto finish_setups = [&] {
    while (setup_ms.size() < spec.setup_reps) set_up();
  };

  if (!opts.trace) {
    std::vector<double> t4_ms, t1_ms, seq_ms, work;
    for (int round = 0; more(round); ++round) {
      set_up_when_due();
      for (int i = 0; i < 3; ++i) {
        const Solve s = fresh_solve(kThreads);
        record(s);
        t4_ms.push_back(s.ms);
        work.push_back(s.result.run.work_increase(ref.reference_tasks));
      }
      const Solve s1 = fresh_solve(1);
      record(s1);
      t1_ms.push_back(s1.ms);
      const std::int64_t t0 = now_ns();
      entry->make_reference(g, params);
      seq_ms.push_back(seconds_since(t0) * 1e3);
    }
    finish_setups();
    print_samples("solve_ms t=4", t4_ms);
    print_samples("solve_ms t=1", t1_ms);
    print_samples("oracle_ms", seq_ms);
    const double p50 = median(t4_ms);
    const double p90 = quantile(t4_ms, 0.9);
    const std::string n = "n=" + std::to_string(t4_ms.size());
    out.metrics = end_to_end_metrics();
    set_metric(out.metrics, "solve_ms_p50", p50, n);
    set_metric(out.metrics, "solve_ms_p90", p90, n);
    set_metric(out.metrics, "scaling_t4", median(t1_ms) / p50,
               "1-thread n=" + std::to_string(t1_ms.size()));
    set_metric(out.metrics, "speedup_vs_seq", median(seq_ms) / p50,
               "oracle n=" + std::to_string(seq_ms.size()));
    set_metric(out.metrics, "work_increase", median(work));
    set_metric(out.metrics, "query_ms_p50", p50, "stand-in: solve_ms_p50");
    set_metric(out.metrics, "query_ms_p99", p90, "stand-in: solve_ms_p90");
    set_metric(out.metrics, "max_qps_under_slo", 1e3 / p50,
               "stand-in: solves per second, one client");
    print_samples("setup_ms", setup_ms);
    set_metric(out.metrics, "setup_s", median(setup_ms) * 1e-3,
               "n=" + std::to_string(setup_ms.size()));
    set_metric(out.metrics, "peak_rss_mb", peak_rss,
               "after set-up and the warm-up solves");
    return out;
  }

  // Traced run: untraced and traced 4-thread solves, alternating.
  std::vector<double> plain_ms, traced_ms, wasted_frac, outside_ms,
      share_min, footprint;
  std::vector<double> tasks(kThreads), idle_ms(kThreads), steals(kThreads);
  double steals_total = 0, fails_total = 0;
  TraceSummary sum;
  int traced_runs = 0;
  for (int round = 0; more(round); ++round) {
    set_up_when_due();
    const Solve plain = fresh_solve(kThreads);
    record(plain);
    plain_ms.push_back(plain.ms);

    const double heap_before = heap_in_use_mib();
    auto trace = std::make_shared<Trace>();
    smq::AnyScheduler sched = traced(make_smq(kThreads), trace);
    const Solve s = solve(*entry, g, sched, kThreads, params, ref);
    record(s);
    traced_ms.push_back(s.ms);
    footprint.push_back(heap_in_use_mib() - heap_before);
    for (unsigned t = 0; t < kThreads; ++t) {
      smq::ThreadStats st;
      sched.handle(t).collect_stats(st);
      steals[t] += static_cast<double>(st.steals);
      steals_total += static_cast<double>(st.steals);
      fails_total += static_cast<double>(st.steal_fails);
    }
    const TraceSummary one = summarize(trace->collect(), kThreads);
    double min_tasks = static_cast<double>(one.tasks);
    for (unsigned t = 0; t < kThreads; ++t) {
      tasks[t] += static_cast<double>(one.rows[t].tasks);
      idle_ms[t] += static_cast<double>(one.rows[t].idle_ns) * 1e-6;
      min_tasks = std::min(min_tasks, static_cast<double>(one.rows[t].tasks));
    }
    share_min.push_back(one.tasks == 0 ? 0 : min_tasks / one.tasks);
    outside_ms.push_back(s.ms - static_cast<double>(one.max_span_ns) * 1e-6);
    const smq::ThreadStats& st = s.result.run.stats;
    wasted_frac.push_back(st.pops == 0 ? 0
                                       : static_cast<double>(st.wasted) /
                                             static_cast<double>(st.pops));
    sum.tasks += one.tasks;
    sum.calls += one.calls;
    sum.pop_calls += one.pop_calls;
    sum.empty_pops += one.empty_pops;
    sum.push_ns += one.push_ns;
    sum.pop_ns += one.pop_ns;
    sum.kernel_ns += one.kernel_ns;
    ++traced_runs;
  }
  finish_setups();
  const double runs = traced_runs;
  const double task_count = sum.tasks == 0 ? 1 : static_cast<double>(sum.tasks);

  smq::AnyScheduler probe = make_smq(kThreads);
  const smq::LiveRankResult rank =
      smq::measure_live_rank(probe, kLiveRankElements, opts.seed);

  out.metrics = per_layer_metrics();
  auto set = [&out](const std::string& name, double v, std::string note = {}) {
    set_metric(out.metrics, name, v, std::move(note));
  };
  set("graph.build_s", median(build_s));
  set("graph.csr_mib",
      static_cast<double>(g.graph->offsets().size_bytes() +
                          g.graph->adjacency().size_bytes()) /
          (1024.0 * 1024.0),
      "computed from array sizes");
  set("algorithms.oracle_ms", median(oracle_ms));
  set("algorithms.kernel_ns_per_task",
      static_cast<double>(sum.kernel_ns) / task_count);
  set("algorithms.wasted_frac", median(wasted_frac));
  set("core.push_ns_per_task", static_cast<double>(sum.push_ns) / task_count);
  set("core.pop_ns_per_task", static_cast<double>(sum.pop_ns) / task_count);
  set("core.steals", steals_total / runs, "per solve");
  set("core.steal_fails", fails_total / runs, "per solve");
  set("core.steal_success_frac",
      steals_total + fails_total == 0
          ? 0
          : steals_total / (steals_total + fails_total));
  set("core.footprint_mib", median(footprint),
      "heap the scheduler holds after a solve");
  for (unsigned t = 0; t < kThreads; ++t) {
    const std::string p = "sched.t" + std::to_string(t);
    set(p + ".tasks", tasks[t] / runs, "per solve");
    set(p + ".idle_ms", idle_ms[t] / runs, "per solve");
    set(p + ".steals", steals[t] / runs, "per solve");
  }
  set("sched.task_share_min", median(share_min));
  set("sched.empty_pop_frac",
      sum.pop_calls == 0 ? 0
                         : static_cast<double>(sum.empty_pops) /
                               static_cast<double>(sum.pop_calls));
  set("sched.outside_ms", median(outside_ms));
  set("registry.handle_calls_per_task",
      static_cast<double>(sum.calls) / task_count);
  set("rank.live_mean", rank.mean_rank,
      std::to_string(kLiveRankElements) + " elements");
  set("rank.live_max", static_cast<double>(rank.max_rank));
  set("trace.overhead", median(traced_ms) / median(plain_ms),
      "traced / untraced solve_ms_p50, n=" + std::to_string(traced_ms.size()));
  return out;
}

}  // namespace perfbench
