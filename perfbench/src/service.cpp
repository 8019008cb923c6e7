// The astar-service workload: seeded point-to-point queries on a road
// graph, served by the persistent worker pool. One generator thread (this
// one) drives an open loop of Poisson arrivals over a fixed ladder of
// offered rates and times each query from the moment it was due;
// closed-loop drains of consecutive query batches give the solve-style
// figures. A traced run serves the load point through a service built
// over the tracing wrapper instead.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <memory>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "rank/live_rank.h"
#include "registry/algorithm_registry.h"
#include "registry/scheduler_registry.h"
#include "registry/service_factory.h"
#include "report.h"
#include "service/scheduler_service.h"
#include "service/service_driver.h"
#include "trace.h"

namespace perfbench {
namespace {

constexpr int kSetupReps = 3;
constexpr int kMinDrains = 3;
/// The query set. The load-point rung submits all of it; the other
/// rungs submit its first kRungQueries. Latency percentiles are taken
/// per window of kRungQueries consecutive submissions, so each p99 has
/// ten samples beyond it.
constexpr std::size_t kQueries = 2000;
constexpr std::size_t kLoadPointQueries = kQueries;
constexpr std::size_t kRungQueries = 1000;
/// Closed-loop drain rounds take consecutive batches of kDrainQueries
/// from the query set, cycling, so a run's drains cover many queries
/// rather than one batch's particular long ones.
constexpr std::size_t kDrainQueries = 200;
static_assert(kQueries % kDrainQueries == 0);
constexpr std::size_t kServiceBatch = 8;
constexpr std::size_t kLiveRankElements = 100000;
/// Offered rates, ascending, queries per second: steps of about 1.25x
/// from 320, plus the load point below them.
constexpr double kLadder[] = {160, 320, 400, 500, 630, 800, 1000};
/// The rung whose latencies are query_ms_p50 / query_ms_p99: the first,
/// at about a third of the service's measured capacity on 4 cores, where
/// queueing amplifies slow drifts of machine speed less than near
/// saturation.
constexpr double kLoadPoint = 160;
static_assert(kLadder[0] == kLoadPoint);
/// The latency limit on p99 that max_qps_under_slo is judged against.
/// p99 climbs steeply near capacity, so the rate where it crosses this
/// limit moves little when p99 itself is noisy.
constexpr double kSloP99Ms = 100;

double seconds_since(std::int64_t start) {
  return static_cast<double>(now_ns() - start) * 1e-9;
}

smq::AnyScheduler make_smq(unsigned threads) {
  return smq::SchedulerRegistry::instance().create("smq", threads, {});
}

smq::ServiceOptions service_options(const smq::GraphInstance& g) {
  smq::ServiceOptions o;
  o.batch_size = kServiceBatch;
  o.weight_scale = g.weight_scale;
  return o;
}

/// The sequential oracle of every query: distance and A* expansions.
struct Oracle {
  std::vector<std::uint64_t> distance;
  std::vector<std::uint64_t> tasks;
};

/// Each query is solved by the sequential reference; with `threads` > 1
/// independent queries are split over that many threads (a faster
/// set-up, the same answers).
Oracle make_oracle(const smq::AlgorithmEntry& astar,
                   const smq::GraphInstance& g,
                   std::span<const smq::Query> queries, unsigned threads) {
  Oracle o;
  o.distance.resize(queries.size());
  o.tasks.resize(queries.size());
  auto solve_range = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const smq::AlgoReference ref = astar.make_reference(
          g, smq::params_of({{"source", std::to_string(queries[i].source)},
                             {"target", std::to_string(queries[i].target)}}));
      o.distance[i] = ref.reference_answer;
      o.tasks[i] = ref.reference_tasks;
    }
  };
  {
    std::vector<std::jthread> pool;
    const std::size_t chunk = (queries.size() + threads - 1) / threads;
    for (std::size_t begin = 0; begin < queries.size(); begin += chunk) {
      pool.emplace_back(solve_range, begin,
                        std::min(queries.size(), begin + chunk));
    }
  }  // joined here, before `o` is read
  return o;
}

struct Rung {
  double rate = 0;
  std::vector<double> latency_ms;  // from due time; failures are +inf
  std::vector<double> submit_us;
  double late_ms_max = 0;
  std::uint64_t backlog_max = 0;
  bool backlog_growing = false;
  std::uint64_t failed = 0;
  std::uint64_t tasks = 0;
  std::uint64_t wasted = 0;
  /// p99 of each window of kRungQueries consecutive submissions, median
  /// over the windows: one stall of the machine moves one window only.
  double p99_ms() const {
    std::vector<double> per_window;
    for (std::size_t begin = 0; begin + kRungQueries <= latency_ms.size();
         begin += kRungQueries) {
      per_window.push_back(quantile(
          std::vector<double>(latency_ms.begin() + begin,
                              latency_ms.begin() + begin + kRungQueries),
          0.99));
    }
    return median(per_window);
  }
  bool pass() const {
    return failed == 0 && p99_ms() <= kSloP99Ms && !backlog_growing;
  }
};

/// Open loop at `rate`: `n` submissions cycling through `queries`, each
/// submitted when due, whatever the backlog, and timed from its due time.
Rung drive_open_loop(smq::QueryService& svc,
                     std::span<const smq::Query> queries, const Oracle& oracle,
                     std::size_t n, double rate, std::uint64_t seed) {
  Rung r;
  r.rate = rate;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  std::vector<std::int64_t> due(n);
  const std::int64_t t0 = now_ns() + 2'000'000;
  double offset_s = 0;
  for (std::size_t i = 0; i < n; ++i) {
    offset_s += -std::log(1.0 - uniform(rng)) / rate;
    due[i] = t0 + static_cast<std::int64_t>(offset_s * 1e9);
  }

  std::vector<smq::QueryTicket> tickets(n);
  std::vector<std::int64_t> late(n, 0);
  const std::uint64_t done_before = svc.queries_completed();
  for (std::size_t i = 0; i < n; ++i) {
    // now_ns() reads the steady clock, so due times are its time points.
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due[i])));
    const std::int64_t s = now_ns();
    try {
      tickets[i] = svc.submit(queries[i % queries.size()]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "submit refused: %s\n", e.what());
    }
    const std::int64_t e = now_ns();
    r.submit_us.push_back(static_cast<double>(e - s) * 1e-3);
    late[i] = s - due[i];
    r.late_ms_max = std::max(r.late_ms_max, static_cast<double>(late[i]) * 1e-6);
    const std::uint64_t in_flight =
        (i + 1) - (svc.queries_completed() - done_before);
    r.backlog_max = std::max<std::uint64_t>(r.backlog_max, in_flight);
  }
  for (std::size_t i = 0; i < n; ++i) {
    double ms = INFINITY;
    if (tickets[i].valid()) {
      try {
        const smq::QueryResult q = tickets[i].get();
        r.tasks += q.tasks;
        r.wasted += q.wasted;
        if (q.distance == oracle.distance[i % queries.size()]) {
          ms = static_cast<double>(late[i]) * 1e-6 + q.latency_seconds * 1e3;
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "query failed: %s\n", e.what());
      }
    }
    if (std::isinf(ms)) ++r.failed;
    r.latency_ms.push_back(ms);
  }
  // A growing backlog: the service completed the rung's queries at under
  // 95% of the rate they arrived, i.e. the last answer came later after
  // the first due time than the arrivals' span divided by 0.95.
  double last_done_ms = 0;
  for (std::size_t i = 0; i < n; ++i) {
    last_done_ms = std::max(
        last_done_ms,
        static_cast<double>(due[i] - due[0]) * 1e-6 + r.latency_ms[i]);
  }
  r.backlog_growing = last_done_ms >
                      static_cast<double>(due[n - 1] - due[0]) * 1e-6 / 0.95;
  return r;
}

/// The offered rate at which p99 reaches the limit: a least-squares line
/// of log p99 against rate through every rung without failures, solved
/// for the limit. Near capacity the p99 of a short rung is noisy, and the
/// bare highest passing rung moves by whole ladder steps from run to run;
/// the line pools every rung. It never exceeds the lowest rate at which
/// queries failed or the backlog grew, nor the top of the ladder. Without
/// a rising line the highest rung meeting the SLO stands.
double slo_crossing(const std::vector<Rung>& rungs) {
  double highest_pass = 0;
  double cap = kLadder[std::size(kLadder) - 1];
  double n = 0, sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (const Rung& r : rungs) {
    if (r.pass()) highest_pass = r.rate;
    if (r.failed > 0 || r.backlog_growing) cap = std::min(cap, r.rate);
    if (r.failed > 0) continue;
    const double y = std::log(r.p99_ms());
    n += 1;
    sx += r.rate;
    sy += y;
    sxx += r.rate * r.rate;
    sxy += r.rate * y;
  }
  const double det = n * sxx - sx * sx;
  if (n < 2 || det <= 0) return highest_pass;
  const double slope = (n * sxy - sx * sy) / det;
  if (slope <= 0) return highest_pass;
  const double intercept = (sy - slope * sx) / n;
  const double rate = (std::log(kSloP99Ms) - intercept) / slope;
  return std::clamp(rate, 0.0, cap);
}

/// One closed-loop batch with its oracle answers and oracle work.
struct Batch {
  std::span<const smq::Query> queries;
  std::span<const std::uint64_t> expected;
  std::uint64_t ref_tasks = 0;
};

Batch batch_of(std::span<const smq::Query> queries, const Oracle& oracle,
               std::size_t round) {
  const std::size_t begin = (round * kDrainQueries) % queries.size();
  Batch b{queries.subspan(begin, kDrainQueries),
          std::span<const std::uint64_t>(oracle.distance)
              .subspan(begin, kDrainQueries)};
  for (std::size_t i = begin; i < begin + kDrainQueries; ++i) {
    b.ref_tasks += oracle.tasks[i];
  }
  return b;
}

struct Drain {
  double ms = 0;
  std::uint64_t tasks = 0;
  std::uint64_t failed = 0;
};

/// Closed loop: the whole batch submitted at once, timed to the last
/// answer.
Drain drain(smq::QueryService& svc, const Batch& batch) {
  Drain d;
  const std::int64_t start = now_ns();
  std::vector<smq::QueryTicket> tickets;
  tickets.reserve(batch.queries.size());
  for (const smq::Query& q : batch.queries) tickets.push_back(svc.submit(q));
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    try {
      const smq::QueryResult r = tickets[i].get();
      d.tasks += r.tasks;
      if (r.distance != batch.expected[i]) ++d.failed;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "query failed: %s\n", e.what());
      ++d.failed;
    }
  }
  d.ms = seconds_since(start) * 1e3;
  return d;
}

}  // namespace

Outcome run_service(const RunOptions& opts) {
  const smq::AlgorithmEntry* astar =
      smq::AlgorithmRegistry::instance().find("astar");
  if (astar == nullptr) throw std::logic_error("astar not registered");
  // The road network is fixed, like a deployed service's map (the
  // generator's default seed); the workload seed draws the query stream
  // and its arrival times. Service latency depends on the particular
  // network about as much as on the queries, and one network per seed
  // would swamp every latency metric with between-network spread.
  const smq::ParamMap graph_params = smq::params_of({{"vertices", "100000"}});
  const std::uint64_t query_seed = opts.seed * 0x9E3779B97F4A7C15ull + 1;

  // Set-up, several times: graph, queries and their oracle, service.
  std::vector<double> setup_s, build_s, oracle_ms;
  smq::GraphInstance g;
  std::vector<smq::Query> queries;
  Oracle oracle;
  std::unique_ptr<smq::QueryService> svc;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    svc.reset();
    g = {};
    const std::int64_t t0 = now_ns();
    g = smq::GraphRegistry::instance().create("road", graph_params);
    const std::int64_t t1 = now_ns();
    queries = smq::make_query_set(g, kQueries, query_seed);
    oracle = make_oracle(*astar, g, queries, kThreads);
    const std::int64_t t2 = now_ns();
    svc = smq::make_service("smq", kServiceWorkers, {}, g, service_options(g));
    const std::int64_t t3 = now_ns();
    setup_s.push_back(static_cast<double>(t3 - t0) * 1e-9);
    build_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    oracle_ms.push_back(static_cast<double>(t2 - t1) * 1e-6);
  }

  Outcome out;
  const smq::Graph& graph = *g.graph;
  char input[512];
  std::snprintf(input, sizeof input,
                "%s astar-queries=%zu vertices=%u edges=%zu "
                "graph_checksum=%016llx query_checksum=%016llx",
                g.name.c_str(), queries.size(), graph.num_vertices(),
                graph.num_edges(),
                static_cast<unsigned long long>(graph_checksum(graph)),
                static_cast<unsigned long long>(query_checksum(queries)));
  out.input = input;

  const Batch first = batch_of(queries, oracle, 0);
  auto count_rung = [&out](const Rung& r) {
    out.attempted += r.latency_ms.size();
    out.failed += r.failed;
  };
  auto count_drain = [&out](const Drain& d) {
    out.attempted += kDrainQueries;
    out.failed += d.failed;
  };
  auto rung_seed = [&opts](double rate) {
    return opts.seed * 1000003ull + static_cast<std::uint64_t>(rate);
  };

  drain(*svc, first);  // warm-up, not recorded
  const std::int64_t start = now_ns();

  if (!opts.trace) {
    // Every rung runs, overloaded ones too (they are short), so one
    // disturbed low rung cannot hide the rungs above it. A closed-loop
    // drain round follows each rung, spreading the drains over the run.
    auto one_worker = smq::make_service("smq", 1, {}, g, service_options(g));
    drain(*one_worker, first);  // warm-up, not recorded
    std::vector<double> d3_ms, d1_ms, seq_ms, work;
    auto drain_round = [&] {
      const Batch batch = batch_of(queries, oracle, d3_ms.size());
      const Drain d3 = drain(*svc, batch);
      count_drain(d3);
      d3_ms.push_back(d3.ms);
      work.push_back(static_cast<double>(d3.tasks) /
                     static_cast<double>(batch.ref_tasks));
      const Drain d1 = drain(*one_worker, batch);
      count_drain(d1);
      d1_ms.push_back(d1.ms);
      const std::int64_t t0 = now_ns();
      make_oracle(*astar, g, batch.queries, 1);
      seq_ms.push_back(seconds_since(t0) * 1e3);
    };

    std::vector<Rung> rungs;
    for (const double rate : kLadder) {
      const std::size_t n = rate == kLoadPoint ? kLoadPointQueries : kRungQueries;
      rungs.push_back(
          drive_open_loop(*svc, queries, oracle, n, rate, rung_seed(rate)));
      const Rung& r = rungs.back();
      count_rung(r);
      std::printf("rung %.0f qps: p50 %.3f ms p99 %.3f ms backlog_max %llu%s "
                  "failed %llu -> %s\n",
                  rate, median(r.latency_ms), r.p99_ms(),
                  static_cast<unsigned long long>(r.backlog_max),
                  r.backlog_growing ? " (growing)" : "",
                  static_cast<unsigned long long>(r.failed),
                  r.pass() ? "meets SLO" : "misses SLO");
      drain_round();
    }
    while (static_cast<int>(d3_ms.size()) < kMinDrains ||
           seconds_since(start) < opts.seconds) {
      drain_round();
    }

    double rung_qps = 0;
    for (const Rung& r : rungs) {
      if (r.pass()) rung_qps = r.rate;
    }
    const double max_qps = slo_crossing(rungs);
    const Rung& load = rungs[0];

    print_samples("drain_ms workers=3", d3_ms);
    print_samples("drain_ms workers=1", d1_ms);
    print_samples("oracle_ms", seq_ms);
    const double p50 = median(d3_ms);
    const std::string n = "closed-loop drain of " +
                          std::to_string(kDrainQueries) + " queries, n=" +
                          std::to_string(d3_ms.size());
    const std::string at = "at " + std::to_string(static_cast<int>(kLoadPoint)) +
                           " qps, n=" + std::to_string(load.latency_ms.size());
    out.metrics = end_to_end_metrics();
    set_metric(out.metrics, "solve_ms_p50", p50, n);
    set_metric(out.metrics, "solve_ms_p90", quantile(d3_ms, 0.9), n);
    set_metric(out.metrics, "scaling_t4", median(d1_ms) / p50,
               "1 worker vs " + std::to_string(kServiceWorkers));
    set_metric(out.metrics, "speedup_vs_seq", median(seq_ms) / p50,
               "sequential A* over the same batch");
    set_metric(out.metrics, "work_increase", median(work));
    set_metric(out.metrics, "query_ms_p50", median(load.latency_ms), at);
    set_metric(out.metrics, "query_ms_p99", load.p99_ms(), at);
    set_metric(out.metrics, "max_qps_under_slo", max_qps,
               "p99 <= " + std::to_string(static_cast<int>(kSloP99Ms)) +
                   " ms; highest passing rung " +
                   std::to_string(static_cast<int>(rung_qps)));
    set_metric(out.metrics, "setup_s", median(setup_s),
               "n=" + std::to_string(setup_s.size()));
    set_metric(out.metrics, "peak_rss_mb", peak_rss_mib());
    return out;
  }

  // Traced run. The load point through a service over the tracing
  // wrapper; the service is stopped before its sessions are read.
  const double heap_before = heap_in_use_mib();
  auto trace = std::make_shared<Trace>();
  auto traced_svc = std::make_unique<smq::SchedulerService<smq::AnyScheduler>>(
      g.graph, kServiceWorkers, service_options(g),
      traced(make_smq(kServiceWorkers), trace));
  const Rung load = drive_open_loop(*traced_svc, queries, oracle,
                                    kLoadPointQueries, kLoadPoint,
                                    rung_seed(kLoadPoint));
  count_rung(load);
  const double footprint = heap_in_use_mib() - heap_before;
  traced_svc->stop();
  std::vector<double> steals(kServiceWorkers);
  double steals_total = 0, fails_total = 0;
  for (unsigned w = 0; w < kServiceWorkers; ++w) {
    smq::ThreadStats st;
    traced_svc->scheduler().handle(w).collect_stats(st);
    steals[w] = static_cast<double>(st.steals);
    steals_total += static_cast<double>(st.steals);
    fails_total += static_cast<double>(st.steal_fails);
  }
  const TraceSummary sum = summarize(trace->collect(), kThreads);
  traced_svc.reset();

  // Tracing overhead: closed-loop drains, untraced and traced.
  auto overhead_trace = std::make_shared<Trace>();
  smq::SchedulerService<smq::AnyScheduler> overhead_svc(
      g.graph, kServiceWorkers, service_options(g),
      traced(make_smq(kServiceWorkers), overhead_trace));
  drain(overhead_svc, first);  // warm-up
  std::vector<double> plain_ms, traced_ms;
  for (int round = 0;
       round < kMinDrains || seconds_since(start) < opts.seconds; ++round) {
    const Batch batch = batch_of(queries, oracle, plain_ms.size());
    const Drain p = drain(*svc, batch);
    count_drain(p);
    plain_ms.push_back(p.ms);
    const Drain t = drain(overhead_svc, batch);
    count_drain(t);
    traced_ms.push_back(t.ms);
  }

  // The spawn-per-query reference on the same batch.
  const smq::DriveResult spawn = smq::drive_spawn_per_query(
      g, "smq", {}, kServiceWorkers, first.queries, kServiceBatch);
  out.attempted += kDrainQueries;
  for (std::size_t i = 0; i < spawn.results.size(); ++i) {
    if (spawn.results[i].distance != first.expected[i]) ++out.failed;
  }

  smq::AnyScheduler probe = make_smq(kThreads);
  const smq::LiveRankResult rank =
      smq::measure_live_rank(probe, kLiveRankElements, opts.seed);

  const double task_count = sum.tasks == 0 ? 1 : static_cast<double>(sum.tasks);
  out.metrics = per_layer_metrics();
  auto set = [&out](const std::string& name, double v, std::string note = {}) {
    set_metric(out.metrics, name, v, std::move(note));
  };
  set("graph.build_s", median(build_s));
  set("graph.csr_mib",
      static_cast<double>(graph.offsets().size_bytes() +
                          graph.adjacency().size_bytes()) /
          (1024.0 * 1024.0),
      "computed from array sizes");
  set("algorithms.oracle_ms", median(oracle_ms),
      std::to_string(kQueries) + " sequential A* queries on " +
          std::to_string(kThreads) + " threads");
  set("algorithms.kernel_ns_per_task",
      static_cast<double>(sum.kernel_ns) / task_count);
  set("algorithms.wasted_frac",
      load.tasks == 0 ? 0
                      : static_cast<double>(load.wasted) /
                            static_cast<double>(load.tasks));
  set("core.push_ns_per_task", static_cast<double>(sum.push_ns) / task_count);
  set("core.pop_ns_per_task", static_cast<double>(sum.pop_ns) / task_count);
  set("core.steals", steals_total, "over the load-point rung");
  set("core.steal_fails", fails_total, "over the load-point rung");
  set("core.steal_success_frac",
      steals_total + fails_total == 0
          ? 0
          : steals_total / (steals_total + fails_total));
  set("core.footprint_mib", footprint,
      "heap the service holds after the load-point rung");
  double min_tasks = task_count;
  for (unsigned t = 0; t < kThreads; ++t) {
    const std::string p = "sched.t" + std::to_string(t);
    if (t >= kServiceWorkers) continue;  // no such worker: reads 0
    const double tasks = static_cast<double>(sum.rows[t].tasks);
    const double idle = static_cast<double>(sum.rows[t].idle_ns) * 1e-6;
    min_tasks = std::min(min_tasks, tasks);
    set(p + ".tasks", tasks, "service worker");
    set(p + ".idle_ms", idle, "service worker");
    set(p + ".steals", steals[t], "service worker");
    const std::string w = "service.w" + std::to_string(t);
    set(w + ".tasks", tasks);
    set(w + ".idle_ms", idle);
  }
  set("sched.task_share_min", min_tasks / task_count);
  set("sched.empty_pop_frac",
      sum.pop_calls == 0 ? 0
                         : static_cast<double>(sum.empty_pops) /
                               static_cast<double>(sum.pop_calls));
  set("registry.handle_calls_per_task",
      static_cast<double>(sum.calls) / task_count);
  set("rank.live_mean", rank.mean_rank,
      std::to_string(kLiveRankElements) + " elements");
  set("rank.live_max", static_cast<double>(rank.max_rank));
  set("service.submit_us_p99", quantile(load.submit_us, 0.99));
  set("service.backlog_max", static_cast<double>(load.backlog_max));
  set("service.generator_late_ms", load.late_ms_max, "max over the rung");
  set("service.tasks_per_query",
      static_cast<double>(load.tasks) /
          static_cast<double>(kLoadPointQueries));
  set("service.wasted_frac",
      load.tasks == 0 ? 0
                      : static_cast<double>(load.wasted) /
                            static_cast<double>(load.tasks));
  set("service.spawn_qps",
      static_cast<double>(kDrainQueries) / spawn.seconds);
  set("trace.overhead", median(traced_ms) / median(plain_ms),
      "traced / untraced closed-loop drain, n=" +
          std::to_string(traced_ms.size()));
  return out;
}

}  // namespace perfbench
