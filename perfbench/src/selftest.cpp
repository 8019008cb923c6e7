// Transparency test of the tracing forwarder: on small graphs, traced
// and untraced solves are both oracle-valid, and the per-thread counts
// the trace takes from outside sum exactly to the run's own totals for
// pops, pushes and steals. The pop and push sums test the wrapper: the
// trace counts what crosses each handle call, the executor counts what
// it did with it. The steal sum holds by construction (the wrapper's
// collect_stats forwards to the inner handle, which the executor's own
// totals read too); it can only catch a traced handle that reads
// another thread's counters. Exits non-zero if any check failed.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "registry/algorithm_registry.h"
#include "registry/scheduler_registry.h"
#include "service/scheduler_service.h"
#include "service/service_driver.h"
#include "report.h"
#include "trace.h"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

void check_solve(const std::string& graph, const smq::ParamMap& graph_params,
                 const std::string& algo, unsigned threads,
                 std::size_t batch) {
  const std::string name = algo + " on " + graph + " threads=" +
                           std::to_string(threads) +
                           " batch=" + std::to_string(batch);
  const smq::GraphInstance g =
      smq::GraphRegistry::instance().create(graph, graph_params);
  const smq::AlgorithmEntry& entry =
      *smq::AlgorithmRegistry::instance().find(algo);
  const smq::ParamMap params =
      smq::params_of({{"batch-size", std::to_string(batch)}});
  const smq::AlgoReference ref = entry.make_reference(g, params);
  auto& registry = smq::SchedulerRegistry::instance();

  smq::AnyScheduler plain = registry.create("smq", threads, {});
  const smq::AlgoResult untraced = entry.run(g, plain, threads, params, &ref);
  check(untraced.validated && untraced.valid, name + ": untraced valid");

  auto trace = std::make_shared<perfbench::Trace>();
  smq::AnyScheduler sched =
      perfbench::traced(registry.create("smq", threads, {}), trace);
  const smq::AlgoResult r = entry.run(g, sched, threads, params, &ref);
  check(r.validated && r.valid, name + ": traced valid");

  std::uint64_t steals = 0;
  for (unsigned t = 0; t < threads; ++t) {
    smq::ThreadStats st;
    sched.handle(t).collect_stats(st);
    steals += st.steals;
  }
  const perfbench::TraceSummary s =
      perfbench::summarize(trace->collect(), threads);
  std::uint64_t row_tasks = 0;
  for (const auto& row : s.rows) row_tasks += row.tasks;
  check(s.tasks == r.run.stats.pops && row_tasks == r.run.stats.pops,
        name + ": traced pops " + std::to_string(s.tasks) + " == " +
            std::to_string(r.run.stats.pops));
  check(s.pushed == r.run.stats.pushes,
        name + ": traced pushes " + std::to_string(s.pushed) + " == " +
            std::to_string(r.run.stats.pushes));
  check(steals == r.run.stats.steals,
        name + ": per-thread steals " + std::to_string(steals) + " == " +
            std::to_string(r.run.stats.steals));
  check(s.kernel_ns >= 0 && s.push_ns >= 0 && s.pop_ns >= 0,
        name + ": non-negative span times");
}

void check_service() {
  const smq::GraphInstance g = smq::GraphRegistry::instance().create(
      "road", smq::params_of({{"vertices", "5000"}, {"seed", "3"}}));
  const std::vector<smq::Query> queries = smq::make_query_set(g, 60, 9);
  const smq::ServiceReference ref =
      smq::measure_service_reference(g, queries, 1);
  auto trace = std::make_shared<perfbench::Trace>();
  smq::ServiceOptions opts;
  opts.weight_scale = g.weight_scale;
  smq::SchedulerService<smq::AnyScheduler> svc(
      g.graph, 3, opts,
      perfbench::traced(smq::SchedulerRegistry::instance().create("smq", 3, {}),
                        trace));
  const smq::DriveResult drive = smq::drive_service(svc, queries, 0, 1);
  svc.stop();
  bool valid = drive.results.size() == queries.size();
  for (std::size_t i = 0; valid && i < queries.size(); ++i) {
    valid = drive.results[i].distance == ref.distances[i];
  }
  check(valid, "traced service answers match the oracle");
  const perfbench::TraceSummary s = perfbench::summarize(trace->collect(), 3);
  const smq::ThreadStats totals = svc.worker_stats();
  check(s.tasks == totals.pops, "traced service pops " +
                                    std::to_string(s.tasks) + " == " +
                                    std::to_string(totals.pops));
  check(s.pushed == totals.pushes, "traced service pushes " +
                                       std::to_string(s.pushed) + " == " +
                                       std::to_string(totals.pushes));
}

}  // namespace

int main() {
  const smq::ParamMap road =
      smq::params_of({{"vertices", "20000"}, {"seed", "5"}});
  const smq::ParamMap rmat = smq::params_of({{"scale", "13"}, {"seed", "5"}});
  for (const unsigned threads : {1u, 4u}) {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{64}}) {
      check_solve("road", road, "sssp", threads, batch);
      check_solve("rmat", rmat, "bfs", threads, batch);
    }
  }
  check_service();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
