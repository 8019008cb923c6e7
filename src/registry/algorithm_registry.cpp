#include "registry/algorithm_registry.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/astar.h"
#include "algorithms/bfs.h"
#include "algorithms/boruvka.h"
#include "algorithms/pagerank.h"
#include "algorithms/sssp.h"
#include "sched/executor.h"
#include "support/timer.h"

namespace smq {

namespace {

std::uint64_t distance_checksum(const std::vector<std::uint64_t>& dist) {
  std::uint64_t checksum = 0;
  for (const std::uint64_t d : dist) {
    if (d != DistanceArray::kUnreached) checksum += d;
  }
  return checksum;
}

VertexId checked_vertex(const GraphInstance& g, const char* what,
                        std::int64_t v) {
  if (v < 0 || static_cast<std::uint64_t>(v) >= g.graph->num_vertices()) {
    throw std::invalid_argument(std::string(what) + " vertex " +
                                std::to_string(v) + " out of range [0, " +
                                std::to_string(g.graph->num_vertices()) + ")");
  }
  return static_cast<VertexId>(v);
}

VertexId source_of(const GraphInstance& g, const ParamMap& params) {
  return checked_vertex(
      g, "source",
      params.get_int("source", static_cast<std::int64_t>(g.default_source)));
}

VertexId target_of(const GraphInstance& g, const ParamMap& params) {
  return checked_vertex(
      g, "target",
      params.get_int("target", static_cast<std::int64_t>(g.default_target)));
}

/// The executor knobs every workload accepts, read from the shared
/// ParamMap (`--batch-size N` on the command line).
ExecutorOptions executor_options(const ParamMap& params) {
  ExecutorOptions exec;
  const std::int64_t batch = params.get_int("batch-size", 1);
  exec.batch_size = batch < 1 ? 1 : static_cast<std::size_t>(batch);
  return exec;
}

PageRankOptions pagerank_options(const ParamMap& params) {
  PageRankOptions opts;
  opts.damping = params.get_double("damping", 0.85);
  opts.tolerance = params.get_double("tolerance", 1e-4);
  return opts;
}

/// Exact-distance validation shared by sssp and bfs: the oracle payload
/// is the full distance vector.
AlgoResult validate_distances(ShortestPathResult result,
                              const AlgoReference* ref) {
  AlgoResult out;
  out.run = result.run;
  out.answer = distance_checksum(result.distances);
  if (ref != nullptr && ref->oracle != nullptr) {
    const auto& expected =
        *static_cast<const std::vector<std::uint64_t>*>(ref->oracle.get());
    out.validated = true;
    out.valid = result.distances == expected;
  }
  return out;
}

// ---- one runner per registered algorithm ----------------------------------

AlgoResult run_sssp(const GraphInstance& g, AnyScheduler& sched,
                    unsigned threads, const ParamMap& params,
                    const AlgoReference* ref) {
  return validate_distances(
      parallel_sssp(*g.graph, source_of(g, params), sched, threads,
                    executor_options(params)),
      ref);
}

AlgoResult run_bfs(const GraphInstance& g, AnyScheduler& sched,
                   unsigned threads, const ParamMap& params,
                   const AlgoReference* ref) {
  return validate_distances(
      parallel_bfs(*g.graph, source_of(g, params), sched, threads,
                   executor_options(params)),
      ref);
}

AlgoResult run_astar(const GraphInstance& g, AnyScheduler& sched,
                     unsigned threads, const ParamMap& params,
                     const AlgoReference* ref) {
  const AStarResult result =
      parallel_astar(*g.graph, source_of(g, params), target_of(g, params),
                     sched, threads, g.weight_scale, executor_options(params));
  AlgoResult out;
  out.run = result.run;
  out.answer = result.distance;
  if (ref != nullptr && ref->oracle != nullptr) {
    out.validated = true;
    out.valid =
        result.distance == *static_cast<const std::uint64_t*>(ref->oracle.get());
  }
  return out;
}

AlgoResult run_pagerank(const GraphInstance& g, AnyScheduler& sched,
                        unsigned threads, const ParamMap& params,
                        const AlgoReference* ref) {
  const PageRankOptions opts = pagerank_options(params);
  const PageRankResult result = parallel_pagerank(
      *g.graph, sched, threads, opts, executor_options(params));
  AlgoResult out;
  out.run = result.run;
  double sum = 0;
  for (const double r : result.ranks) sum += r;
  out.answer = static_cast<std::uint64_t>(sum);
  if (ref != nullptr && ref->oracle != nullptr) {
    const auto& expected =
        *static_cast<const std::vector<double>*>(ref->oracle.get());
    // Residuals below `tolerance` stay unpushed, so per-vertex ranks can
    // legitimately differ by a small multiple of it.
    const double eps = std::max(1e-9, opts.tolerance * 100);
    out.validated = true;
    out.valid = result.ranks.size() == expected.size();
    for (std::size_t v = 0; out.valid && v < expected.size(); ++v) {
      out.valid = std::abs(result.ranks[v] - expected[v]) <= eps;
    }
  }
  return out;
}

AlgoResult run_boruvka(const GraphInstance& g, AnyScheduler& sched,
                       unsigned threads, const ParamMap& params,
                       const AlgoReference* ref) {
  const MstResult result =
      parallel_boruvka(*g.graph, sched, threads, executor_options(params));
  AlgoResult out;
  out.run = result.run;
  out.answer = result.total_weight;
  if (ref != nullptr && ref->oracle != nullptr) {
    out.validated = true;
    out.valid = result.total_weight ==
                *static_cast<const std::uint64_t*>(ref->oracle.get());
  }
  return out;
}

/// Executor tunables every workload accepts; appended to each entry so
/// `smq_run --list` self-describes the batched hot path.
const std::vector<Tunable> kExecutorTunables = {
    {"batch-size", "1",
     "tasks per executor scheduler call (one dispatch + one pending-counter "
     "update per batch)"},
};

std::vector<Tunable> with_executor_tunables(std::vector<Tunable> tunables) {
  tunables.insert(tunables.end(), kExecutorTunables.begin(),
                  kExecutorTunables.end());
  return tunables;
}

void register_builtins(AlgorithmRegistry& reg) {
  reg.add({
      .name = "sssp",
      .description = "single-source shortest paths (label-correcting)",
      .tunables = with_executor_tunables({{"source", "0", "source vertex"}}),
      .make_reference =
          [](const GraphInstance& g, const ParamMap& params) {
            Timer timer;
            SequentialSsspResult seq =
                sequential_sssp(*g.graph, source_of(g, params));
            AlgoReference ref;
            ref.seconds = timer.seconds();
            ref.reference_tasks = seq.settled;
            ref.reference_answer = distance_checksum(seq.distances);
            ref.oracle = std::make_shared<std::vector<std::uint64_t>>(
                std::move(seq.distances));
            return ref;
          },
      .run = run_sssp,
  });

  reg.add({
      .name = "bfs",
      .description = "breadth-first search (unit-weight SSSP, priority = "
                     "level)",
      .tunables = with_executor_tunables({{"source", "0", "source vertex"}}),
      .make_reference =
          [](const GraphInstance& g, const ParamMap& params) {
            Timer timer;
            SequentialBfsResult seq =
                sequential_bfs(*g.graph, source_of(g, params));
            AlgoReference ref;
            ref.seconds = timer.seconds();
            ref.reference_tasks = seq.visited;
            ref.reference_answer = distance_checksum(seq.levels);
            ref.oracle = std::make_shared<std::vector<std::uint64_t>>(
                std::move(seq.levels));
            return ref;
          },
      .run = run_bfs,
  });

  reg.add({
      .name = "astar",
      .description = "point-to-point A* (admissible planar heuristic; "
                     "Dijkstra without coordinates)",
      .tunables =
          with_executor_tunables({{"source", "0", "source vertex"},
                                  {"target", "V-1", "target vertex"}}),
      .make_reference =
          [](const GraphInstance& g, const ParamMap& params) {
            Timer timer;
            const SequentialAStarResult seq =
                sequential_astar(*g.graph, source_of(g, params),
                                 target_of(g, params), g.weight_scale);
            AlgoReference ref;
            ref.seconds = timer.seconds();
            ref.reference_tasks = seq.expanded;
            ref.reference_answer = seq.distance;
            ref.oracle = std::make_shared<std::uint64_t>(seq.distance);
            return ref;
          },
      .run = run_astar,
  });

  reg.add({
      .name = "pagerank",
      .description = "residual-priority PageRank (priority = quantized "
                     "residual magnitude)",
      .tunables = with_executor_tunables(
          {{"damping", "0.85", "damping factor"},
           {"tolerance", "1e-4", "residual scheduling threshold"}}),
      .make_reference =
          [](const GraphInstance& g, const ParamMap& params) {
            PageRankOptions opts = pagerank_options(params);
            // Tighter oracle so validation slack is dominated by the
            // parallel run's own tolerance, not the oracle's.
            PageRankOptions oracle_opts = opts;
            oracle_opts.tolerance = opts.tolerance / 10;
            Timer timer;
            SequentialPageRankResult seq =
                sequential_pagerank(*g.graph, oracle_opts, 1000);
            AlgoReference ref;
            ref.seconds = timer.seconds();
            ref.reference_tasks =
                static_cast<std::uint64_t>(seq.iterations) *
                g.graph->num_vertices();
            double sum = 0;
            for (const double r : seq.ranks) sum += r;
            ref.reference_answer = static_cast<std::uint64_t>(sum);
            ref.oracle = std::make_shared<std::vector<double>>(
                std::move(seq.ranks));
            return ref;
          },
      .run = run_pagerank,
  });

  reg.add({
      .name = "boruvka",
      .description = "parallel Boruvka minimum spanning forest "
                     "(priority = component degree)",
      .tunables = with_executor_tunables({}),
      .make_reference =
          [](const GraphInstance& g, const ParamMap&) {
            Timer timer;
            const SequentialMstResult seq = sequential_kruskal(*g.graph);
            AlgoReference ref;
            ref.seconds = timer.seconds();
            ref.reference_tasks = seq.edges_in_forest;
            ref.reference_answer = seq.total_weight;
            ref.oracle = std::make_shared<std::uint64_t>(seq.total_weight);
            return ref;
          },
      .run = run_boruvka,
  });
}

}  // namespace

AlgorithmRegistry& AlgorithmRegistry::instance() {
  static AlgorithmRegistry* reg = [] {
    auto* r = new AlgorithmRegistry();
    register_builtins(*r);
    return r;
  }();
  return *reg;
}

}  // namespace smq
