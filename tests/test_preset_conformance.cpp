// Preset conformance: every key in the scheduler registry — builtins and
// the full preset namespace (obim-d*, pmod-d*, mq-c*, smq-p*, smq-sl-p*,
// mq-tl-p*, reld-c*, mq-opt-*) — must actually execute: SSSP and BFS on
// a random graph at 1 and 4 threads, validated against the sequential
// oracle. No future preset can land unexecuted, because this suite
// enumerates the registry listing rather than naming schedulers. Also
// the preset param-resolution rules: pinned knobs win, defaults yield.
#include <gtest/gtest.h>

#include <string>

#include "queues/mq_variants.h"
#include "registry/algorithm_registry.h"
#include "registry/graph_registry.h"
#include "registry/scheduler_registry.h"

namespace smq {
namespace {

const GraphInstance& small_graph() {
  static const GraphInstance* inst = [] {
    ParamMap params;
    params.set("vertices", "400");
    params.set("seed", "5");
    return new GraphInstance(GraphRegistry::instance().create("rand", params));
  }();
  return *inst;
}

/// The acceptance matrix of this PR: the full registry listing x
/// {sssp, bfs} x {1, 4} threads, every cell validated against the
/// sequential oracle.
TEST(PresetConformance, EveryRegisteredSchedulerSolvesSsspAndBfsExactly) {
  const GraphInstance& inst = small_graph();
  ASSERT_GE(SchedulerRegistry::instance().entries().size(), 45u)
      << "the preset namespace shrank; did a registration go missing?";
  for (const char* algo_name : {"sssp", "bfs"}) {
    const AlgorithmEntry* algo = AlgorithmRegistry::instance().find(algo_name);
    ASSERT_NE(algo, nullptr);
    const AlgoReference ref = algo->make_reference(inst, {});
    for (const SchedulerEntry& entry :
         SchedulerRegistry::instance().entries()) {
      for (const unsigned requested : {1u, 4u}) {
        SCOPED_TRACE(std::string(algo_name) + "/" + entry.name +
                     "/threads=" + std::to_string(requested));
        const unsigned threads = effective_threads(entry, requested);
        AnyScheduler sched = entry.make(threads, {});
        ASSERT_TRUE(static_cast<bool>(sched));
        const AlgoResult result = algo->run(inst, sched, threads, {}, &ref);
        EXPECT_TRUE(result.validated);
        EXPECT_TRUE(result.valid) << entry.name << " failed the oracle";
      }
    }
  }
}

/// Pinned preset knobs must win over conflicting caller params — that
/// is the contract that makes a preset a fixed figure configuration.
TEST(PresetConformance, PinnedKnobsWinOverCallerParams) {
  ParamMap conflicting;
  conflicting.set("p-insert", "1");
  conflicting.set("p-delete", "1");
  conflicting.set("insert-policy", "batch");
  AnyScheduler sched =
      SchedulerRegistry::instance().create("mq-tl-p16", 2, conflicting);
  auto* mq = sched.get_if<OptimizedMultiQueue>();
  ASSERT_NE(mq, nullptr);
  EXPECT_EQ(mq->config().insert_policy, InsertPolicy::kTemporalLocality);
  EXPECT_DOUBLE_EQ(mq->config().p_insert_change, 1.0 / 16);
  EXPECT_DOUBLE_EQ(mq->config().p_delete_change, 1.0 / 16);
}

/// Preset defaults only fill gaps; explicit caller params survive.
TEST(PresetConformance, PresetDefaultsYieldToCallerParams) {
  ParamMap params;
  params.set("p-insert", "1/4");
  AnyScheduler sched =
      SchedulerRegistry::instance().create("mq-opt-stick", 2, params);
  auto* mq = sched.get_if<OptimizedMultiQueue>();
  ASSERT_NE(mq, nullptr);
  EXPECT_EQ(mq->config().insert_policy, InsertPolicy::kTemporalLocality);
  EXPECT_EQ(mq->config().delete_policy, DeletePolicy::kTemporalLocality);
  EXPECT_DOUBLE_EQ(mq->config().p_insert_change, 0.25);      // caller
  EXPECT_DOUBLE_EQ(mq->config().p_delete_change, 1.0 / 16);  // default
}

}  // namespace
}  // namespace smq
