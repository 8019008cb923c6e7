// Shared plumbing of the benchmark: statistics over samples, the build
// and machine stamp, input checksums, and the metric table every
// workload fills and main() prints.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "registry/graph_registry.h"
#include "service/query.h"

namespace perfbench {

/// Threads of every batch solve, and the machine the workloads are
/// sized for: the service runs kThreads - 1 workers beside one
/// generator thread.
inline constexpr unsigned kThreads = 4;
inline constexpr unsigned kServiceWorkers = kThreads - 1;

/// Median (mean of the middle two for an even count); 0 when empty.
double median(std::vector<double> v);
/// Nearest-rank quantile, p in [0, 1]; 0 when empty.
double quantile(std::vector<double> v, double p);
/// Print the raw samples behind a median, in run order, for the log.
void print_samples(const char* what, const std::vector<double>& v);

/// Order-sensitive FNV-1a over the CSR arrays and the coordinates.
std::uint64_t graph_checksum(const smq::Graph& g);
/// FNV-1a over the (source, target) pairs.
std::uint64_t query_checksum(const std::vector<smq::Query>& queries);

/// Peak resident set of this process (VmHWM), MiB.
double peak_rss_mib();
/// Heap bytes the allocator has handed out and not had back, over every
/// thread's arena and the mmap'd blocks (glibc mallinfo2), MiB.
double heap_in_use_mib();

/// One line of JSON describing the build and the machine.
std::string stamp_json();
/// Empty when the build may report numbers, else the reason it may not
/// (non-Release, assertions on, or a sanitizer).
std::string build_refusal();

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::string note = {};  // printed on the human-readable line only
};

/// What a workload run hands back to main().
struct Outcome {
  std::string input;  // human-readable input description with checksums
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // oracle mismatches, exceptions, refusals
  std::vector<Metric> metrics;
};

/// Every metric a workload reports, in print order, with value 0: the
/// end-to-end list for an untraced run, the per-layer list for a traced
/// one. Every workload prints the whole list, so a metric that a
/// workload does not exercise reads 0 there (per-layer) or carries a
/// documented stand-in (end-to-end).
std::vector<Metric> end_to_end_metrics();
std::vector<Metric> per_layer_metrics();
/// Set `name` in `metrics`; throws std::logic_error on an unknown name.
void set_metric(std::vector<Metric>& metrics, const std::string& name,
                double value, std::string note = {});

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

Outcome run_batch(const std::string& workload, const RunOptions& opts);
Outcome run_service(const RunOptions& opts);

}  // namespace perfbench
