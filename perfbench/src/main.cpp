// perfbench: the repository's one benchmark. Runs one named workload
// against the paper's scheduler (smq at its defaults) for a given time,
// checks every answer against the sequential oracle, and prints each
// metric by name and unit, then one JSON result line.
//
//   perfbench --workload sssp-road|bfs-rmat|astar-service --seed N
//             --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate run
// that wraps the scheduler in the tracing forwarder and reports the
// per-layer metrics instead.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "report.h"

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "sssp-road|bfs-rmat|astar-service --seed N --seconds S "
               "--trace 0|1\n",
               msg);
  return 2;
}

/// JSON number with all its digits; non-finite values have no JSON
/// spelling and become null (the result is then marked incorrect).
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunOptions opts;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (key == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && opts.seconds > 0 && opts.seconds <= 600;
    } else if (key == "--trace") {
      have_trace = value == "0" || value == "1";
      opts.trace = value == "1";
    } else {
      return usage(("unknown option " + key).c_str());
    }
  }
  if (argc % 2 != 1) return usage("options take one value each");
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }

  const std::string refusal = perfbench::build_refusal();
  if (!refusal.empty()) {
    std::fprintf(stderr, "perfbench: refusing to report numbers: %s\n",
                 refusal.c_str());
    return 3;
  }

  perfbench::Outcome out;
  try {
    if (workload == "sssp-road" || workload == "bfs-rmat") {
      out = perfbench::run_batch(workload, opts);
    } else if (workload == "astar-service") {
      out = perfbench::run_service(opts);
    } else {
      return usage(("unknown workload '" + workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  std::printf("stamp: %s\n", perfbench::stamp_json().c_str());
  std::printf("workload: %s seed=%" PRIu64 " seconds=%g trace=%d\n",
              workload.c_str(), opts.seed, opts.seconds, opts.trace ? 1 : 0);
  std::printf("input: %s\n", out.input.c_str());
  const double failed_frac =
      out.attempted == 0 ? 1.0
                         : static_cast<double>(out.failed) /
                               static_cast<double>(out.attempted);
  std::printf("%-32s %14.6g %-10s (%" PRIu64 " of %" PRIu64 ")\n",
              "failed_frac", failed_frac, "frac", out.failed, out.attempted);
  bool finite = true;
  std::string metrics;
  for (const perfbench::Metric& m : out.metrics) {
    std::printf("%-32s %14.6g %-10s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
    finite = finite && std::isfinite(m.value);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + number(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  const bool correct = out.attempted > 0 && out.failed == 0 && finite;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
              correct ? "true" : "false", out.attempted, out.failed,
              metrics.c_str());
  return 0;
}
