#include "report.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(std::clamp(p, 0.0, 1.0) * static_cast<double>(v.size())));
  return v[rank == 0 ? 0 : std::min(rank, v.size()) - 1];
}

void print_samples(const char* what, const std::vector<double>& v) {
  std::printf("samples %s:", what);
  for (const double x : v) std::printf(" %.1f", x);
  std::printf("\n");
}

namespace {

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
};

std::string read_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// Size of the cache at `level` from sysfs, KiB; 0 when unreadable.
long cache_kib(int level) {
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string lv = read_line(dir + "level");
    if (lv.empty()) break;
    if (std::stoi(lv) != level || read_line(dir + "type") == "Instruction") {
      continue;
    }
    const std::string size = read_line(dir + "size");  // e.g. "2048K"
    long value = std::strtol(size.c_str(), nullptr, 10);
    if (!size.empty() && size.back() == 'M') value *= 1024;
    return value;
  }
  return 0;
}

}  // namespace

std::uint64_t graph_checksum(const smq::Graph& g) {
  Fnv f;
  for (const std::size_t off : g.offsets()) f.add(off);
  for (const smq::Graph::Neighbor& n : g.adjacency()) {
    f.add((static_cast<std::uint64_t>(n.to) << 32) | n.weight);
  }
  const smq::Coordinates& c = g.coordinates();
  for (std::size_t i = 0; i < c.x.size(); ++i) {
    f.add(static_cast<std::uint64_t>(std::llround(c.x[i] * 1e6)));
    f.add(static_cast<std::uint64_t>(std::llround(c.y[i] * 1e6)));
  }
  return f.h;
}

std::uint64_t query_checksum(const std::vector<smq::Query>& queries) {
  Fnv f;
  for (const smq::Query& q : queries) {
    f.add((static_cast<std::uint64_t>(q.source) << 32) | q.target);
  }
  return f.h;
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::strtol(line.c_str() + 6, nullptr, 10)) /
             1024.0;
    }
  }
  return 0;
}

double heap_in_use_mib() {
  const struct mallinfo2 m = mallinfo2();
  return static_cast<double>(m.uordblks + m.hblkhd) / (1024.0 * 1024.0);
}

std::string stamp_json() {
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"l2_kib\": " << cache_kib(2) << ", \"l3_kib\": " << cache_kib(3)
     << ", \"compiler\": \"" << PERFBENCH_COMPILER << "\""
     << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\""
     << ", \"threads\": " << kThreads
     << ", \"service_workers\": " << kServiceWorkers << "}";
  return os.str();
}

std::string build_refusal() {
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    return std::string("build type is '") + PERFBENCH_BUILD_TYPE +
           "', not Release";
  }
#ifndef NDEBUG
  return "assertions are enabled (NDEBUG undefined)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return "built with a sanitizer";
#endif
#endif
  if (PERFBENCH_SANITIZE_FLAGS) return "built with -fsanitize flags";
  return "";
}

std::vector<Metric> end_to_end_metrics() {
  return {
      {"solve_ms_p50", "ms"},      {"solve_ms_p90", "ms"},
      {"scaling_t4", "x"},         {"speedup_vs_seq", "x"},
      {"work_increase", "x"},      {"query_ms_p50", "ms"},
      {"query_ms_p99", "ms"},      {"max_qps_under_slo", "1/s"},
      {"setup_s", "s"},            {"peak_rss_mb", "MiB"},
  };
}

std::vector<Metric> per_layer_metrics() {
  std::vector<Metric> m = {
      {"graph.build_s", "s"},
      {"graph.csr_mib", "MiB"},
      {"algorithms.oracle_ms", "ms"},
      {"algorithms.kernel_ns_per_task", "ns"},
      {"algorithms.wasted_frac", "frac"},
      {"core.push_ns_per_task", "ns"},
      {"core.pop_ns_per_task", "ns"},
      {"core.steals", "count"},
      {"core.steal_fails", "count"},
      {"core.steal_success_frac", "frac"},
      {"core.footprint_mib", "MiB"},
  };
  for (unsigned t = 0; t < kThreads; ++t) {
    const std::string p = "sched.t" + std::to_string(t);
    m.push_back({p + ".tasks", "count"});
    m.push_back({p + ".idle_ms", "ms"});
    m.push_back({p + ".steals", "count"});
  }
  for (Metric x : std::vector<Metric>{
           {"sched.task_share_min", "frac"},
           {"sched.empty_pop_frac", "frac"},
           {"sched.outside_ms", "ms"},
           {"registry.handle_calls_per_task", "calls/task"},
           {"rank.live_mean", "count"},
           {"rank.live_max", "count"},
           {"service.submit_us_p99", "us"},
           {"service.backlog_max", "count"},
           {"service.generator_late_ms", "ms"},
           {"service.tasks_per_query", "count"},
           {"service.wasted_frac", "frac"},
       }) {
    m.push_back(std::move(x));
  }
  for (unsigned w = 0; w < kServiceWorkers; ++w) {
    const std::string p = "service.w" + std::to_string(w);
    m.push_back({p + ".tasks", "count"});
    m.push_back({p + ".idle_ms", "ms"});
  }
  m.push_back({"service.spawn_qps", "1/s"});
  m.push_back({"trace.overhead", "x"});
  return m;
}

void set_metric(std::vector<Metric>& metrics, const std::string& name,
                double value, std::string note) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.note = std::move(note);
      return;
    }
  }
  throw std::logic_error("unknown metric " + name);
}

}  // namespace perfbench
