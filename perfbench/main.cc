// perfbench: runs one workload of the repo benchmark and prints its
// metrics. Usually started through run.py, which builds this binary and
// keeps to the metric names BENCHMARK.json lists.
//
//   perfbench --workload annotate|mc_scatter|live_ingest --seed N
//             --seconds S --trace 0|1 --work-dir DIR
//
// Prints one line per metric (name, value, unit) and per note, then the
// result as one JSON object on the last line. Exits 1 when any answer
// was wrong or any operation failed, 2 on bad arguments.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

int Usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload annotate|mc_scatter|live_ingest"
               " --seed N --seconds S --trace 0|1 --work-dir DIR\n";
  return 2;
}

/// A JSON number with every digit; non-finite values become 0 (JSON has
/// no NaN) and are reported as failures by the caller.
std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config config;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return Usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(config.seconds > 0.0)) {
        return Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      config.trace = value == "1";
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (!have_seed || config.work_dir.empty()) {
    return Usage("--seed and --work-dir are required");
  }
  std::filesystem::create_directories(config.work_dir);

  perfbench::Report report;
  if (config.workload == "annotate") {
    report = perfbench::RunAnnotate(config);
  } else if (config.workload == "mc_scatter") {
    report = perfbench::RunMcScatter(config);
  } else if (config.workload == "live_ingest") {
    report = perfbench::RunLiveIngest(config);
  } else {
    return Usage("unknown workload '" + config.workload + "'");
  }

  for (const perfbench::Metric& metric : report.metrics) {
    if (!std::isfinite(metric.value)) {
      report.Note("non-finite metric " + metric.name);
      report.correct = false;
    }
  }
  if (!config.trace) {
    report.Add("failed_frac",
               perfbench::Ratio(static_cast<double>(report.failed),
                                static_cast<double>(report.attempted)),
               "ratio");
  }
  for (const std::string& note : report.notes) {
    std::cout << "# " << note << "\n";
  }
  for (const perfbench::Metric& metric : report.metrics) {
    std::printf("%-36s %16.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::cout << "{\"correct\": " << (report.correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& metric = report.metrics[i];
    std::cout << (i == 0 ? "" : ", ") << "\"" << metric.name
              << "\": {\"value\": " << JsonNumber(metric.value)
              << ", \"unit\": \"" << metric.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return report.correct && report.failed == 0 && report.attempted > 0 ? 0 : 1;
}
