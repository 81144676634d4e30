// The google-benchmark reporter shared by the ablations that merge their
// results into BENCH_interp.json (abl_engine, abl_rt).
#pragma once

#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace waran::bench {

/// Console reporting plus machine-readable capture for the google-benchmark
/// ablations: every run lands in `entries` as `<producer>.<name>.ns_per_op`
/// and one key per user counter (items_per_second, warm_heap_allocs, ...),
/// ready for bench_json_merge. Under --benchmark_repetitions every
/// repetition reports under the same name, so the plain keys take the
/// `_median` aggregate instead of whichever repetition ran last; each
/// aggregate also keeps its own suffixed keys (`<name>_median.*`, ...).
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCaptureReporter(std::string producer) : producer_(std::move(producer)) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      const bool aggregate = run.run_type == Run::RT_Aggregate;
      if (aggregate) capture(run.benchmark_name(), run);
      if (aggregate ? run.aggregate_name == "median" : run.repetitions <= 1) {
        capture(run.run_name.str(), run);
      }
    }
  }

  std::map<std::string, double> entries;

 private:
  void capture(const std::string& name, const Run& run) {
    const std::string base = producer_ + "." + name;
    entries[base + ".ns_per_op"] = run.GetAdjustedRealTime();
    for (const auto& [counter_name, counter] : run.counters) {
      entries[base + "." + counter_name] = static_cast<double>(counter.value);
    }
  }

  std::string producer_;
};

}  // namespace waran::bench
