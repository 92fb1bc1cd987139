#ifndef PATHFINDER_PERFBENCH_COMMON_H_
#define PATHFINDER_PERFBENCH_COMMON_H_

// Shared plumbing of the end-to-end benchmark: clocks, order statistics,
// the metric report, the XMark input and the recorded configuration.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace pfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point a) {
  return MsBetween(a, Clock::now());
}

/// Median (mean of the two middle values for an even count); 0 if empty.
double Median(std::vector<double> v);
/// Mean of the middle 80% of the values, a tenth of them dropped at each
/// end; 0 if empty.
double TrimmedMean(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 1]; 0 if empty.
double Percentile(std::vector<double> v, double p);
/// Geometric mean of positive values; 0 if empty.
double Geomean(const std::vector<double>& v);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// 64-bit FNV-1a of the bytes (outputs are compared by hash inside the
/// timed window, and byte for byte outside it).
uint64_t HashBytes(std::string_view s);

/// The metrics one run reports: name -> (value, unit). run.py selects
/// the end-to-end or per-layer set listed in BENCHMARK.json.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// {"name": {"value": v, "unit": "u"}, ...}
  std::string ToJson() const;
  /// One "name = value unit" line per metric.
  std::string ToText() const;

 private:
  std::map<std::string, std::pair<double, std::string>> m_;
};

/// Command-line arguments of one run.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// What a workload hands back to main(): the correctness verdict, the
/// operation counts and every metric it measured.
struct RunOutcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  Report metrics;
  /// Resolved settings of the run, as JSON object members (no braces).
  std::string config;
  /// First few correctness failures, for stderr.
  std::vector<std::string> errors;

  void Fail(const std::string& why);
};

/// XMark instance for (sf, seed), serialized to XML text. The text is
/// what every workload loads, so generation is part of set-up.
std::string XMarkXml(double sf, uint64_t seed);

/// Machine and build metadata plus the engine defaults every workload
/// runs with (thread count, cache budget, kernel tuning), as JSON object
/// members. Includes a 1-vs-nproc spin test of effective parallelism.
std::string MachineConfig();

/// prefix followed by the decimal n, as in "Q3" or "r17".
inline std::string Tagged(std::string_view prefix, size_t n) {
  std::string s(prefix);
  s += std::to_string(n);
  return s;
}

/// `"key": value` JSON member helpers.
std::string JsonMember(const std::string& key, double v);
std::string JsonMember(const std::string& key, const std::string& v);

}  // namespace pfbench

#endif  // PATHFINDER_PERFBENCH_COMMON_H_
