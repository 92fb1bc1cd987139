#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "base/thread_pool.h"
#include "bat/kernel.h"
#include "engine/cache.h"
#include "xmark/generator.h"
#include "xml/database.h"
#include "xml/serializer.h"

namespace pfbench {

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  size_t n = v.size();
  std::sort(v.begin(), v.end());
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double TrimmedMean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t cut = v.size() / 10;
  double sum = 0;
  for (size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double logs = 0;
  for (double x : v) logs += std::log(x);
  return std::exp(logs / static_cast<double>(v.size()));
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t HashBytes(std::string_view s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  m_[name] = {std::isfinite(value) ? value : 0.0, unit};
}

std::string Report::ToJson() const {
  std::string out = "{";
  for (const auto& [name, vu] : m_) {
    if (out.size() > 1) out += ", ";
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", vu.first);
    out += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
           vu.second + "\"}";
  }
  return out + "}";
}

std::string Report::ToText() const {
  std::string out;
  for (const auto& [name, vu] : m_) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-34s %14.4f %s\n", name.c_str(),
                  vu.first, vu.second.c_str());
    out += line;
  }
  return out;
}

void RunOutcome::Fail(const std::string& why) {
  correct = false;
  if (errors.size() < 8) errors.push_back(why);
}

std::string XMarkXml(double sf, uint64_t seed) {
  pathfinder::xml::Database scratch;
  auto doc = pathfinder::xmark::GenerateXMark(sf, seed, scratch.pool());
  if (!doc.ok()) {
    std::fprintf(stderr, "XMark generation failed: %s\n",
                 doc.status().ToString().c_str());
    std::exit(1);
  }
  return pathfinder::xml::SerializeDocument(*doc, *scratch.pool());
}

std::string JsonMember(const std::string& key, double v) {
  char num[64];
  std::snprintf(num, sizeof(num), "%.6g", v);
  return "\"" + key + "\": " + num;
}

std::string JsonMember(const std::string& key, const std::string& v) {
  return "\"" + key + "\": \"" + v + "\"";
}

namespace {

volatile uint64_t g_spin_sink = 0;

// Fixed integer work for the spin test; the volatile sink keeps it live.
void Spin(uint64_t iters) {
  uint64_t x = 88172645463325252ull;
  for (uint64_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  g_spin_sink = x;
}

// nproc * t(1 thread) / t(nproc threads each doing the same work): nproc
// on idle dedicated cores, less when cores are shared or throttled.
double EffectiveParallelism(int nproc) {
  const uint64_t iters = 20'000'000;
  Clock::time_point t0 = Clock::now();
  Spin(iters);
  double one = MsSince(t0);
  t0 = Clock::now();
  std::vector<std::thread> ts;
  for (int i = 0; i < nproc; ++i) ts.emplace_back([&] { Spin(iters); });
  for (auto& t : ts) t.join();
  double all = MsSince(t0);
  return all > 0 ? nproc * one / all : 0;
}

}  // namespace

std::string MachineConfig() {
  int nproc =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const pathfinder::bat::KernelTuning& kt =
      pathfinder::bat::KernelTuning::Default();
  std::string c;
  c += JsonMember("nproc", nproc);
  c += ", " + JsonMember("effective_parallelism", EffectiveParallelism(nproc));
#ifdef __clang__
  c += ", " + JsonMember("compiler", std::string("clang ") + __VERSION__);
#else
  c += ", " + JsonMember("compiler", std::string("gcc ") + __VERSION__);
#endif
  c += ", " + JsonMember("build_type", std::string(PF_BENCH_BUILD_TYPE));
  c += ", " + JsonMember("threads",
                         pathfinder::ThreadPool::DefaultNumThreads());
  c += ", " + JsonMember("cache_budget_bytes",
                         static_cast<double>(
                             pathfinder::engine::CacheDefaultBudgetBytes()));
  c += ", " + JsonMember("cache_min_cost_us",
                         static_cast<double>(
                             pathfinder::engine::CacheDefaultMinCostUs()));
  c += ", " + JsonMember("radix_bits", kt.radix_bits);
  c += ", " + JsonMember("morsel_rows", kt.morsel_rows);
  c += ", " + JsonMember("sort_chunk_rows", kt.sort_chunk_rows);
  return c;
}

}  // namespace pfbench
