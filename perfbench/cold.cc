// Table 3, cold: every query pays parse, normalize, compile, optimize
// and execute, because the plan and subplan caches are off.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/pathfinder.h"
#include "baseline/interp.h"
#include "layers.h"
#include "workloads.h"
#include "xmark/queries.h"
#include "xml/database.h"

namespace pfbench {

namespace pf = pathfinder;

namespace {

constexpr const char* kDoc = "auction.xml";
constexpr int kSetups = 15;

struct ColdSetup {
  std::unique_ptr<pf::xml::Database> db;
  std::vector<std::string> outputs;  // warm-up pass, the run's reference
  double setup_s = 0;
  double load_ms = 0;
  size_t xml_bytes = 0;
};

// Generate, serialize, load and shred, then one warm-up pass.
ColdSetup SetUp(double sf, uint64_t seed, RunOutcome* out) {
  ColdSetup s;
  Clock::time_point t0 = Clock::now();
  std::string xml = XMarkXml(sf, seed);
  s.xml_bytes = xml.size();
  s.db = std::make_unique<pf::xml::Database>();
  Clock::time_point tl = Clock::now();
  auto frag = s.db->LoadXml(kDoc, xml);
  s.load_ms = MsSince(tl);
  if (!frag.ok()) {
    out->Fail("LoadXml: " + frag.status().ToString());
    return s;
  }
  pf::Pathfinder engine(s.db.get());
  pf::QueryOptions o = ColdOptions(kDoc);
  for (const auto& q : pf::xmark::XMarkQueries()) {
    auto r = engine.Run(q.text, o);
    auto text = r.ok() ? r->Serialize() : pf::Result<std::string>(r.status());
    if (!text.ok()) {
      out->Fail(Tagged("warm-up Q", static_cast<size_t>(q.number)) + ": " +
                text.status().ToString());
      s.outputs.emplace_back();
      continue;
    }
    s.outputs.push_back(std::move(*text));
  }
  s.setup_s = MsSince(t0) / 1000.0;
  return s;
}

}  // namespace

void RunCold(const RunArgs& args, double sf, RunOutcome* out) {
  const auto& queries = pf::xmark::XMarkQueries();
  std::vector<double> setup_s, load_ms;
  ColdSetup s;
  for (int i = 0; i < kSetups; ++i) {
    s = ColdSetup();  // release the previous instance first
    s = SetUp(sf, args.seed, out);
    setup_s.push_back(s.setup_s);
    load_ms.push_back(s.load_ms);
  }
  if (!out->correct) return;
  out->config = JsonMember("sf", sf) + ", " +
                JsonMember("doc_bytes", static_cast<double>(s.xml_bytes)) +
                ", " + JsonMember("plan_cache", 0) + ", " +
                JsonMember("subplan_cache", 0) + ", " +
                JsonMember("loop", "closed, 1 caller");

  std::vector<int64_t> runs(queries.size(), 0);
  if (!args.trace) {
    // Closed loop over whole passes of Q1-Q20. Each output is compared by
    // hash with the warm-up pass's bytes, after the clock stops.
    std::vector<uint64_t> want;
    for (const std::string& o : s.outputs) want.push_back(HashBytes(o));
    pf::Pathfinder engine(s.db.get());
    pf::QueryOptions o = ColdOptions(kDoc);
    std::vector<std::vector<double>> per_query(queries.size());
    std::vector<double> all, pass_ms;
    Clock::time_point start = Clock::now();
    while (pass_ms.size() < 3 || MsSince(start) < args.seconds * 1000) {
      double pass = 0;
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        ++out->attempted;
        ++runs[qi];
        Clock::time_point t0 = Clock::now();
        auto r = engine.Run(queries[qi].text, o);
        auto text =
            r.ok() ? r->Serialize() : pf::Result<std::string>(r.status());
        double ms = MsSince(t0);
        if (!text.ok() || HashBytes(*text) != want[qi]) {
          ++out->failed;
          out->Fail(Tagged("Q", qi + 1) + " failed or changed");
          continue;
        }
        per_query[qi].push_back(ms);
        all.push_back(ms);
        pass += ms;
      }
      pass_ms.push_back(pass);
    }
    Report& m = out->metrics;
    m.Set("peak_rss_mb", PeakRssMb(), "MB");
    std::vector<double> means;  // per query, trimmed
    for (const auto& v : per_query) means.push_back(TrimmedMean(v));
    m.Set("setup_s", Median(setup_s), "s");
    m.Set("geomean_ms", Geomean(means), "ms");
    m.Set("p50_ms", Median(all), "ms");
    m.Set("p99_ms", Percentile(all, 0.99), "ms");
    // Closed-loop throughput of the median pass over Q1-Q20.
    m.Set("qps",
          1000.0 * static_cast<double>(queries.size()) / Median(pass_ms),
          "1/s");
  } else {
    TraceLayers(s.db.get(), kDoc, s.outputs, TraceSeconds(args), 3, out);
    Report& m = out->metrics;
    m.Set("xml.load_ms", Median(load_ms), "ms");
    // Layers this workload does not exercise report 0, so every run
    // prints the full per-layer set. The caches are off here, so their
    // hit rates are truly zero; there is no server, no update and no
    // arrival schedule.
    static const std::pair<const char*, const char*> kUnexercised[] = {
        {"cache.plan_hit_rate", "ratio"},
        {"cache.subplan_hit_rate", "ratio"},
        {"cache.subplan_repairs", "count"},
        {"cache.per_doc_invalidations", "count"},
        {"cache.evictions", "count"},
        {"cache.admission_rejects", "count"},
        {"xml.apply_update_ms", "ms"},
        {"xml.structural_update_frac", "ratio"},
        {"serve.ping_rtt_ms", "ms"},
        {"serve.overhead_ms", "ms"},
        {"serve.overhead_large_ms", "ms"},
        {"serve.queue_depth_mean", "count"},
        {"serve.busy_rejects", "count"},
        {"update_p50_ms", "ms"},
        {"update_p95_ms", "ms"},
        {"loadgen.lag_p99_ms", "ms"},
    };
    for (const auto& [name, unit] : kUnexercised) m.Set(name, 0, unit);
  }

  // Oracle, outside every timed window: the warm-up bytes every timed
  // run was checked against must equal the navigational baseline's.
  pf::baseline::Baseline baseline(s.db.get());
  pf::baseline::BaselineOptions bo;
  bo.context_doc = kDoc;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    auto r = baseline.Run(queries[qi].text, bo);
    auto text = r.ok() ? r->Serialize() : pf::Result<std::string>(r.status());
    if (!text.ok() || *text != s.outputs[qi]) {
      out->failed += std::max<int64_t>(1, runs[qi]);
      out->Fail(Tagged("Q", qi + 1) + " differs from the baseline");
    }
  }
}

}  // namespace pfbench
