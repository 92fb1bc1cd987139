#include "layers.h"

#include <algorithm>
#include <cstdio>

#include "compiler/compile.h"
#include "engine/cache.h"
#include "engine/executor.h"
#include "engine/query_context.h"
#include "frontend/normalize.h"
#include "frontend/parser.h"
#include "opt/optimize.h"
#include "opt/pipeline.h"
#include "runtime/serialize.h"
#include "xmark/queries.h"

namespace pfbench {

namespace pf = pathfinder;

namespace {

// One decomposed execution of one query: span times in ms plus the
// counters the layers report.
struct LayerSample {
  double parse_ms = 0, normalize_ms = 0, compile_ms = 0, optimize_ms = 0,
         pipeline_ms = 0, cache_annotate_ms = 0, execute_ms = 0,
         to_sequence_ms = 0, serialize_ms = 0;
  // Wall time of the whole replay, minus the cache-annotation call that
  // a cold Run does not make.
  double wall_ms = 0;
  double plan_ops = 0, ops_after = 0, rounds = 0, cse_merges = 0,
         key_distincts_removed = 0, selects_pushed = 0, joins_reordered = 0,
         chains_collapsed = 0, fused_ops = 0, nodes_scanned = 0,
         contexts_pruned = 0, path_partitions_pruned = 0;
  std::string output;

  // Sum of the spans a cold Run performs.
  double CoveredMs() const {
    return parse_ms + normalize_ms + compile_ms + optimize_ms + pipeline_ms +
           execute_ms + to_sequence_ms + serialize_ms;
  }
};

// Operator time by kind class, from the executor's own profiler
// (QueryOptions::profile = 1), in ms.
struct OperatorSplit {
  double step_ms = 0, join_ms = 0, sort_ms = 0, aggr_ms = 0, other_ms = 0;
};

// Times one layer call into *ms.
template <typename Fn>
auto Span(double* ms, Fn&& fn) {
  Clock::time_point t0 = Clock::now();
  auto r = fn();
  *ms = MsSince(t0);
  return r;
}

// Pathfinder::Run with plan_cache = subplan_cache = 0 and every other
// option at its shipped default, one entry point at a time.
pf::Result<LayerSample> Replay(pf::xml::Database* db, const std::string& query,
                               const std::string& doc) {
  const bool pipeline = pf::engine::PipelineDefault();
  const bool cse = pf::opt::CseDefault();
  const bool join_opt = pf::opt::JoinOptDefault();
  const bool path_summary = pf::opt::PathSumDefault();
  LayerSample s;
  Clock::time_point t0 = Clock::now();

  auto mod = Span(&s.parse_ms, [&] { return pf::frontend::ParseQuery(query); });
  if (!mod.ok()) return mod.status();
  pf::frontend::NormalizeOptions nopts;
  nopts.context_doc = doc;
  auto core = Span(&s.normalize_ms,
                   [&] { return pf::frontend::Normalize(*mod, nopts); });
  if (!core.ok()) return core.status();
  pf::compiler::CompileOptions copts;
  pf::compiler::CompileStats cstats;
  auto plan = Span(&s.compile_ms, [&] {
    return pf::compiler::Compile(*core, db, copts, &cstats);
  });
  if (!plan.ok()) return plan.status();
  pf::opt::OptimizeOptions oopts;
  oopts.cse = cse;
  oopts.join_opt = join_opt;
  oopts.path_summary = path_summary;
  oopts.db = db;
  pf::opt::OptimizeStats ostats;
  auto plan_opt = Span(&s.optimize_ms, [&] {
    return pf::opt::Optimize(*plan, &ostats, oopts);
  });
  if (!plan_opt.ok()) return plan_opt.status();
  if (pipeline) {
    pf::Status st = Span(&s.pipeline_ms, [&] {
      return pf::opt::AnnotatePipelines(*plan_opt);
    });
    if (!st.ok()) return st;
  }
  // What Run adds on a plan-cache miss with the caches on. Without a
  // result cache in the context the executor ignores the annotation, so
  // the cold replay stays exact; the call is kept out of coverage and
  // of the replay's wall time.
  Span(&s.cache_annotate_ms, [&] {
    pf::engine::AnnotateCacheCandidates(*plan_opt, *db->pool());
    return 0;
  });

  pf::engine::QueryContext ctx(db);
  ctx.use_staircase = true;
  ctx.path_summary = path_summary;
  ctx.pipeline = pipeline;
  ctx.profile = false;
  ctx.SetNumThreads(0);
  ctx.tuning = ctx.tuning.Clamped();
  auto table = Span(&s.execute_ms,
                    [&] { return pf::engine::Execute(*plan_opt, &ctx); });
  if (!table.ok()) return table.status();
  auto items = Span(&s.to_sequence_ms,
                    [&] { return pf::runtime::TableToSequence(*table); });
  if (!items.ok()) return items.status();
  auto text = Span(&s.serialize_ms, [&] {
    return pf::runtime::SerializeSequence(ctx, *items);
  });
  if (!text.ok()) return text.status();
  s.wall_ms = MsSince(t0) - s.cache_annotate_ms;

  s.output = std::move(*text);
  s.plan_ops = static_cast<double>(ostats.ops_before);
  s.ops_after = static_cast<double>(ostats.ops_after);
  s.rounds = ostats.rounds;
  s.cse_merges = ostats.cse_merges;
  s.key_distincts_removed = ostats.key_distincts_removed;
  s.selects_pushed = ostats.selects_pushed;
  s.joins_reordered = ostats.joins_reordered;
  s.chains_collapsed = ostats.structural_answers;
  s.fused_ops = static_cast<double>(ctx.pipe_stats.fused_ops);
  s.nodes_scanned = static_cast<double>(ctx.scj_stats.nodes_scanned);
  s.contexts_pruned = static_cast<double>(ctx.scj_stats.contexts_pruned);
  s.path_partitions_pruned =
      static_cast<double>(ctx.scj_stats.path_partitions_pruned);
  return s;
}

void AddSplit(const pf::engine::OperatorProfile& p, OperatorSplit* split) {
  using K = pf::algebra::OpKind;
  double ms = static_cast<double>(p.wall_ns) / 1e6;  // self time
  switch (p.kind) {
    case K::kStep:
    case K::kPathScan:
    case K::kDocRoot:
      split->step_ms += ms;
      break;
    case K::kEquiJoin:
    case K::kThetaJoin:
    case K::kCross:
    case K::kDifference:
      split->join_ms += ms;
      break;
    case K::kRowNum:
    case K::kSort:
    case K::kRank:
      split->sort_ms += ms;
      break;
    case K::kAggr:
    case K::kStrJoin:
      split->aggr_ms += ms;
      break;
    default:
      split->other_ms += ms;
      break;
  }
  for (const auto& c : p.children) AddSplit(c, split);
}

struct QueryTrace {
  std::vector<LayerSample> replays;
  std::vector<double> run_ms;
  std::vector<OperatorSplit> splits;
};

template <typename Get>
double SumOfMedians(const std::vector<QueryTrace>& qs, Get get) {
  double total = 0;
  for (const QueryTrace& q : qs) {
    std::vector<double> v;
    for (const LayerSample& s : q.replays) v.push_back(get(s));
    total += Median(v);
  }
  return total;
}

template <typename Get>
double SplitSum(const std::vector<QueryTrace>& qs, Get get) {
  double total = 0;
  for (const QueryTrace& q : qs) {
    std::vector<double> v;
    for (const OperatorSplit& s : q.splits) v.push_back(get(s));
    total += Median(v);
  }
  return total;
}

}  // namespace

pf::QueryOptions ColdOptions(const std::string& doc) {
  pf::QueryOptions o;
  o.context_doc = doc;
  o.plan_cache = 0;
  o.subplan_cache = 0;
  return o;
}

void TraceLayers(pf::xml::Database* db, const std::string& doc,
                 const std::vector<std::string>& expected, double seconds,
                 int min_passes, RunOutcome* out) {
  const auto& queries = pf::xmark::XMarkQueries();
  pf::Pathfinder engine(db);
  const pf::QueryOptions cold = ColdOptions(doc);

  std::vector<QueryTrace> traces(queries.size());

  auto untraced = [&](size_t qi) {
    ++out->attempted;
    Clock::time_point t0 = Clock::now();
    auto r = engine.Run(queries[qi].text, cold);
    pf::Result<std::string> text =
        r.ok() ? r->Serialize() : pf::Result<std::string>(r.status());
    double ms = MsSince(t0);
    if (!text.ok()) {
      ++out->failed;
      out->Fail(Tagged("Q", qi + 1) + " Run: " +
                text.status().ToString());
      return;
    }
    traces[qi].run_ms.push_back(ms);
    if (*text != expected[qi]) {
      ++out->failed;
      out->Fail(Tagged("Q", qi + 1) + " Run bytes differ");
    }
  };
  auto traced = [&](size_t qi) {
    ++out->attempted;
    auto s = Replay(db, queries[qi].text, doc);
    if (!s.ok()) {
      ++out->failed;
      out->Fail(Tagged("Q", qi + 1) + " replay: " +
                s.status().ToString());
      return;
    }
    // The replay must reproduce Pathfinder::Run byte for byte.
    if (s->output != expected[qi]) {
      ++out->failed;
      out->Fail(Tagged("Q", qi + 1) + " replay bytes differ");
    }
    s->output.clear();
    traces[qi].replays.push_back(std::move(*s));
  };

  Clock::time_point start = Clock::now();
  for (int pass = 0; pass < min_passes || MsSince(start) < seconds * 1000;
       ++pass) {
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      // Alternate which side runs first so neither always finds the
      // other's warm caches.
      if (pass % 2 == 0) {
        untraced(qi);
        traced(qi);
      } else {
        traced(qi);
        untraced(qi);
      }
    }
  }
  // Operator-kind split from the executor's profiler, in its own passes:
  // seven, so one disturbed pass does not move a query's median.
  pf::QueryOptions profiled = cold;
  profiled.profile = 1;
  for (int pass = 0; pass < 7; ++pass) {
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      ++out->attempted;
      auto r = engine.Run(queries[qi].text, profiled);
      auto text = r.ok() ? r->Serialize() : pf::Result<std::string>(r.status());
      if (!text.ok() || *text != expected[qi] || r->profile == nullptr) {
        ++out->failed;
        out->Fail(Tagged("Q", qi + 1) + " profiled run differs");
        continue;
      }
      OperatorSplit split;
      AddSplit(*r->profile, &split);
      traces[qi].splits.push_back(split);
    }
  }

  for (const QueryTrace& q : traces) {
    if (q.replays.empty() || q.run_ms.empty() || q.splits.empty()) {
      out->Fail("a query has no successful traced sample");
      return;
    }
  }
  Report& m = out->metrics;
  auto ms_metric = [&](const char* name, double LayerSample::*field) {
    m.Set(name, SumOfMedians(traces, [&](const LayerSample& s) {
            return s.*field;
          }), "ms");
  };
  ms_metric("frontend.parse_ms", &LayerSample::parse_ms);
  ms_metric("frontend.normalize_ms", &LayerSample::normalize_ms);
  ms_metric("compiler.compile_ms", &LayerSample::compile_ms);
  ms_metric("opt.optimize_ms", &LayerSample::optimize_ms);
  ms_metric("opt.pipeline_ms", &LayerSample::pipeline_ms);
  ms_metric("engine.cache_annotate_ms", &LayerSample::cache_annotate_ms);
  ms_metric("engine.execute_ms", &LayerSample::execute_ms);
  ms_metric("runtime.to_sequence_ms", &LayerSample::to_sequence_ms);
  ms_metric("runtime.serialize_ms", &LayerSample::serialize_ms);

  // Counters are deterministic per plan: take them from the first pass.
  auto count_metric = [&](const char* name, double LayerSample::*field) {
    double total = 0;
    for (const QueryTrace& q : traces) total += q.replays.front().*field;
    m.Set(name, total, "count");
  };
  count_metric("compiler.plan_ops", &LayerSample::plan_ops);
  count_metric("opt.ops_after", &LayerSample::ops_after);
  count_metric("opt.rounds", &LayerSample::rounds);
  count_metric("opt.cse_merges", &LayerSample::cse_merges);
  count_metric("opt.key_distincts_removed",
               &LayerSample::key_distincts_removed);
  count_metric("opt.selects_pushed", &LayerSample::selects_pushed);
  count_metric("opt.joins_reordered", &LayerSample::joins_reordered);
  count_metric("opt.chains_collapsed", &LayerSample::chains_collapsed);
  count_metric("engine.fused_ops", &LayerSample::fused_ops);
  count_metric("accel.nodes_scanned", &LayerSample::nodes_scanned);
  count_metric("accel.contexts_pruned", &LayerSample::contexts_pruned);
  count_metric("accel.path_partitions_pruned",
               &LayerSample::path_partitions_pruned);

  // The flatness gate: optimizer time per input plan operator, max over
  // min across Q1-Q20.
  double lo = 1e300, hi = 0;
  for (const QueryTrace& q : traces) {
    std::vector<double> v;
    for (const LayerSample& s : q.replays) v.push_back(s.optimize_ms);
    double us_per_op = Median(v) * 1000.0 /
                       std::max(1.0, q.replays.front().plan_ops);
    lo = std::min(lo, us_per_op);
    hi = std::max(hi, us_per_op);
  }
  m.Set("opt.us_per_op_max_over_min", lo > 0 ? hi / lo : 0, "ratio");

  double bytes = 0;
  for (const std::string& e : expected) bytes += static_cast<double>(e.size());
  m.Set("runtime.result_bytes", bytes, "bytes");

  m.Set("accel.step_ms",
        SplitSum(traces, [](const OperatorSplit& s) { return s.step_ms; }),
        "ms");
  m.Set("bat.join_ms",
        SplitSum(traces, [](const OperatorSplit& s) { return s.join_ms; }),
        "ms");
  m.Set("bat.sort_ms",
        SplitSum(traces, [](const OperatorSplit& s) { return s.sort_ms; }),
        "ms");
  m.Set("bat.aggr_ms",
        SplitSum(traces, [](const OperatorSplit& s) { return s.aggr_ms; }),
        "ms");
  m.Set("bat.other_ms",
        SplitSum(traces, [](const OperatorSplit& s) { return s.other_ms; }),
        "ms");

  double run_ms = 0;
  for (const QueryTrace& q : traces) run_ms += Median(q.run_ms);
  double covered =
      SumOfMedians(traces, [](const LayerSample& s) { return s.CoveredMs(); });
  double wall =
      SumOfMedians(traces, [](const LayerSample& s) { return s.wall_ms; });
  m.Set("trace.run_ms", run_ms, "ms");
  m.Set("trace.coverage", covered / run_ms, "ratio");
  m.Set("trace.overhead_frac", (wall - run_ms) / run_ms, "ratio");
}

}  // namespace pfbench
