// omn_bench: drives the omn libraries in-process on one workload and
// prints its metrics.  The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// --trace 0 reports the end-to-end metrics of an untraced run; --trace 1
// reports the per-layer metrics of a traced replay of an untraced pass.
//
//   omn_bench --workload design-cold --seed 1 --seconds 20 --trace 0
//             --scratch DIR

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "fold.hpp"
#include "host.hpp"
#include "omn/util/execution_context.hpp"
#include "omn/util/json.hpp"
#include "omn/util/parse.hpp"
#include "omn/util/stats.hpp"
#include "omn/util/table.hpp"
#include "omn/util/timer.hpp"
#include "omn/util/trace.hpp"
#include "workloads.hpp"

namespace {

using omn::bench::Pass;
using omn::bench::Workload;

/// Setups repeat until there are at least kMinSetups of them and they took
/// kMinSetupSeconds in all; setup_s is their median.  A setup of a tenth of
/// a second thus runs over a dozen times, so one slow one (the first,
/// which faults in fresh memory) does not set the figure.
constexpr std::size_t kMinSetups = 3;
constexpr double kMinSetupSeconds = 2.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "omn_bench: %s\nusage: omn_bench --workload "
               "design-cold|sweep-rounding|serve-churn --seed N --seconds S "
               "--trace 0|1 --scratch DIR\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      const auto seed = omn::util::parse_count(value);
      if (!seed) usage("bad --seed '" + value + "'");
      args.seed = *seed;
    } else if (flag == "--seconds") {
      const auto seconds = omn::util::parse_double(value);
      if (!seconds || *seconds <= 0.0) usage("bad --seconds '" + value + "'");
      args.seconds = *seconds;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  const auto& names = omn::bench::workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    usage("unknown --workload '" + args.workload + "'");
  }
  if (args.scratch.empty()) usage("--scratch is required");
  return args;
}

double median(std::vector<double> values) {
  return omn::util::percentile(values, 0.5);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// One pass over the workload's input set.
Pass run_pass(Workload& workload) {
  Pass pass;
  workload.run(pass);
  return pass;
}

/// The highest percentile with at least ten samples beyond it.
struct Tail {
  double value = 0.0;
  std::size_t rank = 0;  ///< 1-based rank in ascending order
  std::size_t count = 0;
};

Tail latency_tail(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  Tail tail;
  tail.count = values.size();
  tail.rank = values.size() > 10 ? values.size() - 10 : 1;
  tail.value = values[tail.rank - 1];
  return tail;
}

/// Passes merged, plus each pass's tail.
struct Passes {
  Pass total;
  std::vector<Tail> tails;
};

/// Whole passes until the budget is spent, merged: latencies, busy time,
/// counts and failures add up; quality is the first pass's, which every
/// pass repeats.  The last pass may end up to one pass past the budget.
Passes run_passes(Workload& workload, double budget_s) {
  const omn::util::Timer wall;
  Passes passes{run_pass(workload), {}};
  Pass& total = passes.total;
  passes.tails.push_back(latency_tail(total.latencies_s));
  while (wall.seconds() < budget_s) {
    workload.rewind();
    const Pass pass = run_pass(workload);
    passes.tails.push_back(latency_tail(pass.latencies_s));
    total.latencies_s.insert(total.latencies_s.end(), pass.latencies_s.begin(),
                             pass.latencies_s.end());
    total.busy_s += pass.busy_s;
    total.cpu_s += pass.cpu_s;
    total.ops += pass.ops;
    total.failed += pass.failed;
    total.failures.insert(total.failures.end(), pass.failures.begin(),
                          pass.failures.end());
    total.below_lp_bound += pass.below_lp_bound;
  }
  return passes;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

void print_failures(const char* label, const Pass& pass) {
  for (const std::string& why : pass.failures) {
    std::printf("FAILED (%s): %s\n", label, why.c_str());
  }
}

/// The tail is taken within each pass and reported as the median over
/// the passes, so one preempted operation does not set a run's tail.
std::vector<Metric> end_to_end(const Passes& passes,
                               const std::vector<double>& setups_s,
                               const char* op_name) {
  const Pass& pass = passes.total;
  const Tail& tail = passes.tails.front();
  std::vector<double> tails_s;
  for (const Tail& t : passes.tails) tails_s.push_back(t.value);
  const std::string tail_note =
      "p" + omn::util::format_double(100.0 * static_cast<double>(tail.rank) /
                                         static_cast<double>(tail.count), 1) +
      " (rank " + std::to_string(tail.rank) + " of " +
      std::to_string(tail.count) + " " + op_name + "s), median of " +
      std::to_string(tails_s.size()) +
      (tails_s.size() == 1 ? " pass" : " passes");
  return {
      {"setup_s", median(setups_s), "s",
       "median of " + std::to_string(setups_s.size())},
      {"ops_per_s", static_cast<double>(pass.ops) / pass.busy_s, "1/s",
       std::string(op_name) + "s per busy second"},
      {"latency_p50_ms", 1e3 * median(pass.latencies_s), "ms",
       "per " + std::string(op_name)},
      {"latency_tail_ms", 1e3 * median(tails_s), "ms", tail_note},
      {"cost_ratio",
       pass.cost_ratio_sum / static_cast<double>(pass.cost_ratio_count),
       "ratio", "mean cost / LP bound"},
      {"min_weight_ratio", pass.min_weight_ratio, "ratio", "min over designs"},
      {"peak_rss_mb", peak_rss_mb(), "MB", ""},
  };
}

/// Which layer a span family's self time belongs to; "" for the
/// benchmark's probe spans, which are not part of any operation.
std::string layer_of(const std::string& family) {
  static const char* const kProbes[] = {
      "core.round", "core.gap", "core.box_network", "core.evaluate",
      "flow.mcf", "serve.journal_append"};
  for (const char* probe : kProbes) {
    if (family == probe) return "";
  }
  if (family == "lp.build") return "core";  // build_overlay_lp lives in core
  const std::string prefix = family.substr(0, family.find('.'));
  if (prefix == "lp" || prefix == "simplex") return "lp";
  if (prefix == "designer" || prefix == "cache" || prefix == "sweep") {
    return "core";
  }
  if (prefix == "ctx") return "util";
  return prefix;
}

/// Each layer's share of the self time a fold holds, as `<layer>.<suffix>`.
void append_shares(std::vector<Metric>& metrics, const omn::bench::Fold& fold,
                   const std::vector<std::string>& layers,
                   const std::string& suffix, const std::string& note) {
  std::map<std::string, double> layer_self;
  double total_self = 0.0;
  for (const auto& [family, totals] : fold.spans) {
    const std::string layer = layer_of(family);
    if (layer.empty()) continue;
    layer_self[layer] += totals.self_ms;
    total_self += totals.self_ms;
  }
  for (const std::string& layer : layers) {
    metrics.push_back({layer + "." + suffix,
                       total_self == 0.0 ? 0.0 : layer_self[layer] / total_self,
                       "ratio", note});
  }
}

/// `fold` covers every thread; `path_fold` only the thread that issues the
/// operations, whose self times add up to the operations' latency.  The
/// `serve.*` metrics are reported only for a workload that drives serve.
std::vector<Metric> per_layer(const Pass& untraced, const Pass& traced,
                              const omn::bench::Fold& fold,
                              const omn::bench::Fold& path_fold,
                              std::size_t threads, bool serve) {
  const auto& c = traced.counters;
  const double ops = static_cast<double>(traced.ops);
  const auto per_op = [&](double ms) { return ms / ops; };
  const auto per_call = [&](const std::string& family) {
    const omn::bench::SpanTotals t = fold.span(family);
    return t.count == 0 ? 0.0 : t.inclusive_ms / static_cast<double>(t.count);
  };
  const auto ratio = [](double num, double den) {
    return den == 0.0 ? 0.0 : num / den;
  };
  const double solve_ms = fold.span("lp.solve").inclusive_ms;

  std::vector<Metric> metrics = {
      {"lp.solves", double(c.lp_solves), "count", ""},
      {"lp.pivots", double(c.lp_pivots), "count", ""},
      {"lp.phase1_pivots", double(c.lp_phase1_pivots), "count", ""},
      {"lp.refactorizations", double(c.lp_refactorizations), "count", ""},
      {"lp.warm_starts", double(c.lp_warm_starts), "count", ""},
      {"lp.warm_start_rate", ratio(double(c.lp_warm_starts),
                                   double(c.lp_resolves)),
       "ratio", "warm starts per non-cache re-solve"},
      {"lp.solve_ms", per_op(solve_ms), "ms", "inclusive, per op"},
      {"lp.phase1_ms", per_op(fold.span("simplex.phase1").self_ms), "ms",
       "per op"},
      {"lp.phase2_ms", per_op(fold.span("simplex.phase2").self_ms), "ms",
       "per op"},
      {"lp.us_per_pivot", ratio(1e3 * solve_ms, double(c.lp_pivots)), "us",
       "lp.solve inclusive / pivots"},
      {"core.lp_build_ms", per_op(fold.span("lp.build").self_ms), "ms",
       "per op"},
      {"core.round_ms", per_call("core.round"), "ms", "per probe call"},
      {"core.gap_ms", per_call("core.gap"), "ms", "per probe call"},
      {"core.evaluate_ms", per_call("core.evaluate"), "ms", "per probe call"},
      {"core.attempts", double(c.attempts), "count", ""},
      {"core.rounding_wall_ms",
       per_op(fold.span("designer.rounding").inclusive_ms), "ms",
       "inclusive, per op"},
      {"core.cache_hits", double(c.cache_hits), "count", ""},
      {"core.cache_misses", double(c.cache_misses), "count", ""},
      {"core.cache_disk_reads", double(c.cache_disk_reads), "count", ""},
      {"core.cache_hit_rate",
       ratio(double(c.cache_hits), double(c.cache_hits + c.cache_misses)),
       "ratio", ""},
      {"core.cache_find_ms", per_op(fold.span("cache.find").self_ms), "ms",
       "per op"},
      {"core.cache_disk_read_ms", per_op(fold.span("cache.disk_read").self_ms),
       "ms", "per op"},
      {"flow.mcf_ms", per_call("flow.mcf"), "ms", "per probe call"},
      {"flow.units", double(c.flow_units), "count", "probe calls' flow"},
      {"util.cpu_util",
       untraced.cpu_s / (untraced.busy_s * static_cast<double>(threads)),
       "ratio", "untraced pass, process CPU / (busy wall x threads)"},
      {"util.chunks", double(fold.span("ctx.chunk").count), "count", ""},
      {"obs.trace_overhead_frac", traced.busy_s / untraced.busy_s - 1.0,
       "ratio", "traced / untraced busy time - 1"},
  };
  std::vector<std::string> layers = {"lp", "core", "util"};
  if (serve) {
    layers.push_back("serve");
    metrics.insert(
        metrics.end(),
        {{"serve.redesign_ms",
          per_op(fold.span("serve.redesign").inclusive_ms), "ms",
          "inclusive, per op"},
         {"serve.handle_self_ms",
          per_op(fold.span("serve.handle_line").self_ms), "ms",
          "handle_line minus the redesign, per op"},
         {"serve.journal_append_ms", per_call("serve.journal_append"), "ms",
          "per side-journal append"},
         {"serve.journal_bytes", double(c.journal_bytes), "bytes",
          "side journal size"}});
  }

  append_shares(metrics, fold, layers, "self_share",
                "share of all in-op self time");
  append_shares(metrics, path_fold, layers, "path_share",
                "share of op latency on the issuing thread");
  return metrics;
}

void print_fold(const omn::bench::Fold& fold) {
  std::printf("%-22s %-6s %8s %14s %14s\n", "span", "layer", "count",
              "inclusive_ms", "self_ms");
  for (const auto& [family, totals] : fold.spans) {
    const std::string layer = layer_of(family);
    std::printf("%-22s %-6s %8llu %14.3f %14.3f\n", family.c_str(),
                layer.empty() ? "probe" : layer.c_str(),
                static_cast<unsigned long long>(totals.count),
                totals.inclusive_ms, totals.self_ms);
  }
}

void print_summary(const std::string& workload, const char* op_name,
                   const Pass& pass) {
  std::printf("%s: %zu %ss, %.3f s busy, %zu cheaper than the LP bound\n",
              workload.c_str(), pass.ops, op_name, pass.busy_s,
              pass.below_lp_bound);
  std::printf("failed_frac %.6f (%zu of %zu)\n",
              static_cast<double>(pass.failed) / static_cast<double>(pass.ops),
              pass.failed, pass.ops);
}

void emit(const std::vector<Metric>& metrics, bool correct,
          std::size_t attempted, std::size_t failed) {
  for (const Metric& m : metrics) {
    std::printf("metric %-26s %14.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  omn::util::Json values = omn::util::Json::object();
  for (const Metric& m : metrics) {
    omn::util::Json entry = omn::util::Json::object();
    entry.set("value", std::isfinite(m.value) ? m.value : 0.0);
    entry.set("unit", m.unit);
    values.set(m.name, std::move(entry));
  }
  omn::util::Json result = omn::util::Json::object();
  result.set("correct", correct);
  result.set("attempted", attempted);
  result.set("failed", failed);
  result.set("metrics", std::move(values));
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
}

int run(const Args& args) {
  std::filesystem::create_directories(args.scratch);
  const omn::util::ExecutionContext context(0);
  std::printf("omn_bench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("host %s\n", omn::bench::host_fingerprint_json().c_str());

  const auto workload = omn::bench::make_workload(args.workload, args.seed,
                                                  args.scratch, context);
  std::vector<double> setups;
  double setup_total_s = 0.0;
  while (setups.size() < kMinSetups || setup_total_s < kMinSetupSeconds) {
    const omn::util::Timer timer;
    workload->setup();
    setups.push_back(timer.seconds());
    setup_total_s += setups.back();
  }

  if (!args.trace) {
    const Passes passes = run_passes(*workload, args.seconds);
    const Pass& pass = passes.total;
    print_failures("untraced", pass);
    print_summary(args.workload, workload->op_name(), pass);
    const bool correct = pass.failed == 0;
    emit(end_to_end(passes, setups, workload->op_name()), correct,
         pass.ops, pass.failed);
    return correct ? 0 : 1;
  }

  const Pass untraced = run_pass(*workload);
  print_failures("untraced", untraced);
  print_summary(args.workload, workload->op_name(), untraced);
  workload->rewind();
  (void)omn::util::Trace::drain();
  omn::util::Trace::set_enabled(true);
  const Pass traced = run_pass(*workload);
  omn::util::Trace::set_enabled(false);
  const std::vector<omn::util::ThreadTrace> lanes = omn::util::Trace::drain();
  const omn::bench::Fold fold = omn::bench::fold_spans(lanes);
  std::vector<omn::util::ThreadTrace> path_lanes;
  for (const omn::util::ThreadTrace& lane : lanes) {
    for (const omn::util::TraceEvent& event : lane.events) {
      if (event.name == workload->op_span()) {
        path_lanes.push_back(lane);
        break;
      }
    }
  }
  const omn::bench::Fold path_fold = omn::bench::fold_spans(path_lanes);
  print_failures("traced", traced);

  // Tracing only observes: the replay must do exactly the same work.
  std::size_t neutrality_failures = 0;
  if (!(traced.counters == untraced.counters)) {
    std::printf("FAILED: traced counters differ from the untraced run\n");
    ++neutrality_failures;
  }
  if (traced.digests != untraced.digests) {
    std::printf("FAILED: traced design digests differ from the untraced run\n");
    ++neutrality_failures;
  }
  print_fold(fold);
  const std::size_t failed =
      untraced.failed + traced.failed + neutrality_failures;
  emit(per_layer(untraced, traced, fold, path_fold, context.concurrency(),
                 workload->uses_serve()),
       failed == 0,
       untraced.ops + traced.ops, failed);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "omn_bench: %s\n", e.what());
    return 1;
  }
}
