#include "workloads.hpp"

#include <time.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <optional>
#include <stdexcept>

#include "omn/core/design_sweep.hpp"
#include "omn/core/designer.hpp"
#include "omn/core/evaluator.hpp"
#include "omn/core/gap.hpp"
#include "omn/core/lp_builder.hpp"
#include "omn/core/lp_cache.hpp"
#include "omn/core/rounding.hpp"
#include "omn/flow/min_cost_flow.hpp"
#include "omn/net/serialize.hpp"
#include "omn/serve/churn.hpp"
#include "omn/serve/journal.hpp"
#include "omn/serve/serve.hpp"
#include "omn/topo/akamai.hpp"
#include "omn/util/table.hpp"
#include "omn/util/timer.hpp"
#include "omn/util/trace.hpp"

namespace omn::bench {

void Pass::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

namespace {

namespace fs = std::filesystem;

/// The paper's guarantee: every sink keeps at least a quarter of its
/// demanded weight.
constexpr double kQuarter = 0.25;
/// Fanout may be exceeded by the rounding, but never by more than 4x.
constexpr double kMaxFanoutUtilization = 4.0;
/// Warm and cold LP optima agree to this relative tolerance.
constexpr double kLpTolerance = 1e-7;

std::uint64_t mix(std::uint64_t seed, std::uint64_t index, std::uint64_t tag) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull +
                    index * 0xbf58476d1ce4e5b9ull + tag;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

net::OverlayInstance global_event(int sinks, std::uint64_t seed) {
  return topo::make_akamai_like(topo::global_event_config(sinks, seed));
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// The program's own live counters that a step moves.
struct ProgramCounters {
  std::uint64_t lp_solves = 0;
  std::uint64_t lp_pivots = 0;
  std::uint64_t lp_refactorizations = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_disk_reads = 0;

  static ProgramCounters now() {
    return {util::counter_value("lp.solves"),
            util::counter_value("lp.pivots"),
            util::counter_value("lp.refactorizations"),
            util::counter_value("cache.hits"),
            util::counter_value("cache.misses"),
            util::counter_value("cache.disk_reads")};
  }
};

/// Times one closed-loop request: wall clock, process CPU and the
/// program's counters are charged to the pass by stop().
class TimedRegion {
 public:
  explicit TimedRegion(Pass& pass) : pass_(pass) {}

  double stop() {
    const double wall = timer_.seconds();
    pass_.cpu_s += process_cpu_seconds() - cpu_before_;
    pass_.busy_s += wall;
    const ProgramCounters after = ProgramCounters::now();
    Counters& c = pass_.counters;
    c.lp_solves += after.lp_solves - before_.lp_solves;
    c.lp_pivots += after.lp_pivots - before_.lp_pivots;
    c.lp_refactorizations +=
        after.lp_refactorizations - before_.lp_refactorizations;
    c.cache_hits += after.cache_hits - before_.cache_hits;
    c.cache_misses += after.cache_misses - before_.cache_misses;
    c.cache_disk_reads += after.cache_disk_reads - before_.cache_disk_reads;
    return wall;
  }

 private:
  Pass& pass_;
  ProgramCounters before_ = ProgramCounters::now();
  double cpu_before_ = process_cpu_seconds();
  util::Timer timer_;  // last: the counter reads above are not timed
};

/// Turns tracing off for checks, which must not show up in the fold.
class UntracedScope {
 public:
  UntracedScope() : was_enabled_(util::Trace::enabled()) {
    if (was_enabled_) util::Trace::set_enabled(false);
  }
  ~UntracedScope() {
    if (was_enabled_) util::Trace::set_enabled(true);
  }
  UntracedScope(const UntracedScope&) = delete;
  UntracedScope& operator=(const UntracedScope&) = delete;

 private:
  bool was_enabled_;
};

util::Digest128 design_digest(const core::DesignResult& result) {
  util::Hasher hasher;
  hasher.str("omn-bench-design-v1");
  hasher.u32(static_cast<std::uint32_t>(result.status));
  for (const auto* bits :
       {&result.design.z, &result.design.y, &result.design.x}) {
    hasher.u64(bits->size());
    hasher.bytes(bits->data(), bits->size());
  }
  hasher.f64(result.evaluation.total_cost);
  hasher.f64(result.lp_objective);
  return hasher.digest();
}

/// Re-checks a design from scratch against the paper's bounds; returns
/// the first violation, or "" when the design passes.
std::string check_design(const net::OverlayInstance& instance,
                         const core::DesignerConfig& config,
                         const core::DesignResult& result) {
  if (!result.ok()) {
    return "status " + core::to_string(result.status) +
           (result.lp_warm_start ? " (warm-started solve)" : "");
  }
  const core::Evaluation fresh =
      core::evaluate(instance, result.design, config.bandwidth_extension);
  if (!fresh.consistent || !result.evaluation.consistent) {
    return "inconsistent evaluation";
  }
  if (fresh.total_cost != result.evaluation.total_cost) {
    return "reported cost differs from a fresh evaluation";
  }
  // The LP optimum bounds the cost of designs the LP admits: every sink
  // at full weight within every fanout.  Rounded designs only promise a
  // quarter of the weight within 4x fanout, so a cheaper one is not a
  // fault; Pass::below_lp_bound counts those.
  const bool lp_feasible = fresh.sinks_meeting_demand == fresh.sinks_total &&
                           fresh.max_fanout_utilization <= 1.0;
  if (lp_feasible &&
      result.lp_objective > fresh.total_cost * (1.0 + 1e-9) + 1e-9) {
    return "LP bound above the cost of a design that meets every demand";
  }
  if (fresh.min_weight_ratio < kQuarter - 1e-12) {
    return "a sink below the 1/4 weight guarantee";
  }
  if (fresh.max_fanout_utilization > kMaxFanoutUtilization + 1e-12) {
    return "fanout utilization above 4";
  }
  return "";
}

/// Digest, correctness gate and quality of one design; `where` names the
/// operation in a failure message.
void record_design(Pass& pass, const net::OverlayInstance& instance,
                   const core::DesignerConfig& config,
                   const core::DesignResult& result, const std::string& where) {
  pass.digests.push_back(design_digest(result));
  std::string why;
  {
    const UntracedScope untraced;
    why = check_design(instance, config, result);
  }
  if (!why.empty()) {
    pass.fail(where + ": " + why);
    return;
  }
  if (result.cost_ratio < 1.0) ++pass.below_lp_bound;
  pass.cost_ratio_sum += result.cost_ratio;
  ++pass.cost_ratio_count;
  pass.min_weight_ratio =
      std::min(pass.min_weight_ratio, result.evaluation.min_weight_ratio);
}

/// Replays the designer's first `attempts` rounding attempts on a design's
/// LP point through the public core and flow functions, one span per
/// layer call.  Runs outside the timed region.
void probe_layers(Pass& pass, const net::OverlayInstance& instance,
                  const core::DesignerConfig& config,
                  const core::DesignResult& result, int attempts) {
  if (!result.ok()) return;
  const core::OverlayLp lp =
      core::build_overlay_lp(instance, core::lp_build_options(config));
  for (int attempt = 0; attempt < attempts; ++attempt) {
    core::RoundingOptions options;
    options.c = config.c;
    options.seed = config.seed + 0x9e3779b97f4a7c15ull *
                                     static_cast<std::uint64_t>(attempt);
    core::RoundedSolution rounded;
    {
      OMN_TRACE_SPAN("core.round");
      rounded = core::randomized_round(instance, lp, result.lp_design, options);
    }
    core::GapResult gap;
    {
      OMN_TRACE_SPAN("core.gap");
      gap = core::gap_round(instance, lp, rounded.x, config.box_options);
    }
    core::BoxNetwork network;
    {
      OMN_TRACE_SPAN("core.box_network");
      network = core::build_box_network(instance, lp, rounded.x,
                                        config.box_options);
    }
    if (!network.boxes.empty()) {
      flow::MinCostFlowResult flow;
      {
        OMN_TRACE_SPAN("flow.mcf");
        flow = flow::min_cost_flow(network.graph, network.source,
                                   network.sink_t, network.demand());
      }
      pass.counters.flow_units += static_cast<std::uint64_t>(flow.flow);
      if (flow.flow != gap.flow) {
        pass.fail("min_cost_flow on the box network disagrees with gap_round");
      }
    }
    core::Design design = core::Design::zeros(instance);
    design.z = rounded.z;
    design.y = rounded.y;
    design.x = gap.x;
    design.close_upward(instance);
    if (config.prune_unused) design.prune_unused(instance);
    {
      OMN_TRACE_SPAN("core.evaluate");
      (void)core::evaluate(instance, design, config.bandwidth_extension);
    }
  }
}

void count_design_work(Pass& pass, const core::DesignResult& result) {
  Counters& c = pass.counters;
  c.attempts += static_cast<std::uint64_t>(result.attempts_made);
  if (result.lp_warm_start) ++c.lp_warm_starts;
  if (!result.lp_cache_hit) {
    ++c.lp_resolves;
    c.lp_phase1_pivots +=
        static_cast<std::uint64_t>(result.lp_phase1_iterations);
  }
}

// --- design-cold -----------------------------------------------------------
//
// An operator designs the overlay for one event and waits: sequential cold
// designs of distinct instances, 8 rounding attempts fanned over the pool,
// no LP cache.  The simplex is most of each design's latency.  One
// instance's solve time varies by about a quarter around the mean, so a
// run designs many 64-sink instances rather than a dozen large ones: the
// seed then moves the run's figures by a few percent.
class DesignCold final : public Workload {
 public:
  static constexpr int kSinks = 64;
  static constexpr std::size_t kInstances = 120;
  static constexpr int kAttempts = 8;
  static constexpr std::size_t kProbedDesigns = 2;

  DesignCold(std::uint64_t seed, const util::ExecutionContext& context)
      : seed_(seed), context_(context) {}

  void setup() override {
    instances_.clear();
    for (std::size_t i = 0; i < kInstances; ++i) {
      instances_.push_back(global_event(kSinks, mix(seed_, i, 1)));
    }
  }

  void rewind() override {}

  void run(Pass& pass) override {
    for (std::size_t i = 0; i < instances_.size(); ++i) {
      const net::OverlayInstance& instance = instances_[i];
      core::DesignerConfig config;
      config.seed = mix(seed_, i, 2);
      config.rounding_attempts = kAttempts;

      TimedRegion region(pass);
      core::DesignResult result;
      {
        OMN_TRACE_SPAN("core.design");
        result = core::OverlayDesigner(config).design(instance, context_);
      }
      pass.latencies_s.push_back(region.stop());
      ++pass.ops;
      count_design_work(pass, result);
      record_design(pass, instance, config, result,
                    "design " + std::to_string(i));
      if (i < kProbedDesigns) probe_layers(pass, instance, config, result, 4);
    }
  }

  const char* op_name() const override { return "design"; }
  const char* op_span() const override { return "core.design"; }

 private:
  std::uint64_t seed_;
  util::ExecutionContext context_;
  std::vector<net::OverlayInstance> instances_;
};

// --- sweep-rounding --------------------------------------------------------
//
// A rounding-only grid over instances whose LPs an on-disk LpCache already
// holds: the simplex never runs in the timed phase, so the time is the GAP
// min-cost flow, the pool fan-out and the cache's disk reads.  Many
// mid-sized instances with one config per multiplier, because a cell's
// cost depends mostly on its instance: over 12 instances the seed moved a
// run's throughput by 15%.
class SweepRounding final : public Workload {
 public:
  static constexpr std::size_t kInstances = 96;
  static constexpr int kSinks = 64;
  static constexpr int kAttempts = 4;
  static constexpr std::array<double, 4> kMultipliers = {2.0, 4.0, 8.0, 16.0};
  static constexpr std::size_t kSeedsPerMultiplier = 1;
  /// Instances also solved without the cache, for the bit-identity check.
  static constexpr std::size_t kCheckedInstances = 4;
  /// The config layer-probed and checked against an uncached run for each
  /// multiplier: its first seed.
  static constexpr std::size_t config_index(std::size_t multiplier) {
    return multiplier * kSeedsPerMultiplier;
  }

  SweepRounding(std::uint64_t seed, std::string scratch_dir,
                const util::ExecutionContext& context)
      : seed_(seed),
        cache_dir_(scratch_dir + "/sweep-cache"),
        context_(context) {}

  void setup() override {
    sweep_ = core::DesignSweep();
    for (std::size_t i = 0; i < kInstances; ++i) {
      sweep_.add_instance("i" + std::to_string(i),
                          global_event(kSinks, mix(seed_, i, 3)));
    }
    for (std::size_t m = 0; m < kMultipliers.size(); ++m) {
      for (std::size_t s = 0; s < kSeedsPerMultiplier; ++s) {
        core::DesignerConfig config;
        config.c = kMultipliers[m];
        config.seed = mix(seed_, config_index(m) + s, 4);
        config.rounding_attempts = kAttempts;
        sweep_.add_config("c" + std::to_string(m) + "s" + std::to_string(s),
                          config);
      }
    }
    // Each setup fills an emptied cache directory with cold solves.
    fs::remove_all(cache_dir_);
    fs::create_directories(cache_dir_);
    core::LpCache cache(cache_dir_);
    const core::DesignerConfig& config = sweep_.config(0);
    std::vector<std::uint8_t> optimal(kInstances, 0);
    context_.parallel_for(kInstances, [&](std::size_t i) {
      optimal[i] = core::solve_overlay_lp_cached(
                       sweep_.instance(i), core::lp_build_options(config),
                       config.lp_options, &cache)
                       .solution.optimal();
    });
    if (std::count(optimal.begin(), optimal.end(), 1) !=
        static_cast<long>(kInstances)) {
      throw std::runtime_error(
          "sweep-rounding: an LP of the grid is not optimal");
    }
    uncached_.clear();
  }

  void rewind() override {}

  void run(Pass& pass) override {
    // A fresh cache object per pass, as a new sweep process would open:
    // every LP is read from disk.
    context_.set_service(std::make_shared<core::LpCache>(cache_dir_));
    // An explicit cap of nproc runs each cell's attempts inline on the
    // thread that claimed the cell, so a cell's latency is its own work.
    core::SweepOptions options;
    options.threads = context_.concurrency();
    TimedRegion region(pass);
    core::SweepReport report;
    {
      OMN_TRACE_SPAN("core.sweep");
      report = sweep_.run(options, context_);
    }
    region.stop();
    context_.set_service<core::LpCache>(nullptr);

    pass.counters.lp_resolves += report.lp_solves;
    pass.counters.lp_phase1_pivots += report.lp_phase1_iterations;
    pass.counters.lp_warm_starts += report.lp_warm_start_hits;
    if (report.lp_solves != 0 || report.lp_iterations != 0 ||
        pass.counters.lp_pivots != 0) {
      pass.fail("the simplex ran in the timed phase");
    }
    for (const core::SweepCell& cell : report.cells) {
      pass.latencies_s.push_back(cell.seconds);
      ++pass.ops;
      pass.counters.attempts +=
          static_cast<std::uint64_t>(cell.result.attempts_made);
      record_design(pass, sweep_.instance(cell.instance_index),
                    sweep_.config(cell.config_index), cell.result,
                    "cell " + cell.instance_label + "/" + cell.config_label);
    }
    for (std::size_t i = 0; i < kCheckedInstances; ++i) {
      const std::size_t c = config_index(2);  // c = 8, the default
      probe_layers(pass, sweep_.instance(i), sweep_.config(c),
                   report.cell(i, c).result, 1);
    }
    check_against_uncached(pass, report);
  }

  const char* op_name() const override { return "cell"; }
  const char* op_span() const override { return "core.sweep"; }

 private:
  /// Cells are bit-identical to an uncached run of the same grid: one
  /// seed per multiplier over every instance, with the LPs solved afresh
  /// (once per setup, outside the timed region).
  void check_against_uncached(Pass& pass, const core::SweepReport& report) {
    const UntracedScope untraced;
    if (uncached_.empty()) {
      core::DesignSweep reference;
      for (std::size_t i = 0; i < kCheckedInstances; ++i) {
        reference.add_instance(sweep_.instance_label(i), sweep_.instance(i));
      }
      for (std::size_t m = 0; m < kMultipliers.size(); ++m) {
        reference.add_config(sweep_.config_label(config_index(m)),
                             sweep_.config(config_index(m)));
      }
      const core::SweepReport fresh = reference.run({}, context_);
      if (fresh.lp_solves != kCheckedInstances) {
        pass.fail("the uncached reference sweep did not solve its LPs");
      }
      for (const core::SweepCell& cell : fresh.cells) {
        uncached_.push_back(design_digest(cell.result));
      }
    }
    for (std::size_t i = 0; i < kCheckedInstances; ++i) {
      for (std::size_t m = 0; m < kMultipliers.size(); ++m) {
        const core::SweepCell& cell = report.cell(i, config_index(m));
        if (design_digest(cell.result) !=
            uncached_[i * kMultipliers.size() + m]) {
          pass.fail("cached cell differs from the uncached run: " +
                    cell.instance_label + "/" + cell.config_label);
        }
      }
    }
  }

  std::uint64_t seed_;
  std::string cache_dir_;
  util::ExecutionContext context_;
  core::DesignSweep sweep_;
  std::vector<util::Digest128> uncached_;
};

// --- serve-churn -----------------------------------------------------------
//
// A live redesign daemon: a journaled ServeSession with warm starts, fed
// a churn stream through handle_line by one client that waits for each
// ack.  Warm re-solves, memory cache hits and the per-ack journal flush
// set the latency; node add/remove forces cold re-solves (the tail).  The
// sessions of several independent ~32-sink events run one after another,
// so one topology's luck does not set a run's figures.
class ServeChurn final : public Workload {
 public:
  static constexpr int kSinks = 32;
  static constexpr std::size_t kSessions = 16;
  static constexpr std::size_t kEventsPerSession = 75;
  /// Every kSampleEvery-th event is re-solved cold and probed.
  static constexpr std::size_t kSampleEvery = 16;

  ServeChurn(std::uint64_t seed, std::string scratch_dir,
             const util::ExecutionContext& context)
      : seed_(seed), scratch_dir_(std::move(scratch_dir)), context_(context) {
    config_.lp_warm_start = true;
  }

  void setup() override {
    streams_.clear();
    for (std::size_t k = 0; k < kSessions; ++k) {
      Stream stream;
      stream.base = global_event(kSinks, mix(seed_, k, 5));
      serve::ChurnConfig churn;
      churn.seed = mix(seed_, k, 6);
      stream.events =
          serve::ChurnGenerator(stream.base, churn).take(kEventsPerSession);
      streams_.push_back(std::move(stream));
    }
    rewind();
  }

  void rewind() override {
    // The sessions share the pool, and with it the context's service
    // slot.  Each starts from its own empty warm-start cache (a session
    // installs one when the slot is empty) and has it switched back in
    // while its events run.
    for (std::size_t k = 0; k < streams_.size(); ++k) {
      Stream& stream = streams_[k];
      stream.session.reset();
      context_.set_service<core::LpCache>(nullptr);
      serve::ServeOptions options;
      options.config = config_;
      options.journal_path =
          scratch_dir_ + "/serve-" + std::to_string(k) + ".journal";
      fs::remove(options.journal_path);
      stream.session = std::make_unique<serve::ServeSession>(
          stream.base, options, context_);
      stream.cache = context_.find_service<core::LpCache>();
    }
    context_.set_service<core::LpCache>(nullptr);
  }

  void run(Pass& pass) override {
    serve::JournalHeader header;
    header.config_digest = serve::config_digest(config_);
    const std::string side_path = scratch_dir_ + "/side.journal";
    serve::Journal side = serve::Journal::rewrite(side_path, header, {});
    for (std::size_t k = 0; k < streams_.size(); ++k) {
      context_.set_service(streams_[k].cache);
      for (std::size_t e = 0; e < streams_[k].events.size(); ++e) {
        handle(pass, k, e, side);
      }
    }
    context_.set_service<core::LpCache>(nullptr);
    pass.counters.journal_bytes =
        static_cast<std::uint64_t>(fs::file_size(side_path));
  }

  const char* op_name() const override { return "event"; }
  const char* op_span() const override { return "serve.handle_line"; }
  bool uses_serve() const override { return true; }

 private:
  struct Stream {
    net::OverlayInstance base;
    std::vector<serve::Event> events;
    std::shared_ptr<core::LpCache> cache;
    std::unique_ptr<serve::ServeSession> session;
  };

  void handle(Pass& pass, std::size_t session, std::size_t index,
              serve::Journal& side) {
    Stream& stream = streams_[session];
    const serve::Event& event = stream.events[index];
    const std::string line = event.to_line();
    const std::string where = "session " + std::to_string(session) +
                              " event " + std::to_string(index) + " '" +
                              line + "'";
    TimedRegion region(pass);
    std::string ack;
    {
      OMN_TRACE_SPAN("serve.handle_line");
      ack = stream.session->handle_line(line);
    }
    pass.latencies_s.push_back(region.stop());
    ++pass.ops;
    if (ack.rfind("ok ", 0) != 0) {
      pass.digests.emplace_back();
      pass.fail(where + ": err ack: " + ack);
      return;
    }
    const core::DesignState& state = stream.session->state();
    const core::DesignResult& result = state.last();
    count_design_work(pass, result);
    record_design(pass, state.instance(), config_, result, where);
    {
      OMN_TRACE_SPAN("serve.journal_append");
      side.append(event);
    }
    if (index % kSampleEvery != 0) return;
    {
      const UntracedScope untraced;
      const core::CachedLp cold = core::solve_overlay_lp_cached(
          state.instance(), core::lp_build_options(config_),
          config_.lp_options, nullptr);
      const double scale = std::max(1.0, std::abs(cold.solution.objective));
      if (!cold.solution.optimal()) {
        pass.fail(where + ": the cold re-solve ended " +
                  lp::to_string(cold.solution.status));
      } else if (std::abs(cold.solution.objective - result.lp_objective) >
                 kLpTolerance * scale) {
        pass.fail(where + ": LP objective " +
                  util::format_double(result.lp_objective, 9) +
                  " differs from a cold re-solve's " +
                  util::format_double(cold.solution.objective, 9));
      }
    }
    probe_layers(pass, state.instance(), config_, result, 1);
  }

  std::uint64_t seed_;
  std::string scratch_dir_;
  util::ExecutionContext context_;
  core::DesignerConfig config_;
  std::vector<Stream> streams_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "design-cold", "sweep-rounding", "serve-churn"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& scratch_dir,
                                        const util::ExecutionContext& context) {
  if (name == "design-cold") return std::make_unique<DesignCold>(seed, context);
  if (name == "sweep-rounding") {
    return std::make_unique<SweepRounding>(seed, scratch_dir, context);
  }
  if (name == "serve-churn") {
    return std::make_unique<ServeChurn>(seed, scratch_dir, context);
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace omn::bench
