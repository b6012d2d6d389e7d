#pragma once
// The benchmark's three workloads behind one pass-driven interface.
//
// A workload's input set is fixed by the seed.  setup() builds it (timed
// by main() as setup_s); run() performs every operation of the set
// once — one closed-loop client, each request issued after the previous
// one returned — recording latencies and exact work counters into a Pass
// and checking each output outside the timed region.  Because every pass
// does the same operations, a faster build is measured on the same work
// mix, and a traced pass can be compared counter for counter with an
// untraced one.  Layer probes (direct calls into core/flow/serve public
// functions on an operation's own inputs) also run outside the timed
// region and feed only the per-layer metrics.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "omn/util/execution_context.hpp"
#include "omn/util/hash.hpp"

namespace omn::bench {

/// Exact work counts of one pass.  Equal inputs must give equal counts
/// whether tracing is on or off.
struct Counters {
  std::uint64_t lp_solves = 0;
  std::uint64_t lp_pivots = 0;
  std::uint64_t lp_phase1_pivots = 0;
  std::uint64_t lp_refactorizations = 0;
  std::uint64_t lp_warm_starts = 0;
  std::uint64_t lp_resolves = 0;  ///< designs whose LP was not a cache hit
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_disk_reads = 0;
  std::uint64_t attempts = 0;
  std::uint64_t flow_units = 0;
  std::uint64_t journal_bytes = 0;

  bool operator==(const Counters&) const = default;
};

/// Everything one pass over a workload measured.
struct Pass {
  std::vector<double> latencies_s;  ///< one per operation
  double busy_s = 0.0;      ///< wall time inside timed regions
  double cpu_s = 0.0;       ///< process CPU time inside timed regions
  std::size_t ops = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  ///< first few reasons
  std::vector<util::Digest128> digests;  ///< one per operation
  Counters counters;
  double cost_ratio_sum = 0.0;   ///< over designs that passed the checks
  std::size_t cost_ratio_count = 0;
  double min_weight_ratio = 1.0;
  /// Designs cheaper than the LP bound (they miss some sink's full
  /// demand, which the paper's guarantee allows).
  std::size_t below_lp_bound = 0;

  void fail(const std::string& why);
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the input set and fresh state.
  virtual void setup() = 0;
  /// Fresh state over the same inputs, so the next run() replays exactly
  /// the same operations.
  virtual void rewind() = 0;
  /// Performs every operation of the input set once, with its checks.
  virtual void run(Pass& pass) = 0;
  /// What one operation is, for the printout ("design", "cell", "event").
  virtual const char* op_name() const = 0;
  /// The span the benchmark opens around each operation, on the thread
  /// that issues it.
  virtual const char* op_span() const = 0;
  /// Whether the operations go through the serve layer, whose per-layer
  /// metrics are reported only then.
  virtual bool uses_serve() const { return false; }
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& scratch_dir,
                                        const util::ExecutionContext& context);

/// The workload names make_workload accepts.
const std::vector<std::string>& workload_names();

}  // namespace omn::bench
