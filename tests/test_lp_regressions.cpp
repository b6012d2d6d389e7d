// Regression LPs the revised simplex once got wrong.
//
// Each fixture under tests/data/churn_lp_*.txt is the instance a
// `serve-churn` session (omn-bench) had reached after the named event:
// churn leaves failed edges at loss 0.999999 beside changed fanouts and
// capacities.  The dense tableau solves them all.  A revised solve of the
// seed 8 and seed 9 LPs returned "optimal" at a point violating its own
// constraints by up to 7.5, or stopped with a numeric failure, until the
// basis LU was ordered for sparsity.  The seed 11 and seed 13 LPs ended
// `iteration-limit`: at a degenerate vertex the ratio test pivoted on an
// entry of B⁻¹a_q of about 1e-8, rounding noise next to entries of order
// 10, the basis went singular and the next refactorization failed.  The
// ratio test now treats entries that small relative to the column as
// zero.  Each LP is solved cold by the revised core and checked against
// the dense oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "omn/core/designer.hpp"
#include "omn/core/lp_builder.hpp"
#include "omn/lp/simplex.hpp"
#include "omn/net/serialize.hpp"
#include "omn/util/trace.hpp"

namespace {

using omn::lp::Algorithm;
using omn::lp::SimplexSolver;
using omn::lp::Solution;

std::string data_path(const std::string& file) {
  const char* dir = std::getenv("OMN_TEST_DATA_DIR");
  return (dir != nullptr ? std::string(dir) : std::string("tests/data")) +
         "/" + file;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class ChurnLp : public ::testing::TestWithParam<const char*> {};

TEST_P(ChurnLp, RevisedCoreMatchesTheDenseOracle) {
  const omn::net::OverlayInstance instance =
      omn::net::from_text(slurp(data_path(GetParam())));
  const omn::core::DesignerConfig config;
  const omn::core::OverlayLp lp = omn::core::build_overlay_lp(
      instance, omn::core::lp_build_options(config));

  omn::lp::SolveOptions options = config.lp_options;
  ASSERT_EQ(options.algorithm, Algorithm::kRevised);
  const std::uint64_t failures_before =
      omn::util::counter_value("lp.numeric_failures");
  const std::uint64_t singular_before =
      omn::util::counter_value("lp.singular_refactors");
  const Solution revised = SimplexSolver().solve(lp.model, options);
  EXPECT_EQ(omn::util::counter_value("lp.numeric_failures"), failures_before);
  EXPECT_EQ(omn::util::counter_value("lp.singular_refactors"),
            singular_before);
  options.algorithm = Algorithm::kDenseTableau;
  const Solution dense = SimplexSolver().solve(lp.model, options);

  ASSERT_TRUE(dense.optimal());
  ASSERT_TRUE(revised.optimal()) << omn::lp::to_string(revised.status);
  EXPECT_LE(std::abs(revised.objective - dense.objective),
            1e-7 * std::max(1.0, std::abs(dense.objective)))
      << "revised " << revised.objective << " dense " << dense.objective;
  EXPECT_LE(revised.max_violation, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(
    ServeChurn, ChurnLp,
    ::testing::Values("churn_lp_seed9_session11_event17.txt",
                      "churn_lp_seed9_session11_event18.txt",
                      "churn_lp_seed9_session11_event19.txt",
                      "churn_lp_seed9_session11_event20.txt",
                      "churn_lp_seed8_session4_event64.txt",
                      "churn_lp_seed11_session1_event22.txt",
                      "churn_lp_seed13_session8_event17.txt",
                      "churn_lp_seed13_session8_event18.txt"));

}  // namespace
