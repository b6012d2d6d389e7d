#pragma once
// Pluggable entering-variable pricing for the revised simplex.
//
// Two rules sit behind SolveOptions::pricing:
//
//  - Dantzig: score a candidate by its rate of objective improvement
//    |d_j|.  No state; cheapest per scan, but blind to how "long" the
//    entering edge is, so it can take many short steps on skewed polytopes.
//  - Steepest edge (Devex reference framework, Forrest-Goldfarb style
//    approximation): score by d_j^2 / gamma_j, where gamma_j approximates
//    the squared norm of the edge direction in a reference framework.
//    Weights start at 1 and are updated from the pivot row each basis
//    change; when they overflow the trust bound the framework resets.
//
// The candidate scan itself lives in the solver (it owns states/bounds);
// this class only scores candidates and maintains the Devex weights.

#include <vector>

#include "omn/lp/simplex.hpp"

namespace omn::lp {

class Pricer {
 public:
  /// Starts a fresh reference framework over `num_columns` candidate
  /// columns.  Called at phase starts; cheap for Dantzig.
  void reset(Pricing rule, int num_columns);

  /// Score for candidate j whose improvement rate is `dj` (> 0, already
  /// sign-adjusted for the bound the variable sits at).  Higher wins.
  double score(int j, double dj) const;

  /// Devex weight update after a basis change: entering column q with
  /// pivot element `alpha_q`, leaving column `leaving`; `alpha_row` is the
  /// pivot row in candidate-column space, read only at `columns` (the
  /// candidate columns where it may be nonzero, each < reset()'s
  /// num_columns).  No-op for Dantzig.
  void on_pivot(int q, int leaving, double alpha_q,
                const std::vector<double>& alpha_row,
                const std::vector<int>& columns);

  Pricing rule() const { return rule_; }

 private:
  Pricing rule_ = Pricing::kDantzig;
  std::vector<double> weights_;
  double max_weight_ = 1.0;
};

}  // namespace omn::lp
