#pragma once
// Sparse LU factorization of a simplex basis with Forrest–Tomlin updates.
//
// The revised simplex keeps the m×m basis B implicitly as
//
//     B = Pᵀ L R⁻¹ U Q,        R = R_k ⋯ R_1
//
// P and L come from a left-looking sparse factorization and never change
// until the next one.  U is upper triangular in a step order that the
// updates permute (Q carries that order and the step -> slot map), and
// each row eta R_i = I − e_p rᵀ records one update's elimination.
//
// Replacing the column in basis slot s (Forrest–Tomlin):
//
//  1. The ftran of the entering column keeps its spike R L⁻¹ P a_q, taken
//     after L and the row etas and before U (`ftran_entering`).
//  2. `update` puts the spike in place of the U column of s's step p and
//     moves p to the end of the step order, so the column is upper
//     triangular again and only row p has entries left of its diagonal.
//  3. Those entries are eliminated with the rows after p; the multipliers
//     form the row eta R_{k+1}, and the spike's entries fold into the new
//     diagonal.  The replacement is rejected — factors left untouched —
//     when that diagonal is tiny or disagrees with alpha_q · the old
//     diagonal (det B' = alpha_q · det B), the sign of an ill-conditioned
//     update.
//
// ftran applies L, then the row etas in order, then U; btran applies Uᵀ,
// then the row etas' transposes in reverse, then Lᵀ.  The spike of an
// overlay LP's entering column has a dozen nonzeros and rows of U about
// one, so an update stores a few dozen numbers where a product-form eta
// would store the whole B⁻¹a_q.  Values with |v| ≤ 1e-14 are cancellation
// noise: they are dropped from spikes, row etas and ftran/btran results,
// and U steps whose right-hand side is zero are skipped.
//
// The factorization is ordered for sparsity, because fill is what every
// later ftran/btran pays for:
//
//  - Column order: columns are eliminated by ascending nonzero count
//    (stable), so slack and artificial singletons come first and pivot on
//    their own row with no fill; the few structural columns follow.
//  - Symbolic reach: before each column's numeric solve against the L built
//    so far, a depth-first search finds the earlier steps the column
//    actually depends on (Gilbert–Peierls), so a column costs work
//    proportional to its flops rather than to m.
//  - Threshold pivoting (P): any not-yet-pivotal row whose entry is at
//    least 0.1× the column's largest (and above the singularity tolerance)
//    may pivot; among those the row with the fewest nonzeros left in the
//    columns still to come wins (Markowitz-style), ties going to the larger
//    magnitude, then the lower row.  Partial pivoting on magnitude alone
//    picks rows with no regard for what they fill in; the 0.1 threshold
//    keeps element growth bounded while leaving room to choose.
//
// Index conventions: "row space" is the model's raw row index i; "slot
// space" is the basis position r (column r of B is the basis column chosen
// for row slot r); "step" t names one elimination step — its pivot row,
// its basis slot, its L column and its row and column of U.  Updates keep
// each step's row and slot and change only where the step sits in the
// order.  ftran maps row space -> slot space, btran maps slot space -> row
// space; both work in step space inside.

#include <utility>
#include <vector>

namespace omn::lp {

/// A sparse matrix in compressed sparse column form: column c's entries
/// are (row[k], val[k]) for k in [col_ptr[c], col_ptr[c + 1]).  Built one
/// column at a time, so a caller can refill one buffer without
/// reallocating.
struct CscMatrix {
  std::vector<int> col_ptr{0};
  std::vector<int> row;
  std::vector<double> val;

  int cols() const { return static_cast<int>(col_ptr.size()) - 1; }
  void clear() {
    col_ptr.assign(1, 0);
    row.clear();
    val.clear();
  }
  void add(int r, double v) {
    row.push_back(r);
    val.push_back(v);
  }
  void end_column() { col_ptr.push_back(static_cast<int>(row.size())); }
};

class BasisLu {
 public:
  /// Factorizes the square matrix whose slot-r column is `basis` column r
  /// (rows unique within a column, any order; m = basis.cols()).  Clears
  /// the updates.  Returns false when the matrix is numerically singular,
  /// in which case the factorization must not be used.
  bool factorize(const CscMatrix& basis);

  /// Solves B x = b in place: on entry `x` holds b indexed by raw row, on
  /// exit it holds the solution indexed by basis slot.
  void ftran(std::vector<double>& x) const;

  /// ftran of an entering column, keeping its spike for the next update().
  void ftran_entering(std::vector<double>& x);

  /// Solves Bᵀ y = c in place: on entry `x` holds c indexed by basis slot,
  /// on exit it holds the solution indexed by raw row.
  void btran(std::vector<double>& x) const;

  /// Replaces the basis column in slot `slot` with the column last passed
  /// to ftran_entering(), whose image has `alpha` = (B⁻¹a_q)[slot].
  /// Returns false — leaving the factors as they were — when no spike is
  /// kept or the new U diagonal is unusable; the caller must refactorize.
  bool update(int slot, double alpha);

  /// Updates applied since the last factorize().
  int updates() const { return updates_; }

  /// Total successful factorize() calls over the object's lifetime.
  int factorizations() const { return factorizations_; }

  int dimension() const { return m_; }

  /// Nonzeros of the current factors: L, U (diagonal included) and the
  /// row etas.
  int nonzeros() const;

  /// Nonzeros the updates since the last factorize() stored: their spikes
  /// (new U columns, diagonal excluded) and row etas.  nonzeros() can grow
  /// by no more than this, since every update drops U's old column and row.
  int update_nonzeros() const { return update_nonzeros_; }

 private:
  void lower_solve(const std::vector<double>& b) const;
  void upper_solve(std::vector<double>& x) const;
  void add_to_row(int t, int col, double v);
  void remove_from_row(int t, int col);
  void remove_from_column(int t, int row);

  int m_ = 0;
  int factorizations_ = 0;
  int updates_ = 0;
  int update_nonzeros_ = 0;

  // Fixed by factorize(): pivot_row_[t] = raw row pivotal at step t,
  // row_step_[i] its inverse; slot_of_step_[t] = basis slot eliminated at
  // step t, step_of_slot_ its inverse.
  std::vector<int> pivot_row_;
  std::vector<int> row_step_;
  std::vector<int> slot_of_step_;
  std::vector<int> step_of_slot_;

  // L columns (unit diagonal implicit): per step t, (later step, multiplier).
  std::vector<int> l_ptr_;
  std::vector<int> l_step_;
  std::vector<double> l_val_;
  std::vector<int> l_cols_;  // steps whose L column is not empty, ascending

  // U, kept column-wise for ftran and row-wise for btran and updates.
  // Step t's column holds (row step, value) at [col_begin_[t],
  // col_begin_[t] + col_len_[t]); its row holds (column step, value) at
  // [row_begin_[t], row_begin_[t] + row_len_[t]) with room up to
  // row_cap_[t].  Replaced ranges stay behind unused until factorize().
  std::vector<double> diag_;
  std::vector<int> col_begin_;
  std::vector<int> col_len_;
  std::vector<int> col_step_;
  std::vector<double> col_val_;
  std::vector<int> row_begin_;
  std::vector<int> row_len_;
  std::vector<int> row_cap_;
  std::vector<int> row_col_;
  std::vector<double> row_val_;

  // Step order: order_[k] = step at position k, -1 where an update moved
  // the step away; position_[t] its inverse.
  std::vector<int> order_;
  std::vector<int> position_;

  // Row etas: R_e eliminates row r_step_[e] with multipliers
  // (r_col_[k], r_val_[k]) for k in [r_ptr_[e], r_ptr_[e + 1]).
  std::vector<int> r_step_;
  std::vector<int> r_ptr_{0};
  std::vector<int> r_col_;
  std::vector<double> r_val_;

  // The spike kept by ftran_entering(), dense in step space, with the
  // steps of its nonzeros.
  std::vector<double> spike_;
  std::vector<int> spike_steps_;
  bool has_spike_ = false;

  mutable std::vector<double> work_;   // step space, zero between calls
  std::vector<std::pair<int, int>> heap_;  // (position, step) in update()
};

}  // namespace omn::lp
