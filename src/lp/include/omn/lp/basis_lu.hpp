#pragma once
// Sparse LU factorization of a simplex basis with product-form updates.
//
// The revised simplex keeps the m×m basis B implicitly as
//
//     B = (P^T L U Q) · E_1 · E_2 · ... · E_k
//
// where P^T L U Q comes from a left-looking sparse factorization and each
// eta matrix E_i = I + (w - e_p) e_p^T records one column replacement
// (w = B_prev^{-1} a_entering).  ftran/btran apply the factors in the
// appropriate order, so each costs O(LU fill + eta fill) instead of the
// dense tableau's O(m · total).  The eta file grows by one spike per pivot;
// the solver refactorizes (rebuilding L U from the current basis and
// clearing the file) on a configurable interval or when a pivot looks
// numerically degraded.
//
// The factorization is ordered for sparsity, because fill is what every
// later ftran/btran pays for:
//
//  - Column order Q: columns are eliminated by ascending nonzero count
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
// for row slot r); "step" t is the elimination order.  ftran maps row
// space -> slot space, btran maps slot space -> row space; both carry the
// step -> slot permutation internally.

#include <utility>
#include <vector>

namespace omn::lp {

class BasisLu {
 public:
  /// Factorizes the m×m matrix whose slot-r column is `columns[r]`, given
  /// as sparse (row, value) entries (rows unique, any order).  Clears the
  /// eta file.  Returns false when the matrix is numerically singular, in
  /// which case the factorization must not be used.
  bool factorize(int m,
                 const std::vector<std::vector<std::pair<int, double>>>& columns);

  /// Solves B x = b in place: on entry `x` holds b indexed by raw row, on
  /// exit it holds the solution indexed by basis slot.
  void ftran(std::vector<double>& x) const;

  /// Solves Bᵀ y = c in place: on entry `x` holds c indexed by basis slot,
  /// on exit it holds the solution indexed by raw row.
  void btran(std::vector<double>& x) const;

  /// Appends an eta replacing the basis column in slot `slot` with the
  /// entering column whose ftran image is `w` (slot space, dense).  Returns
  /// false — leaving the factorization unchanged — when |w[slot]| is too
  /// small to divide by; the caller must refactorize instead.
  bool update(int slot, const std::vector<double>& w);

  /// Etas accumulated since the last factorize().
  int eta_count() const { return static_cast<int>(etas_.size()); }

  /// Total successful factorize() calls over the object's lifetime.
  int factorizations() const { return factorizations_; }

  int dimension() const { return m_; }

  /// Nonzeros of the current L and U factors, diagonal included (the eta
  /// file is not counted).
  int nonzeros() const {
    return m_ + static_cast<int>(l_row_.size() + u_step_.size());
  }

 private:
  struct Eta {
    int slot = 0;       // replaced basis slot p
    double pivot = 0.0; // w[p]
    int begin = 0;      // range into eta_slot_/eta_val_ (entries with i != p)
    int end = 0;
  };

  int m_ = 0;
  int factorizations_ = 0;

  // Permutations: pivot_row_[t] = raw row chosen at elimination step t;
  // row_step_[i] = step at which raw row i became pivotal; slot_of_step_[t]
  // = basis slot whose column was eliminated at step t.
  std::vector<int> pivot_row_;
  std::vector<int> row_step_;
  std::vector<int> slot_of_step_;
  std::vector<double> diag_;  // U diagonal per step

  // L columns (unit diagonal implicit): per step t, (raw row, multiplier)
  // entries for rows eliminated at step t.
  std::vector<int> l_ptr_;
  std::vector<int> l_row_;
  std::vector<double> l_val_;

  // U columns: per step t, (earlier step s, value) entries above the
  // diagonal.
  std::vector<int> u_ptr_;
  std::vector<int> u_step_;
  std::vector<double> u_val_;

  std::vector<Eta> etas_;
  std::vector<int> eta_slot_;
  std::vector<double> eta_val_;

  mutable std::vector<double> work_;
};

}  // namespace omn::lp
