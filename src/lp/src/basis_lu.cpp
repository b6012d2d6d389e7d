#include "omn/lp/basis_lu.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <tuple>

#include "omn/util/trace.hpp"

namespace omn::lp {

namespace {

// Pivots below this absolute magnitude are treated as structural zeros; a
// column whose best remaining pivot falls under it makes the basis singular.
constexpr double kSingularTol = 1e-11;

// A row may pivot when its entry is at least this fraction of the largest
// remaining entry in the column.
constexpr double kPivotThreshold = 0.1;

std::size_t uz(int v) { return static_cast<std::size_t>(v); }

}  // namespace

bool BasisLu::factorize(
    int m, const std::vector<std::vector<std::pair<int, double>>>& columns) {
  m_ = m;
  pivot_row_.assign(uz(m), -1);
  row_step_.assign(uz(m), -1);
  slot_of_step_.resize(uz(m));
  diag_.assign(uz(m), 0.0);
  l_ptr_.assign(uz(m) + 1, 0);
  l_row_.clear();
  l_val_.clear();
  u_ptr_.assign(uz(m) + 1, 0);
  u_step_.clear();
  u_val_.clear();
  etas_.clear();
  eta_slot_.clear();
  eta_val_.clear();
  work_.assign(uz(m), 0.0);

  // Sparsest columns first; the sort is stable, so equal counts keep slot
  // order and the factorization stays deterministic.
  std::iota(slot_of_step_.begin(), slot_of_step_.end(), 0);
  std::stable_sort(slot_of_step_.begin(), slot_of_step_.end(),
                   [&columns](int a, int b) {
                     return columns[uz(a)].size() < columns[uz(b)].size();
                   });
  // Nonzeros each row still has in the columns not yet eliminated.
  std::vector<int> row_count(uz(m), 0);
  for (const auto& column : columns) {
    for (const auto& entry : column) ++row_count[uz(entry.first)];
  }

  // Per column k: `reach` collects, in DFS postorder, the earlier steps
  // whose L columns the column depends on; `open` collects the touched rows
  // not yet pivotal (the pivot candidates and the new L column).
  // row_mark[i] == k marks row i as already touched by column k.
  std::vector<int> row_mark(uz(m), -1);
  std::vector<int> reach;
  std::vector<int> open;
  std::vector<std::pair<int, int>> stack;  // (step, next L entry to visit)
  std::vector<double>& work = work_;

  // Touches row i for column k: an open row becomes a pivot candidate, a
  // pivotal one pushes its step for the DFS to walk that step's L column.
  const auto touch = [&](int i, int k) {
    if (row_mark[uz(i)] == k) return;
    row_mark[uz(i)] = k;
    const int t = row_step_[uz(i)];
    if (t < 0) {
      open.push_back(i);
    } else {
      stack.emplace_back(t, l_ptr_[uz(t)]);
    }
  };

  for (int k = 0; k < m; ++k) {
    reach.clear();
    open.clear();
    for (const auto& [row, value] : columns[uz(slot_of_step_[uz(k)])]) {
      work[uz(row)] += value;
      --row_count[uz(row)];
      touch(row, k);
      while (!stack.empty()) {
        auto& [t, e] = stack.back();
        if (e == l_ptr_[uz(t) + 1]) {
          reach.push_back(t);
          stack.pop_back();
        } else {
          touch(l_row_[uz(e++)], k);
        }
      }
    }

    // Numeric solve with the partial L, in topological (reverse postorder)
    // order: step t's multiplier is final once every step it depends on
    // has been applied.
    for (auto it = reach.rbegin(); it != reach.rend(); ++it) {
      const int t = *it;
      const double p = work[uz(pivot_row_[uz(t)])];
      if (p == 0.0) continue;
      for (int e = l_ptr_[uz(t)]; e < l_ptr_[uz(t) + 1]; ++e) {
        work[uz(l_row_[uz(e)])] -= l_val_[uz(e)] * p;
      }
    }
    for (const int t : reach) {
      const double u = work[uz(pivot_row_[uz(t)])];
      work[uz(pivot_row_[uz(t)])] = 0.0;
      if (u == 0.0) continue;
      u_step_.push_back(t);
      u_val_.push_back(u);
    }
    u_ptr_[uz(k) + 1] = static_cast<int>(u_step_.size());

    // Threshold pivoting: any open row within kPivotThreshold of the
    // column's largest entry qualifies; the one with the fewest nonzeros
    // left in later columns wins (ties: larger magnitude, then lower row).
    double max_abs = 0.0;
    for (const int i : open) max_abs = std::max(max_abs, std::abs(work[uz(i)]));
    const double threshold = kPivotThreshold * max_abs;
    int pivot = -1;
    double pivot_abs = 0.0;
    for (const int i : open) {
      const double a = std::abs(work[uz(i)]);
      if (a <= kSingularTol || a < threshold) continue;
      if (pivot < 0 ||
          std::tuple(row_count[uz(i)], -a, i) <
              std::tuple(row_count[uz(pivot)], -pivot_abs, pivot)) {
        pivot = i;
        pivot_abs = a;
      }
    }
    if (pivot < 0) {
      // Numerically singular: scrub the work vector and bail.
      for (const int i : open) work[uz(i)] = 0.0;
      m_ = 0;
      return false;
    }

    const double d = work[uz(pivot)];
    diag_[uz(k)] = d;
    work[uz(pivot)] = 0.0;
    for (const int i : open) {
      if (work[uz(i)] == 0.0) continue;
      l_row_.push_back(i);
      l_val_.push_back(work[uz(i)] / d);
      work[uz(i)] = 0.0;
    }
    l_ptr_[uz(k) + 1] = static_cast<int>(l_row_.size());

    pivot_row_[uz(k)] = pivot;
    row_step_[uz(pivot)] = k;
  }
  ++factorizations_;
  OMN_COUNTER_ADD("lp.lu_nonzeros", static_cast<std::uint64_t>(nonzeros()));
  return true;
}

void BasisLu::ftran(std::vector<double>& x) const {
  // B = P^T L U Q E_1 ... E_k, so x' = E_k^{-1}...E_1^{-1} Q^T U^{-1} L^{-1}
  // P x.  The LU stage works in the permuted work array (y_t lives at raw
  // row pivot_row_[t]); the backward pass scatters step t into slot
  // slot_of_step_[t] (the Q^T).
  std::vector<double>& work = work_;
  work.swap(x);  // x currently row space; keep result buffer in x

  // Forward: y = L^{-1} P b.
  for (int t = 0; t < m_; ++t) {
    const double p = work[uz(pivot_row_[uz(t)])];
    if (p == 0.0) continue;
    for (int e = l_ptr_[uz(t)]; e < l_ptr_[uz(t) + 1]; ++e) {
      work[uz(l_row_[uz(e)])] -= l_val_[uz(e)] * p;
    }
  }
  // Backward: solve U z = y column-wise; z_t lands in x at step t's slot.
  for (int t = m_ - 1; t >= 0; --t) {
    const double zt = work[uz(pivot_row_[uz(t)])] / diag_[uz(t)];
    x[uz(slot_of_step_[uz(t)])] = zt;
    work[uz(pivot_row_[uz(t)])] = 0.0;
    if (zt == 0.0) continue;
    for (int e = u_ptr_[uz(t)]; e < u_ptr_[uz(t) + 1]; ++e) {
      work[uz(pivot_row_[uz(u_step_[uz(e)])])] -= u_val_[uz(e)] * zt;
    }
  }

  // Eta sweep in append order: x <- E_i^{-1} x, where E^{-1} divides the
  // spiked slot and back-substitutes it out of the others.
  for (const Eta& eta : etas_) {
    const double t = x[uz(eta.slot)] / eta.pivot;
    if (t != 0.0) {
      for (int e = eta.begin; e < eta.end; ++e) {
        x[uz(eta_slot_[uz(e)])] -= eta_val_[uz(e)] * t;
      }
    }
    x[uz(eta.slot)] = t;
  }
}

void BasisLu::btran(std::vector<double>& x) const {
  // Bᵀ = E_k^T ... E_1^T Q^T U^T L^T P, so
  // y = P^T L^{-T} U^{-T} Q E_1^{-T} ... x.
  // Eta transposes first, in reverse append order: solving E^T z = c leaves
  // every component except the spiked slot unchanged.
  for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
    double acc = x[uz(it->slot)];
    for (int e = it->begin; e < it->end; ++e) {
      acc -= eta_val_[uz(e)] * x[uz(eta_slot_[uz(e)])];
    }
    x[uz(it->slot)] = acc / it->pivot;
  }

  // U^{-T}: forward over steps (gather from U columns), reading step t's
  // right-hand side from its slot.
  std::vector<double>& work = work_;
  for (int t = 0; t < m_; ++t) {
    double acc = x[uz(slot_of_step_[uz(t)])];
    for (int e = u_ptr_[uz(t)]; e < u_ptr_[uz(t) + 1]; ++e) {
      acc -= u_val_[uz(e)] * work[uz(u_step_[uz(e)])];
    }
    work[uz(t)] = acc / diag_[uz(t)];
  }
  // L^{-T}: backward; L column t's entries live at raw rows pivoted later.
  for (int t = m_ - 1; t >= 0; --t) {
    double acc = work[uz(t)];
    for (int e = l_ptr_[uz(t)]; e < l_ptr_[uz(t) + 1]; ++e) {
      acc -= l_val_[uz(e)] * work[uz(row_step_[uz(l_row_[uz(e)])])];
    }
    work[uz(t)] = acc;
  }
  // Undo the permutation: y[pivot_row_[t]] = w_t.
  for (int t = 0; t < m_; ++t) x[uz(pivot_row_[uz(t)])] = work[uz(t)];
  for (int t = 0; t < m_; ++t) work[uz(t)] = 0.0;
}

bool BasisLu::update(int slot, const std::vector<double>& w) {
  const double pivot = w[uz(slot)];
  if (std::abs(pivot) < kSingularTol) return false;
  Eta eta;
  eta.slot = slot;
  eta.pivot = pivot;
  eta.begin = static_cast<int>(eta_slot_.size());
  for (int i = 0; i < m_; ++i) {
    if (i == slot || w[uz(i)] == 0.0) continue;
    eta_slot_.push_back(i);
    eta_val_.push_back(w[uz(i)]);
  }
  eta.end = static_cast<int>(eta_slot_.size());
  etas_.push_back(eta);
  return true;
}

}  // namespace omn::lp
