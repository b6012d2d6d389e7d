#include "omn/lp/basis_lu.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
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

// Entries at or below this magnitude are cancellation noise and are not
// stored or returned.
constexpr double kDropTol = 1e-14;

// An update is rejected when its new U diagonal is off alpha · the old one
// by more than this relative amount.
constexpr double kUpdateTol = 1e-8;

std::size_t uz(int v) { return static_cast<std::size_t>(v); }

}  // namespace

bool BasisLu::factorize(const CscMatrix& basis) {
  const int m = basis.cols();
  m_ = m;
  updates_ = 0;
  update_nonzeros_ = 0;
  has_spike_ = false;
  pivot_row_.assign(uz(m), -1);
  row_step_.assign(uz(m), -1);
  slot_of_step_.resize(uz(m));
  diag_.assign(uz(m), 0.0);
  l_ptr_.assign(uz(m) + 1, 0);
  l_step_.clear();
  l_val_.clear();
  col_begin_.assign(uz(m), 0);
  col_len_.assign(uz(m), 0);
  col_step_.clear();
  col_val_.clear();
  order_.clear();
  r_step_.clear();
  r_ptr_.assign(1, 0);
  r_col_.clear();
  r_val_.clear();
  work_.assign(uz(m), 0.0);
  spike_.assign(uz(m), 0.0);
  spike_steps_.clear();

  // Sparsest columns first; the sort is stable, so equal counts keep slot
  // order and the factorization stays deterministic.
  std::iota(slot_of_step_.begin(), slot_of_step_.end(), 0);
  const auto length = [&basis](int c) {
    return basis.col_ptr[uz(c) + 1] - basis.col_ptr[uz(c)];
  };
  std::stable_sort(
      slot_of_step_.begin(), slot_of_step_.end(),
      [&length](int a, int b) { return length(a) < length(b); });
  // Nonzeros each row still has in the columns not yet eliminated.
  std::vector<int> row_count(uz(m), 0);
  for (const int i : basis.row) ++row_count[uz(i)];

  // Per column k: `reach` collects, in DFS postorder, the earlier steps
  // whose L columns the column depends on; `open` collects the touched rows
  // not yet pivotal (the pivot candidates and the new L column).
  // row_mark[i] == k marks row i as already touched by column k.  Until
  // the last step, l_step_ holds raw rows.
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
    const int slot = slot_of_step_[uz(k)];
    for (int e = basis.col_ptr[uz(slot)]; e < basis.col_ptr[uz(slot) + 1];
         ++e) {
      const int row = basis.row[uz(e)];
      work[uz(row)] += basis.val[uz(e)];
      --row_count[uz(row)];
      touch(row, k);
      while (!stack.empty()) {
        auto& [t, e] = stack.back();
        if (e == l_ptr_[uz(t) + 1]) {
          reach.push_back(t);
          stack.pop_back();
        } else {
          touch(l_step_[uz(e++)], k);
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
        work[uz(l_step_[uz(e)])] -= l_val_[uz(e)] * p;
      }
    }
    col_begin_[uz(k)] = static_cast<int>(col_step_.size());
    for (const int t : reach) {
      const double u = work[uz(pivot_row_[uz(t)])];
      work[uz(pivot_row_[uz(t)])] = 0.0;
      if (u == 0.0) continue;
      col_step_.push_back(t);
      col_val_.push_back(u);
    }
    col_len_[uz(k)] = static_cast<int>(col_step_.size()) - col_begin_[uz(k)];

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
      l_step_.push_back(i);
      l_val_.push_back(work[uz(i)] / d);
      work[uz(i)] = 0.0;
    }
    l_ptr_[uz(k) + 1] = static_cast<int>(l_step_.size());

    pivot_row_[uz(k)] = pivot;
    row_step_[uz(pivot)] = k;
  }
  for (int& i : l_step_) i = row_step_[uz(i)];
  l_cols_.clear();
  for (int t = 0; t < m; ++t) {
    if (l_ptr_[uz(t) + 1] > l_ptr_[uz(t)]) l_cols_.push_back(t);
  }
  step_of_slot_.resize(uz(m));
  for (int t = 0; t < m; ++t) step_of_slot_[uz(slot_of_step_[uz(t)])] = t;

  // U row-wise, each row at its exact length (an update that adds to a row
  // moves it to the end with room to grow).
  row_len_.assign(uz(m), 0);
  for (const int t : col_step_) ++row_len_[uz(t)];
  row_begin_.assign(uz(m), 0);
  for (int t = 1; t < m; ++t) {
    row_begin_[uz(t)] = row_begin_[uz(t) - 1] + row_len_[uz(t) - 1];
  }
  row_cap_ = row_len_;
  row_col_.resize(col_step_.size());
  row_val_.resize(col_step_.size());
  std::fill(row_len_.begin(), row_len_.end(), 0);
  for (int k = 0; k < m; ++k) {
    for (int e = col_begin_[uz(k)]; e < col_begin_[uz(k)] + col_len_[uz(k)];
         ++e) {
      const int t = col_step_[uz(e)];
      const int at = row_begin_[uz(t)] + row_len_[uz(t)]++;
      row_col_[uz(at)] = k;
      row_val_[uz(at)] = col_val_[uz(e)];
    }
  }
  order_.resize(uz(m));
  std::iota(order_.begin(), order_.end(), 0);
  position_ = order_;
  ++factorizations_;
  OMN_COUNTER_ADD("lp.lu_nonzeros", static_cast<std::uint64_t>(nonzeros()));
  return true;
}

int BasisLu::nonzeros() const {
  int total = m_ + static_cast<int>(l_step_.size() + r_col_.size());
  for (int t = 0; t < m_; ++t) total += col_len_[uz(t)];
  return total;
}

void BasisLu::lower_solve(const std::vector<double>& b) const {
  // work = R L^{-1} P b in step space.
  std::vector<double>& work = work_;
  for (int i = 0; i < m_; ++i) work[uz(row_step_[uz(i)])] = b[uz(i)];
  for (const int t : l_cols_) {
    const double p = work[uz(t)];
    if (p == 0.0) continue;
    for (int e = l_ptr_[uz(t)]; e < l_ptr_[uz(t) + 1]; ++e) {
      work[uz(l_step_[uz(e)])] -= l_val_[uz(e)] * p;
    }
  }
  const int etas = static_cast<int>(r_step_.size());
  for (int k = 0; k < etas; ++k) {
    double acc = work[uz(r_step_[uz(k)])];
    for (int e = r_ptr_[uz(k)]; e < r_ptr_[uz(k) + 1]; ++e) {
      acc -= r_val_[uz(e)] * work[uz(r_col_[uz(e)])];
    }
    work[uz(r_step_[uz(k)])] = acc;
  }
}

void BasisLu::upper_solve(std::vector<double>& x) const {
  // Solves U z = work backward over the step order, column-wise, and
  // scatters step t's z into x at its slot; leaves work zero.
  std::vector<double>& work = work_;
  for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
    const int t = *it;
    if (t < 0) continue;
    const double y = work[uz(t)];
    work[uz(t)] = 0.0;
    double z = 0.0;
    if (y != 0.0) z = y / diag_[uz(t)];
    if (std::abs(z) <= kDropTol) z = 0.0;
    x[uz(slot_of_step_[uz(t)])] = z;
    if (z == 0.0) continue;
    for (int e = col_begin_[uz(t)]; e < col_begin_[uz(t)] + col_len_[uz(t)];
         ++e) {
      work[uz(col_step_[uz(e)])] -= col_val_[uz(e)] * z;
    }
  }
}

void BasisLu::ftran(std::vector<double>& x) const {
  lower_solve(x);
  upper_solve(x);
}

void BasisLu::ftran_entering(std::vector<double>& x) {
  lower_solve(x);
  for (const int t : spike_steps_) spike_[uz(t)] = 0.0;
  spike_steps_.clear();
  for (int t = 0; t < m_; ++t) {
    const double v = work_[uz(t)];
    if (v == 0.0) continue;
    if (std::abs(v) <= kDropTol) {
      work_[uz(t)] = 0.0;
      continue;
    }
    spike_[uz(t)] = v;
    spike_steps_.push_back(t);
  }
  has_spike_ = true;
  upper_solve(x);
}

void BasisLu::btran(std::vector<double>& x) const {
  // y = P^T L^{-T} R_1^T ... R_k^T U^{-T} Q^T c.
  std::vector<double>& work = work_;
  for (int t = 0; t < m_; ++t) work[uz(t)] = x[uz(slot_of_step_[uz(t)])];
  // U^{-T}: forward over the step order, scattering along U's rows.
  for (const int t : order_) {
    if (t < 0) continue;
    const double y = work[uz(t)];
    if (y == 0.0) continue;
    double z = y / diag_[uz(t)];
    if (std::abs(z) <= kDropTol) z = 0.0;
    work[uz(t)] = z;
    if (z == 0.0) continue;
    for (int e = row_begin_[uz(t)]; e < row_begin_[uz(t)] + row_len_[uz(t)];
         ++e) {
      work[uz(row_col_[uz(e)])] -= row_val_[uz(e)] * z;
    }
  }
  // R_e^T = I - r e_p^T, newest first.
  for (int k = static_cast<int>(r_step_.size()) - 1; k >= 0; --k) {
    const double z = work[uz(r_step_[uz(k)])];
    if (z == 0.0) continue;
    for (int e = r_ptr_[uz(k)]; e < r_ptr_[uz(k) + 1]; ++e) {
      work[uz(r_col_[uz(e)])] -= r_val_[uz(e)] * z;
    }
  }
  // L^{-T}: backward; L column t's entries live at later steps.
  for (auto it = l_cols_.rbegin(); it != l_cols_.rend(); ++it) {
    const int t = *it;
    double acc = work[uz(t)];
    for (int e = l_ptr_[uz(t)]; e < l_ptr_[uz(t) + 1]; ++e) {
      acc -= l_val_[uz(e)] * work[uz(l_step_[uz(e)])];
    }
    work[uz(t)] = acc;
  }
  for (int t = 0; t < m_; ++t) {
    const double v = work[uz(t)];
    x[uz(pivot_row_[uz(t)])] = std::abs(v) <= kDropTol ? 0.0 : v;
    work[uz(t)] = 0.0;
  }
}

void BasisLu::add_to_row(int t, int col, double v) {
  if (row_len_[uz(t)] == row_cap_[uz(t)]) {
    // Full: move the row to the end of the row arrays with room to grow.
    const int begin = static_cast<int>(row_col_.size());
    const int cap = 2 * row_len_[uz(t)] + 4;
    row_col_.resize(uz(begin + cap));
    row_val_.resize(uz(begin + cap));
    std::copy_n(row_col_.begin() + row_begin_[uz(t)], row_len_[uz(t)],
                row_col_.begin() + begin);
    std::copy_n(row_val_.begin() + row_begin_[uz(t)], row_len_[uz(t)],
                row_val_.begin() + begin);
    row_begin_[uz(t)] = begin;
    row_cap_[uz(t)] = cap;
  }
  const int at = row_begin_[uz(t)] + row_len_[uz(t)]++;
  row_col_[uz(at)] = col;
  row_val_[uz(at)] = v;
}

void BasisLu::remove_from_row(int t, int col) {
  const int begin = row_begin_[uz(t)];
  const int end = begin + row_len_[uz(t)];
  for (int e = begin; e < end; ++e) {
    if (row_col_[uz(e)] != col) continue;
    row_col_[uz(e)] = row_col_[uz(end - 1)];
    row_val_[uz(e)] = row_val_[uz(end - 1)];
    --row_len_[uz(t)];
    return;
  }
}

void BasisLu::remove_from_column(int t, int row) {
  const int begin = col_begin_[uz(t)];
  const int end = begin + col_len_[uz(t)];
  for (int e = begin; e < end; ++e) {
    if (col_step_[uz(e)] != row) continue;
    col_step_[uz(e)] = col_step_[uz(end - 1)];
    col_val_[uz(e)] = col_val_[uz(end - 1)];
    --col_len_[uz(t)];
    return;
  }
}

bool BasisLu::update(int slot, double alpha) {
  if (!has_spike_) return false;
  const int p = step_of_slot_[uz(slot)];

  // Row p of U moves to the end of the order; eliminate its entries, which
  // now sit left of the diagonal, with the rows of their columns in order
  // (a min-heap on position; fill only lands at later positions).  The
  // spike is column p from here on, so each elimination also subtracts
  // r_c · spike[c] from the new diagonal.
  std::vector<double>& row = work_;
  heap_.clear();
  const auto min_heap = std::greater<>();
  for (int e = row_begin_[uz(p)]; e < row_begin_[uz(p)] + row_len_[uz(p)];
       ++e) {
    const int c = row_col_[uz(e)];
    row[uz(c)] = row_val_[uz(e)];
    heap_.emplace_back(position_[uz(c)], c);
  }
  std::make_heap(heap_.begin(), heap_.end(), min_heap);
  double diag = spike_[uz(p)];
  const std::size_t eta_begin = r_col_.size();
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), min_heap);
    const int c = heap_.back().second;
    heap_.pop_back();
    const double v = row[uz(c)];
    row[uz(c)] = 0.0;
    if (std::abs(v) <= kDropTol) continue;
    const double r = v / diag_[uz(c)];
    if (std::abs(r) <= kDropTol) continue;
    r_col_.push_back(c);
    r_val_.push_back(r);
    diag -= r * spike_[uz(c)];
    for (int e = row_begin_[uz(c)]; e < row_begin_[uz(c)] + row_len_[uz(c)];
         ++e) {
      const int k = row_col_[uz(e)];
      if (row[uz(k)] == 0.0) {
        heap_.emplace_back(position_[uz(k)], k);
        std::push_heap(heap_.begin(), heap_.end(), min_heap);
      }
      row[uz(k)] -= r * row_val_[uz(e)];
    }
  }

  // det B' = alpha · det B, so the new diagonal must equal alpha times the
  // old one; a disagreement means the spike or the row eta lost accuracy.
  const double expected = alpha * diag_[uz(p)];
  if (std::abs(diag) <= kSingularTol ||
      std::abs(diag - expected) >
          kUpdateTol * std::max(std::abs(diag), std::abs(expected))) {
    r_col_.resize(eta_begin);
    r_val_.resize(eta_begin);
    return false;
  }

  // Drop U's old column p and row p from the other steps' rows/columns.
  for (int e = col_begin_[uz(p)]; e < col_begin_[uz(p)] + col_len_[uz(p)];
       ++e) {
    remove_from_row(col_step_[uz(e)], p);
  }
  for (int e = row_begin_[uz(p)]; e < row_begin_[uz(p)] + row_len_[uz(p)];
       ++e) {
    remove_from_column(row_col_[uz(e)], p);
  }
  row_len_[uz(p)] = 0;

  // The spike becomes column p.
  col_begin_[uz(p)] = static_cast<int>(col_step_.size());
  for (const int t : spike_steps_) {
    const double v = spike_[uz(t)];
    spike_[uz(t)] = 0.0;
    if (t == p) continue;
    col_step_.push_back(t);
    col_val_.push_back(v);
    add_to_row(t, p, v);
  }
  col_len_[uz(p)] = static_cast<int>(col_step_.size()) - col_begin_[uz(p)];
  spike_steps_.clear();
  has_spike_ = false;
  diag_[uz(p)] = diag;

  if (r_col_.size() > eta_begin) {
    r_step_.push_back(p);
    r_ptr_.push_back(static_cast<int>(r_col_.size()));
  }
  order_[uz(position_[uz(p)])] = -1;
  position_[uz(p)] = static_cast<int>(order_.size());
  order_.push_back(p);
  ++updates_;
  update_nonzeros_ +=
      col_len_[uz(p)] + static_cast<int>(r_col_.size() - eta_begin);
  return true;
}

}  // namespace omn::lp
