// Unit tests for lp::BasisLu, the revised simplex's basis factorization:
//
//  - ftran/btran residuals on random sparse nonsingular bases (slack-heavy,
//    permuted triangular, small dense, overlay-shaped), straight after
//    factorize() and through 64 Forrest–Tomlin updates replacing basis
//    columns;
//  - update() rejecting a near-singular replacement and a pivot that
//    disagrees with the factors, leaving the factors usable;
//  - nonzeros() growing across updates by no more than the spikes and row
//    etas the updates stored;
//  - factorize() rejecting singular bases (a zero column, a duplicated
//    column) and recovering on the next good one;
//  - the fill bound that the sparsity ordering buys on an overlay-shaped
//    basis (all slacks plus two-nonzero link columns), and the
//    `lp.lu_nonzeros` counter that reports it.
#include "omn/lp/basis_lu.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "omn/util/rng.hpp"
#include "omn/util/trace.hpp"

namespace {

using omn::lp::BasisLu;
using omn::lp::CscMatrix;
using omn::util::Rng;

using Column = std::vector<std::pair<int, double>>;
using Columns = std::vector<Column>;

constexpr double kResidualTol = 1e-9;

std::size_t uz(int v) { return static_cast<std::size_t>(v); }

CscMatrix to_csc(const Columns& columns) {
  CscMatrix csc;
  for (const Column& column : columns) {
    for (const auto& [row, value] : column) csc.add(row, value);
    csc.end_column();
  }
  return csc;
}

int nonzeros(const Columns& columns) {
  int total = 0;
  for (const Column& column : columns) total += static_cast<int>(column.size());
  return total;
}

std::vector<int> permutation(int m, Rng& rng) {
  std::vector<int> p(uz(m));
  std::iota(p.begin(), p.end(), 0);
  for (int i = m - 1; i > 0; --i) {
    const auto j = static_cast<int>(rng.uniform_index(uz(i) + 1));
    std::swap(p[uz(i)], p[uz(j)]);
  }
  return p;
}

/// A column that is strictly diagonally dominant at `own` (so any basis of
/// such columns with distinct own rows is nonsingular), with `extra`
/// off-diagonal entries at other random rows.
Column dominant_column(int m, int own, int extra, Rng& rng) {
  Column column;
  double off = 0.0;
  std::vector<int> used{own};
  for (int e = 0; e < extra; ++e) {
    const auto row = static_cast<int>(rng.uniform_index(uz(m)));
    if (std::find(used.begin(), used.end(), row) != used.end()) continue;
    used.push_back(row);
    const double v = rng.uniform(-1.0, 1.0);
    off += std::abs(v);
    column.emplace_back(row, v);
  }
  const double sign = rng.bernoulli(0.5) ? 1.0 : -1.0;
  const double diag = (1.0 + off + rng.uniform()) * sign;
  column.emplace_back(own, diag);
  return column;
}

/// Mostly slack (unit) columns, every fourth slot a structural column with
/// 2–4 nonzeros; slots in random order relative to rows.
Columns slack_heavy(int m, Rng& rng) {
  const std::vector<int> own = permutation(m, rng);
  Columns columns(uz(m));
  for (int r = 0; r < m; ++r) {
    if (rng.uniform_index(4) == 0) {
      columns[uz(r)] = dominant_column(
          m, own[uz(r)], 1 + static_cast<int>(rng.uniform_index(3)), rng);
    } else {
      columns[uz(r)] = {{own[uz(r)], 1.0}};
    }
  }
  return columns;
}

/// P · T · Q for an upper-triangular T with a 0.3-dense upper part and
/// diagonal magnitudes in [1, 2].
Columns permuted_triangular(int m, Rng& rng) {
  const std::vector<int> row_of = permutation(m, rng);
  const std::vector<int> slot_of = permutation(m, rng);
  Columns columns(uz(m));
  for (int c = 0; c < m; ++c) {
    Column& column = columns[uz(slot_of[uz(c)])];
    for (int r = 0; r < c; ++r) {
      if (rng.bernoulli(0.3)) {
        column.emplace_back(row_of[uz(r)], rng.uniform(-1.0, 1.0));
      }
    }
    column.emplace_back(row_of[uz(c)], rng.uniform(1.0, 2.0) *
                                           (rng.bernoulli(0.5) ? 1.0 : -1.0));
  }
  return columns;
}

/// A fully dense matrix: uniform [-1, 1] entries plus 2.5 on a permuted
/// diagonal, which keeps it well conditioned without making its columns
/// diagonally dominant.
Columns small_dense(int m, Rng& rng) {
  const std::vector<int> diag = permutation(m, rng);
  Columns columns(uz(m));
  for (int r = 0; r < m; ++r) {
    for (int i = 0; i < m; ++i) {
      const double v =
          rng.uniform(-1.0, 1.0) + (i == diag[uz(r)] ? 2.5 : 0.0);
      columns[uz(r)].emplace_back(i, v);
    }
  }
  return columns;
}

/// Max |B x - b| for ftran's output x (slot space) against b (row space).
double ftran_residual(const Columns& basis, const std::vector<double>& b,
                      const std::vector<double>& x) {
  std::vector<double> bx(b.size(), 0.0);
  for (std::size_t r = 0; r < basis.size(); ++r) {
    for (const auto& [row, value] : basis[r]) bx[uz(row)] += value * x[r];
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    worst = std::max(worst, std::abs(bx[i] - b[i]));
  }
  return worst;
}

/// Max |Bᵀ y - c| for btran's output y (row space) against c (slot space).
double btran_residual(const Columns& basis, const std::vector<double>& c,
                      const std::vector<double>& y) {
  double worst = 0.0;
  for (std::size_t r = 0; r < basis.size(); ++r) {
    double acc = 0.0;
    for (const auto& [row, value] : basis[r]) acc += value * y[uz(row)];
    worst = std::max(worst, std::abs(acc - c[r]));
  }
  return worst;
}

void expect_solves(const BasisLu& lu, const Columns& basis, Rng& rng) {
  const int m = static_cast<int>(basis.size());
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<double> b(uz(m));
    for (double& v : b) v = rng.bernoulli(0.3) ? rng.uniform(-1.0, 1.0) : 0.0;
    std::vector<double> x = b;
    lu.ftran(x);
    EXPECT_LE(ftran_residual(basis, b, x), kResidualTol);

    std::vector<double> c(uz(m));
    for (double& v : c) v = rng.bernoulli(0.3) ? rng.uniform(-1.0, 1.0) : 0.0;
    std::vector<double> y = c;
    lu.btran(y);
    EXPECT_LE(btran_residual(basis, c, y), kResidualTol);
  }
}

/// A row per slot, all distinct, each an entry of the slot's column: a
/// perfect matching by augmenting paths (Kuhn), each slot trying its
/// entries largest first.  Replacing a column by one dominant on its
/// slot's row keeps the basis nonsingular and well conditioned.
std::vector<int> anchor_rows(const Columns& basis) {
  const std::size_t m = basis.size();
  Columns largest_first = basis;
  for (Column& column : largest_first) {
    std::sort(column.begin(), column.end(), [](const auto& a, const auto& b) {
      return std::abs(a.second) > std::abs(b.second);
    });
  }
  std::vector<int> slot_of_row(m, -1);
  std::vector<bool> seen;
  const auto augment = [&](const auto& self, int slot) -> bool {
    for (const auto& entry : largest_first[uz(slot)]) {
      const int row = entry.first;
      if (seen[uz(row)]) continue;
      seen[uz(row)] = true;
      if (slot_of_row[uz(row)] < 0 || self(self, slot_of_row[uz(row)])) {
        slot_of_row[uz(row)] = slot;
        return true;
      }
    }
    return false;
  };
  for (std::size_t slot = 0; slot < m; ++slot) {
    seen.assign(m, false);
    augment(augment, static_cast<int>(slot));
  }
  std::vector<int> rows(m, -1);
  for (std::size_t row = 0; row < m; ++row) {
    rows[uz(slot_of_row[row])] = static_cast<int>(row);
  }
  return rows;
}

/// ftran_entering() of `column` (row space) into slot space.
std::vector<double> entering_image(BasisLu& lu, const Column& column, int m) {
  std::vector<double> w(uz(m), 0.0);
  for (const auto& [row, value] : column) w[uz(row)] = value;
  lu.ftran_entering(w);
  return w;
}

/// Replaces `count` random basis columns through Forrest–Tomlin updates,
/// mirroring each replacement in `basis`, and checks the solves after
/// every eighth.  After each update nonzeros() may exceed its value at
/// factorize() by no more than what the updates stored.
void run_updates(BasisLu& lu, Columns& basis, int count, Rng& rng) {
  const int m = static_cast<int>(basis.size());
  const std::vector<int> anchor = anchor_rows(basis);
  const int factorized = lu.nonzeros();
  for (int done = 1; done <= count; ++done) {
    const auto slot = static_cast<int>(rng.uniform_index(uz(m)));
    Column entering = dominant_column(m, anchor[uz(slot)], 2, rng);
    const std::vector<double> w = entering_image(lu, entering, m);
    ASSERT_TRUE(lu.update(slot, w[uz(slot)]));
    basis[uz(slot)] = std::move(entering);
    EXPECT_LE(lu.nonzeros(), factorized + lu.update_nonzeros());
    if (done % 8 == 0) expect_solves(lu, basis, rng);
  }
  EXPECT_EQ(lu.updates(), count);
}

/// An overlay-LP-shaped basis: m slack rows, of which every third slot
/// holds a link column instead (+1 on its own row, −w on another row, as
/// in the x ≤ y and y ≤ z rows), in random slot order.
Columns overlay_basis(int m, Rng& rng) {
  const std::vector<int> own = permutation(m, rng);
  Columns columns(uz(m));
  for (int r = 0; r < m; ++r) {
    if (r % 3 == 0) {
      auto other = static_cast<int>(rng.uniform_index(uz(m) - 1));
      if (other >= own[uz(r)]) ++other;
      columns[uz(r)] = {{other, -rng.uniform(0.5, 2.0)}, {own[uz(r)], 1.0}};
    } else {
      columns[uz(r)] = {{own[uz(r)], 1.0}};
    }
  }
  return columns;
}

TEST(BasisLu, SolvesRandomSparseBasesThroughForrestTomlinUpdates) {
  struct Family {
    const char* name;
    Columns (*make)(int, Rng&);
    int m;
  };
  const Family families[] = {{"slack-heavy", slack_heavy, 120},
                             {"permuted-triangular", permuted_triangular, 50},
                             {"small-dense", small_dense, 8},
                             {"overlay-shaped", overlay_basis, 120}};
  for (const Family& family : families) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      SCOPED_TRACE(std::string(family.name) + " seed " + std::to_string(seed));
      Rng rng(seed);
      Columns basis = family.make(family.m, rng);
      BasisLu lu;
      ASSERT_TRUE(lu.factorize(to_csc(basis)));
      EXPECT_EQ(lu.dimension(), family.m);
      EXPECT_EQ(lu.updates(), 0);
      EXPECT_EQ(lu.update_nonzeros(), 0);
      expect_solves(lu, basis, rng);
      run_updates(lu, basis, 64, rng);
    }
  }
}

TEST(BasisLu, RejectsANearSingularReplacementAndStaysUsable) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const int m = 60;
    Columns basis = slack_heavy(m, rng);
    BasisLu lu;
    ASSERT_TRUE(lu.factorize(to_csc(basis)));
    run_updates(lu, basis, 8, rng);
    const int nonzeros = lu.nonzeros();

    // Slot 0's replacement: slot 1's column plus 1e-13 on one row, so the
    // new basis is singular to working precision.
    Column entering = basis[1];
    entering.front().second += 1e-13;
    std::vector<double> w = entering_image(lu, entering, m);
    EXPECT_LE(std::abs(w[0]), 1e-11);
    EXPECT_FALSE(lu.update(0, w[0]));
    EXPECT_EQ(lu.updates(), 8);
    EXPECT_EQ(lu.nonzeros(), nonzeros);
    expect_solves(lu, basis, rng);

    // A sound replacement whose pivot the caller misstates: the new U
    // diagonal disagrees with alpha · the old one.
    entering = dominant_column(m, anchor_rows(basis)[2], 2, rng);
    w = entering_image(lu, entering, m);
    EXPECT_FALSE(lu.update(2, 2.0 * w[2]));
    expect_solves(lu, basis, rng);

    // Stated correctly, the same replacement goes through; an update
    // without a fresh spike does not.
    w = entering_image(lu, entering, m);
    ASSERT_TRUE(lu.update(2, w[2]));
    basis[2] = entering;
    EXPECT_FALSE(lu.update(3, 1.0));
    expect_solves(lu, basis, rng);
  }
}

TEST(BasisLu, RejectsAZeroColumnAndRecovers) {
  Rng rng(7);
  Columns basis = slack_heavy(40, rng);
  const Column kept = basis[5];
  basis[5].clear();
  BasisLu lu;
  EXPECT_FALSE(lu.factorize(to_csc(basis)));
  EXPECT_EQ(lu.factorizations(), 0);

  // The failed attempt must leave no residue in the solver's workspace.
  basis[5] = kept;
  ASSERT_TRUE(lu.factorize(to_csc(basis)));
  EXPECT_EQ(lu.factorizations(), 1);
  expect_solves(lu, basis, rng);
}

TEST(BasisLu, RejectsADuplicatedColumn) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    Columns basis = permuted_triangular(30, rng);
    // Duplicate the densest column into another slot.
    std::size_t densest = 0;
    for (std::size_t r = 0; r < basis.size(); ++r) {
      if (basis[r].size() > basis[densest].size()) densest = r;
    }
    basis[(densest + 1) % basis.size()] = basis[densest];
    BasisLu lu;
    EXPECT_FALSE(lu.factorize(to_csc(basis))) << "seed " << seed;
  }
}

TEST(BasisLu, OverlayShapedBasisFactorsWithLittleFill) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const int m = 600;
    const Columns basis = overlay_basis(m, rng);
    const std::uint64_t counted_before =
        omn::util::counter_value("lp.lu_nonzeros");
    BasisLu lu;
    ASSERT_TRUE(lu.factorize(to_csc(basis)));
    // The basis has 800 nonzeros.  Singletons first and Markowitz-style
    // pivots add about 10 fill entries; eliminating in slot order on the
    // largest entry adds about 100.
    EXPECT_LE(lu.nonzeros(), nonzeros(basis) + m / 20);
    EXPECT_EQ(omn::util::counter_value("lp.lu_nonzeros") - counted_before,
              static_cast<std::uint64_t>(lu.nonzeros()));
    expect_solves(lu, basis, rng);
  }
}

}  // namespace
