// Tests for the substrate solvers: stack eigenvalues against closed forms,
// solution properties of G (§2.4), eigenfunction-vs-FD cross validation, and
// the preconditioner behaviour behind Table 2.1.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#if defined(__linux__) && defined(__GLIBC__)
#include <sys/resource.h>
#endif

#include "geometry/layout_gen.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/robust.hpp"
#include "linalg/sparse.hpp"
#include "substrate/eigen_solver.hpp"
#include "substrate/fd_solver.hpp"
#include "substrate/multigrid.hpp"
#include "transform/poisson.hpp"
#include "substrate/solver.hpp"
#include "substrate/stack.hpp"
#include "support/function_preconditioner.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace subspar {
namespace {

// ---------------------------------------------------------------- stack

TEST(Stack, SingleLayerGroundedMatchesTanh) {
  const double sigma = 2.5, d = 7.0;
  const SubstrateStack st({{d, sigma}}, Backplane::kGrounded);
  for (const double gamma : {0.01, 0.1, 1.0, 10.0}) {
    EXPECT_NEAR(st.lambda(gamma), std::tanh(gamma * d) / (sigma * gamma),
                1e-12 * st.lambda(gamma));
  }
  EXPECT_NEAR(st.lambda_dc(), d / sigma, 1e-12);
}

TEST(Stack, SingleLayerFloatingMatchesCoth) {
  const double sigma = 1.0, d = 4.0;
  const SubstrateStack st({{d, sigma}}, Backplane::kFloating);
  for (const double gamma : {0.05, 0.5, 5.0}) {
    EXPECT_NEAR(st.lambda(gamma), 1.0 / (sigma * gamma * std::tanh(gamma * d)),
                1e-12 * st.lambda(gamma));
  }
  EXPECT_TRUE(std::isinf(st.lambda_dc()));
}

TEST(Stack, TwoEqualLayersEqualSingleLayer) {
  const SubstrateStack one({{10.0, 3.0}}, Backplane::kGrounded);
  const SubstrateStack two({{4.0, 3.0}, {6.0, 3.0}}, Backplane::kGrounded);
  for (const double gamma : {0.02, 0.3, 2.0, 20.0})
    EXPECT_NEAR(one.lambda(gamma), two.lambda(gamma), 1e-12 * one.lambda(gamma));
}

TEST(Stack, LargeGammaIsStableAndTopLayerDominated) {
  const SubstrateStack st = paper_stack();
  // For gamma * t_top >> 1 the mode cannot see below the top layer:
  // lambda -> 1/(sigma_top gamma).
  const double gamma = 1e4;
  const double lam = st.lambda(gamma);
  EXPECT_TRUE(std::isfinite(lam));
  EXPECT_NEAR(lam, 1.0 / gamma, 1e-3 / gamma);
}

TEST(Stack, LambdaMonotoneDecreasingInGamma) {
  const SubstrateStack st = paper_stack();
  double prev = st.lambda(1e-3);
  for (double gamma = 1e-2; gamma < 1e3; gamma *= 2.0) {
    const double cur = st.lambda(gamma);
    EXPECT_LT(cur, prev);
    prev = cur;
  }
}

TEST(Stack, ConductivityProfileLookup) {
  const SubstrateStack st = paper_stack(40.0, 0.5, 1.0);
  EXPECT_DOUBLE_EQ(st.conductivity_at_depth(0.2), 1.0);
  EXPECT_DOUBLE_EQ(st.conductivity_at_depth(5.0), 100.0);
  EXPECT_DOUBLE_EQ(st.conductivity_at_depth(39.7), 0.1);
  EXPECT_DOUBLE_EQ(st.depth(), 40.0);
}

TEST(Stack, DcResistanceSeriesSum) {
  const SubstrateStack st = paper_stack(40.0, 0.5, 1.0);
  EXPECT_NEAR(st.lambda_dc(), 0.5 / 1.0 + 38.5 / 100.0 + 1.0 / 0.1, 1e-12);
}

// ------------------------------------------------------- eigenfunction solver

SubstrateStack shallow_stack() {
  // Shallow two-layer stack for fast tests.
  return SubstrateStack({{1.0, 1.0}, {7.0, 50.0}}, Backplane::kGrounded);
}

TEST(SurfaceSolver, PanelOperatorIsSymmetricPositive) {
  const Layout l = regular_grid_layout(4);
  const SurfaceSolver solver(l, shallow_stack());
  Rng rng(1);
  Vector q1(l.panels_x() * l.panels_y()), q2(q1.size());
  for (auto& v : q1) v = rng.normal();
  for (auto& v : q2) v = rng.normal();
  const Vector v1 = solver.apply_panel_operator(q1);
  const Vector v2 = solver.apply_panel_operator(q2);
  EXPECT_NEAR(dot(v1, q2), dot(v2, q1), 1e-9 * norm2(v1) * norm2(q2));
  EXPECT_GT(dot(v1, q1), 0.0);
}

TEST(SurfaceSolver, UniformCurrentSeesDcImpedance) {
  const Layout l = regular_grid_layout(4);
  const SubstrateStack st = shallow_stack();
  const SurfaceSolver solver(l, st);
  const std::size_t p = l.panels_x() * l.panels_y();
  const double total_current = 3.0;
  Vector q(p, total_current / static_cast<double>(p));
  const Vector v = solver.apply_panel_operator(q);
  const double expected = st.lambda_dc() * total_current / (l.width() * l.height());
  for (std::size_t i = 0; i < p; ++i) ASSERT_NEAR(v[i], expected, 1e-9 * expected);
}

TEST(SurfaceSolver, FullCoverContactMatchesSeriesResistance) {
  // One contact covering the whole surface: G = area / lambda_dc exactly.
  Layout l(8, 8, 2.0);
  l.add_contact(Contact(0, 0, 8, 8));
  const SubstrateStack st({{10.0, 2.0}}, Backplane::kGrounded);
  const SurfaceSolver solver(l, st);
  const Vector i = solver.solve(Vector{1.0});
  const double expected = l.width() * l.height() / st.lambda_dc();
  EXPECT_NEAR(i[0], expected, 1e-5 * expected);
}

TEST(SurfaceSolver, ConductanceMatrixSymmetric) {
  const Layout l = regular_grid_layout(4);
  const SurfaceSolver solver(l, shallow_stack());
  const Matrix g = extract_dense(solver);
  EXPECT_LT((g - g.transposed()).max_abs(), 1e-5 * g.max_abs());
}

TEST(SurfaceSolver, DiagonallyDominantWithNegativeCouplings) {
  const Layout l = regular_grid_layout(4);
  const SurfaceSolver solver(l, shallow_stack());
  const Matrix g = extract_dense(solver);
  for (std::size_t i = 0; i < g.rows(); ++i) {
    EXPECT_GT(g(i, i), 0.0);
    double off = 0.0;
    for (std::size_t j = 0; j < g.cols(); ++j) {
      if (j == i) continue;
      EXPECT_LT(g(i, j), 0.0) << i << "," << j;
      off += std::abs(g(i, j));
    }
    EXPECT_GE(g(i, i), off);  // strict with a backplane (§2.4)
  }
}

TEST(SurfaceSolver, CouplingDecaysWithDistance) {
  const Layout l = regular_grid_layout(8);
  const SurfaceSolver solver(l, paper_stack(40.0, 0.5, 1.0));
  Vector e(l.n_contacts());
  e[0] = 1.0;  // corner contact
  const Vector i = solver.solve(e);
  // Neighbor in x (contact 1) couples more strongly than a far contact.
  EXPECT_GT(std::abs(i[1]), std::abs(i[7]));
  EXPECT_GT(std::abs(i[7]), 0.0);
}

TEST(SurfaceSolver, PreconditionerDoesNotChangeAnswer) {
  const Layout l = regular_grid_layout(4);
  const SurfaceSolver with(l, shallow_stack(), {.contact_block_precond = true});
  const SurfaceSolver without(l, shallow_stack(), {.contact_block_precond = false});
  Rng rng(5);
  Vector v(l.n_contacts());
  for (auto& x : v) x = rng.normal();
  const Vector i1 = with.solve(v);
  const Vector i2 = without.solve(v);
  EXPECT_LT(norm2(i1 - i2), 1e-4 * norm2(i1));
  // And it should not be slower in iterations.
  EXPECT_LE(with.avg_iterations(), without.avg_iterations() + 1.0);
}

TEST(SurfaceSolver, SolveCountTracksCalls) {
  const Layout l = regular_grid_layout(4);
  const SurfaceSolver solver(l, shallow_stack());
  EXPECT_EQ(solver.solve_count(), 0);
  solver.solve(Vector(l.n_contacts(), 1.0));
  solver.solve(Vector(l.n_contacts(), 0.5));
  EXPECT_EQ(solver.solve_count(), 2);
  solver.reset_solve_count();
  EXPECT_EQ(solver.solve_count(), 0);
}

TEST(SampleColumns, CoversRequestedFraction) {
  const auto cols = sample_columns(100, 0.10);
  EXPECT_EQ(cols.size(), 10u);
  EXPECT_EQ(cols.front(), 0u);
  EXPECT_EQ(cols.back(), 90u);
  const auto all = sample_columns(7, 1.0);
  EXPECT_EQ(all.size(), 7u);
}

TEST(SampleColumns, RejectsEdgeArguments) {
  EXPECT_THROW(sample_columns(0, 0.5), std::invalid_argument);   // n == 0
  EXPECT_THROW(sample_columns(10, 0.0), std::invalid_argument);  // fraction <= 0
  EXPECT_THROW(sample_columns(10, -0.25), std::invalid_argument);
  EXPECT_THROW(sample_columns(10, 1.5), std::invalid_argument);  // fraction > 1
}

TEST(SampleColumns, TinyFractionsClampToSingleColumn) {
  // 1/fraction far beyond size_t range used to be an undefined cast; now it
  // clamps to stride n and still samples column 0.
  for (const double fraction : {1e-9, 1e-300}) {
    const auto cols = sample_columns(10, fraction);
    ASSERT_EQ(cols.size(), 1u);
    EXPECT_EQ(cols[0], 0u);
  }
  EXPECT_EQ(sample_columns(1, 1.0).size(), 1u);
}

TEST(SurfaceSolver, RejectsFloatingBackplane) {
  const Layout l = regular_grid_layout(4);
  const SubstrateStack st({{8.0, 1.0}}, Backplane::kFloating);
  EXPECT_THROW(SurfaceSolver(l, st), std::invalid_argument);
}

// ---------------------------------------------------------------- FD solver

SubstrateStack fd_stack(Backplane bp) {
  // Layer boundary at depth 4 = plane gap for h = 2, nz = 4, depth 8.
  return SubstrateStack({{4.0, 1.0}, {4.0, 10.0}}, bp);
}

TEST(FdSolver, ConductanceMatrixSymmetric) {
  const Layout l = regular_grid_layout(4);
  const FdSolver solver(l, fd_stack(Backplane::kGrounded), {.grid_h = 2.0});
  const Matrix g = extract_dense(solver);
  EXPECT_LT((g - g.transposed()).max_abs(), 1e-4 * g.max_abs());
}

TEST(FdSolver, FloatingBackplaneRowSumsVanish) {
  const Layout l = regular_grid_layout(4);
  const FdSolver solver(l, fd_stack(Backplane::kFloating), {.grid_h = 2.0});
  const Matrix g = extract_dense(solver);
  // No backplane: current out of one contact returns via the others
  // (tight diagonal dominance, rank-one deficiency; §2.4).
  for (std::size_t j = 0; j < g.cols(); ++j) {
    double colsum = 0.0;
    for (std::size_t i = 0; i < g.rows(); ++i) colsum += g(i, j);
    EXPECT_NEAR(colsum, 0.0, 1e-5 * g.max_abs());
  }
}

TEST(FdSolver, GroundedBackplaneLeaksCurrent) {
  const Layout l = regular_grid_layout(4);
  const FdSolver solver(l, fd_stack(Backplane::kGrounded), {.grid_h = 2.0});
  const Matrix g = extract_dense(solver);
  for (std::size_t j = 0; j < g.cols(); ++j) {
    double colsum = 0.0;
    for (std::size_t i = 0; i < g.rows(); ++i) colsum += g(i, j);
    EXPECT_GT(colsum, 0.0);  // strict dominance: some current exits below
  }
}

TEST(FdSolver, UniformSubstrateResistanceSanity) {
  // Single full-cover contact over a uniform grounded substrate: with the
  // h/2 ghost and backplane resistors, each node column is exactly a
  // resistor of length d, so G = sigma * A / d with no discretization error.
  Layout l(8, 8, 2.0);
  l.add_contact(Contact(0, 0, 8, 8));
  const SubstrateStack st({{8.0, 1.0}}, Backplane::kGrounded);
  const FdSolver solver(l, st, {.grid_h = 2.0, .rel_tol = 1e-10});
  const Vector i = solver.solve(Vector{1.0});
  const double expected = st.layers()[0].conductivity * l.width() * l.height() / st.depth();
  EXPECT_NEAR(i[0], expected, 1e-6 * expected);
}

TEST(FdSolver, PaperGhostPlacementAddsHalfSpacing) {
  // The paper's full-h ghost resistor ("first placement", eq. 2.15) makes
  // the same column a resistor of length d + h/2.
  Layout l(8, 8, 2.0);
  l.add_contact(Contact(0, 0, 8, 8));
  const SubstrateStack st({{8.0, 1.0}}, Backplane::kGrounded);
  const FdSolver solver(l, st, {.grid_h = 2.0, .rel_tol = 1e-10, .ghost_half_spacing = false});
  const Vector i = solver.solve(Vector{1.0});
  const double expected = l.width() * l.height() / (st.depth() + 0.5 * 2.0);
  EXPECT_NEAR(i[0], expected, 1e-6 * expected);
}

TEST(FdSolver, AgreesWithSurfaceSolverOnUniformStack) {
  // Cross-validation of the two independent solvers on the same physics.
  const Layout l = regular_grid_layout(4);
  const SubstrateStack st({{8.0, 1.0}}, Backplane::kGrounded);
  const SurfaceSolver ie(l, st);
  const FdSolver fd(l, st, {.grid_h = 1.0, .rel_tol = 1e-8});
  const Matrix gie = extract_dense(ie);
  const Matrix gfd = extract_dense(fd);
  // Different discretizations of the same operator: the FD solver converges
  // first-order from below (staircase + lumped stencil), so agreement at
  // this resolution is ~10% on the diagonal and ~25% on couplings.
  for (std::size_t i = 0; i < gie.rows(); ++i) {
    EXPECT_NEAR(gfd(i, i) / gie(i, i), 1.0, 0.15);
    for (std::size_t j = 0; j < gie.cols(); ++j) {
      if (i == j) continue;
      EXPECT_LT(gfd(i, j), 0.0);
      if (std::abs(gie(i, j)) > 1e-3 * gie.max_abs()) {
        EXPECT_NEAR(gfd(i, j) / gie(i, j), 1.0, 0.35) << i << "," << j;
      }
    }
  }
}

TEST(FdSolver, AllPreconditionersGiveSameSolution) {
  const Layout l = regular_grid_layout(4);
  const SubstrateStack st = fd_stack(Backplane::kGrounded);
  Rng rng(6);
  Vector v(l.n_contacts());
  for (auto& x : v) x = rng.normal();
  Vector ref;
  for (const auto kind :
       {FdPreconditioner::kNone, FdPreconditioner::kIncompleteCholesky,
        FdPreconditioner::kFastDirichlet, FdPreconditioner::kFastNeumann,
        FdPreconditioner::kFastAreaWeighted}) {
    const FdSolver solver(l, st, {.grid_h = 2.0, .precond = kind, .rel_tol = 1e-9});
    const Vector i = solver.solve(v);
    if (ref.empty()) {
      ref = i;
    } else {
      EXPECT_LT(norm2(i - ref), 1e-4 * norm2(ref)) << static_cast<int>(kind);
    }
  }
}

TEST(FdSolver, FastPreconditionerBeatsNoPreconditioner) {
  const Layout l = regular_grid_layout(4);
  const SubstrateStack st = fd_stack(Backplane::kGrounded);
  const FdSolver plain(l, st, {.grid_h = 2.0, .precond = FdPreconditioner::kNone});
  const FdSolver fast(l, st, {.grid_h = 2.0, .precond = FdPreconditioner::kFastAreaWeighted});
  Rng rng(7);
  Vector v(l.n_contacts());
  for (auto& x : v) x = rng.normal();
  plain.solve(v);
  fast.solve(v);
  EXPECT_LT(fast.avg_iterations(), plain.avg_iterations());
}

TEST(FdSolver, AreaWeightedNoWorseThanDirichlet) {
  // The Table 2.1 ordering: pure-Dirichlet is the weakest of the fast
  // preconditioners when contacts cover a minority of the surface.
  const Layout l = regular_grid_layout(4);
  const SubstrateStack st = fd_stack(Backplane::kGrounded);
  const FdSolver dirichlet(l, st, {.grid_h = 2.0, .precond = FdPreconditioner::kFastDirichlet});
  const FdSolver area(l, st, {.grid_h = 2.0, .precond = FdPreconditioner::kFastAreaWeighted});
  Rng rng(8);
  for (int t = 0; t < 3; ++t) {
    Vector v(l.n_contacts());
    for (auto& x : v) x = rng.normal();
    dirichlet.solve(v);
    area.solve(v);
  }
  EXPECT_LE(area.avg_iterations(), dirichlet.avg_iterations());
}

TEST(FdSolver, VolumeSolutionBoundedByContactVoltages) {
  // Discrete maximum principle: interior potentials lie within the imposed
  // contact voltage range (grounded case adds the 0 anchor).
  const Layout l = regular_grid_layout(4);
  const FdSolver solver(l, fd_stack(Backplane::kGrounded), {.grid_h = 2.0, .rel_tol = 1e-10});
  Vector v(l.n_contacts(), 1.0);
  const Vector x = solver.solve_volume(v);
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_GE(x[i], -1e-8);
    ASSERT_LE(x[i], 1.0 + 1e-8);
  }
}


TEST(FdSolver, WellReducesContactConductance) {
  // Etching a cavity between two contacts forces current to detour around
  // it: self-conductance drops and so does the coupling magnitude.
  const Layout l = regular_grid_layout(4);
  const SubstrateStack st = fd_stack(Backplane::kGrounded);
  const FdSolver plain(l, st, {.grid_h = 2.0});
  FdSolverOptions wopt{.grid_h = 2.0};
  wopt.wells.push_back({14.0, 0.0, 4.0, 32.0, 4.0});  // trench between contact columns
  const FdSolver welled(l, st, wopt);
  Vector e(l.n_contacts());
  e[0] = 1.0;  // contact on the west side of the trench
  const Vector ip = plain.solve(e);
  const Vector iw = welled.solve(e);
  // Couplings to the east-side contacts weaken; self stays comparable.
  EXPECT_LT(std::abs(iw[3]), std::abs(ip[3]));
  EXPECT_NEAR(iw[0] / ip[0], 1.0, 0.25);
}

TEST(FdSolver, WellRejectsSwallowingContacts) {
  const Layout l = regular_grid_layout(4);
  FdSolverOptions opt{.grid_h = 2.0};
  opt.wells.push_back({0.0, 0.0, 32.0, 32.0, 2.0});  // covers contact nodes
  EXPECT_THROW(FdSolver(l, fd_stack(Backplane::kGrounded), opt), std::invalid_argument);
}

TEST(FdSolver, WelledSubstrateStillSymmetricAndDominant) {
  const Layout l = regular_grid_layout(4);
  FdSolverOptions opt{.grid_h = 2.0};
  opt.wells.push_back({14.0, 4.0, 4.0, 24.0, 4.0});
  const FdSolver solver(l, fd_stack(Backplane::kGrounded), opt);
  const Matrix g = extract_dense(solver);
  EXPECT_LT((g - g.transposed()).max_abs(), 1e-4 * g.max_abs());
  for (std::size_t i = 0; i < g.rows(); ++i) EXPECT_GT(g(i, i), 0.0);
}

// The grid-of-resistors matrix through a triplet SparseBuilder, stamped as
// the FD solver did before its rows were written straight into CSR:
// neighbours in x-, x+, y-, y+, z-, z+ order, then the backplane and contact
// couplings, identity rows for removed nodes, exact zeros dropped on build.
SparseMatrix builder_grid_laplacian(const GridSpec& s) {
  auto gone = [&](std::size_t i) { return !s.removed.empty() && s.removed[i]; };
  std::vector<double> gz(s.nz - 1);
  for (std::size_t z = 0; z + 1 < s.nz; ++z)
    gz[z] = 2.0 * s.h * s.sigma[z] * s.sigma[z + 1] / (s.sigma[z] + s.sigma[z + 1]);
  SparseBuilder bld(s.size(), s.size());
  for (std::size_t z = 0; z < s.nz; ++z) {
    const double gl = s.sigma[z] * s.h;
    for (std::size_t y = 0; y < s.ny; ++y) {
      for (std::size_t x = 0; x < s.nx; ++x) {
        const std::size_t i = s.index(x, y, z);
        if (gone(i)) {
          bld.add(i, i, 1.0);
          continue;
        }
        double diag = 0.0;
        auto stamp = [&](std::size_t j, double g) {
          if (gone(j)) return;
          bld.add(i, j, -g);
          diag += g;
        };
        if (x > 0) stamp(s.index(x - 1, y, z), gl);
        if (x + 1 < s.nx) stamp(s.index(x + 1, y, z), gl);
        if (y > 0) stamp(s.index(x, y - 1, z), gl);
        if (y + 1 < s.ny) stamp(s.index(x, y + 1, z), gl);
        if (z > 0) stamp(s.index(x, y, z - 1), gz[z - 1]);
        if (z + 1 < s.nz) stamp(s.index(x, y, z + 1), gz[z]);
        if (z == 0 && s.g_bottom != 0.0) diag += s.g_bottom;
        if (z == s.nz - 1 && s.g_top[x + s.nx * y] != 0.0) diag += s.g_top[x + s.nx * y];
        bld.add(i, i, diag > 0.0 ? diag : 1.0);
      }
    }
  }
  return SparseMatrix(bld);
}

GridSpec fd_assembly_spec(double g_bottom) {
  GridSpec s;
  s.nx = 8;
  s.ny = 4;
  s.nz = 6;
  s.h = 2.0;
  s.sigma = {0.1, 100.0, 100.0, 37.5, 1.0, 1.0};
  s.g_top.assign(s.nx * s.ny, 0.0);
  for (std::size_t k = 0; k < s.g_top.size(); k += 3) s.g_top[k] = 4.0;
  s.g_bottom = g_bottom;
  return s;
}

void expect_same_csr(const SparseMatrix& got, const SparseMatrix& ref) {
  ASSERT_EQ(got.rows(), ref.rows());
  ASSERT_EQ(got.cols(), ref.cols());
  ASSERT_EQ(got.nnz(), ref.nnz());
  for (std::size_t i = 0; i < ref.rows(); ++i) {
    ASSERT_EQ(got.row_begin(i), ref.row_begin(i)) << "row " << i;
    ASSERT_EQ(got.row_end(i), ref.row_end(i)) << "row " << i;
  }
  for (std::size_t t = 0; t < ref.nnz(); ++t) {
    ASSERT_EQ(got.col_index(t), ref.col_index(t)) << "entry " << t;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.value(t)),
              std::bit_cast<std::uint64_t>(ref.value(t)))
        << "entry " << t;
  }
}

TEST(FdLaplacian, DirectCsrMatchesBuilderOnGroundedGrid) {
  const GridSpec s = fd_assembly_spec(/*g_bottom=*/0.2);
  expect_same_csr(assemble_grid_laplacian(s), builder_grid_laplacian(s));
}

TEST(FdLaplacian, DirectCsrMatchesBuilderOnFloatingGrid) {
  GridSpec s = fd_assembly_spec(/*g_bottom=*/0.0);
  s.sigma[2] = 0.0;  // an insulating plane: its exact-zero couplings are dropped
  const SparseMatrix ref = builder_grid_laplacian(s);
  EXPECT_LT(ref.nnz(), builder_grid_laplacian(fd_assembly_spec(0.0)).nnz());
  expect_same_csr(assemble_grid_laplacian(s), ref);
}

TEST(FdLaplacian, DirectCsrMatchesBuilderOnWelledGrid) {
  GridSpec s = fd_assembly_spec(/*g_bottom=*/0.2);
  s.removed.assign(s.size(), 0);
  for (std::size_t z = s.nz - 3; z < s.nz; ++z)
    for (std::size_t y = 1; y < 3; ++y)
      for (std::size_t x = 2; x < 5; ++x) s.removed[s.index(x, y, z)] = 1;
  expect_same_csr(assemble_grid_laplacian(s), builder_grid_laplacian(s));
}

// ---------------------------------------------------------------- multigrid

GridSpec small_mg_spec() {
  GridSpec spec;
  spec.nx = spec.ny = 16;
  spec.nz = 8;
  spec.h = 2.0;
  spec.sigma = {10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 1.0, 1.0};  // layered
  spec.g_top.assign(spec.nx * spec.ny, 0.0);
  for (std::size_t k = 0; k < spec.g_top.size(); k += 5) spec.g_top[k] = 4.0;
  spec.g_bottom = 2.0;
  return spec;
}

TEST(Multigrid, BuildsHierarchyAndCoarsens) {
  const GridMultigrid mg(small_mg_spec());
  EXPECT_GE(mg.levels(), 2u);
  EXPECT_EQ(mg.fine_matrix().rows(), 16u * 16u * 8u);
}

TEST(Multigrid, VcycleIsSymmetricOperator) {
  const GridMultigrid mg(small_mg_spec());
  Rng rng(21);
  Vector x(mg.fine_matrix().rows()), y(x.size());
  for (auto& v : x) v = rng.normal();
  for (auto& v : y) v = rng.normal();
  EXPECT_NEAR(dot(mg.vcycle(x), y), dot(x, mg.vcycle(y)), 1e-8 * norm2(x) * norm2(y));
}

TEST(Multigrid, CyclesContractResidual) {
  const GridMultigrid mg(small_mg_spec());
  Rng rng(22);
  Vector b(mg.fine_matrix().rows());
  for (auto& v : b) v = rng.normal();
  double prev = norm2(b);
  for (std::size_t c = 2; c <= 8; c += 2) {
    const Vector x = mg.solve(b, c);
    const double r = norm2(b - mg.fine_matrix().apply(x));
    EXPECT_LT(r, 0.6 * prev);  // at least ~0.5/cycle-pair contraction
    prev = r;
  }
}

TEST(Multigrid, PreconditionsFdSolver) {
  const Layout l = regular_grid_layout(4);
  const SubstrateStack st = fd_stack(Backplane::kGrounded);
  const FdSolver plain(l, st, {.grid_h = 2.0, .precond = FdPreconditioner::kNone});
  const FdSolver mg(l, st, {.grid_h = 2.0, .precond = FdPreconditioner::kMultigrid});
  Rng rng(23);
  Vector v(l.n_contacts());
  for (auto& x : v) x = rng.normal();
  const Vector ip = plain.solve(v);
  const Vector im = mg.solve(v);
  EXPECT_LT(norm2(im - ip), 1e-4 * norm2(ip));
  EXPECT_LT(mg.avg_iterations(), 0.5 * plain.avg_iterations());
}

TEST(Multigrid, VcycleManyBitIdenticalToSingleColumns) {
  // The batched V-cycle's engine contract: column j of vcycle_many equals
  // vcycle of that column alone, bit for bit.
  const GridMultigrid mg(small_mg_spec());
  Rng rng(25);
  Matrix b(mg.fine_matrix().rows(), 5);
  for (std::size_t i = 0; i < b.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) b(i, j) = rng.normal();
  const Matrix x = mg.vcycle_many(b);
  for (std::size_t j = 0; j < b.cols(); ++j) {
    const Vector xj = mg.vcycle(b.col(j));
    for (std::size_t i = 0; i < b.rows(); ++i) ASSERT_EQ(x(i, j), xj[i]) << "col " << j;
  }
}

TEST(Multigrid, VcycleManyBitIdenticalAcrossThreadCounts) {
  const GridMultigrid mg(small_mg_spec());
  Rng rng(26);
  Matrix b(mg.fine_matrix().rows(), 4);
  for (std::size_t i = 0; i < b.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) b(i, j) = rng.normal();
  set_thread_count(1);
  const Matrix x1 = mg.vcycle_many(b);
  set_thread_count(4);
  const Matrix x4 = mg.vcycle_many(b);
  set_thread_count(1);
  EXPECT_EQ((x1 - x4).max_abs(), 0.0);
}

TEST(Multigrid, MultigridPreconditionerWrapsVcycleMany) {
  // The Preconditioner output contract: every entry of the caller's
  // NaN-prefilled block is overwritten with vcycle_many's, each column
  // equals the single-vector apply, and 1 and 4 threads agree bit for bit.
  const GridMultigrid mg(small_mg_spec());
  const MultigridPreconditioner pre(mg);
  Rng rng(28);
  Matrix r(mg.fine_matrix().rows(), 3);
  for (std::size_t i = 0; i < r.rows(); ++i)
    for (std::size_t j = 0; j < r.cols(); ++j) r(i, j) = rng.normal();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Matrix z(r.rows(), r.cols(), nan), z4(r.rows(), r.cols(), nan);
  pre.apply_many(r, z);
  set_thread_count(4);
  pre.apply_many(r, z4);
  set_thread_count(1);
  const Matrix ref = mg.vcycle_many(r);
  for (std::size_t j = 0; j < r.cols(); ++j) {
    const Vector zj = pre.apply(r.col(j));
    for (std::size_t i = 0; i < r.rows(); ++i) {
      ASSERT_EQ(z(i, j), ref(i, j)) << i << "," << j;
      ASSERT_EQ(z(i, j), zj[i]) << i << "," << j;
      ASSERT_EQ(z4(i, j), zj[i]) << i << "," << j;
    }
  }
  Matrix wrong(r.rows() + 1, r.cols());
  EXPECT_THROW(pre.apply_many(r, wrong), std::invalid_argument);
}

TEST(FdSolver, ImpossibleIterationBudgetDegradesGracefully) {
  // An impossible iteration budget no longer kills the solve: the fallback
  // chain (restart, tighter IC(0) preconditioner, dense direct solve)
  // recovers the columns, records what it did in the solver diagnostics,
  // and the currents still match a healthy solver. Exhausting the whole
  // chain still throws (see the robust_pcg_block suite in test_fault).
  const Layout l = regular_grid_layout(4);
  const FdSolver s(l, fd_stack(Backplane::kGrounded),
                   {.grid_h = 2.0, .precond = FdPreconditioner::kNone, .max_iterations = 2});
  const FdSolver ref(l, fd_stack(Backplane::kGrounded),
                     {.grid_h = 2.0, .precond = FdPreconditioner::kNone});
  Vector v(l.n_contacts());
  v[0] = 1.0;
  const Vector i_fb = s.solve(v);
  const Vector i_ref = ref.solve(v);
  const SolverDiagnostics& d = s.diagnostics();
  EXPECT_GT(d.max_iteration_hits, 0);
  EXPECT_GT(d.restarts + d.direct_columns, 0);
  EXPECT_LT(norm_inf(i_fb - i_ref), 1e-6 * norm_inf(i_ref));
  Matrix vm(l.n_contacts(), 3);
  vm(0, 0) = vm(1, 1) = vm(2, 2) = 1.0;
  EXPECT_NO_THROW(s.solve_many(vm));
  s.reset_diagnostics();
  EXPECT_EQ(s.diagnostics().restarts, 0);
}

TEST(Multigrid, AssemblyMatchesFastPoissonStencil) {
  // With uniform coefficients and no anchors the grid Laplacian must agree
  // with the FastPoisson3D stencil applied to random vectors.
  GridSpec spec;
  spec.nx = spec.ny = 8;
  spec.nz = 4;
  spec.h = 1.0;
  spec.sigma.assign(4, 3.0);
  spec.g_top.assign(64, 0.0);
  const SparseMatrix a = assemble_grid_laplacian(spec);
  PoissonGrid pg;
  pg.nx = pg.ny = 8;
  pg.nz = 4;
  pg.lateral_g.assign(4, 3.0);
  pg.vertical_g.assign(3, 3.0);
  const FastPoisson3D fp(pg);
  Rng rng(24);
  Vector x(a.rows());
  for (auto& v : x) v = rng.normal();
  EXPECT_LT(norm2(a.apply(x) - fp.apply(x)), 1e-10 * norm2(x));
}

class SolverAgreement : public ::testing::TestWithParam<int> {};

TEST_P(SolverAgreement, ReciprocityHoldsForRandomPairs) {
  // G(i,j) == G(j,i) measured through single solves (reciprocity of the
  // resistive network), for both solvers.
  const Layout l = regular_grid_layout(4);
  Rng rng(100 + GetParam());
  const std::size_t i = rng.below(l.n_contacts());
  std::size_t j = rng.below(l.n_contacts());
  if (j == i) j = (j + 1) % l.n_contacts();
  const SurfaceSolver ie(l, shallow_stack());
  Vector ei(l.n_contacts()), ej(l.n_contacts());
  ei[i] = 1.0;
  ej[j] = 1.0;
  const double gij = ie.solve(ej)[i];
  const double gji = ie.solve(ei)[j];
  EXPECT_NEAR(gij, gji, 1e-5 * std::abs(gij));
}

INSTANTIATE_TEST_SUITE_P(Pairs, SolverAgreement, ::testing::Range(0, 6));

}  // namespace
}  // namespace subspar

namespace subspar {
namespace {

TEST(SurfaceSolver, SupportsRectangularPanelGrids) {
  // The eigenfunction solver handles a != b substrates (the quadtree-based
  // sparsifiers need square surfaces, the solver itself does not).
  Layout l(32, 16, 2.0);
  l.add_contact(Contact(2, 2, 2, 2));
  l.add_contact(Contact(20, 10, 2, 2));
  const SurfaceSolver solver(l, paper_stack(16.0));
  const Matrix g = extract_dense(solver);
  EXPECT_LT((g - g.transposed()).max_abs(), 1e-5 * g.max_abs());
  EXPECT_GT(g(0, 0), 0.0);
  EXPECT_LT(g(0, 1), 0.0);
}

TEST(SurfaceSolver, SuperpositionHolds) {
  // G is linear: solve(a*v1 + b*v2) == a*solve(v1) + b*solve(v2).
  const Layout l = regular_grid_layout(4);
  const SurfaceSolver solver(l, shallow_stack());
  Rng rng(77);
  Vector v1(l.n_contacts()), v2(l.n_contacts());
  for (auto& x : v1) x = rng.normal();
  for (auto& x : v2) x = rng.normal();
  Vector combo(l.n_contacts());
  for (std::size_t i = 0; i < combo.size(); ++i) combo[i] = 2.0 * v1[i] - 0.5 * v2[i];
  const Vector lhs = solver.solve(combo);
  const Vector rhs = 2.0 * solver.solve(v1) - 0.5 * solver.solve(v2);
  EXPECT_LT(norm2(lhs - rhs), 1e-4 * norm2(lhs));
}

// ------------------------------------------------------- batched solve_many

TEST(SolveMany, SurfaceSolverMatchesLoopedSolve) {
  const Layout l = regular_grid_layout(4);
  const SurfaceSolver solver(l, shallow_stack());
  Rng rng(90);
  Matrix v(l.n_contacts(), 5);
  for (std::size_t i = 0; i < v.rows(); ++i)
    for (std::size_t j = 0; j < v.cols(); ++j) v(i, j) = rng.normal();
  const Matrix batched = solver.solve_many(v);
  for (std::size_t j = 0; j < v.cols(); ++j) {
    const Vector one = solver.solve(v.col(j));
    // Both paths converge to the same per-column residual tolerance; the
    // block Krylov space differs from the single-vector one, so agreement
    // is to solver tolerance, not bit-exact.
    EXPECT_LT(norm2(batched.col(j) - one), 1e-4 * norm2(one)) << "column " << j;
  }
}

TEST(SolveMany, FdSolverMatchesLoopedSolve) {
  const Layout l = regular_grid_layout(4);
  const FdSolver solver(l, fd_stack(Backplane::kGrounded), {.grid_h = 2.0, .rel_tol = 1e-8});
  Rng rng(91);
  Matrix v(l.n_contacts(), 4);
  for (std::size_t i = 0; i < v.rows(); ++i)
    for (std::size_t j = 0; j < v.cols(); ++j) v(i, j) = rng.normal();
  const Matrix batched = solver.solve_many(v);
  for (std::size_t j = 0; j < v.cols(); ++j) {
    const Vector one = solver.solve(v.col(j));
    EXPECT_LT(norm2(batched.col(j) - one), 1e-4 * norm2(one)) << "column " << j;
  }
}

TEST(SolveMany, CountsKSolvesAndHandlesZeroColumns) {
  const Layout l = regular_grid_layout(4);
  const SurfaceSolver solver(l, shallow_stack());
  Matrix v(l.n_contacts(), 3);
  v(0, 0) = 1.0;  // column 1 stays all-zero
  v(3, 2) = -2.0;
  solver.reset_solve_count();
  const Matrix i = solver.solve_many(v);
  EXPECT_EQ(solver.solve_count(), 3);  // batching must not change the paper's accounting
  for (std::size_t c = 0; c < i.rows(); ++c) EXPECT_EQ(i(c, 1), 0.0);
  EXPECT_GT(i(0, 0), 0.0);
}

TEST(SolveMany, MoreEfficientThanLoopedSolves) {
  // The point of the blocked PCG: one shared block-Krylov space needs
  // fewer iterations per right-hand side than independent single solves
  // (measured without the block preconditioner and at a tight tolerance so
  // the iteration counts are large enough to separate).
  const Layout l = regular_grid_layout(8);
  const SurfaceSolver solver(l, paper_stack(40.0, 0.5, 1.0),
                             {.rel_tol = 1e-9, .contact_block_precond = false});
  Rng rng(92);
  Matrix v(l.n_contacts(), 16);
  for (std::size_t i = 0; i < v.rows(); ++i)
    for (std::size_t j = 0; j < v.cols(); ++j) v(i, j) = rng.normal();
  solver.reset_iteration_stats();
  solver.solve_many(v);
  const double batched_avg = solver.avg_iterations();
  solver.reset_iteration_stats();
  for (std::size_t j = 0; j < v.cols(); ++j) solver.solve(v.col(j));
  const double looped_avg = solver.avg_iterations();
  EXPECT_LT(batched_avg, looped_avg);
}

TEST(SolveMany, BitIdenticalAcrossThreadCounts) {
  // SUBSPAR_THREADS=1 is the reference; any other pool size must reproduce
  // it exactly (threads only fan out independent per-column work).
  const Layout l = regular_grid_layout(4);
  const SurfaceSolver surface(l, shallow_stack());
  const FdSolver fd(l, fd_stack(Backplane::kGrounded), {.grid_h = 2.0});
  Rng rng(93);
  Matrix v(l.n_contacts(), 6);
  for (std::size_t i = 0; i < v.rows(); ++i)
    for (std::size_t j = 0; j < v.cols(); ++j) v(i, j) = rng.normal();
  set_thread_count(1);
  const Matrix s1 = surface.solve_many(v);
  const Matrix f1 = fd.solve_many(v);
  set_thread_count(4);
  const Matrix s4 = surface.solve_many(v);
  const Matrix f4 = fd.solve_many(v);
  set_thread_count(1);
  EXPECT_EQ((s1 - s4).max_abs(), 0.0);
  EXPECT_EQ((f1 - f4).max_abs(), 0.0);
}

TEST(SolveMany, ExtractDenseBitIdenticalAcrossThreadCounts) {
  const Layout l = regular_grid_layout(4);
  const SurfaceSolver solver(l, shallow_stack());
  set_thread_count(1);
  const Matrix g1 = extract_dense(solver);
  set_thread_count(4);
  const Matrix g4 = extract_dense(solver);
  set_thread_count(1);
  EXPECT_EQ((g1 - g4).max_abs(), 0.0);
}

TEST(SurfaceSolver, PreconditionerBlocksAreSymmetric) {
  // The kernel_block_entry-based assembly must produce exactly symmetric
  // block-Jacobi blocks (CG requires a symmetric preconditioner).
  const Layout l = regular_grid_layout(4);
  const SurfaceSolver solver(l, shallow_stack());
  const std::size_t mx = l.panels_x(), ny = l.panels_y();
  Vector unit(mx * ny);
  const std::size_t cx = mx / 2, cy = ny / 2;
  unit[cx + mx * cy] = 1.0;
  const Vector kernel = solver.apply_panel_operator(unit);
  // In-range offsets read the kernel grid directly.
  EXPECT_EQ(kernel_block_entry(kernel, mx, ny, cx, cy, 1, 2),
            kernel[(cx + 1) + mx * (cy + 2)]);
  EXPECT_EQ(kernel_block_entry(kernel, mx, ny, cx, cy, -2, 0),
            kernel[(cx - 2) + mx * cy]);
  // The kernel is even in the offset up to boundary effects (a few percent
  // at this grid size) — the property the symmetrized assembly exploits.
  EXPECT_NEAR(kernel_block_entry(kernel, mx, ny, cx, cy, 2, 1),
              kernel_block_entry(kernel, mx, ny, cx, cy, -2, -1),
              0.05 * std::abs(kernel_block_entry(kernel, mx, ny, cx, cy, 2, 1)));
  // Out-of-range offsets clamp to the edge instead of wrapping.
  EXPECT_EQ(kernel_block_entry(kernel, mx, ny, cx, cy, 1000, 0),
            kernel_block_entry(kernel, mx, ny, cx, cy, static_cast<long>(mx), 0));
}

// ------------------------------------------- the surface solver's algorithm

// The per-column substitution block-Jacobi ran over each contact's factor
// before Cholesky::solve_block (the reference of
// Cholesky.BlockSolveMatchesParentSubstitutionBitwise).
Vector reference_substitution(const Matrix& l, const Vector& b) {
  const std::size_t n = l.rows();
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= l(i, k) * y[k];
    y[i] = s / l(i, i);
  }
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= l(k, ii) * x[k];
    x[ii] = s / l(ii, ii);
  }
  return x;
}

// SurfaceSolver::solve_many as it ran before the pruned operator, rebuilt
// from public pieces: the full-grid panel operator on each zero-padded
// column, block-Jacobi blocks assembled from the centred kernel and solved
// column by column, and robust_pcg_block over 16-column chunks. The chain
// must finish clean, so the solver's direct fallback never comes into it.
Matrix reference_solve_many(const SurfaceSolver& solver, const Layout& l, bool block_precond,
                            const Matrix& v) {
  const std::size_t mx = l.panels_x(), ny = l.panels_y(), n = l.n_contacts();
  std::vector<std::size_t> panels, begin{0};
  for (std::size_t c = 0; c < n; ++c) {
    for (const std::size_t p : l.contact_panels(c)) panels.push_back(p);
    begin.push_back(panels.size());
  }
  const LinearOpMany op = [&](const Matrix& x, Matrix& y) {
    for (std::size_t j = 0; j < x.cols(); ++j) {
      Vector grid(mx * ny);
      for (std::size_t idx = 0; idx < panels.size(); ++idx) grid[panels[idx]] = x(idx, j);
      const Vector out = solver.apply_panel_operator(grid);
      for (std::size_t idx = 0; idx < panels.size(); ++idx) y(idx, j) = out[panels[idx]];
    }
  };

  std::vector<Matrix> lowers;
  Vector unit(mx * ny);
  const std::size_t cx = mx / 2, cy = ny / 2;
  unit[cx + mx * cy] = 1.0;
  const Vector kernel = solver.apply_panel_operator(unit);
  for (std::size_t c = 0; c < n; ++c) {
    const auto cp = l.contact_panels(c);
    const std::size_t np = cp.size();
    Matrix blockm(np, np);
    for (std::size_t i = 0; i < np; ++i) {
      const long xi = static_cast<long>(cp[i] % mx), yi = static_cast<long>(cp[i] / mx);
      for (std::size_t j = i; j < np; ++j) {
        const long xj = static_cast<long>(cp[j] % mx), yj = static_cast<long>(cp[j] / mx);
        blockm(i, j) = blockm(j, i) = kernel_block_entry(kernel, mx, ny, cx, cy, xj - xi, yj - yi);
      }
    }
    try {
      lowers.push_back(Cholesky(blockm).lower());
    } catch (const std::invalid_argument&) {
      Matrix diag(np, np);
      for (std::size_t i = 0; i < np; ++i) diag(i, i) = blockm(i, i);
      lowers.push_back(Cholesky(diag).lower());
    }
  }
  const FunctionPreconditioner pre([&](const Matrix& r) {
    Matrix z(r.rows(), r.cols());
    for (std::size_t j = 0; j < r.cols(); ++j)
      for (std::size_t c = 0; c < n; ++c) {
        Vector rc(begin[c + 1] - begin[c]);
        for (std::size_t idx = begin[c]; idx < begin[c + 1]; ++idx) rc[idx - begin[c]] = r(idx, j);
        const Vector zc = reference_substitution(lowers[c], rc);
        for (std::size_t idx = begin[c]; idx < begin[c + 1]; ++idx) z(idx, j) = zc[idx - begin[c]];
      }
    return z;
  });

  const SurfaceSolverOptions defaults;
  Matrix currents(n, v.cols());
  for (std::size_t j0 = 0; j0 < v.cols(); j0 += 16) {
    const std::size_t kc = std::min<std::size_t>(16, v.cols() - j0);
    Matrix rhs(panels.size(), kc);
    for (std::size_t j = 0; j < kc; ++j)
      for (std::size_t c = 0; c < n; ++c)
        for (std::size_t idx = begin[c]; idx < begin[c + 1]; ++idx) rhs(idx, j) = v(c, j0 + j);
    RobustSolveReport rep;
    const Matrix q = robust_pcg_block(
        op, rhs,
        {.iter = {.rel_tol = defaults.rel_tol, .max_iterations = defaults.max_iterations}}, &rep,
        block_precond ? &pre : nullptr);
    EXPECT_TRUE(rep.clean);
    for (std::size_t j = 0; j < kc; ++j)
      for (std::size_t c = 0; c < n; ++c) {
        double s = 0.0;
        for (std::size_t idx = begin[c]; idx < begin[c + 1]; ++idx) s += q(idx, j);
        currents(c, j0 + j) = s;
      }
  }
  return currents;
}

TEST(SurfaceSolver, SolveManyMatchesParentAlgorithmBitwise) {
  // The pruned DCT passes, the per-thread panel grid and the in-place
  // block-Jacobi rows must leave every bit of the former algorithm, on
  // layouts whose contacts miss different sets of grid rows and columns,
  // with and without the preconditioner, at 1 and 4 threads, with more
  // columns than threads and more than one 16-column chunk.
  Layout rect(32, 16, 2.0);
  rect.add_contact(Contact(2, 2, 2, 2));
  rect.add_contact(Contact(9, 1, 3, 1));
  rect.add_contact(Contact(20, 10, 2, 3));
  rect.add_contact(Contact(27, 13, 1, 2));
  const struct {
    const char* name;
    Layout layout;
  } cases[] = {{"regular", regular_grid_layout(8)},
               {"alternating", alternating_size_layout(8)},
               {"irregular", irregular_layout(8, 0.6, 7)},
               {"rectangular", rect}};
  for (const auto& tc : cases) {
    const Layout& l = tc.layout;
    Rng rng(94);
    Matrix v(l.n_contacts(), 21);
    for (std::size_t i = 0; i < v.rows(); ++i)
      for (std::size_t j = 0; j < v.cols(); ++j) v(i, j) = j == 3 ? 0.0 : rng.normal();
    for (const bool precond : {true, false}) {
      const SurfaceSolver solver(l, paper_stack(40.0, 0.5, 1.0),
                                 {.contact_block_precond = precond});
      const Matrix ref = reference_solve_many(solver, l, precond, v);
      for (const std::size_t threads : {1, 4}) {
        set_thread_count(threads);
        const Matrix got = solver.solve_many(v);
        set_thread_count(1);
        std::size_t bad = 0;
        for (std::size_t i = 0; i < v.rows(); ++i)
          for (std::size_t j = 0; j < v.cols(); ++j)
            bad += std::bit_cast<std::uint64_t>(got(i, j)) !=
                   std::bit_cast<std::uint64_t>(ref(i, j));
        EXPECT_EQ(bad, 0u) << tc.name << (precond ? " block-Jacobi" : " plain") << " at "
                           << threads << " threads";
      }
    }
  }
}

TEST(FdSolver, DeeperGridMoreAccurateThanCoarse) {
  // First-order convergence: halving h must move G(0,0) toward the
  // eigenfunction solver's value.
  const Layout l = regular_grid_layout(4);
  const SubstrateStack st({{8.0, 1.0}}, Backplane::kGrounded);
  const SurfaceSolver ie(l, st);
  Vector e(l.n_contacts());
  e[0] = 1.0;
  const double ref = ie.solve(e)[0];
  const FdSolver coarse(l, st, {.grid_h = 2.0});
  const FdSolver fine(l, st, {.grid_h = 1.0});
  const double ec = std::abs(coarse.solve(e)[0] - ref);
  const double ef = std::abs(fine.solve(e)[0] - ref);
  EXPECT_LT(ef, ec);
}

Matrix random_voltages(std::size_t n, std::size_t k, std::uint64_t seed) {
  Rng rng(seed);
  Matrix v(n, k);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < k; ++j) v(i, j) = rng.normal();
  return v;
}

TEST(FdSolver, SolveManyBitIdenticalOnWarmScratch) {
  // A block solve keeps its PCG blocks and right-hand side per thread,
  // from chunk to chunk and call to call. Widths 16, 7, 33 (two full
  // chunks and a one-column one) and 16 on one solver grow, shrink and
  // re-grow them; each result must equal, bit for bit, a fresh solver's on
  // a fresh thread, whose blocks start empty — at 1 and 4 threads.
  const Layout l = regular_grid_layout(4);
  const SubstrateStack st = fd_stack(Backplane::kGrounded);
  for (const std::size_t threads : {1, 4}) {
    set_thread_count(threads);
    const FdSolver solver(l, st, {.grid_h = 2.0});
    std::uint64_t seed = 420;
    for (const std::size_t k : {16, 7, 33, 16}) {
      const Matrix v = random_voltages(l.n_contacts(), k, seed++);
      const Matrix warm = solver.solve_many(v);
      Matrix cold;
      std::thread([&] { cold = FdSolver(l, st, {.grid_h = 2.0}).solve_many(v); }).join();
      ASSERT_EQ(warm.rows(), cold.rows());
      ASSERT_EQ(warm.cols(), cold.cols());
      for (std::size_t i = 0; i < cold.rows(); ++i)
        for (std::size_t j = 0; j < cold.cols(); ++j)
          ASSERT_EQ(std::bit_cast<std::uint64_t>(warm(i, j)),
                    std::bit_cast<std::uint64_t>(cold(i, j)))
              << threads << " threads, width " << k << " (" << i << "," << j << ")";
    }
  }
  set_thread_count(1);
}

#if defined(__linux__) && defined(__GLIBC__)
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SUBSPAR_SANITIZED_ALLOCATOR 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SUBSPAR_SANITIZED_ALLOCATOR 1
#endif
#endif

TEST(FdSolver, RepeatedSolveManyTakesNoPageFaults) {
#ifdef SUBSPAR_SANITIZED_ALLOCATOR
  GTEST_SKIP() << "the sanitizer's allocator maps and unmaps memory its own way";
#endif
  // perfbench's FD stack on an 8 x 8 contact layout: ~5k grid nodes, so
  // every nodes x 16 block is far past glibc's mmap threshold. Blocks
  // allocated per chunk go back to the kernel when freed and fault in
  // again on the next solve; the per-thread blocks are kept, so once warm
  // a 16-column solve takes (next to) no minor page faults.
  set_thread_count(1);
  const Layout l = regular_grid_layout(8, 1.0);
  const FdSolver solver(
      l, SubstrateStack({{2.0, 1.0}, {36.0, 100.0}, {2.0, 0.1}}, Backplane::kGrounded));
  const Matrix v = random_voltages(l.n_contacts(), 16, 430);
  const auto minor_faults = [] {
    rusage u{};
    getrusage(RUSAGE_THREAD, &u);
    return u.ru_minflt;
  };
  solver.solve_many(v);
  solver.solve_many(v);
  const long before = minor_faults();
  const Matrix currents = solver.solve_many(v);
  const long faults = minor_faults() - before;
  EXPECT_LE(faults, 32) << "minor page faults in a warm 16-column FD solve";
  EXPECT_EQ(currents.cols(), 16u);
}
#endif

}  // namespace
}  // namespace subspar
