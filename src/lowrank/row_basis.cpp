#include "lowrank/row_basis.hpp"

#include <algorithm>

#include "linalg/qr.hpp"
#include "linalg/svd.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "wavelet/extract.hpp"

namespace subspar {

std::vector<std::size_t> positions_in(const std::vector<std::size_t>& sub,
                                      const std::vector<std::size_t>& super) {
  std::vector<std::size_t> pos;
  pos.reserve(sub.size());
  std::size_t j = 0;
  for (const std::size_t id : sub) {
    while (j < super.size() && super[j] < id) ++j;
    SUBSPAR_REQUIRE(j < super.size() && super[j] == id);
    pos.push_back(j);
  }
  return pos;
}

namespace {

// Extends a block over `sub` contacts to one over `super` contacts.
Matrix extend_rows(const Matrix& x, const std::vector<std::size_t>& pos, std::size_t super_rows) {
  Matrix out(super_rows, x.cols());
  for (std::size_t i = 0; i < x.rows(); ++i)
    std::copy(x.row_ptr(i), x.row_ptr(i) + x.cols(), out.row_ptr(pos[i]));
  return out;
}

Matrix restrict_rows(const Matrix& x, const std::vector<std::size_t>& pos) {
  Matrix out(pos.size(), x.cols());
  for (std::size_t i = 0; i < pos.size(); ++i)
    std::copy(x.row_ptr(pos[i]), x.row_ptr(pos[i]) + x.cols(), out.row_ptr(i));
  return out;
}

// The rows of square qf in a response recorded over the local squares of
// qf's parent.
Matrix block_at(const QuadTree& tree, const std::map<SquareId, Matrix>& blocks,
                const SquareId& qf) {
  const SquareId q = tree.parent(qf);
  return restrict_rows(blocks.at(q), positions_in(tree.contacts_in(qf), tree.contacts_in(q)));
}

// A x and A' x for a block x, each column summed like matvec / matvec_t
// (products added in ascending inner index, from 0.0), so column c is bit
// for bit matvec(a, x.col(c)) / matvec_t(a, x.col(c)).
Matrix columnwise_matvec(const Matrix& a, const Matrix& x) {
  SUBSPAR_REQUIRE(a.cols() == x.rows());
  Matrix y(a.rows(), x.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double* yi = y.row_ptr(i);
    for (std::size_t j = 0; j < a.cols(); ++j) {
      const double aij = a(i, j);
      const double* xj = x.row_ptr(j);
      for (std::size_t c = 0; c < x.cols(); ++c) yi[c] += aij * xj[c];
    }
  }
  return y;
}

Matrix columnwise_matvec_t(const Matrix& a, const Matrix& x) {
  SUBSPAR_REQUIRE(a.rows() == x.rows());
  Matrix y(a.cols(), x.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* xi = x.row_ptr(i);
    for (std::size_t j = 0; j < a.cols(); ++j) {
      const double aij = a(i, j);
      double* yj = y.row_ptr(j);
      for (std::size_t c = 0; c < x.cols(); ++c) yj[c] += aij * xi[c];
    }
  }
  return y;
}

// out[c][ids[i]] += (A X)(i, c) + (B Y)(i, c) for the k columns of X and Y.
// Each product sums like matvec and the two are added before they reach
// out, so column c gets matvec(A, x_c) + matvec(B, y_c) bit for bit; a null
// operand contributes 0.0.
void add_products(std::vector<Vector>& out, const std::vector<std::size_t>& ids, const Matrix* a,
                  const Matrix& x, const Matrix* b, const Matrix& y, std::size_t k) {
  for (std::size_t i = 0; i < ids.size(); ++i) {
    for (std::size_t c = 0; c < k; ++c) {
      double ax = 0.0, by = 0.0;
      if (a != nullptr)
        for (std::size_t j = 0; j < a->cols(); ++j) ax += (*a)(i, j) * x(j, c);
      if (b != nullptr)
        for (std::size_t j = 0; j < b->cols(); ++j) by += (*b)(i, j) * y(j, c);
      out[c][ids[i]] += ax + by;
    }
  }
}

}  // namespace

RowBasisRep::RowBasisRep(const SubstrateSolver& solver, const QuadTree& tree,
                         LowRankOptions options)
    : tree_(&tree), options_(options) {
  SUBSPAR_REQUIRE(options.max_rank >= 1);
  const long before = solver.solve_count();
  for (int lev = 2; lev <= tree.max_level(); ++lev) build_level(solver, lev);
  build_finest(solver);
  solves_ = solver.solve_count() - before;
}

const std::vector<std::size_t>& RowBasisRep::contacts(const SquareId& s) const {
  return tree_->contacts_in(s);
}

const Matrix& RowBasisRep::v(const SquareId& s) const { return reps_.at(s).v; }

const Matrix& RowBasisRep::response(const SquareId& s, const SquareId& q) const {
  return reps_.at(s).response.at(q);
}

const Matrix& RowBasisRep::finest_w(const SquareId& s) const { return finest_w_.at(s); }

const Matrix& RowBasisRep::finest_local_g(const SquareId& q, const SquareId& s) const {
  return finest_g_.at({q, s});
}

// ------------------------------------------------------------- responses

std::map<SquareId, RowBasisRep::ResponseBlocks> RowBasisRep::respond(
    const SubstrateSolver& solver, int level, const std::vector<Matrix>& x) const {
  const QuadTree& tree = *tree_;
  const auto& squares = tree.squares(level);
  SUBSPAR_REQUIRE(x.size() == squares.size());
  const bool split = level > 2;

  // Level 2 has at most 16 squares: direct solves. Below it the splitting
  // method extends each block into its parent's contact space and splits it
  // into the parent row-basis part c and the orthogonal remainder o in
  // (W_p) (eq. 4.22). Only the remainders are solved, combined: members'
  // parents are >= 3 squares apart, so each remainder's response over the
  // parent's local squares separates (§4.3.1).
  std::vector<Matrix> c(squares.size()), o(squares.size());
  std::vector<SolveBlock> blocks;
  for (std::size_t i = 0; i < squares.size(); ++i) {
    const SquareId& s = squares[i];
    if (!split) {
      blocks.push_back({s, s, contacts(s), x[i]});
      continue;
    }
    const SquareId p = tree.parent(s);
    o[i] = extend_rows(x[i], positions_in(contacts(s), contacts(p)), contacts(p).size());
    const Matrix& vp = reps_.at(p).v;
    if (vp.cols() > 0) {
      c[i] = matmul_tn(vp, o[i]);
      matmul_add(o[i], vp, c[i], -1.0);  // o = x_p - V_p c, no product temporary
    }
    blocks.push_back({p, s, contacts(p), o[i]});
  }
  const BlockResponses resp =
      solve_blocks(solver, blocks, split ? Batching::kCombined : Batching::kDirect);

  std::map<SquareId, ResponseBlocks> out;
  for (std::size_t i = 0; i < squares.size(); ++i) {
    const SquareId p = tree.parent(squares[i]);
    ResponseBlocks& blocks_s = out[squares[i]];
    for (const SquareId& q : tree.local(p)) {
      const auto& qids = contacts(q);
      Matrix& dst = blocks_s.emplace(q, Matrix(qids.size(), x[i].cols())).first->second;
      for (std::size_t k = 0; k < x[i].cols(); ++k) {
        const Vector& u = resp.response[resp.col[i][k]];
        Vector refined(qids.size());
        for (std::size_t r = 0; r < qids.size(); ++r) refined[r] = u[qids[r]];
        if (split) {
          // Refinement (eq. 4.24): the in-(V_q) part of the response comes
          // from the recorded parent-level data, (G_{p,q} V_q)' o with the
          // stored block's rows following contacts(p); only the (W_q) part
          // is read off the combined solve.
          const SquareRep& qrep = reps_.at(q);
          if (qrep.v.cols() > 0) {
            const Vector vq_raw = matvec_t(qrep.v, refined);
            refined -= matvec(qrep.v, vq_raw);
            refined += matvec(qrep.v, matvec_t(qrep.response.at(p), o[i].col(k)));
          }
          // The parent-row-basis part of the response (eq. 4.22).
          const SquareRep& prep = reps_.at(p);
          if (prep.v.cols() > 0) refined += matvec(prep.response.at(q), c[i].col(k));
        }
        for (std::size_t r = 0; r < qids.size(); ++r) dst(r, k) = refined[r];
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------- levels

void RowBasisRep::build_level(const SubstrateSolver& solver, int level) {
  const QuadTree& tree = *tree_;
  const auto& squares = tree.squares(level);

  // One random sample vector per square, drawn in squares() order; level 2
  // draws from the seed itself.
  Rng rng(options_.seed + (level == 2 ? 0 : static_cast<std::uint64_t>(level) * 0x9e37ULL));
  std::vector<Matrix> x;
  for (const SquareId& s : squares) {
    Matrix m(contacts(s).size(), 1);
    for (std::size_t i = 0; i < m.rows(); ++i) m(i, 0) = rng.normal();
    x.push_back(std::move(m));
  }
  const auto sample_resp = respond(solver, level, x);

  // V_s spans the dominant left singular vectors of the responses at s to
  // the samples of its interactive squares.
  for (const SquareId& s : squares) {
    const auto& ids = contacts(s);
    const auto inter = tree.interactive(s);
    SquareRep rep;
    rep.v = Matrix(ids.size(), 0);
    if (!inter.empty()) {
      Matrix samples(ids.size(), inter.size());
      for (std::size_t c = 0; c < inter.size(); ++c)
        samples.set_col(c, block_at(tree, sample_resp.at(inter[c]), s).col(0));
      const Svd dec = svd(samples);
      const std::size_t r = std::min({numerical_rank(dec.sigma, options_.sigma_rel_tol),
                                      options_.max_rank, ids.size()});
      rep.v = dec.u.block(0, 0, ids.size(), r);
    }
    reps_.emplace(s, std::move(rep));
  }

  // Responses to the row bases, recorded over P_s.
  for (std::size_t i = 0; i < squares.size(); ++i) x[i] = reps_.at(squares[i]).v;
  const auto v_resp = respond(solver, level, x);
  for (const SquareId& s : squares) {
    auto region = tree.local(s);
    for (const SquareId& q : tree.interactive(s)) region.push_back(q);
    for (const SquareId& q : region)
      reps_.at(s).response.emplace(q, block_at(tree, v_resp.at(s), q));
  }
}

void RowBasisRep::build_finest(const SubstrateSolver& solver) {
  const QuadTree& tree = *tree_;
  const auto& squares = tree.squares(tree.max_level());

  std::vector<Matrix> w;
  for (const SquareId& s : squares) {
    w.push_back(orthonormal_complement(reps_.at(s).v, contacts(s).size()));
    finest_w_.emplace(s, w.back());
  }
  const auto w_resp = respond(solver, tree.max_level(), w);

  // Assemble the finest-level local blocks (eq. 4.26).
  for (std::size_t i = 0; i < squares.size(); ++i) {
    const SquareId& s = squares[i];
    const Matrix& v = reps_.at(s).v;
    for (const SquareId& q : tree.local(s)) {
      Matrix g(contacts(q).size(), contacts(s).size());
      if (v.cols() > 0) matmul_nt_add(g, reps_.at(s).response.at(q), v);
      if (w[i].cols() > 0) matmul_nt_add(g, block_at(tree, w_resp.at(s), q), w[i]);
      finest_g_.emplace(std::make_pair(q, s), std::move(g));
    }
  }
}

// ------------------------------------------------------------------ apply

void RowBasisRep::add_subtree_response(const SquareId& s, const Matrix& x,
                                       std::vector<Vector>& out) const {
  const QuadTree& tree = *tree_;
  const std::size_t k = x.cols();
  SUBSPAR_REQUIRE(x.rows() == contacts(s).size() && out.size() >= k);

  // The blocks of x over one level of the subtree, in squares() scan order.
  std::vector<std::pair<SquareId, Matrix>> level{{s, x}};
  for (;;) {
    for (const auto& [d, xd] : level) {
      const SquareRep& rep = reps_.at(d);
      const bool has_v = rep.v.cols() > 0;
      Matrix cd, od = xd;
      if (has_v) {
        cd = columnwise_matvec_t(rep.v, xd);
        od -= columnwise_matvec(rep.v, cd);
      }
      for (const SquareId& q : tree.interactive(d)) {
        // (G_{q,d} V_d) V_d' x_d + V_q (G_{d,q} V_q)' (x_d - V_d V_d' x_d)   (eq. 4.16)
        const SquareRep& qrep = reps_.at(q);
        const bool has_back = qrep.v.cols() > 0;
        const Matrix t = has_back ? columnwise_matvec_t(qrep.response.at(d), od) : Matrix();
        add_products(out, contacts(q), has_v ? &rep.response.at(q) : nullptr, cd,
                     has_back ? &qrep.v : nullptr, t, k);
      }
    }
    if (level.front().first.level == tree.max_level()) break;
    std::vector<std::pair<SquareId, Matrix>> next;
    for (const auto& [d, xd] : level)
      for (const SquareId& c : tree.children(d))
        next.emplace_back(c, restrict_rows(xd, positions_in(contacts(c), contacts(d))));
    std::sort(next.begin(), next.end(), [](const auto& a, const auto& b) {
      return a.first.iy != b.first.iy ? a.first.iy < b.first.iy : a.first.ix < b.first.ix;
    });
    level = std::move(next);
  }

  for (const auto& [d, xd] : level)
    for (const SquareId& q : tree.local(d))
      add_products(out, contacts(q), &finest_g_.at({q, d}), xd, nullptr, xd, k);
}

Vector RowBasisRep::apply(const Vector& x) const {
  SUBSPAR_REQUIRE(x.size() == tree_->layout().n_contacts());
  std::vector<Vector> out{Vector(x.size())};
  for (const SquareId& s : tree_->squares(2)) {
    const auto& ids = contacts(s);
    Matrix xs(ids.size(), 1);
    for (std::size_t i = 0; i < ids.size(); ++i) xs(i, 0) = x[ids[i]];
    add_subtree_response(s, xs, out);
  }
  return std::move(out.front());
}

}  // namespace subspar
