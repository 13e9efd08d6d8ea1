#include "lowrank/row_basis.hpp"

#include <algorithm>

#include "linalg/qr.hpp"
#include "linalg/svd.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

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

Vector restrict_to(const Vector& full, const std::vector<std::size_t>& ids) {
  Vector out(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) out[i] = full[ids[i]];
  return out;
}

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
  build_level2(solver);
  for (int lev = 3; lev <= tree.max_level(); ++lev) build_level(solver, lev);
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

bool RowBasisRep::has_response(const SquareId& s, const SquareId& q) const {
  const auto it = reps_.find(s);
  return it != reps_.end() && it->second.response.count(q) > 0;
}

const Matrix& RowBasisRep::finest_w(const SquareId& s) const { return finest_w_.at(s); }

const Matrix& RowBasisRep::finest_local_g(const SquareId& q, const SquareId& s) const {
  return finest_g_.at({q, s});
}

// ---------------------------------------------------------------- level 2

void RowBasisRep::build_level2(const SubstrateSolver& solver) {
  const QuadTree& tree = *tree_;
  const std::size_t n = tree.layout().n_contacts();
  Rng rng(options_.seed);

  // One random sample vector per square; responses by direct solves (the
  // coarsest level has only up to 16 squares, §4.3.3), batched into one
  // solve_many call. RNG draws keep the original per-square order, so the
  // sample vectors are unchanged.
  const auto level2 = tree.squares(2);
  Matrix sample_rhs(n, level2.size());
  for (std::size_t c = 0; c < level2.size(); ++c) {
    for (const std::size_t id : contacts(level2[c])) sample_rhs(id, c) = rng.normal();
  }
  const Matrix sample_resp_mat = solver.solve_many(sample_rhs);
  std::map<SquareId, Vector> sample_response;
  for (std::size_t c = 0; c < level2.size(); ++c)
    sample_response.emplace(level2[c], sample_resp_mat.col(c));

  // Row bases from the sampled interactions.
  for (const SquareId& s : tree.squares(2)) {
    const auto& ids = contacts(s);
    std::vector<SquareId> sources = tree.interactive(s);
    if (sources.empty()) {
      // Degenerate layout: sample from every non-local square instead.
      for (const SquareId& t : tree.squares(2))
        if (!QuadTree::adjacent_or_same(t, s)) sources.push_back(t);
    }
    SquareRep rep;
    if (!sources.empty()) {
      Matrix samples(ids.size(), sources.size());
      for (std::size_t c = 0; c < sources.size(); ++c)
        samples.set_col(c, restrict_to(sample_response.at(sources[c]), ids));
      const Svd dec = svd(samples);
      const std::size_t r = std::min({numerical_rank(dec.sigma, options_.sigma_rel_tol),
                                      options_.max_rank, ids.size()});
      rep.v = dec.u.block(0, 0, ids.size(), r);
    } else {
      rep.v = Matrix(ids.size(), 0);
    }
    reps_.emplace(s, std::move(rep));
  }

  // Responses to the row-basis vectors, by direct solves, recorded over
  // P_s. All basis columns of all squares are independent: one batch.
  std::vector<std::pair<SquareId, std::size_t>> v_cols;  // (square, column)
  for (const SquareId& s : level2)
    for (std::size_t k = 0; k < reps_.at(s).v.cols(); ++k) v_cols.emplace_back(s, k);
  Matrix v_rhs(n, v_cols.size());
  for (std::size_t c = 0; c < v_cols.size(); ++c) {
    const auto& [s, k] = v_cols[c];
    const auto& ids = contacts(s);
    const Matrix& v = reps_.at(s).v;
    for (std::size_t i = 0; i < ids.size(); ++i) v_rhs(ids[i], c) = v(i, k);
  }
  const Matrix v_resp = solver.solve_many(v_rhs);

  std::size_t col = 0;
  for (const SquareId& s : level2) {
    SquareRep& rep = reps_.at(s);
    const std::size_t r = rep.v.cols();
    auto region = tree.local(s);
    for (const SquareId& q : tree.interactive(s)) region.push_back(q);
    for (const SquareId& q : region) {
      const auto& qids = contacts(q);
      Matrix block(qids.size(), r);
      for (std::size_t k = 0; k < r; ++k)
        for (std::size_t i = 0; i < qids.size(); ++i) block(i, k) = v_resp(qids[i], col + k);
      rep.response.emplace(q, std::move(block));
    }
    col += r;
  }
}

// ------------------------------------------------------- splitting method

std::map<SquareId, RowBasisRep::ResponseBlocks> RowBasisRep::split_responses(
    const SubstrateSolver& solver, int level, const std::map<SquareId, Matrix>& batches) {
  const QuadTree& tree = *tree_;
  const std::size_t n = tree.layout().n_contacts();
  SUBSPAR_REQUIRE(level >= 3 && level <= tree.max_level());

  // Per square: extend the batch into the parent square's contact space,
  // split into the parent row-basis part c and the orthogonal remainder o
  // (eq. 4.22).
  struct Item {
    SquareId s, p;
    Matrix o;  // n_p x k, in (W_p)
    Matrix c;  // r_p x k
    std::size_t k = 0;
  };
  std::vector<Item> items;
  std::size_t max_k = 0;
  for (const auto& [s, x] : batches) {
    Item it;
    it.s = s;
    it.p = tree.parent(s);
    const auto pos = positions_in(contacts(s), contacts(it.p));
    const Matrix xp = extend_rows(x, pos, contacts(it.p).size());
    const Matrix& vp = reps_.at(it.p).v;
    if (vp.cols() > 0) {
      it.c = matmul_tn(vp, xp);
      it.o = xp;
      matmul_add(it.o, vp, it.c, -1.0);  // o = x_p - V_p c, no product temporary
    } else {
      it.c = Matrix(0, x.cols());
      it.o = xp;
    }
    it.k = x.cols();
    max_k = std::max(max_k, it.k);
    items.push_back(std::move(it));
  }

  std::map<SquareId, ResponseBlocks> out;
  for (const auto& it : items) {
    ResponseBlocks blocks;
    for (const SquareId& q : tree.local(it.p))
      blocks.emplace(q, Matrix(contacts(q).size(), it.k));
    out.emplace(it.s, std::move(blocks));
  }

  // Combine-solves: one solve per (column index, parent 3x3 phase, child
  // position) group; distinct members' parents are >= 3 squares apart, so
  // each orthogonal remainder's local response separates (§4.3.1). The
  // groups are mutually independent, so all combined vectors are assembled
  // first and solved as one batch; the per-group refinement below runs in
  // the original group order.
  struct CombineGroup {
    std::size_t k = 0;
    std::vector<const Item*> members;
  };
  std::vector<CombineGroup> groups;
  std::vector<Vector> thetas;
  for (std::size_t k = 0; k < max_k; ++k) {
    for (int pa = 0; pa < 3; ++pa) {
      for (int pb = 0; pb < 3; ++pb) {
        for (int ca = 0; ca < 2; ++ca) {
          for (int cb = 0; cb < 2; ++cb) {
            std::vector<const Item*> members;
            Vector theta(n);
            for (const auto& it : items) {
              if (k >= it.k) continue;
              if (it.p.ix % 3 != pa || it.p.iy % 3 != pb) continue;
              if (it.s.ix % 2 != ca || it.s.iy % 2 != cb) continue;
              const auto& pids = contacts(it.p);
              for (std::size_t i = 0; i < pids.size(); ++i) theta[pids[i]] += it.o(i, k);
              members.push_back(&it);
            }
            if (members.empty()) continue;
            groups.push_back({k, std::move(members)});
            thetas.push_back(std::move(theta));
          }
        }
      }
    }
  }
  Matrix rhs(n, thetas.size());
  for (std::size_t c = 0; c < thetas.size(); ++c) rhs.set_col(c, thetas[c]);
  const Matrix resp = thetas.empty() ? Matrix(n, 0) : solver.solve_many(rhs);

  for (std::size_t g = 0; g < groups.size(); ++g) {
    const std::size_t k = groups[g].k;
    const Vector u = resp.col(g);
    for (const Item* itp : groups[g].members) {
      const Item& it = *itp;
      Vector ocol(it.o.rows());
      for (std::size_t i = 0; i < ocol.size(); ++i) ocol[i] = it.o(i, k);
      for (const SquareId& q : tree.local(it.p)) {
        const auto& qids = contacts(q);
        const Vector raw = restrict_to(u, qids);
        // Refinement (eq. 4.24): the in-(V_q) part of the response
        // comes from the recorded parent-level data; only the
        // (W_q) part is read off the combined solve.
        Vector refined = raw;
        const SquareRep& qrep = reps_.at(q);
        if (qrep.v.cols() > 0) {
          const Vector vq_raw = matvec_t(qrep.v, raw);
          refined -= matvec(qrep.v, vq_raw);
          if (qrep.response.count(it.p) > 0) {
            // (G_{p,q} V_q)' o: rows of the stored block follow
            // contacts(p).
            const Matrix& gpq_vq = qrep.response.at(it.p);
            refined += matvec(qrep.v, matvec_t(gpq_vq, ocol));
          }
        }
        // Add the parent-row-basis part of the response (eq. 4.22).
        const SquareRep& prep = reps_.at(it.p);
        if (prep.v.cols() > 0 && prep.response.count(q) > 0) {
          Vector ccol(it.c.rows());
          for (std::size_t i = 0; i < ccol.size(); ++i) ccol[i] = it.c(i, k);
          refined += matvec(prep.response.at(q), ccol);
        }
        Matrix& dst = out.at(it.s).at(q);
        for (std::size_t i = 0; i < qids.size(); ++i) dst(i, k) = refined[i];
      }
    }
  }
  return out;
}

// ---------------------------------------------------------- finer levels

Matrix RowBasisRep::row_basis_from_samples(
    const SquareId& s, const std::map<SquareId, ResponseBlocks>& sample_responses) {
  const QuadTree& tree = *tree_;
  const auto& ids = contacts(s);
  const auto inter = tree.interactive(s);
  if (inter.empty()) return Matrix(ids.size(), 0);

  Matrix samples(ids.size(), inter.size());
  for (std::size_t c = 0; c < inter.size(); ++c) {
    const SquareId& t = inter[c];
    const SquareId q = tree.ancestor(s, s.level - 1);
    const Matrix& block = sample_responses.at(t).at(q);  // over contacts(q)
    const auto pos = positions_in(ids, contacts(q));
    for (std::size_t i = 0; i < ids.size(); ++i) samples(i, c) = block(pos[i], 0);
  }
  const Svd dec = svd(samples);
  const std::size_t r = std::min(
      {numerical_rank(dec.sigma, options_.sigma_rel_tol), options_.max_rank, ids.size()});
  return dec.u.block(0, 0, ids.size(), r);
}

void RowBasisRep::build_level(const SubstrateSolver& solver, int level) {
  const QuadTree& tree = *tree_;
  Rng rng(options_.seed + static_cast<std::uint64_t>(level) * 0x9e37ULL);

  // Random sample vector per square, responses via the splitting method.
  std::map<SquareId, Matrix> sample_batches;
  for (const SquareId& s : tree.squares(level)) {
    Matrix m(contacts(s).size(), 1);
    for (std::size_t i = 0; i < m.rows(); ++i) m(i, 0) = rng.normal();
    sample_batches.emplace(s, std::move(m));
  }
  const auto sample_resp = split_responses(solver, level, sample_batches);

  for (const SquareId& s : tree.squares(level)) {
    SquareRep rep;
    rep.v = row_basis_from_samples(s, sample_resp);
    reps_.emplace(s, std::move(rep));
  }

  // Responses to the row bases, again via the splitting method, recorded
  // over P_s by restriction from the parent-level local squares.
  std::map<SquareId, Matrix> v_batches;
  for (const SquareId& s : tree.squares(level)) v_batches.emplace(s, reps_.at(s).v);
  const auto v_resp = split_responses(solver, level, v_batches);

  for (const SquareId& s : tree.squares(level)) {
    SquareRep& rep = reps_.at(s);
    auto region = tree.local(s);
    for (const SquareId& q : tree.interactive(s)) region.push_back(q);
    for (const SquareId& qf : region) {
      const SquareId q = tree.ancestor(qf, s.level - 1);
      const Matrix& block = v_resp.at(s).at(q);
      rep.response.emplace(qf, restrict_rows(block, positions_in(contacts(qf), contacts(q))));
    }
  }
}

// ---------------------------------------------------------- finest level

void RowBasisRep::build_finest(const SubstrateSolver& solver) {
  const QuadTree& tree = *tree_;
  const int maxlev = tree.max_level();
  const std::size_t n = tree.layout().n_contacts();

  std::map<SquareId, Matrix> w_batches;
  for (const SquareId& s : tree.squares(maxlev)) {
    const Matrix w = orthonormal_complement(reps_.at(s).v, contacts(s).size());
    finest_w_.emplace(s, w);
    w_batches.emplace(s, w);
  }

  // Responses to the W columns: splitting method when a parent level
  // exists, direct solves when level 2 is already the finest.
  std::map<SquareId, ResponseBlocks> w_resp;
  if (maxlev >= 3) {
    w_resp = split_responses(solver, maxlev, w_batches);
  } else {
    // Level 2 is already the finest: direct solves, all W columns of all
    // squares batched into one solve_many call.
    std::vector<std::pair<SquareId, std::size_t>> w_cols;  // (square, column)
    for (const SquareId& s : tree.squares(maxlev))
      for (std::size_t k = 0; k < w_batches.at(s).cols(); ++k) w_cols.emplace_back(s, k);
    Matrix rhs(n, w_cols.size());
    for (std::size_t c = 0; c < w_cols.size(); ++c) {
      const auto& [s, k] = w_cols[c];
      const auto& ids = contacts(s);
      const Matrix& w = w_batches.at(s);
      for (std::size_t i = 0; i < ids.size(); ++i) rhs(ids[i], c) = w(i, k);
    }
    const Matrix resp = solver.solve_many(rhs);

    std::size_t col = 0;
    for (const SquareId& s : tree.squares(maxlev)) {
      const Matrix& w = w_batches.at(s);
      ResponseBlocks blocks;
      for (const SquareId& q : tree.local(s)) {
        const auto& qids = contacts(q);
        Matrix block(qids.size(), w.cols());
        for (std::size_t k = 0; k < w.cols(); ++k)
          for (std::size_t i = 0; i < qids.size(); ++i) block(i, k) = resp(qids[i], col + k);
        blocks.emplace(q, std::move(block));
      }
      w_resp.emplace(s, std::move(blocks));
      col += w.cols();
    }
  }

  // Assemble the finest-level local blocks (eq. 4.26).
  for (const SquareId& s : tree.squares(maxlev)) {
    const Matrix& v = reps_.at(s).v;
    const Matrix& w = finest_w_.at(s);
    for (const SquareId& q : tree.local(s)) {
      const SquareId qc = maxlev >= 3 ? tree.ancestor(q, maxlev - 1) : q;
      const Matrix& wblock_coarse = w_resp.at(s).at(qc);
      const Matrix gw = maxlev >= 3 ? restrict_rows(wblock_coarse,
                                                    positions_in(contacts(q), contacts(qc)))
                                    : wblock_coarse;
      Matrix g(contacts(q).size(), contacts(s).size());
      if (v.cols() > 0) matmul_nt_add(g, reps_.at(s).response.at(q), v);
      if (w.cols() > 0) matmul_nt_add(g, gw, w);
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
        const auto back = qrep.response.find(d);
        const bool has_back = qrep.v.cols() > 0 && back != qrep.response.end();
        const Matrix t = has_back ? columnwise_matvec_t(back->second, od) : Matrix();
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
