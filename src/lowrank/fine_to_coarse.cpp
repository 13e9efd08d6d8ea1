#include "lowrank/fine_to_coarse.hpp"
#include <algorithm>

#include "linalg/qr.hpp"
#include "linalg/svd.hpp"
#include "util/check.hpp"

namespace subspar {
namespace {

std::map<SquareId, SquareBasis> sweep(const RowBasisRep& rep) {
  const QuadTree& tree = rep.tree();
  const LowRankOptions& opt = rep.options();
  std::map<SquareId, SquareBasis> squares;

  // Finest level: U = V (row basis), T = W (its complement).
  for (const SquareId& s : tree.squares(tree.max_level())) {
    SquareBasis sb;
    sb.contacts = rep.contacts(s);
    sb.v = rep.v(s);
    sb.w = rep.finest_w(s);
    squares.emplace(s, std::move(sb));
  }

  for (int lev = tree.max_level() - 1; lev >= 2; --lev) {
    for (const SquareId& p : tree.squares(lev)) {
      SquareBasis sb;
      sb.contacts = rep.contacts(p);
      const std::size_t np = sb.contacts.size();

      // X_p: zero-padded child U columns, in p's (sorted) contact order.
      std::size_t k_total = 0;
      for (const SquareId& c : tree.children(p)) k_total += squares.at(c).v.cols();
      Matrix x(np, k_total);
      std::size_t c0 = 0;
      for (const SquareId& c : tree.children(p)) {
        const SquareBasis& cb = squares.at(c);
        const auto pos = positions_in(cb.contacts, sb.contacts);
        for (std::size_t i = 0; i < cb.contacts.size(); ++i)
          for (std::size_t j = 0; j < cb.v.cols(); ++j) x(pos[i], c0 + j) = cb.v(i, j);
        c0 += cb.v.cols();
      }
      if (k_total == 0) {
        sb.v = Matrix(np, 0);
        sb.w = Matrix(np, 0);
        squares.emplace(p, std::move(sb));
        continue;
      }

      // Y = G_{I_p, p} X_p through the row-basis representation (eq. 4.16).
      const Matrix& vp = rep.v(p);
      Matrix cs(0, k_total), os = x;
      if (vp.cols() > 0) {
        cs = matmul_tn(vp, x);
        matmul_add(os, vp, cs, -1.0);  // os = x - V_p cs, no product temporary
      }
      const auto inter = tree.interactive(p);
      std::size_t ni = 0;
      for (const SquareId& q : inter) ni += rep.contacts(q).size();

      Matrix coef_u, coef_t;
      if (ni == 0) {
        // No interactive contacts to distinguish fast from slow responses:
        // conservatively keep everything slow-decaying (pushed up).
        coef_u = Matrix::identity(k_total);
        coef_t = Matrix(k_total, 0);
      } else {
        Matrix y(ni, k_total);
        std::size_t r0 = 0;
        for (const SquareId& q : inter) {
          const std::size_t nq = rep.contacts(q).size();
          Matrix yq(nq, k_total);
          if (vp.cols() > 0) matmul_add(yq, rep.response(p, q), cs);
          if (rep.v(q).cols() > 0) matmul_add(yq, rep.v(q), matmul_tn(rep.response(q, p), os));
          y.set_block(r0, 0, yq);
          r0 += nq;
        }
        const Svd dec = svd(y);
        const std::size_t r = std::min(
            {numerical_rank(dec.sigma, opt.u_sigma_rel_tol), opt.max_rank, k_total});
        coef_u = dec.v.block(0, 0, k_total, r);
        coef_t = orthonormal_complement(coef_u, k_total);
      }
      sb.v = matmul(x, coef_u);
      sb.w = matmul(x, coef_t);
      squares.emplace(p, std::move(sb));
    }
  }
  return squares;
}

}  // namespace

LowRankBasis::LowRankBasis(const RowBasisRep& rep)
    : TransformBasis(rep.tree(), sweep(rep), /*root_level=*/2) {}

}  // namespace subspar
