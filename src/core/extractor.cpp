#include "core/extractor.hpp"

#include <sstream>

#include "util/check.hpp"
#include "util/parallel.hpp"

namespace subspar {

SparsifiedModel::SparsifiedModel(SparseMatrix q, SparseMatrix gw, long solves, double seconds)
    : q_(std::move(q)), gw_(std::move(gw)), solves_(solves), seconds_(seconds) {
  SUBSPAR_REQUIRE(q_.rows() == q_.cols() && gw_.rows() == q_.cols() && gw_.cols() == q_.cols());
}

Vector SparsifiedModel::apply(const Vector& contact_voltages) const {
  return q_.apply(gw_.apply(q_.apply_t(contact_voltages)));
}

Matrix SparsifiedModel::apply_many(const Matrix& contact_voltages) const {
  SUBSPAR_REQUIRE(contact_voltages.rows() == q_.rows());
  Matrix out(q_.rows(), contact_voltages.cols());
  parallel_for(contact_voltages.cols(),
               [&](std::size_t j) { out.set_col(j, apply(contact_voltages.col(j))); });
  return out;
}

double SparsifiedModel::solve_reduction_factor() const {
  return solves_ == 0 ? 0.0
                      : static_cast<double>(q_.rows()) / static_cast<double>(solves_);
}

std::string SparsifiedModel::summary() const {
  std::ostringstream out;
  out << "n = " << q_.rows() << ", solves = " << solves_ << " (reduction "
      << solve_reduction_factor() << "x), sparsity(G_w) = " << gw_sparsity_factor()
      << ", sparsity(Q) = " << q_sparsity_factor() << ", build = " << seconds_ << " s";
  return out.str();
}

}  // namespace subspar
