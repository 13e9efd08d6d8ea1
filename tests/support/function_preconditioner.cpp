#include "function_preconditioner.hpp"

#include <utility>

#include "util/check.hpp"

namespace subspar {

void FunctionPreconditioner::apply_many(const Matrix& r, Matrix& z) const {
  SUBSPAR_REQUIRE(z.rows() == r.rows() && z.cols() == r.cols());
  Matrix y = fn_(r);
  SUBSPAR_REQUIRE(y.rows() == r.rows() && y.cols() == r.cols());
  z = std::move(y);
}

}  // namespace subspar
