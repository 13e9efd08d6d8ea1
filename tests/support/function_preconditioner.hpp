// Adapter for the tests' ad-hoc preconditioners: wraps a callable that
// returns M^{-1} R for a whole residual block as a Preconditioner.
#pragma once

#include <functional>
#include <utility>

#include "linalg/iterative.hpp"

namespace subspar {

/// Z = M^{-1} R columnwise, returned as a new r-shaped block.
using BlockFunction = std::function<Matrix(const Matrix&)>;

class FunctionPreconditioner final : public Preconditioner {
 public:
  explicit FunctionPreconditioner(BlockFunction fn) : fn_(std::move(fn)) {}
  /// The callable's block replaces z; a wrongly shaped z or result throws
  /// std::invalid_argument.
  void apply_many(const Matrix& r, Matrix& z) const override;

 private:
  BlockFunction fn_;
};

}  // namespace subspar
