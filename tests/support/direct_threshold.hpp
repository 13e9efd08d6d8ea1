// The naive sparsification both chapters are compared against: keep the
// largest entries of the original G and score the rest as dropped.
#pragma once

#include "core/report.hpp"
#include "linalg/matrix.hpp"

namespace subspar {

/// Entry-error stats of directly thresholding the *original* G to its
/// largest `keep_fraction` of entries, on report.hpp's noise floor and
/// significance cut.
ErrorStats direct_threshold_error(const Matrix& g_exact, double keep_fraction);

}  // namespace subspar
