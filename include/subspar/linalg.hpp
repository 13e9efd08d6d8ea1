// Public header: dense/sparse linear algebra used at the API boundary —
// Vector/Matrix, the batched CSR SparseMatrix engine (multi-RHS SpMM,
// IC(0)), the Preconditioner interface consumed by the blocked PCG, and the
// SVD entry points the benches probe.
#pragma once

#include "linalg/backend.hpp"
#include "linalg/ic0.hpp"
#include "linalg/iterative.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "linalg/svd.hpp"
#include "linalg/vector.hpp"
