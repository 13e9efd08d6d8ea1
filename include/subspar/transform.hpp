// Public header: fast transforms (DCT, fast Poisson) — exposed for the
// micro-kernel benches and for callers embedding the eigenfunction operator.
#pragma once

#include "transform/dct.hpp"
#include "transform/poisson.hpp"
