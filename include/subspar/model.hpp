// Public header: the SparsifiedModel (Q, G_w and its apply operators) and
// its serialization (save_model / load_model, ModelIoError). Models are
// built by the Extractor pipeline in subspar/extraction.hpp.
#pragma once

#include "core/extractor.hpp"
#include "core/io.hpp"
