// Tests for the model (core/extractor, core/io) and shared reporting:
// end-to-end extraction with both methods, fast apply fidelity,
// thresholding option, and the error-metric helpers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/extractor.hpp"
#include "core/io.hpp"
#include "core/report.hpp"
#include "geometry/layout_gen.hpp"
#include "substrate/eigen_solver.hpp"
#include "substrate/solver.hpp"
#include "subspar/extraction.hpp"
#include "support/direct_threshold.hpp"
#include "util/rng.hpp"

namespace subspar {
namespace {

struct CoreFixture {
  Layout layout;
  QuadTree tree;
  SurfaceSolver solver;
  explicit CoreFixture(Layout l)
      : layout(std::move(l)), tree(layout), solver(layout, paper_stack()) {}
};

TEST(Extractor, LowRankModelAppliesAccurately) {
  CoreFixture f(regular_grid_layout(8));
  const Matrix g = extract_dense(f.solver);
  f.solver.reset_solve_count();
  const SparsifiedModel model = Extractor(f.solver, f.tree).extract().model;
  Rng rng(1);
  Vector v(f.layout.n_contacts());
  for (auto& x : v) x = rng.normal();
  const Vector exact = matvec(g, v);
  EXPECT_LT(norm2(model.apply(v) - exact), 0.03 * norm2(exact));
  EXPECT_EQ(model.solves_used(), f.solver.solve_count());
}

TEST(Extractor, WaveletModelAppliesAccurately) {
  CoreFixture f(regular_grid_layout(8));
  const Matrix g = extract_dense(f.solver);
  const SparsifiedModel model =
      Extractor(f.solver, f.tree).extract({.method = SparsifyMethod::kWavelet}).model;
  Rng rng(2);
  Vector v(f.layout.n_contacts());
  for (auto& x : v) x = rng.normal();
  const Vector exact = matvec(g, v);
  EXPECT_LT(norm2(model.apply(v) - exact), 0.03 * norm2(exact));
}

TEST(Extractor, ThresholdOptionIncreasesSparsity) {
  CoreFixture f(regular_grid_layout(16));
  const Extractor engine(f.solver, f.tree);
  const SparsifiedModel plain = engine.extract().model;
  const SparsifiedModel thresholded = engine.extract({.threshold_sparsity_multiple = 6.0}).model;
  EXPECT_GT(thresholded.gw_sparsity_factor(), 5.0 * plain.gw_sparsity_factor());
}

TEST(Extractor, SummaryMentionsKeyMetrics) {
  CoreFixture f(regular_grid_layout(8));
  const SparsifiedModel model = Extractor(f.solver, f.tree).extract().model;
  const std::string s = model.summary();
  EXPECT_NE(s.find("solves"), std::string::npos);
  EXPECT_NE(s.find("sparsity"), std::string::npos);
}

TEST(Extractor, MomentOrderRespectedForWavelet) {
  CoreFixture f(regular_grid_layout(8));
  const Extractor engine(f.solver, f.tree);
  const SparsifiedModel p0 =
      engine.extract({.method = SparsifyMethod::kWavelet, .moment_order = 0}).model;
  const SparsifiedModel p2 =
      engine.extract({.method = SparsifyMethod::kWavelet, .moment_order = 2}).model;
  // Fewer constraints -> fewer leftover V vectors -> different structure;
  // both remain valid orthogonal transforms of the same size.
  EXPECT_EQ(p0.q().rows(), p2.q().rows());
  EXPECT_NE(p0.gw().nnz(), p2.gw().nnz());
}

TEST(Report, ReconstructColumnMatchesDenseProduct) {
  CoreFixture f(regular_grid_layout(4));
  const Matrix g = extract_dense(f.solver);
  const SparsifiedModel model = Extractor(f.solver, f.tree).extract().model;
  const Vector col = reconstruct_column(model.q(), model.gw(), 3);
  Vector e(f.layout.n_contacts());
  e[3] = 1.0;
  EXPECT_LT(norm2(col - model.apply(e)), 1e-12);
}

TEST(Report, DirectThresholdKeepsFractionSemantics) {
  Matrix g(3, 3);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) g(i, j) = (i == j) ? 10.0 : 0.01;
  // Keeping ~1/3 of entries keeps the diagonal: off-diagonals all wrong.
  const ErrorStats stats = direct_threshold_error(g, 0.34);
  EXPECT_NEAR(stats.frac_above_10pct, 6.0 / 9.0, 0.01);
  EXPECT_NEAR(stats.max_rel_error, 1.0, 1e-12);
}

TEST(Report, ErrorStatsCountEntries) {
  CoreFixture f(regular_grid_layout(4));
  const Matrix g = extract_dense(f.solver);
  const SparsifiedModel model = Extractor(f.solver, f.tree).extract().model;
  const ErrorStats full = reconstruction_error(model.q(), model.gw(), g);
  EXPECT_EQ(full.entries, f.layout.n_contacts() * f.layout.n_contacts());
  const std::vector<std::size_t> cols{0, 5};
  const Matrix gc = extract_columns(f.solver, cols);
  const ErrorStats sampled = reconstruction_error(model.q(), model.gw(), gc, cols);
  EXPECT_EQ(sampled.entries, 2 * f.layout.n_contacts());
}


TEST(ModelIo, SaveLoadRoundTripsExactly) {
  CoreFixture f(regular_grid_layout(8));
  const SparsifiedModel model =
      Extractor(f.solver, f.tree).extract({.threshold_sparsity_multiple = 4.0}).model;
  const std::string path = "/tmp/subspar_model_test.txt";
  save_model(path, model);
  const SparsifiedModel loaded = load_model(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.q().nnz(), model.q().nnz());
  EXPECT_EQ(loaded.gw().nnz(), model.gw().nnz());
  EXPECT_EQ(loaded.solves_used(), model.solves_used());
  // Hex-float serialization must be bit exact.
  EXPECT_EQ((loaded.q().to_dense() - model.q().to_dense()).max_abs(), 0.0);
  EXPECT_EQ((loaded.gw().to_dense() - model.gw().to_dense()).max_abs(), 0.0);
  Rng rng(9);
  Vector v(f.layout.n_contacts());
  for (auto& x : v) x = rng.normal();
  EXPECT_EQ(norm2(loaded.apply(v) - model.apply(v)), 0.0);
}

namespace io_fixtures {

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) content.append(buf, got);
  std::fclose(f);
  return content;
}

void write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(content.data(), 1, content.size(), f), content.size());
  std::fclose(f);
}

// Expects load_model(path) to throw ModelIoError whose message contains
// `needle` (the section name the error should point at).
void expect_load_error(const std::string& path, const std::string& needle) {
  try {
    load_model(path);
    FAIL() << "load_model accepted a corrupt file (wanted error naming '" << needle << "')";
  } catch (const ModelIoError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message was: " << e.what();
  }
}

}  // namespace io_fixtures

TEST(ModelIo, LoadRejectsTruncatedFilesNamingTheSection) {
  using namespace io_fixtures;
  CoreFixture f(regular_grid_layout(4));
  const SparsifiedModel model = Extractor(f.solver, f.tree).extract().model;
  const std::string path = "/tmp/subspar_model_trunc.txt";
  save_model(path, model);
  const std::string v2 = read_file(path);

  // Any truncation of a v2 file loses (or splits) the checksum footer and is
  // rejected there before section parsing even starts.
  write_file(path, v2.substr(0, v2.size() - 10));
  expect_load_error(path, "checksum footer");

  // The section-level checks still guard legacy v1 files, which carry no
  // footer: strip it and downgrade the magic, then cut inside each section.
  const std::size_t footer = v2.rfind("checksum fnv1a ");
  ASSERT_NE(footer, std::string::npos);
  std::string good = v2.substr(0, footer);
  good.replace(good.find("v2"), 2, "v1");

  // Structural offsets: line 0 = magic, line 1 = metadata, line 2 = Q size,
  // lines 3..2+nnz(Q) = Q entries, then the G_w size line. Cuts land just
  // after a line's first token, so the truncation is always detectable (a
  // cut inside a trailing hex-float still scans as a shorter number).
  const std::size_t metadata_start = good.find('\n') + 1;
  const std::size_t q_size_line = good.find('\n', metadata_start) + 1;
  std::size_t q_entries_start = good.find('\n', q_size_line) + 1;
  std::size_t gw_size_line = q_entries_start;
  for (std::size_t e = 0; e < model.q().nnz(); ++e)
    gw_size_line = good.find('\n', gw_size_line) + 1;
  const std::size_t last_entry_start = good.rfind('\n', good.size() - 2) + 1;

  // Cut mid-way through every section: header, metadata, Q entries, G_w
  // size/entries. Each cut must fail loudly, naming the section.
  struct Cut {
    std::size_t bytes;
    const char* names;
  };
  const Cut cuts[] = {
      {4, "header"},                        // inside the magic line
      {metadata_start + 1, "metadata"},     // inside 'solves seconds'
      {q_entries_start + 2, "Q matrix"},    // inside the first Q entry
      {gw_size_line + 1, "G_w matrix"},     // inside the G_w size line
      {last_entry_start + 2, "G_w matrix"}, // missing the final entry
  };
  for (const Cut& cut : cuts) {
    ASSERT_LT(cut.bytes, good.size());
    write_file(path, good.substr(0, cut.bytes));
    expect_load_error(path, cut.names);
  }
  std::remove(path.c_str());
}

TEST(ModelIo, LoadRejectsBitFlippedFields) {
  using namespace io_fixtures;
  CoreFixture f(regular_grid_layout(4));
  const SparsifiedModel model = Extractor(f.solver, f.tree).extract().model;
  const std::string path = "/tmp/subspar_model_flip.txt";
  save_model(path, model);
  const std::string v2 = read_file(path);

  {  // A v2 file catches ANY payload mutation at the checksum footer, with
     // an expected-vs-got digest pair in the message — even mutations the
     // per-entry syntax checks would accept (here: a flipped hex digit that
     // still scans as a valid float).
    std::string bad = v2;
    const std::size_t mid = bad.size() / 2;
    bad[mid] = bad[mid] == '1' ? '2' : '1';
    write_file(path, bad);
    expect_load_error(path, "checksum footer");
    expect_load_error(path, "expected fnv1a ");
  }

  // Section-level validation is exercised on the legacy v1 form (no
  // footer), where mutated fields reach the parser directly.
  const std::size_t footer = v2.rfind("checksum fnv1a ");
  ASSERT_NE(footer, std::string::npos);
  std::string good = v2.substr(0, footer);
  good.replace(good.find("v2"), 2, "v1");

  // Locate the Q size line (line 3) and its first entry line (line 4).
  std::vector<std::string> lines;
  for (std::size_t pos = 0; pos < good.size();) {
    const std::size_t next = good.find('\n', pos);
    lines.push_back(good.substr(pos, next - pos));
    pos = next + 1;
  }
  const auto join = [&](const std::vector<std::string>& ls) {
    std::string out;
    for (const std::string& l : ls) out += l + "\n";
    return out;
  };

  {  // "Flipped" nnz count: promises more entries than the file holds.
    std::vector<std::string> bad = lines;
    bad[2] += "999";
    write_file(path, join(bad));
    expect_load_error(path, "Q matrix");
  }
  {  // Corrupt dimension: implausibly huge rows field.
    std::vector<std::string> bad = lines;
    bad[2] = "999999999999 " + bad[2];
    write_file(path, join(bad));
    expect_load_error(path, "Q matrix");
  }
  {  // Flipped column index on the first Q entry: out of declared range.
    std::vector<std::string> bad = lines;
    const std::size_t sp = bad[3].find(' ');
    bad[3] = bad[3].substr(0, sp) + " 888888" + bad[3].substr(bad[3].find(' ', sp + 1));
    write_file(path, join(bad));
    expect_load_error(path, "outside the declared");
  }
  {  // Flipped byte in the magic.
    std::string bad = good;
    bad[3] ^= 0x20;
    write_file(path, bad);
    expect_load_error(path, "header");
  }
  {  // Negative solve count in the metadata.
    std::vector<std::string> bad = lines;
    bad[1] = "-" + bad[1];
    write_file(path, join(bad));
    expect_load_error(path, "metadata");
  }
  std::remove(path.c_str());
}

TEST(ModelIo, LoadErrorsNameTheOffendingFile) {
  io_fixtures::expect_load_error("/nonexistent/path/model.txt", "/nonexistent/path/model.txt");
}

TEST(ModelIo, LoadRejectsGarbage) {
  const std::string path = "/tmp/subspar_model_garbage.txt";
  FILE* fp = std::fopen(path.c_str(), "w");
  ASSERT_NE(fp, nullptr);
  std::fputs("not a model\n", fp);
  std::fclose(fp);
  EXPECT_THROW(load_model(path), std::invalid_argument);
  std::remove(path.c_str());
  EXPECT_THROW(load_model("/nonexistent/path/model.txt"), std::invalid_argument);
}

class MethodSweep : public ::testing::TestWithParam<SparsifyMethod> {};

TEST_P(MethodSweep, ModelsAreSymmetricOperators) {
  CoreFixture f(irregular_layout(8, 0.6, 5));
  const SparsifiedModel model =
      Extractor(f.solver, f.tree).extract({.method = GetParam()}).model;
  Rng rng(7);
  Vector a(f.layout.n_contacts()), b(f.layout.n_contacts());
  for (auto& x : a) x = rng.normal();
  for (auto& x : b) x = rng.normal();
  EXPECT_NEAR(dot(model.apply(a), b), dot(a, model.apply(b)),
              1e-9 * norm2(a) * norm2(b));
}

INSTANTIATE_TEST_SUITE_P(Methods, MethodSweep,
                         ::testing::Values(SparsifyMethod::kWavelet, SparsifyMethod::kLowRank));

}  // namespace
}  // namespace subspar
