// Tests for the substrate-aware circuit simulator: MNA correctness against
// hand-solved circuits, the substrate coupling block against an equivalent
// resistor network, and backward-Euler transient behaviour.
#include <gtest/gtest.h>

#include <cmath>

#include "circuit/netlist.hpp"
#include "circuit/simulator.hpp"
#include "geometry/layout_gen.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/eig_sym.hpp"
#include "substrate/eigen_solver.hpp"
#include "substrate/solver.hpp"
#include "subspar/extraction.hpp"
#include "support/lanczos.hpp"
#include "util/rng.hpp"

namespace subspar {
namespace {

TEST(Netlist, BuildsAndValidates) {
  Netlist nl;
  const NodeId a = nl.add_node("a");
  const NodeId b = nl.add_node();
  nl.add_resistor(a, b, 10.0);
  nl.add_resistor(b, kGround, 5.0);
  EXPECT_EQ(nl.n_nodes(), 2u);
  EXPECT_EQ(nl.node_name(a), "a");
  EXPECT_THROW(nl.add_resistor(a, a, 1.0), std::invalid_argument);
  EXPECT_THROW(nl.add_resistor(a, 99, 1.0), std::invalid_argument);
  EXPECT_THROW(nl.add_resistor(a, b, 0.0), std::invalid_argument);
}

TEST(CircuitSim, VoltageDividerDc) {
  Netlist nl;
  const NodeId top = nl.add_node("top");
  const NodeId mid = nl.add_node("mid");
  nl.add_voltage_source(top, kGround, 9.0);
  nl.add_resistor(top, mid, 2000.0);
  nl.add_resistor(mid, kGround, 1000.0);
  CircuitSim sim(nl);
  const Vector x = sim.solve_dc();
  EXPECT_NEAR(sim.node_voltage(x, top), 9.0, 1e-9);
  EXPECT_NEAR(sim.node_voltage(x, mid), 3.0, 1e-9);
  // Source supplies 3 mA flowing top -> ground through the divider.
  EXPECT_NEAR(sim.vsource_current(x, 0), -3e-3, 1e-9);
}

TEST(CircuitSim, CurrentSourceIntoResistor) {
  Netlist nl;
  const NodeId n = nl.add_node();
  nl.add_current_source(kGround, n, 2e-3);  // 2 mA into n
  nl.add_resistor(n, kGround, 500.0);
  CircuitSim sim(nl);
  const Vector x = sim.solve_dc();
  EXPECT_NEAR(sim.node_voltage(x, n), 1.0, 1e-9);
}

TEST(CircuitSim, WheatstoneBridgeBalanced) {
  Netlist nl;
  const NodeId top = nl.add_node();
  const NodeId left = nl.add_node();
  const NodeId right = nl.add_node();
  nl.add_voltage_source(top, kGround, 10.0);
  nl.add_resistor(top, left, 100.0);
  nl.add_resistor(top, right, 100.0);
  nl.add_resistor(left, kGround, 200.0);
  nl.add_resistor(right, kGround, 200.0);
  nl.add_resistor(left, right, 55.0);  // bridge resistor carries no current
  CircuitSim sim(nl);
  const Vector x = sim.solve_dc();
  EXPECT_NEAR(sim.node_voltage(x, left), sim.node_voltage(x, right), 1e-9);
}

TEST(CircuitSim, SubstrateBlockMatchesEquivalentNetwork) {
  // Two substrate contacts bound to two circuit nodes must behave exactly
  // like the 2x2 conductance network G of the substrate (pi-equivalent).
  Layout layout(16, 16, 2.0);
  layout.add_contact(Contact(2, 2, 2, 2));
  layout.add_contact(Contact(10, 6, 2, 2));
  const SurfaceSolver solver(layout, paper_stack(16.0));
  const Matrix g = extract_dense(solver);

  // Substrate-bound circuit: drive contact 0 through a series resistor.
  Netlist nl;
  const NodeId drv = nl.add_node("drive");
  const NodeId c0 = nl.add_node("c0");
  const NodeId c1 = nl.add_node("c1");
  nl.add_voltage_source(drv, kGround, 1.0);
  nl.add_resistor(drv, c0, 0.25);
  nl.add_resistor(c1, kGround, 0.5);
  SubstrateBinding binding;
  binding.contact_nodes = {c0, c1};
  binding.coupling = [&](const Vector& vc) { return matvec(g, vc); };
  CircuitSim sim(nl, binding);
  const Vector x = sim.solve_dc();

  // Reference: same circuit with the substrate replaced by its exact
  // pi-network (g01 between the nodes, row-sum remainders to ground).
  Netlist ref;
  const NodeId rdrv = ref.add_node();
  const NodeId rc0 = ref.add_node();
  const NodeId rc1 = ref.add_node();
  ref.add_voltage_source(rdrv, kGround, 1.0);
  ref.add_resistor(rdrv, rc0, 0.25);
  ref.add_resistor(rc1, kGround, 0.5);
  ref.add_resistor(rc0, rc1, 1.0 / (-g(0, 1)));
  ref.add_resistor(rc0, kGround, 1.0 / (g(0, 0) + g(0, 1)));
  ref.add_resistor(rc1, kGround, 1.0 / (g(1, 1) + g(1, 0)));
  CircuitSim rsim(ref);
  const Vector rx = rsim.solve_dc();

  EXPECT_NEAR(sim.node_voltage(x, c0), rsim.node_voltage(rx, rc0), 1e-7);
  EXPECT_NEAR(sim.node_voltage(x, c1), rsim.node_voltage(rx, rc1), 1e-7);
}

TEST(CircuitSim, SparsifiedCouplingMatchesDenseCoupling) {
  const Layout layout = regular_grid_layout(4);
  const SurfaceSolver solver(layout, paper_stack());
  const QuadTree tree(layout);
  const Matrix g = extract_dense(solver);
  const SparsifiedModel model = Extractor(solver, tree).extract().model;

  auto build = [&](const std::function<Vector(const Vector&)>& coupling, Netlist& nl) {
    std::vector<NodeId> nodes;
    for (std::size_t k = 0; k < layout.n_contacts(); ++k) nodes.push_back(kGround);
    const NodeId hot = nl.add_node("hot");
    nodes[0] = hot;
    nl.add_current_source(kGround, hot, 1e-3);
    nl.add_resistor(hot, kGround, 1000.0);
    SubstrateBinding b;
    b.contact_nodes = std::move(nodes);
    b.coupling = coupling;
    return b;
  };

  Netlist nl1, nl2;
  auto b1 = build([&](const Vector& vc) { return matvec(g, vc); }, nl1);
  auto b2 = build([&](const Vector& vc) { return model.apply(vc); }, nl2);
  CircuitSim dense_sim(nl1, b1);
  CircuitSim sparse_sim(nl2, b2);
  const NodeId hot = 0;  // first node created inside build()
  const double v_dense = dense_sim.node_voltage(dense_sim.solve_dc(), hot);
  const double v_sparse = sparse_sim.node_voltage(sparse_sim.solve_dc(), hot);
  EXPECT_GT(std::abs(v_dense), 0.0);
  EXPECT_NEAR(v_sparse, v_dense, 5e-3 * std::abs(v_dense) + 1e-12);
}

TEST(NetlistText, FormatParseRoundTrip) {
  Netlist nl;
  const NodeId in = nl.add_node("in");
  const NodeId out = nl.add_node("out");
  const NodeId aux = nl.add_node();  // auto-named
  nl.add_voltage_source(in, kGround, 2.5);
  nl.add_resistor(in, out, 1000.0);
  nl.add_resistor(out, aux, 47.5);
  nl.add_capacitor(out, kGround, 1e-6);
  nl.add_current_source(kGround, aux, 3e-3);

  const std::string text = format_netlist(nl);
  const Netlist back = parse_netlist(text);
  ASSERT_EQ(back.n_nodes(), nl.n_nodes());
  ASSERT_EQ(back.resistors().size(), nl.resistors().size());
  ASSERT_EQ(back.capacitors().size(), nl.capacitors().size());
  ASSERT_EQ(back.current_sources().size(), nl.current_sources().size());
  ASSERT_EQ(back.voltage_sources().size(), nl.voltage_sources().size());
  // Every element's topology survives by NAME (ids may renumber with the
  // order of first reference), and the values survive to the last digit.
  const auto name = [](const Netlist& n, NodeId id) {
    return id == kGround ? std::string("0") : n.node_name(id);
  };
  for (std::size_t i = 0; i < nl.resistors().size(); ++i) {
    EXPECT_EQ(name(back, back.resistors()[i].a), name(nl, nl.resistors()[i].a));
    EXPECT_EQ(name(back, back.resistors()[i].b), name(nl, nl.resistors()[i].b));
    EXPECT_DOUBLE_EQ(back.resistors()[i].g, nl.resistors()[i].g);
  }
  EXPECT_EQ(name(back, back.capacitors()[0].a), "out");
  EXPECT_EQ(back.capacitors()[0].c, 1e-6);
  EXPECT_EQ(back.current_sources()[0].i, 3e-3);
  EXPECT_EQ(back.voltage_sources()[0].v, 2.5);
  // The text form is a fixed point of parse/format after the first trip.
  const std::string text2 = format_netlist(back);
  EXPECT_EQ(format_netlist(parse_netlist(text2)), text2);
}

TEST(NetlistText, ParsesHandWrittenCardsWithSuffixes) {
  const Netlist nl = parse_netlist(
      "* RC divider, hand-written\n"
      "V1 vin 0 5\n"
      "R1 vin vout 4.7k\n"
      "R2 vout 0 9400\n"
      "C1 vout gnd 2.2u\n"
      "I1 0 vout 1m\n"
      ".end\n");
  ASSERT_EQ(nl.n_nodes(), 2u);
  EXPECT_DOUBLE_EQ(1.0 / nl.resistors()[0].g, 4700.0);
  EXPECT_DOUBLE_EQ(1.0 / nl.resistors()[1].g, 9400.0);
  EXPECT_DOUBLE_EQ(nl.capacitors()[0].c, 2.2e-6);
  EXPECT_DOUBLE_EQ(nl.current_sources()[0].i, 1e-3);
  EXPECT_DOUBLE_EQ(nl.voltage_sources()[0].v, 5.0);
  // Ground accepted as both 0 and gnd.
  EXPECT_EQ(nl.capacitors()[0].b, kGround);

  // Malformed cards are rejected, not silently skipped.
  EXPECT_THROW(parse_netlist("R1 a b\n"), std::invalid_argument);          // missing value
  EXPECT_THROW(parse_netlist("R1 a b 10 extra\n"), std::invalid_argument); // trailing junk
  EXPECT_THROW(parse_netlist("X1 a b 10\n"), std::invalid_argument);       // unknown card
  EXPECT_THROW(parse_netlist("R1 a b 10q\n"), std::invalid_argument);      // bad suffix
  EXPECT_THROW(parse_netlist("R1 a b ohms\n"), std::invalid_argument);     // not a number
}

TEST(NetlistText, HardenedParserRejectsStructuralErrors) {
  // Empty input (no element cards at all) is rejected, not returned as a
  // useless zero-node netlist.
  EXPECT_THROW(parse_netlist(""), std::invalid_argument);
  EXPECT_THROW(parse_netlist("* only a comment\n.end\n"), std::invalid_argument);
  // Duplicate element definitions, case-insensitively ('r1' redefines 'R1').
  EXPECT_THROW(parse_netlist("R1 a b 10\nR1 b c 20\n"), std::invalid_argument);
  EXPECT_THROW(parse_netlist("R1 a b 10\nr1 b c 20\n"), std::invalid_argument);
  // Out-of-range values: a literal beyond double range (strtod saturates to
  // inf) and a suffix-scaled overflow.
  EXPECT_THROW(parse_netlist("R1 a b 1e400\n"), std::invalid_argument);
  EXPECT_THROW(parse_netlist("R1 a b 1e306t\n"), std::invalid_argument);
}

TEST(NetlistText, ParseErrorsCarryTheSourceLineNumber) {
  try {
    parse_netlist("V1 in 0 1\nR1 in out 1k\nR2 out 0 bad\n");
    FAIL() << "accepted a malformed value";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
  }
  // Element preconditions (here: a self-loop resistor) surface with the
  // line context attached, not as a bare requirement failure.
  try {
    parse_netlist("V1 in 0 1\nR1 a a 10\n");
    FAIL() << "accepted a self-loop resistor";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
}

TEST(NetlistText, ParsedRcTransientMatchesAnalytic) {
  // The RC step-response circuit, entering the simulator from TEXT: charge
  // a 1 ms time-constant RC from a 1 V step and compare with
  // 1 - exp(-t / RC).
  Netlist nl = parse_netlist(
      "V1 src 0 0\n"
      "R1 src out 1k\n"
      "C1 out 0 1u\n");
  CircuitSim sim(nl);
  const double dt = 5e-5;
  const auto tr = sim.transient(dt, 60, {1},
                                [](double, Netlist& net) { net.set_voltage_source(0, 1.0); });
  for (std::size_t k = 0; k < tr.time.size(); ++k) {
    const double expect = 1.0 - std::exp(-tr.time[k] / 1e-3);
    EXPECT_NEAR(tr.probe_voltages[k][0], expect, 0.03);
  }
}

TEST(CircuitSim, TransientRcDecayMatchesAnalytic) {
  // Step-charge a capacitor through a resistor: the source is 0 at the DC
  // operating point and steps to 1 V for t > 0, so the backward-Euler
  // trajectory must track 1 - exp(-t/RC) to first order in dt.
  Netlist nl;
  const NodeId src = nl.add_node();
  const NodeId out = nl.add_node();
  nl.add_voltage_source(src, kGround, 0.0);
  nl.add_resistor(src, out, 1000.0);
  nl.add_capacitor(out, kGround, 1e-6);  // tau = 1 ms
  CircuitSim sim(nl);
  const double dt = 5e-5;
  const auto tr = sim.transient(dt, 60, {out},
                                [](double, Netlist& net) { net.set_voltage_source(0, 1.0); });
  for (std::size_t k = 0; k < tr.time.size(); ++k) {
    const double expect = 1.0 - std::exp(-tr.time[k] / 1e-3);
    EXPECT_NEAR(tr.probe_voltages[k][0], expect, 0.03);
  }
  // Monotone rise.
  for (std::size_t k = 1; k < tr.time.size(); ++k)
    EXPECT_GE(tr.probe_voltages[k][0] + 1e-12, tr.probe_voltages[k - 1][0]);
}

TEST(CircuitSim, TransientStimulusInjection) {
  // Square-wave current source; response must follow the stimulus sign.
  Netlist nl;
  const NodeId n = nl.add_node();
  nl.add_current_source(kGround, n, 0.0);
  nl.add_resistor(n, kGround, 100.0);
  CircuitSim sim(nl);
  const auto tr = sim.transient(1e-4, 20, {n}, [](double t, Netlist& net) {
    net.set_current_source(0, t < 1e-3 ? 1e-3 : -1e-3);
  });
  EXPECT_NEAR(tr.probe_voltages[5][0], 0.1, 1e-6);
  EXPECT_NEAR(tr.probe_voltages[15][0], -0.1, 1e-6);
}

TEST(Lanczos, RecoversSpectrumOfKnownMatrix) {
  Rng rng(5);
  const std::size_t n = 40;
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.normal();
  Matrix a = matmul_tn(b, b);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 1.0;
  const EigSym dec = eig_sym(a);
  const SpectrumEstimate est =
      lanczos_extremes([&](const Vector& v) { return matvec(a, v); }, n, 40);
  EXPECT_NEAR(est.lambda_max, dec.values[n - 1], 1e-6 * dec.values[n - 1]);
  EXPECT_NEAR(est.lambda_min, dec.values[0], 0.05 * dec.values[0]);
}

TEST(Lanczos, PreconditioningCompressesSpectrum) {
  // cond(M^{-1}A) << cond(A) for a good preconditioner — the mechanism
  // behind Table 2.1, checked on a 1-D chain with its exact inverse.
  Rng rng(6);
  const std::size_t n = 64;
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = 2.01;
    if (i > 0) a(i, i - 1) = -1.0;
    if (i + 1 < n) a(i, i + 1) = -1.0;
  }
  const SpectrumEstimate plain =
      lanczos_extremes([&](const Vector& v) { return matvec(a, v); }, n, 60);
  const Cholesky chol(a);
  const SpectrumEstimate prec = lanczos_extremes(
      [&](const Vector& v) { return chol.solve(matvec(a, v)); }, n, 20);
  EXPECT_GT(plain.condition(), 100.0);
  EXPECT_LT(prec.condition(), 1.5);
}

}  // namespace
}  // namespace subspar
