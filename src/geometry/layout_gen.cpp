#include "geometry/layout_gen.hpp"

#include <vector>

#include "transform/dct.hpp"
#include "util/rng.hpp"

namespace subspar {
namespace {

void require_grid(int cells_per_side) {
  SUBSPAR_REQUIRE(cells_per_side >= 4);
  SUBSPAR_REQUIRE(is_power_of_two(static_cast<std::size_t>(cells_per_side)));
}

}  // namespace

Layout regular_grid_layout(int contacts_per_side, double panel_size) {
  require_grid(contacts_per_side);
  const std::size_t panels = static_cast<std::size_t>(contacts_per_side) * 4;
  Layout layout(panels, panels, panel_size);
  for (int cy = 0; cy < contacts_per_side; ++cy)
    for (int cx = 0; cx < contacts_per_side; ++cx)
      layout.add_contact(Contact(4 * cx + 1, 4 * cy + 1, 2, 2));
  return layout;
}

Layout irregular_layout(int cells_per_side, double keep_prob, std::uint64_t seed,
                        double panel_size) {
  require_grid(cells_per_side);
  SUBSPAR_REQUIRE(keep_prob > 0.0 && keep_prob <= 1.0);
  const std::size_t panels = static_cast<std::size_t>(cells_per_side) * 4;
  Layout layout(panels, panels, panel_size);
  Rng rng(seed);

  // A few rectangular void regions create the "many large gaps" of Fig. 3-7.
  struct Void {
    int x0, y0, x1, y1;
  };
  std::vector<Void> voids;
  const int n_voids = 2 + static_cast<int>(rng.below(3));
  for (int v = 0; v < n_voids; ++v) {
    const int w = cells_per_side / 4 + static_cast<int>(rng.below(cells_per_side / 4 + 1));
    const int h = cells_per_side / 4 + static_cast<int>(rng.below(cells_per_side / 4 + 1));
    const int x0 = static_cast<int>(rng.below(static_cast<std::uint64_t>(cells_per_side - w)));
    const int y0 = static_cast<int>(rng.below(static_cast<std::uint64_t>(cells_per_side - h)));
    voids.push_back({x0, y0, x0 + w, y0 + h});
  }

  for (int cy = 0; cy < cells_per_side; ++cy) {
    for (int cx = 0; cx < cells_per_side; ++cx) {
      bool in_void = false;
      for (const auto& v : voids)
        if (cx >= v.x0 && cx < v.x1 && cy >= v.y0 && cy < v.y1) in_void = true;
      if (in_void || rng.uniform() > keep_prob) continue;
      layout.add_contact(Contact(4 * cx + 1, 4 * cy + 1, 2, 2));
    }
  }
  // A layout with too few contacts is a degenerate benchmark; the seeds used
  // by the benches keep several hundred.
  SUBSPAR_ENSURE(layout.n_contacts() >= 16);
  return layout;
}

Layout alternating_size_layout(int cells_per_side, double panel_size) {
  require_grid(cells_per_side);
  const std::size_t panels = static_cast<std::size_t>(cells_per_side) * 4;
  Layout layout(panels, panels, panel_size);
  // Rows alternate 3x3 and 1x1 contacts (9:1 area ratio). The strong size
  // mismatch is what defeats the geometric wavelet basis (Table 3.1 Ex. 3);
  // it also produces heavily shielded small-to-small couplings, so error
  // metrics distinguish the full entry population from the paper-comparable
  // one (>= max/500, see core/report.hpp).
  for (int cy = 0; cy < cells_per_side; ++cy) {
    const bool big_row = (cy % 2 == 0);
    for (int cx = 0; cx < cells_per_side; ++cx) {
      if (big_row) {
        layout.add_contact(Contact(4 * cx, 4 * cy, 3, 3));
      } else {
        layout.add_contact(Contact(4 * cx + 1, 4 * cy + 1, 1, 1));
      }
    }
  }
  return layout;
}

Layout simple_six_layout(double panel_size) {
  // 32x32 panels; level-2 squares are 8 panels. Source square (0,0) holds
  // contacts 1 and 2; destination square (2,1) is interactive to it
  // (separated by a square, parents adjacent).
  Layout layout(32, 32, panel_size);
  layout.add_contact(Contact(1, 1, 2, 2));  // contact 1 (small)
  layout.add_contact(Contact(4, 4, 3, 3));  // contact 2 (2.25x the area)
  // Contacts 3..6 in the destination square [16,24) x [8,16).
  layout.add_contact(Contact(17, 9, 2, 2));
  layout.add_contact(Contact(21, 9, 2, 2));
  layout.add_contact(Contact(17, 13, 2, 2));
  layout.add_contact(Contact(21, 13, 2, 2));
  return layout;
}

Layout mixed_shapes_layout(int cells_per_side, std::uint64_t seed, double panel_size) {
  require_grid(cells_per_side);
  const std::size_t panels = static_cast<std::size_t>(cells_per_side) * 4;
  Layout layout(panels, panels, panel_size);
  Rng rng(seed);
  for (int cy = 0; cy < cells_per_side; ++cy) {
    for (int cx = 0; cx < cells_per_side; ++cx) {
      const int px = 4 * cx, py = 4 * cy;
      switch (rng.below(6)) {
        case 0:  // small square
          layout.add_contact(Contact(px + 1, py + 1, 1, 1));
          break;
        case 1:  // medium square
          layout.add_contact(Contact(px + 1, py + 1, 2, 2));
          break;
        case 2: {  // ring: 4x4 annulus of width 1 (four rect parts)
          Contact ring(std::vector<Rect>{{px, py, 4, 1},
                                         {px, py + 3, 4, 1},
                                         {px, py + 1, 1, 2},
                                         {px + 3, py + 1, 1, 2}});
          layout.add_contact(ring);
          break;
        }
        case 3:  // horizontal strip segment (split long thin contact)
          layout.add_contact(Contact(px, py + 1, 4, 1));
          break;
        case 4:  // vertical strip segment
          layout.add_contact(Contact(px + 1, py, 1, 4));
          break;
        default:  // empty cell
          break;
      }
    }
  }
  SUBSPAR_ENSURE(layout.n_contacts() >= 16);
  return layout;
}

Layout large_mixed_layout(int cells_per_side, double fill_prob, std::uint64_t seed,
                          double panel_size) {
  require_grid(cells_per_side);
  SUBSPAR_REQUIRE(fill_prob > 0.0 && fill_prob <= 1.0);
  const std::size_t panels = static_cast<std::size_t>(cells_per_side) * 4;
  Layout layout(panels, panels, panel_size);
  Rng rng(seed);
  for (int cy = 0; cy < cells_per_side; ++cy) {
    for (int cx = 0; cx < cells_per_side; ++cx) {
      if (rng.uniform() > fill_prob) continue;
      const int px = 4 * cx, py = 4 * cy;
      if (rng.below(8) == 0) {
        // Occasional large contact.
        layout.add_contact(Contact(px, py, 3, 3));
      } else {
        // Field of four small contacts at pitch 2.
        layout.add_contact(Contact(px, py, 1, 1));
        layout.add_contact(Contact(px + 2, py, 1, 1));
        layout.add_contact(Contact(px, py + 2, 1, 1));
        layout.add_contact(Contact(px + 2, py + 2, 1, 1));
      }
    }
  }
  SUBSPAR_ENSURE(layout.n_contacts() >= 16);
  return layout;
}

}  // namespace subspar
