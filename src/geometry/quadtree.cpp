#include "geometry/quadtree.hpp"

#include <algorithm>
#include <cmath>

#include "transform/dct.hpp"

namespace subspar {

const std::vector<std::size_t> QuadTree::kEmpty{};

namespace {

// Deepest level at which a bounding box [x0, x1) stays inside one square of
// side panels/2^l, over both axes.
int deepest_fitting_level(const Rect& bb, std::size_t panels) {
  int level = 0;
  for (int l = 1; (std::size_t(1) << l) <= panels; ++l) {
    const int side = static_cast<int>(panels >> l);
    if (bb.x0 / side != (bb.x1() - 1) / side) break;
    if (bb.y0 / side != (bb.y1() - 1) / side) break;
    level = l;
  }
  return level;
}

}  // namespace

QuadTree::QuadTree(const Layout& layout, int max_level) : layout_(&layout) {
  SUBSPAR_REQUIRE(layout.panels_x() == layout.panels_y());
  SUBSPAR_REQUIRE(is_power_of_two(layout.panels_x()));
  const std::size_t panels = layout.panels_x();

  int deepest = static_cast<int>(std::round(std::log2(static_cast<double>(panels))));
  for (std::size_t i = 0; i < layout.n_contacts(); ++i)
    deepest = std::min(deepest, deepest_fitting_level(layout.contact(i).bounding_box(), panels));
  if (max_level < 0) {
    max_level_ = deepest;
  } else {
    SUBSPAR_REQUIRE(max_level <= deepest);  // contacts may not cross squares
    max_level_ = max_level;
  }
  SUBSPAR_REQUIRE(max_level_ >= 2);  // the multilevel algorithms start at level 2

  cells_.resize(static_cast<std::size_t>(max_level_) + 1);
  square_lists_.resize(static_cast<std::size_t>(max_level_) + 1);
  home_.resize(layout.n_contacts());

  for (std::size_t i = 0; i < layout.n_contacts(); ++i) {
    const Rect bb = layout.contact(i).bounding_box();
    for (int l = 0; l <= max_level_; ++l) {
      const int side = static_cast<int>(panels >> l);
      const int ix = bb.x0 / side;
      const int iy = bb.y0 / side;
      cells_[static_cast<std::size_t>(l)][{ix, iy}].push_back(i);
      if (l == max_level_) home_[i] = SquareId{l, ix, iy};
    }
  }
  for (int l = 0; l <= max_level_; ++l) {
    auto& list = square_lists_[static_cast<std::size_t>(l)];
    for (const auto& [key, ids] : cells_[static_cast<std::size_t>(l)]) {
      (void)ids;
      list.push_back(SquareId{l, key.first, key.second});
    }
    std::sort(list.begin(), list.end(), [](const SquareId& a, const SquareId& b) {
      return a.iy != b.iy ? a.iy < b.iy : a.ix < b.ix;
    });
  }
}

const std::vector<SquareId>& QuadTree::squares(int level) const {
  SUBSPAR_REQUIRE(level >= 0 && level <= max_level_);
  return square_lists_[static_cast<std::size_t>(level)];
}

const std::vector<std::size_t>& QuadTree::contacts_in(const SquareId& s) const {
  SUBSPAR_REQUIRE(s.level >= 0 && s.level <= max_level_);
  const auto& m = cells_[static_cast<std::size_t>(s.level)];
  const auto it = m.find({s.ix, s.iy});
  return it == m.end() ? kEmpty : it->second;
}

SquareId QuadTree::parent(const SquareId& s) const {
  SUBSPAR_REQUIRE(s.level > 0);
  return SquareId{s.level - 1, s.ix / 2, s.iy / 2};
}

SquareId QuadTree::ancestor(const SquareId& s, int level) const {
  SUBSPAR_REQUIRE(level >= 0 && level <= s.level);
  const int shift = s.level - level;
  return SquareId{level, s.ix >> shift, s.iy >> shift};
}

std::vector<SquareId> QuadTree::children(const SquareId& s) const {
  SUBSPAR_REQUIRE(s.level < max_level_);
  std::vector<SquareId> out;
  for (int dy = 0; dy < 2; ++dy)
    for (int dx = 0; dx < 2; ++dx) {
      const SquareId c{s.level + 1, 2 * s.ix + dx, 2 * s.iy + dy};
      if (!is_empty(c)) out.push_back(c);
    }
  return out;
}

std::pair<double, double> QuadTree::center(const SquareId& s) const {
  const double sz = side(s.level);
  return {(static_cast<double>(s.ix) + 0.5) * sz, (static_cast<double>(s.iy) + 0.5) * sz};
}

double QuadTree::side(int level) const {
  return layout_->width() / static_cast<double>(std::size_t(1) << level);
}

bool QuadTree::adjacent_or_same(const SquareId& a, const SquareId& b) {
  SUBSPAR_REQUIRE(a.level == b.level);
  return std::abs(a.ix - b.ix) <= 1 && std::abs(a.iy - b.iy) <= 1;
}

std::vector<SquareId> QuadTree::interactive(const SquareId& s) const {
  std::vector<SquareId> out;
  if (s.level < 2) return out;  // interactive region empty above level 2
  const SquareId p = parent(s);
  // Children of the parent's 3x3 neighborhood that are not local to s.
  for (int py = p.iy - 1; py <= p.iy + 1; ++py) {
    for (int px = p.ix - 1; px <= p.ix + 1; ++px) {
      if (px < 0 || py < 0 || px >= (1 << (s.level - 1)) || py >= (1 << (s.level - 1))) continue;
      for (int dy = 0; dy < 2; ++dy) {
        for (int dx = 0; dx < 2; ++dx) {
          const SquareId c{s.level, 2 * px + dx, 2 * py + dy};
          if (adjacent_or_same(c, s)) continue;
          if (!is_empty(c)) out.push_back(c);
        }
      }
    }
  }
  return out;
}

std::vector<SquareId> QuadTree::local(const SquareId& s) const {
  std::vector<SquareId> out;
  const int n = 1 << s.level;
  for (int dy = -1; dy <= 1; ++dy) {
    for (int dx = -1; dx <= 1; ++dx) {
      const SquareId c{s.level, s.ix + dx, s.iy + dy};
      if (c.ix < 0 || c.iy < 0 || c.ix >= n || c.iy >= n) continue;
      if (!is_empty(c)) out.push_back(c);
    }
  }
  return out;
}

bool QuadTree::well_separated(const SquareId& a, const SquareId& b) const {
  // Order so a is the coarser (or equal-level) square, then compare a with
  // the level-a ancestor of b (§3.5).
  const SquareId& coarse = a.level <= b.level ? a : b;
  const SquareId& fine = a.level <= b.level ? b : a;
  return !adjacent_or_same(coarse, ancestor(fine, coarse.level));
}

}  // namespace subspar
