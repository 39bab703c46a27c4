#include "logic/minimize.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/rng.h"
#include "logic/tautology.h"

namespace fstg {
namespace {

Cube random_cube(Rng& rng, int num_vars) {
  Cube cube = Cube::full(num_vars);
  for (int v = 0; v < num_vars; ++v) {
    switch (rng.below(3)) {
      case 0: cube.set(v, Lit::kZero); break;
      case 1: cube.set(v, Lit::kOne); break;
      default: break;
    }
  }
  return cube;
}

/// EXPAND as it was before the off-set: each raise is kept iff the raised
/// cube is covered by on ∪ dc, checked by a tautology test on the cofactor.
/// Kept only as the reference for the differential test below.
Cover tautology_expand(const Cover& cover, const Cover& free_set,
                       int rotation) {
  Cover out(cover.num_vars());
  for (const Cube& cube : cover.cubes()) {
    Cube c = cube;
    for (int k = 0; k < cover.num_vars(); ++k) {
      int v = (k + rotation) % cover.num_vars();
      if (c.get(v) == Lit::kDC) continue;
      Cube raised = c;
      raised.set(v, Lit::kDC);
      if (cube_covered(raised, free_set)) c = raised;
    }
    out.add(c);
  }
  out.remove_single_cube_contained();
  return out;
}

/// IRREDUNDANT as it was before the cofactor was built in place: one
/// `rest` cover copied per cube. Reference for the same test.
Cover copying_irredundant(const Cover& cover, const Cover& dc_set) {
  std::vector<Cube> cubes = cover.cubes();
  std::vector<bool> keep(cubes.size(), true);
  for (std::size_t i = 0; i < cubes.size(); ++i) {
    Cover rest(cover.num_vars());
    for (std::size_t j = 0; j < cubes.size(); ++j)
      if (j != i && keep[j]) rest.add(cubes[j]);
    for (const Cube& d : dc_set.cubes()) rest.add(d);
    if (cube_covered(cubes[i], rest)) keep[i] = false;
  }
  Cover out(cover.num_vars());
  for (std::size_t i = 0; i < cubes.size(); ++i)
    if (keep[i]) out.add(cubes[i]);
  return out;
}

std::vector<std::string> cube_strings(const Cover& cover) {
  std::vector<std::string> out;
  for (const Cube& c : cover.cubes()) out.push_back(c.to_string());
  return out;
}

/// A cube with each variable fixed with probability `fixed_num`/8.
Cube sparse_cube(Rng& rng, int num_vars, std::uint64_t fixed_num) {
  Cube cube = Cube::full(num_vars);
  for (int v = 0; v < num_vars; ++v)
    if (rng.chance(fixed_num, 8))
      cube.set(v, rng.chance(1, 2) ? Lit::kOne : Lit::kZero);
  return cube;
}

TEST(MinimizeCover, EmptyOnSetStaysEmpty) {
  Cover on(3), dc(3);
  EXPECT_TRUE(minimize_cover(on, dc).empty());
}

TEST(MinimizeCover, MergesAdjacentMinterms) {
  // on = {00, 01} over 2 vars -> single cube 0-.
  Cover on(2), dc(2);
  on.add(Cube::from_string("00"));
  on.add(Cube::from_string("01"));
  Cover m = minimize_cover(on, dc);
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m[0].to_string(), "0-");
}

TEST(MinimizeCover, UsesDontCares) {
  // on = {00}, dc = {01, 10, 11}: everything is allowed, so a single
  // universal cube is optimal.
  Cover on(2), dc(2);
  on.add(Cube::from_string("00"));
  dc.add(Cube::from_string("01"));
  dc.add(Cube::from_string("1-"));
  Cover m = minimize_cover(on, dc);
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m[0].literal_count(), 0);
}

TEST(MinimizeCover, RemovesRedundantCube) {
  // Classic: ab + a'c + bc — the consensus term bc is redundant.
  // vars: 0=a, 1=b, 2=c.
  Cover on(3), dc(3);
  on.add(Cube::from_string("11-"));  // a b
  on.add(Cube::from_string("0-1"));  // a' c
  on.add(Cube::from_string("-11"));  // b c (redundant)
  Cover m = minimize_cover(on, dc);
  EXPECT_EQ(m.size(), 2u);
}

class MinimizeProperty : public ::testing::TestWithParam<int> {};

TEST_P(MinimizeProperty, ExactOnRandomFunctions) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337 + 5);
  for (int iter = 0; iter < 150; ++iter) {
    const int nv = 2 + static_cast<int>(rng.below(5));
    Cover on(nv), dc(nv);
    const int n_on = static_cast<int>(rng.below(6));
    const int n_dc = static_cast<int>(rng.below(3));
    for (int i = 0; i < n_on; ++i) on.add(random_cube(rng, nv));
    for (int i = 0; i < n_dc; ++i) dc.add(random_cube(rng, nv));

    Cover m = minimize_cover(on, dc);
    // Exactness: m covers every on-minterm not excused by dc, and no
    // minterm outside on ∪ dc.
    for (std::uint32_t p = 0; p < (1u << nv); ++p) {
      const bool in_on = on.eval(p), in_dc = dc.eval(p), in_m = m.eval(p);
      if (in_on && !in_dc) EXPECT_TRUE(in_m) << "dropped on-minterm " << p;
      if (!in_on && !in_dc) EXPECT_FALSE(in_m) << "covers off-minterm " << p;
    }
    // Cost sanity: never more cubes than the input on-set.
    EXPECT_LE(m.size(), std::max<std::size_t>(on.size(), 1));
  }
}

TEST_P(MinimizeProperty, IrredundantHasNoRemovableCube) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7 + 99);
  for (int iter = 0; iter < 60; ++iter) {
    const int nv = 2 + static_cast<int>(rng.below(4));
    Cover on(nv), dc(nv);
    for (int i = 0; i < 5; ++i) on.add(random_cube(rng, nv));
    Cover m = minimize_cover(on, dc);
    for (std::size_t drop = 0; drop < m.size(); ++drop) {
      Cover rest(nv);
      for (std::size_t j = 0; j < m.size(); ++j)
        if (j != drop) rest.add(m[j]);
      EXPECT_FALSE(cube_covered(m[drop], rest))
          << "cube " << drop << " is redundant";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinimizeProperty, ::testing::Range(0, 6));

TEST(MinimizeCover, OffSetExpandMatchesTautologyReference) {
  Rng rng(0x0ff5e7);
  int cases = 0, raised = 0, dropped = 0;
  for (int nv = 2; nv <= 18; ++nv) {
    for (int k = 0; k < 12; ++k) {
      Cover on(nv), dc(nv);
      const int n_on = static_cast<int>(rng.range(1, 8));
      const int n_dc = static_cast<int>(rng.range(0, 6));
      const std::uint64_t density = rng.range(2, 7);
      for (int i = 0; i < n_on; ++i) on.add(sparse_cube(rng, nv, density));
      // Half the dc cubes overlap an on cube: a copy of one with a few
      // literals raised, so on and dc share minterms.
      for (int i = 0; i < n_dc; ++i) {
        if (rng.chance(1, 2)) {
          Cube d = on[rng.below(on.size())];
          for (int v = 0; v < nv; ++v)
            if (rng.chance(1, 4)) d.set(v, Lit::kDC);
          dc.add(d);
        } else {
          dc.add(sparse_cube(rng, nv, density));
        }
      }
      Cover free_set = on;
      for (const Cube& d : dc.cubes()) free_set.add(d);
      const Cover off_set = complement_cover(free_set);

      // Three passes with minimize_cover's rotations (0, 7, 14); each step
      // of each pass runs both versions on the same input.
      Cover current = on;
      current.remove_single_cube_contained();
      for (int pass = 0; pass < 3; ++pass) {
        SCOPED_TRACE(testing::Message() << "nv " << nv << " case " << k
                                        << " pass " << pass);
        const int rotation = pass * 7;
        const Cover ref_expanded = tautology_expand(current, free_set, rotation);
        const Cover expanded = expand_cover(current, off_set, rotation);
        ASSERT_EQ(cube_strings(expanded), cube_strings(ref_expanded));
        const Cover ref_kept = copying_irredundant(ref_expanded, dc);
        const Cover kept = irredundant_cover(expanded, dc);
        ASSERT_EQ(cube_strings(kept), cube_strings(ref_kept));
        if (cube_strings(ref_expanded) != cube_strings(current)) ++raised;
        if (ref_kept.size() < ref_expanded.size()) ++dropped;
        current = kept;
      }
      ++cases;
    }
  }
  // The random mix must exercise both steps.
  EXPECT_GT(raised, cases / 2);
  EXPECT_GT(dropped, cases / 8);
}

}  // namespace
}  // namespace fstg
