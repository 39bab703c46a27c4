#include "logic/tautology.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "base/rng.h"

namespace fstg {
namespace {

bool brute_tautology(const Cover& c) {
  for (std::uint32_t m = 0; m < (1u << c.num_vars()); ++m)
    if (!c.eval(m)) return false;
  return true;
}

Cover random_cover(Rng& rng, int num_vars, int max_cubes) {
  Cover c(num_vars);
  const int n = static_cast<int>(rng.below(static_cast<std::uint64_t>(max_cubes) + 1));
  for (int i = 0; i < n; ++i) {
    Cube cube = Cube::full(num_vars);
    for (int v = 0; v < num_vars; ++v) {
      switch (rng.below(3)) {
        case 0: cube.set(v, Lit::kZero); break;
        case 1: cube.set(v, Lit::kOne); break;
        default: break;
      }
    }
    c.add(cube);
  }
  return c;
}

/// complement_cover as it was before it passed cofactors down the
/// recursion: every node cofactors the whole cover and runs a full
/// tautology check before splitting. Kept only as the reference for the
/// differential test below.
void reference_complement_rec(const Cover& cover, const Cube& space,
                              Cover& out) {
  Cover cof = cover.cofactor(space);
  if (cof.empty()) {
    out.add(space);
    return;
  }
  for (const Cube& c : cof.cubes())
    if (c.literal_count() == 0) return;
  if (is_tautology(cof)) return;
  int best_var = -1, best_score = -1;
  for (int v = 0; v < cover.num_vars(); ++v) {
    if (space.get(v) != Lit::kDC) continue;
    int zeros = 0, ones = 0;
    for (const Cube& c : cof.cubes()) {
      Lit l = c.get(v);
      if (l == Lit::kZero) ++zeros;
      if (l == Lit::kOne) ++ones;
    }
    if (zeros + ones == 0) continue;
    int score = std::min(zeros, ones) * 1000 + zeros + ones;
    if (score > best_score) {
      best_score = score;
      best_var = v;
    }
  }
  if (best_var < 0) return;
  Cube lo = space, hi = space;
  lo.set(best_var, Lit::kZero);
  hi.set(best_var, Lit::kOne);
  reference_complement_rec(cover, lo, out);
  reference_complement_rec(cover, hi, out);
}

std::vector<std::string> cube_strings(const Cover& cover) {
  std::vector<std::string> out;
  for (const Cube& c : cover.cubes()) out.push_back(c.to_string());
  return out;
}

TEST(Tautology, EmptyCoverIsNot) {
  EXPECT_FALSE(is_tautology(Cover(3)));
}

TEST(Tautology, UniversalCubeIs) {
  Cover c(3);
  c.add(Cube::full(3));
  EXPECT_TRUE(is_tautology(c));
}

TEST(Tautology, ComplementaryPairIs) {
  Cover c(2);
  c.add(Cube::from_string("1-"));
  c.add(Cube::from_string("0-"));
  EXPECT_TRUE(is_tautology(c));
}

TEST(Tautology, MissingMintermIsNot) {
  Cover c(2);
  c.add(Cube::from_string("1-"));
  c.add(Cube::from_string("00"));
  EXPECT_FALSE(is_tautology(c));  // minterm 01... (var0=0,var1=1) missing
}

TEST(CubeCovered, Basic) {
  Cover c(3);
  c.add(Cube::from_string("1--"));
  c.add(Cube::from_string("01-"));
  EXPECT_TRUE(cube_covered(Cube::from_string("11-"), c));
  EXPECT_TRUE(cube_covered(Cube::from_string("-1-"), c));
  EXPECT_FALSE(cube_covered(Cube::from_string("00-"), c));
  EXPECT_FALSE(cube_covered(Cube::from_string("---"), c));
}

TEST(Complement, EmptyCoverIsUniverse) {
  Cover comp = complement_cover(Cover(2));
  ASSERT_EQ(comp.size(), 1u);
  EXPECT_EQ(comp[0].literal_count(), 0);
}

TEST(Complement, UniverseIsEmpty) {
  Cover c(2);
  c.add(Cube::full(2));
  EXPECT_TRUE(complement_cover(c).empty());
}

class TautologyProperty : public ::testing::TestWithParam<int> {};

TEST_P(TautologyProperty, MatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  for (int iter = 0; iter < 400; ++iter) {
    const int nv = 2 + static_cast<int>(rng.below(6));
    Cover c = random_cover(rng, nv, 8);
    EXPECT_EQ(is_tautology(c), brute_tautology(c)) << "nv=" << nv;
  }
}

TEST_P(TautologyProperty, ComplementIsExact) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 2);
  for (int iter = 0; iter < 200; ++iter) {
    const int nv = 2 + static_cast<int>(rng.below(5));
    Cover c = random_cover(rng, nv, 6);
    Cover comp = complement_cover(c);
    for (std::uint32_t m = 0; m < (1u << nv); ++m)
      ASSERT_NE(c.eval(m), comp.eval(m)) << "minterm " << m;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TautologyProperty, ::testing::Range(0, 6));

TEST(Complement, MatchesTautologyCheckedReference) {
  // Same cubes in the same order; up to 18 variables, with covers dense
  // enough that whole subspaces are tautologies.
  Rng rng(0xc0be5);
  int tautologies = 0;
  for (int nv = 1; nv <= 18; ++nv) {
    for (int k = 0; k < 20; ++k) {
      const Cover c = random_cover(rng, nv, 3 + 2 * k);
      Cover ref(nv);
      reference_complement_rec(c, Cube::full(nv), ref);
      const Cover got = complement_cover(c);
      ASSERT_EQ(cube_strings(got), cube_strings(ref))
          << "nv " << nv << " case " << k;
      tautologies += got.empty() ? 1 : 0;
    }
  }
  EXPECT_GT(tautologies, 0);
}

}  // namespace
}  // namespace fstg
