#include "logic/tautology.h"

#include <algorithm>

namespace fstg {

namespace {

bool taut_rec(const Cover& cover) {
  // Leaf rules.
  std::uint64_t minterms_bound = 0;
  const std::uint64_t total =
      cover.num_vars() >= 64 ? ~std::uint64_t{0}
                             : std::uint64_t{1} << cover.num_vars();
  for (const Cube& c : cover.cubes()) {
    if (c.literal_count() == 0) return true;  // universal cube present
    minterms_bound += c.minterm_count();
  }
  if (minterms_bound < total) return false;  // cannot possibly cover

  // Variable selection: most binate (appears in both polarities in the most
  // cubes); fall back to any variable with a literal.
  int best_var = -1;
  int best_score = -1;
  for (int v = 0; v < cover.num_vars(); ++v) {
    int zeros = 0, ones = 0;
    for (const Cube& c : cover.cubes()) {
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
  if (best_var < 0) {
    // No literals anywhere: every cube is universal; handled above unless
    // the cover is empty.
    return !cover.empty();
  }

  Cube lo = Cube::full(cover.num_vars());
  lo.set(best_var, Lit::kZero);
  Cube hi = Cube::full(cover.num_vars());
  hi.set(best_var, Lit::kOne);
  return taut_rec(cover.cofactor(lo)) && taut_rec(cover.cofactor(hi));
}

}  // namespace

bool is_tautology(const Cover& cover) {
  if (cover.empty()) return false;
  return taut_rec(cover);
}

bool cube_covered(const Cube& c, const Cover& cover) {
  return is_tautology(cover.cofactor(c));
}

namespace {

// Complement restricted to the subspace `space` (a cube); returns cubes
// inside `space` not covered by `cover`. `parent_cof` is the cover's
// cofactor with respect to a cube containing `space` (cofactoring it again
// gives the cover's own cofactor with respect to `space`). A cofactor that
// is a tautology splits into tautologies down to universal-cube leaves, so
// it adds nothing without a separate tautology check.
void complement_rec(const Cover& parent_cof, const Cube& space, Cover& out) {
  const Cover cof = parent_cof.cofactor(space);
  // Leaf: nothing covers the space -> the whole space is in the complement.
  if (cof.empty()) {
    out.add(space);
    return;
  }
  // Leaf: some cube covers the whole space -> nothing to add.
  for (const Cube& c : cof.cubes())
    if (c.literal_count() == 0) return;

  // Split on the most binate variable of the cofactor.
  int best_var = -1, best_score = -1;
  for (int v = 0; v < cof.num_vars(); ++v) {
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
  if (best_var < 0) {
    // No literal in a free variable: every cofactor cube is universal,
    // handled above.
    return;
  }
  Cube lo = space, hi = space;
  lo.set(best_var, Lit::kZero);
  hi.set(best_var, Lit::kOne);
  complement_rec(cof, lo, out);
  complement_rec(cof, hi, out);
}

}  // namespace

Cover complement_cover(const Cover& cover) {
  Cover out(cover.num_vars());
  complement_rec(cover, Cube::full(cover.num_vars()), out);
  return out;
}

}  // namespace fstg
