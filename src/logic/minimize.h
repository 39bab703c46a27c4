#pragma once

#include "logic/cover.h"

namespace fstg {

/// Options for the two-level minimizer.
struct MinimizeOptions {
  /// Number of EXPAND + IRREDUNDANT passes (each pass rotates the literal
  /// raising order, which lets stuck covers improve).
  int passes = 2;
};

/// Heuristic two-level minimization of a single-output function given its
/// on-set and dc-set covers (espresso's EXPAND and IRREDUNDANT cores). The
/// off-set is computed once, as the exact complement of on ∪ dc, and EXPAND
/// checks each raise against it; IRREDUNDANT checks containment by
/// tautology. The result covers every on-set minterm, never covers an
/// off-set minterm, and contains no single-cube-redundant or
/// fully-redundant cubes.
Cover minimize_cover(const Cover& on_set, const Cover& dc_set,
                     const MinimizeOptions& options = {});

/// EXPAND each cube of `cover`: raise literals to DC while the cube stays
/// disjoint from `off_set`, which must be the exact complement of on ∪ dc
/// (so a raise is kept iff the raised cube lies inside on ∪ dc).
/// `rotation` offsets the variable order.
Cover expand_cover(const Cover& cover, const Cover& off_set, int rotation);

/// Remove cubes whose minterms are already covered by the rest ∪ dc.
Cover irredundant_cover(const Cover& cover, const Cover& dc_set);

}  // namespace fstg
