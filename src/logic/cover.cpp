#include "logic/cover.h"

#include "base/error.h"

namespace fstg {

void Cover::add(const Cube& c) {
  require(c.num_vars() == num_vars_, "Cover::add: variable count mismatch");
  cubes_.push_back(c);
}

bool Cover::eval(std::uint32_t minterm) const {
  for (const Cube& c : cubes_)
    if (c.contains_minterm(minterm)) return true;
  return false;
}

void Cover::remove_single_cube_contained() {
  std::vector<Cube> kept;
  for (std::size_t i = 0; i < cubes_.size(); ++i) {
    bool contained = false;
    for (std::size_t j = 0; j < cubes_.size() && !contained; ++j) {
      if (i == j) continue;
      if (cubes_[j].covers(cubes_[i])) {
        // Break ties between equal cubes by index so exactly one survives.
        if (cubes_[i] == cubes_[j] && i < j) continue;
        contained = true;
      }
    }
    if (!contained) kept.push_back(cubes_[i]);
  }
  cubes_ = std::move(kept);
}

std::size_t Cover::literal_count() const {
  std::size_t n = 0;
  for (const Cube& c : cubes_) n += static_cast<std::size_t>(c.literal_count());
  return n;
}

Cover Cover::cofactor(const Cube& c) const {
  Cover out(num_vars_);
  for (const Cube& cube : cubes_) {
    if (cube.intersects(c)) out.add(cube.cofactor(c));
  }
  return out;
}

}  // namespace fstg
