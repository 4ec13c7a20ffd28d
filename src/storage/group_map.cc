#include "storage/group_map.h"

namespace skalla {

void GroupMap::Grow(size_t groups) {
  size_t capacity = slots_.empty() ? 16 : slots_.size();
  while (capacity < 2 * groups) capacity <<= 1;
  slots_.assign(capacity, Slot{});
  mask_ = capacity - 1;
  for (size_t id = 0; id < hashes_.size(); ++id) {
    size_t s = hashes_[id] & mask_;
    while (slots_[s].id >= 0) s = (s + 1) & mask_;
    slots_[s] = Slot{hashes_[id], static_cast<int64_t>(id)};
  }
}

}  // namespace skalla
