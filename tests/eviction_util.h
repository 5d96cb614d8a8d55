#ifndef PHOEBE_TESTS_EVICTION_UTIL_H_
#define PHOEBE_TESTS_EVICTION_UTIL_H_

#include "core/database.h"

namespace phoebe {

/// Writes back and unswizzles every evictable frame of `db`, bottom-up,
/// with the calls BTreeRegistry::EnsureFreeFrames makes. Frames pinned by a
/// twin table stay resident (run DrainGc first to release them). Returns
/// the frames evicted.
inline int ForceEviction(Database* db, uint64_t seed) {
  OpContext ctx;
  ctx.synchronous = true;
  ctx.rng = Random(seed);
  BTreeRegistry* reg = db->registry();
  const int frames = static_cast<int>(db->pool()->frames_per_partition());
  int evicted = 0;
  for (uint32_t p = 0; p < db->pool()->partitions(); ++p) {
    for (int idle = 0; idle < 4;) {
      reg->CoolRandomFrames(&ctx, p, frames);
      const int n = reg->EvictCoolingBatch(&ctx, p, frames);
      evicted += n;
      idle = n == 0 ? idle + 1 : 0;
    }
  }
  return evicted;
}

}  // namespace phoebe

#endif  // PHOEBE_TESTS_EVICTION_UTIL_H_
