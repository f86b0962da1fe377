#ifndef RELDIV_PARALLEL_PARTITIONER_H_
#define RELDIV_PARALLEL_PARTITIONER_H_

#include <cstddef>
#include <vector>

#include "common/tuple.h"

namespace reldiv {

/// Partition index of `tuple` under hash partitioning on `attrs` into
/// `num_partitions` disjoint clusters (§3.4 / §6). Deterministic: the same
/// tuple always lands in the same cluster, which both overflow handling and
/// shared-nothing redistribution rely on.
size_t HashPartitionOf(const Tuple& tuple, const std::vector<size_t>& attrs,
                       size_t num_partitions);

}  // namespace reldiv

#endif  // RELDIV_PARALLEL_PARTITIONER_H_
