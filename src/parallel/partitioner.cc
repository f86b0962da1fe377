#include "parallel/partitioner.h"

#include "common/check.h"

namespace reldiv {

size_t HashPartitionOf(const Tuple& tuple, const std::vector<size_t>& attrs,
                       size_t num_partitions) {
  RELDIV_DCHECK_GT(num_partitions, 0u) << "partitioning into zero clusters";
  return static_cast<size_t>(tuple.HashAt(attrs) % num_partitions);
}

}  // namespace reldiv
