// The reference kernel every timing is normalised by. See ref_kernel.cpp.
#pragma once

#include <cstdint>

namespace perfbench {

/// Run the frozen reference workload once and return its checksum (which
/// depends only on `seed`, so the call cannot be optimised away).
std::uint64_t ref_kernel(std::uint32_t seed);

}  // namespace perfbench
