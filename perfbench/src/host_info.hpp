// Host fingerprint: CPU, core count, build and the SIMD kernels the library
// dispatched on this host.
#pragma once

#include "common.hpp"

namespace perfbench {

/// Write a "fingerprint" object into `j`.
void write_fingerprint(Json& j);

}  // namespace perfbench
