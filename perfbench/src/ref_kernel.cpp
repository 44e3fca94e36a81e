// Frozen reference kernel: a scalar add-compare-select recursion over a
// four-state trellis whose branch metrics come from an in-register LCG.
// Each step depends on the previous one, so the loop is latency-bound like
// most of the receive path rather than port-bound; its state lives in
// registers and it never calls or reads the library, so its CPU time tracks
// only the host core's current speed.
//
// DO NOT EDIT. The nominal time in perfbench/config.json was measured on
// this exact code and these compile flags (-O2 -fno-tree-vectorize
// -fno-unroll-loops, set in perfbench/CMakeLists.txt); any change to either
// invalidates every normalised figure recorded against it.
#include "ref_kernel.hpp"

namespace perfbench {

namespace {
constexpr int kSteps = 300000;
}  // namespace

std::uint64_t ref_kernel(std::uint32_t seed) {
  std::int32_t m0 = 0;
  std::int32_t m1 = 0;
  std::int32_t m2 = 0;
  std::int32_t m3 = 0;
  std::uint32_t lcg = seed | 1U;
  std::uint64_t decisions = 0;
  for (int step = 0; step < kSteps; ++step) {
    lcg = lcg * 1664525U + 1013904223U;
    const std::int32_t bm = static_cast<std::int32_t>((lcg >> 12U) & 0xFFU) - 128;
    const std::int32_t a0 = m0 + bm;
    const std::int32_t a1 = m1 - bm;
    const std::int32_t b0 = m2 - bm;
    const std::int32_t b1 = m3 + bm;
    const bool da = a1 < a0;
    const bool db = b1 < b0;
    const std::int32_t n0 = da ? a1 : a0;
    const std::int32_t n1 = db ? b1 : b0;
    const std::int32_t n2 = da ? a0 : a1;
    const std::int32_t n3 = db ? b0 : b1;
    // Renormalise against state 0 so the metrics stay bounded.
    m0 = 0;
    m1 = n2 - n0;
    m2 = n1 - n0;
    m3 = n3 - n0;
    decisions = (decisions << 1U) ^ (decisions >> 63U) ^ static_cast<std::uint64_t>(da) ^
                (static_cast<std::uint64_t>(db) << 1U);
  }
  return decisions + static_cast<std::uint64_t>(m1) + static_cast<std::uint64_t>(m2) +
         static_cast<std::uint64_t>(m3);
}

}  // namespace perfbench
