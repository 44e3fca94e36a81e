// Host fingerprint and the reference-kernel reading.
#include <unistd.h>

#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "dsp/correlator.hpp"
#include "dsp/fft.hpp"
#include "host_info.hpp"
#include "mod/constellation.hpp"
#include "ref_kernel.hpp"
#include "wifi/interleaver.hpp"

namespace perfbench {

namespace {

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

const char* kernel(bool simd) { return simd ? "avx2" : "scalar"; }

}  // namespace

void write_fingerprint(Json& j) {
  j.open("fingerprint");
  j.str("cpu_model", cpu_model());
  j.num("nproc", static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  j.str("build_type", PERFBENCH_BUILD_TYPE);
  j.str("compiler", std::string("gcc ") + __VERSION__);
  j.open("simd");
  j.str("autocorr", kernel(mimonet::dsp::detail::autocorr_simd_active()));
  j.str("fft", kernel(mimonet::dsp::fft_kernel_is_avx2()));
  j.str("demap", kernel(mimonet::mod::detail::demap_simd_active()));
  j.str("deinterleave", kernel(mimonet::wifi::detail::deinterleave_simd_active()));
  // The Viterbi ACS exposes no dispatch hook; it selects AVX2 exactly when
  // the CPU reports avx2 and bmi2 (fec/viterbi.cpp).
  j.str("viterbi_acs", kernel(__builtin_cpu_supports("avx2") != 0 &&
                              __builtin_cpu_supports("bmi2") != 0));
  j.close();
  j.close();
}

RefReading measure_ref(int threads) {
  std::vector<RefReading> per(static_cast<std::size_t>(threads));
  std::vector<std::uint64_t> sink(per.size());
  const auto one = [&](std::size_t t) {
    const std::int64_t w0 = wall_ns();
    const std::int64_t c0 = thread_cpu_ns();
    sink[t] = ref_kernel(static_cast<std::uint32_t>(t + 1));
    per[t].cpu_s = static_cast<double>(thread_cpu_ns() - c0) * 1e-9;
    per[t].wall_s = static_cast<double>(wall_ns() - w0) * 1e-9;
  };
  if (threads <= 1) {
    one(0);
  } else {
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < per.size(); ++t) pool.emplace_back(one, t);
    for (auto& th : pool) th.join();
  }
  RefReading avg;
  for (const auto& r : per) {
    avg.cpu_s += r.cpu_s / static_cast<double>(per.size());
    avg.wall_s += r.wall_s / static_cast<double>(per.size());
  }
  return avg;
}

}  // namespace perfbench
