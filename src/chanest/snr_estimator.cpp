#include "chanest/snr_estimator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "dsp/fft.hpp"
#include "dsp/fft_cache.hpp"
#include "ofdm/subcarriers.hpp"
#include "wifi/preamble.hpp"

namespace mimonet::chanest {

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// The documented per-bin convention: clamp into +/-kPerBinCeilingDb so
/// zero-error (or zero-signal) bins report a saturated, finite value.
double clamp_db(double db) noexcept {
  return std::clamp(db, -SnrEstimate::kPerBinCeilingDb,
                    SnrEstimate::kPerBinCeilingDb);
}

/// Erase non-finite samples (NaN/Inf leaking in from a poisoned capture)
/// so they cannot turn an entire accumulation — and with it the wideband
/// figure — into NaN.
cf32 erase_non_finite(cf32 v) noexcept {
  return (std::isfinite(v.real()) && std::isfinite(v.imag())) ? v
                                                              : cf32{0.0F, 0.0F};
}

}  // namespace

void snr_from_lltf_into(std::span<const std::span<const cf32>> lltf_payload,
                        SnrEstimate& out) {
  if (lltf_payload.empty()) throw std::invalid_argument("snr_from_lltf: no antennas");
  constexpr std::size_t kN = 64;

  double noise = 0.0;
  double total = 0.0;
  std::size_t n_samp = 0;

  // Per-subcarrier accumulation across antennas.
  std::array<double, kN> bin_noise{};
  std::array<double, kN> bin_sig{};
  const dsp::FftPlan& plan = dsp::shared_fft_plan(kN);

  for (const auto& ant : lltf_payload) {
    if (ant.size() < 2 * kN) {
      throw std::invalid_argument("snr_from_lltf: need 128 samples per antenna");
    }
    // Time-domain wideband estimate: d = x1 - x2 carries 2x the noise.
    for (std::size_t k = 0; k < kN; ++k) {
      const cf32 a = erase_non_finite(ant[k]);
      const cf32 b = erase_non_finite(ant[k + kN]);
      const dsp::cf64 d = dsp::cf64(a) - dsp::cf64(b);
      noise += 0.5 * dsp::mag_sqr(d);
      total += 0.5 * (dsp::mag_sqr(dsp::cf64(a)) + dsp::mag_sqr(dsp::cf64(b)));
      ++n_samp;
    }
    // Frequency-domain per-subcarrier estimate (on the erased copies: one
    // poisoned sample must not turn the whole spectrum into NaN).
    std::array<cf32, kN> x1;
    std::array<cf32, kN> x2;
    for (std::size_t k = 0; k < kN; ++k) {
      x1[k] = erase_non_finite(ant[k]);
      x2[k] = erase_non_finite(ant[k + kN]);
    }
    plan.forward(x1);
    plan.forward(x2);
    for (std::size_t b = 0; b < kN; ++b) {
      const cf32 d = x1[b] - x2[b];
      const cf32 avg = 0.5F * (x1[b] + x2[b]);
      bin_noise[b] += 0.5 * static_cast<double>(dsp::mag_sqr(d));
      bin_sig[b] += static_cast<double>(dsp::mag_sqr(avg));
    }
  }

  out.noise_variance = noise / static_cast<double>(n_samp);
  out.signal_power =
      std::max(total / static_cast<double>(n_samp) - out.noise_variance, 1e-12);
  // A zero-power or noiseless input drives the raw ratio to +/-inf dB;
  // the clamp keeps the wideband figure saturated but finite.
  out.snr_db =
      clamp_db(dsp::to_db(out.signal_power / std::max(out.noise_variance, 1e-30)));

  out.per_bin_db.assign(kN, kNan);
  out.per_bin_valid.assign(kN, 0);
  const auto seq = wifi::lltf_sequence();
  for (int k = -26; k <= 26; ++k) {
    if (seq[static_cast<std::size_t>(k + 26)] == 0.0F) continue;
    const std::size_t b = ofdm::SubcarrierMap::logical_to_bin(k);
    // The averaged bin keeps half the per-bin noise; subtract it from the
    // signal term before forming the ratio.
    const double nv = bin_noise[b];
    // Near-overflow (but finite) samples can still overflow inside the
    // single-precision FFT; a non-finite bin carries no estimate, so leave
    // it NaN + invalid rather than reporting a poisoned number.
    if (!std::isfinite(nv) || !std::isfinite(bin_sig[b])) continue;
    const double sig = std::max(bin_sig[b] - nv / 2.0, 1e-12);
    out.per_bin_db[b] = clamp_db(dsp::to_db(sig / std::max(nv, 1e-30)));
    out.per_bin_valid[b] = 1;
  }
}

SnrEstimate snr_from_lltf(std::span<const std::span<const cf32>> lltf_payload) {
  SnrEstimate out;
  snr_from_lltf_into(lltf_payload, out);
  return out;
}

EvmSnrEstimator::EvmSnrEstimator() : per_bin_(ofdm::kFftSize) {}

namespace {

/// True when the (observed, reference) pair contributes usable energy: a
/// non-finite observation is an erasure and must not poison the sums. The
/// energies are formed in double so near-overflow float samples (1e38)
/// stay finite.
bool pair_energies(cf32 observed, cf32 reference, double& err,
                   double& ref) noexcept {
  const dsp::cf64 o(observed);
  const dsp::cf64 r(reference);
  err = dsp::mag_sqr(o - r);
  ref = dsp::mag_sqr(r);
  return std::isfinite(err) && std::isfinite(ref);
}

}  // namespace

void EvmSnrEstimator::add(cf32 observed, cf32 reference) noexcept {
  double err = 0.0;
  double ref = 0.0;
  if (!pair_energies(observed, reference, err, ref)) return;
  total_.err += err;
  total_.ref += ref;
  ++total_.n;
  ++count_;
}

void EvmSnrEstimator::add(std::size_t bin, cf32 observed, cf32 reference) noexcept {
  double err = 0.0;
  double ref = 0.0;
  if (!pair_energies(observed, reference, err, ref)) return;
  add(observed, reference);
  if (bin < per_bin_.size()) {
    auto& acc = per_bin_[bin];
    acc.err += err;
    acc.ref += ref;
    ++acc.n;
  }
}

void EvmSnrEstimator::estimate_into(SnrEstimate& out) const {
  out.reset();
  if (total_.n == 0) return;  // defined zeros; count() tells callers why
  out.noise_variance = total_.err / static_cast<double>(total_.n);
  out.signal_power = total_.ref / static_cast<double>(total_.n);
  out.snr_db = clamp_db(dsp::to_db(std::max(out.signal_power, 1e-12) /
                                   std::max(out.noise_variance, 1e-30)));

  out.per_bin_db.assign(per_bin_.size(), kNan);
  out.per_bin_valid.assign(per_bin_.size(), 0);
  for (std::size_t b = 0; b < per_bin_.size(); ++b) {
    const auto& acc = per_bin_[b];
    if (acc.n < 2) continue;  // too few samples: NaN + invalid, not a fake 0 dB
    // Zero error energy means the estimate saturates at the ceiling — it
    // must stay distinguishable from a genuinely 0 dB bin.
    const double ratio =
        std::max(acc.ref, 1e-30) / ((acc.err > 0.0) ? acc.err : 1e-30);
    out.per_bin_db[b] = clamp_db(dsp::to_db(ratio));
    out.per_bin_valid[b] = 1;
  }
}

SnrEstimate EvmSnrEstimator::estimate() const {
  SnrEstimate out;
  estimate_into(out);
  return out;
}

void EvmSnrEstimator::reset() noexcept {
  total_ = Acc{};
  std::fill(per_bin_.begin(), per_bin_.end(), Acc{});
  count_ = 0;
}

}  // namespace mimonet::chanest
