// Fine-grained SNR estimation — one of the paper's explicitly claimed
// features. Three methods:
//   1. L-LTF repetition method: the two identical LTF periods differ only by
//      noise, giving an unbiased wideband (and per-subcarrier) estimate.
//   2. Pilot-EVM method: error between observed and predicted pilot tones,
//      accumulated over the packet.
//   3. Decision-directed EVM on equalized data symbols.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dsp/types.hpp"

namespace mimonet::chanest {

using dsp::cf32;

/// Result of an SNR measurement.
///
/// Per-bin convention: estimates are clamped to +/-kPerBinCeilingDb so a
/// bin with zero measured error energy reports the ceiling (not a silent
/// 0 dB, which would be indistinguishable from a genuinely 0 dB bin), and
/// bins without a usable estimate (unoccupied, or fewer than 2 samples)
/// hold quiet NaN with per_bin_valid[b] == 0. Always consult bin_valid()
/// before reading per_bin_db.
struct SnrEstimate {
  /// Clamp for per-bin (and degenerate wideband) SNR magnitudes, dB.
  static constexpr double kPerBinCeilingDb = 60.0;

  double snr_db = 0.0;
  double signal_power = 0.0;
  double noise_variance = 0.0;
  /// Per-subcarrier SNR in dB (empty for wideband-only estimates), indexed
  /// by FFT bin; NaN where per_bin_valid is 0.
  std::vector<double> per_bin_db;
  /// 1 where per_bin_db carries a real estimate; same size as per_bin_db.
  std::vector<std::uint8_t> per_bin_valid;

  [[nodiscard]] bool bin_valid(std::size_t b) const noexcept {
    return b < per_bin_valid.size() && per_bin_valid[b] != 0;
  }

  /// Back to the empty estimate, keeping the per-bin storage.
  void reset() noexcept {
    snr_db = 0.0;
    signal_power = 0.0;
    noise_variance = 0.0;
    per_bin_db.clear();
    per_bin_valid.clear();
  }
};

/// Wideband + per-subcarrier SNR from the two L-LTF periods.
/// @param lltf_payload per-antenna spans of the 128 samples following the
///        L-LTF guard interval (two 64-sample periods each).
[[nodiscard]] SnrEstimate snr_from_lltf(
    std::span<const std::span<const cf32>> lltf_payload);

/// snr_from_lltf into caller storage (per-bin vectors reused, capacity
/// kept). Uses the shared FFT plan cache internally.
void snr_from_lltf_into(std::span<const std::span<const cf32>> lltf_payload,
                        SnrEstimate& out);

/// Streaming EVM-based SNR estimator: feed (observed, reference) pairs from
/// pilots or sliced data symbols; works per-subcarrier when bins are given.
class EvmSnrEstimator {
 public:
  EvmSnrEstimator();

  /// Wideband observation. Non-finite pairs are erasures: ignored entirely
  /// so one poisoned sample cannot turn the whole estimate into NaN.
  void add(cf32 observed, cf32 reference) noexcept;
  /// Per-subcarrier observation (bin < 64); same erasure rule.
  void add(std::size_t bin, cf32 observed, cf32 reference) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }

  /// Aggregate estimate; per_bin_db filled for bins with >= 2 observations.
  [[nodiscard]] SnrEstimate estimate() const;

  /// estimate into caller storage (per-bin vectors reused, capacity kept).
  void estimate_into(SnrEstimate& out) const;

  void reset() noexcept;

 private:
  struct Acc {
    double err = 0.0;
    double ref = 0.0;
    std::size_t n = 0;
  };
  Acc total_;
  std::vector<Acc> per_bin_;
  std::size_t count_ = 0;
};

}  // namespace mimonet::chanest
