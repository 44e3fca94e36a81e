// The chunked symbol plane: the one payload decode behind Receiver (spatial
// multiplexing and STBC) and MuUplinkReceiver (DESIGN.md "The batched symbol
// plane"), plus the preamble and FEC-tail steps both receivers share.
// Not part of the public API; include from core/ .cpp files only.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "chanest/ls_estimator.hpp"
#include "chanest/phase_tracker.hpp"
#include "core/phy_config.hpp"
#include "core/workspace.hpp"
#include "eq/alamouti.hpp"
#include "eq/equalizer.hpp"
#include "fec/viterbi.hpp"
#include "mod/constellation.hpp"
#include "ofdm/symbol.hpp"
#include "wifi/interleaver.hpp"

namespace mimonet::core::detail {

// An Alamouti pair (j, j+1) never straddles a chunk: STBC symbol counts are
// even (data_symbol_count) and so is every chunk boundary.
static_assert(kDecodeBatchSymbols % 2 == 0);

/// The per-bin detector of one packet's payload, chosen once per packet.
enum class BinDetector {
  kLinear,    ///< prepared ZF/MMSE coefficients applied across the chunk
  kTracking,  ///< linear, plus a decision-directed channel update per symbol
  kMl,        ///< joint ML soft demap, per symbol
  kAlamouti,  ///< Alamouti combine over symbol pairs (j, j+1)
};

/// What the plane reads about one packet's payload (fl.nss counts the
/// space-time streams on air), besides what prepare_bins leaves in ws.
struct PlaneInput {
  const FrameLayout& fl;
  const ofdm::SymbolDemodulator& demod;  ///< HT carrier plan
  const chanest::MimoChannelEstimate& est;
  const mod::Constellation& constellation;
  std::size_t nrx;
  std::size_t nss;  ///< streams out of the detector (1 for STBC)
  float nv_bin;     ///< per-bin noise variance
  bool phase_tracking;
  BinDetector detector;
  const eq::LinearEqualizer* lin_eq = nullptr;  ///< kLinear, kTracking
  const eq::MlDetector* ml_det = nullptr;       ///< kMl
  float tracking_mu = 0.0F;                     ///< kTracking LMS step
};

/// Pilot CPE tracking and pilot-EVM accounting for data symbol `n`, held
/// in slot `j` of ws.batch_grids. Returns the derotation phasor for the
/// symbol's data bins. Must see the symbols in order.
[[nodiscard]] dsp::cf32 track_pilots(const PlaneInput& in, std::size_t n,
                                     std::size_t j,
                                     chanest::PilotPhaseTracker& tracker,
                                     RxWorkspace& ws);

/// L-LTF SNR estimate of the frame in ws.rx (the two repetitions differ
/// only by noise) into `snr`; returns the per-bin noise variance.
[[nodiscard]] float lltf_snr_into(RxWorkspace& ws, chanest::SnrEstimate& snr);

/// LS-estimate the nrx x fl.nss channel from the frame's HT-LTFs in ws.rx.
void estimate_ht_channel(const FrameLayout& fl, std::size_t nrx, RxWorkspace& ws,
                         chanest::MimoChannelEstimate& est);

/// Size the per-packet scratch both decode loops use, fetch the per-bin
/// channel matrices (ws.h_at) for the data bins and, with a linear
/// equalizer, prepare each bin's coefficients (ws.coeffs) once.
/// The channel is constant across symbols unless decision tracking rewrites
/// it, in which case the bin is re-prepared right after the update
/// (bit-identical to equalizing with the updated matrix each symbol).
void prepare_bins(const PlaneInput& in, RxWorkspace& ws);

/// Decision-directed LMS channel update for one subcarrier: slice the
/// equalized symbols, form the reconstruction error per antenna, nudge H
/// toward explaining the observation, and re-prepare the bin's
/// coefficients. Counters intra-packet fading.
void track_decisions(const PlaneInput& in, std::size_t bin,
                     std::span<const dsp::cf32> y_obs,
                     std::span<const dsp::cf32> eq_symbols, RxWorkspace& ws);

/// Mean post-equalization SINR (dB) of stream `s`: the prepared
/// coefficients' per-bin CSI (1/noise_var at unit signal gain) averaged in
/// the linear domain over `bins`, erased bins skipped; 0 when none is left.
[[nodiscard]] double stream_sinr_db(const std::vector<eq::EqCoeffs>& coeffs,
                                    std::span<const std::size_t> bins,
                                    std::size_t s);

/// Hard bits of one BCC LLR stream (a merged SU stream or one MU user's)
/// into ws.scrambled: depuncture and Viterbi over the zero-padded
/// 2 * n_info_bits trellis when FEC is on, a sign slice when it is off.
void decode_bcc_into(std::span<const float> llrs, fec::CodeRate rate,
                     std::size_t n_info_bits, bool fec_enabled,
                     const fec::ViterbiDecoder& viterbi, RxWorkspace& ws);

/// Descramble `scrambled` with the seed its SERVICE bits carry and pack the
/// PSDU behind them into `psdu`. False, `psdu` untouched, when the stream
/// is shorter than SERVICE + PSDU.
[[nodiscard]] bool unpack_psdu(std::vector<std::uint8_t>& scrambled,
                               std::size_t psdu_bytes,
                               std::vector<std::uint8_t>& psdu);

/// Decode the payload of the frame in ws.rx chunk by chunk. After each
/// chunk, ws.chunk_deint[s] (viewed by ws.merge_views[s]) holds stream s's
/// deinterleaved LLRs for the chunk's symbols and sink(chunk) is called. Pilot EVM accumulates into
/// ws.pilot_evm (reset by the caller).
template <class Sink>
void run_symbol_plane(const PlaneInput& in, chanest::PilotPhaseTracker& tracker,
                      RxWorkspace& ws, Sink&& sink) {
  const auto& data_bins = in.demod.map().data_bins();
  const std::size_t n_bins = data_bins.size();
  const unsigned bps = in.constellation.bits_per_symbol();
  const std::size_t block = n_bins * bps;  // coded bits/symbol/stream
  const std::size_t nrx = in.nrx;
  const std::size_t nss = in.nss;
  ws.eq_out.resize(nss);
  ws.nv_out.resize(nss);
  ws.chunk_llrs.resize(nss);
  ws.chunk_deint.resize(nss);
  ws.merge_views.resize(nss);
  std::array<dsp::cf32, eq::CMatrix::kMaxDim> eq_syms{};
  std::array<float, eq::CMatrix::kMaxDim> eq_nvars{};
  const auto syms = std::span<dsp::cf32>(eq_syms).first(nss);
  const auto nvars = std::span<float>(eq_nvars).first(nss);

  for (std::size_t n0 = 0; n0 < in.fl.n_data_symbols; n0 += kDecodeBatchSymbols) {
    const std::size_t chunk =
        std::min<std::size_t>(kDecodeBatchSymbols, in.fl.n_data_symbols - n0);

    // Stage 1: one batched FFT pass per antenna over the chunk.
    ws.batch_grids.resize(nrx, chunk, ofdm::kFftSize);
    const std::size_t off = in.fl.data_offset() + n0 * ofdm::kSymLen;
    for (std::size_t a = 0; a < nrx; ++a) {
      in.demod.demodulate_grids_into(
          std::span<const dsp::cf32>(ws.rx[a]).subspan(off, chunk * ofdm::kSymLen),
          chunk,
          std::span<dsp::cf32>(ws.batch_grids.data() + a * chunk * ofdm::kFftSize,
                               chunk * ofdm::kFftSize));
    }

    // Stage 2: pilot CPE tracking + EVM, sequential in symbol order.
    ws.derotate.resize(chunk);
    for (std::size_t j = 0; j < chunk; ++j) {
      ws.derotate[j] = track_pilots(in, n0 + j, j, tracker, ws);
    }

    // Stage 3: detect bin-major across the chunk, scattering the per-stream
    // outputs symbol-major so the demap input is already in stream-LLR
    // order. Per-(symbol, bin) work is independent, so the reorder is
    // bit-exact; decision tracking's only cross-symbol dependency is
    // per-bin, which the bin-major walk keeps in sequence.
    for (std::size_t s = 0; s < nss; ++s) {
      ws.eq_out[s].resize(chunk * n_bins);
      ws.nv_out[s].resize(chunk * n_bins);
      ws.chunk_llrs[s].resize(chunk * block);
    }
    ws.y_batch.resize(chunk * nrx);
    ws.eq_slab.resize(chunk * nss);
    ws.nv_slab.resize(chunk * nss);
    const auto y_at = [&](std::size_t j) {
      return std::span<const dsp::cf32>(ws.y_batch).subspan(j * nrx, nrx);
    };
    const auto for_each_bin = [&](auto&& detect) {
      for (std::size_t i = 0; i < n_bins; ++i) {
        const std::size_t bin = data_bins[i];
        for (std::size_t j = 0; j < chunk; ++j) {
          for (std::size_t a = 0; a < nrx; ++a) {
            ws.y_batch[j * nrx + a] = ws.batch_grids(a, j, bin) * ws.derotate[j];
          }
        }
        detect(i, bin);
      }
    };
    switch (in.detector) {
      case BinDetector::kLinear:
        for_each_bin([&](std::size_t i, std::size_t bin) {
          eq::LinearEqualizer::apply_run(ws.coeffs[bin], ws.y_batch, chunk,
                                         ws.eq_slab, ws.nv_slab);
          for (std::size_t j = 0; j < chunk; ++j) {
            for (std::size_t s = 0; s < nss; ++s) {
              ws.eq_out[s][j * n_bins + i] = ws.eq_slab[j * nss + s];
              ws.nv_out[s][j * n_bins + i] = ws.nv_slab[j * nss + s];
            }
          }
        });
        break;
      case BinDetector::kTracking:
        // Per-bin LMS updates force a sequential walk over the chunk's
        // symbols for each bin.
        for_each_bin([&](std::size_t i, std::size_t bin) {
          for (std::size_t j = 0; j < chunk; ++j) {
            eq::LinearEqualizer::apply(ws.coeffs[bin], y_at(j), syms, nvars);
            for (std::size_t s = 0; s < nss; ++s) {
              ws.eq_out[s][j * n_bins + i] = syms[s];
              ws.nv_out[s][j * n_bins + i] = nvars[s];
            }
            track_decisions(in, bin, y_at(j), syms, ws);
          }
        });
        break;
      case BinDetector::kMl:
        for_each_bin([&](std::size_t i, std::size_t bin) {
          for (std::size_t j = 0; j < chunk; ++j) {
            in.ml_det->demap(ws.h_at[bin], y_at(j), in.nv_bin, ws.llr_buf);
            for (std::size_t s = 0; s < nss; ++s) {
              std::copy_n(ws.llr_buf.begin() + s * bps, bps,
                          ws.chunk_llrs[s].begin() + (j * n_bins + i) * bps);
            }
          }
        });
        break;
      case BinDetector::kAlamouti:
        for_each_bin([&](std::size_t i, std::size_t bin) {
          for (std::size_t j = 0; j < chunk; j += 2) {
            const auto dec =
                eq::alamouti_combine(ws.h_at[bin], y_at(j), y_at(j + 1), in.nv_bin);
            ws.eq_out[0][j * n_bins + i] = dec.d1;
            ws.eq_out[0][(j + 1) * n_bins + i] = dec.d2;
            ws.nv_out[0][j * n_bins + i] = dec.noise_var;
            ws.nv_out[0][(j + 1) * n_bins + i] = dec.noise_var;
          }
        });
        break;
    }

    // Stage 4: SIMD demap + deinterleave per stream. The interleaver block
    // is one symbol per stream, so chunk-wise passes concatenate to the
    // whole-payload result exactly.
    for (std::size_t s = 0; s < nss; ++s) {
      if (in.detector != BinDetector::kMl) {
        in.constellation.demap_soft_run(ws.eq_out[s], ws.nv_out[s], ws.chunk_llrs[s]);
      }
      const wifi::Interleaver& il = wifi::cached_interleaver(
          in.constellation.bits_per_symbol(), s, nss);
      ws.chunk_deint[s].resize(chunk * block);
      il.deinterleave_into(ws.chunk_llrs[s], std::span<float>(ws.chunk_deint[s]));
      ws.merge_views[s] = ws.chunk_deint[s];
    }
    sink(chunk);
  }
}

}  // namespace mimonet::core::detail
