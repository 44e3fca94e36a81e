#include "core/symbol_plane.hpp"

#include <algorithm>
#include <cmath>

#include "chanest/snr_estimator.hpp"
#include "dsp/fft.hpp"
#include "fec/convolutional.hpp"
#include "fec/scrambler.hpp"
#include "ofdm/pilots.hpp"
#include "wifi/bits.hpp"
#include "wifi/preamble.hpp"

namespace mimonet::core::detail {

float lltf_snr_into(RxWorkspace& ws, chanest::SnrEstimate& snr) {
  const std::size_t lltf_payload = FrameLayout{}.lltf_offset() + 32;
  ws.spans.clear();
  for (const auto& a : ws.rx) {
    ws.spans.emplace_back(std::span<const dsp::cf32>(a).subspan(lltf_payload, 128));
  }
  chanest::snr_from_lltf_into(ws.spans, snr);
  return static_cast<float>(64.0 * std::max(snr.noise_variance, 1e-12));
}

void estimate_ht_channel(const FrameLayout& fl, std::size_t nrx, RxWorkspace& ws,
                         chanest::MimoChannelEstimate& est) {
  const dsp::FftPlan& fft64 = ws.fft_cache.plan(ofdm::kFftSize);
  const std::size_t n_ltf = fl.n_ht_ltfs();
  ws.ltf_grids.resize(nrx, n_ltf, ofdm::kFftSize);
  for (std::size_t a = 0; a < nrx; ++a) {
    for (std::size_t n = 0; n < n_ltf; ++n) {
      fft64.forward(std::span<const dsp::cf32>(ws.rx[a]).subspan(
                        fl.htltf_offset() + n * wifi::kHtLtfLen + ofdm::kCpLen, 64),
                    ws.ltf_grids.row(a, n));
    }
  }
  chanest::LsChannelEstimator(nrx, fl.nss).estimate_into(ws.ltf_grids, est);
}

dsp::cf32 track_pilots(const PlaneInput& in, std::size_t n, std::size_t j,
                       chanest::PilotPhaseTracker& tracker, RxWorkspace& ws) {
  const auto& pilot_bins = in.demod.map().pilot_bins();
  for (std::size_t a = 0; a < in.nrx; ++a) {
    for (std::size_t p = 0; p < 4; ++p) {
      ws.rx_pilots[a][p] = ws.batch_grids(a, j, pilot_bins[p]);
    }
  }
  dsp::cf32 derotate{1.0F, 0.0F};
  if (in.phase_tracking) {
    const double theta = tracker.track(tracker.estimate_cpe(ws.rx_pilots, n));
    derotate = dsp::phasor(static_cast<float>(-theta));
  }
  // Pilot EVM (after derotation) feeds the fine-grained SNR estimate.
  for (std::size_t a = 0; a < in.nrx; ++a) {
    for (std::size_t p = 0; p < 4; ++p) {
      dsp::cf64 expected{0.0, 0.0};
      for (std::size_t s = 0; s < in.fl.nss; ++s) {
        const auto pv = ofdm::ht_data_pilots(in.fl.nss, s, n);
        expected += dsp::cf64(in.est.h[a][s][pilot_bins[p]]) * dsp::cf64(pv[p]);
      }
      ws.pilot_evm.add(pilot_bins[p], ws.rx_pilots[a][p] * derotate,
                       dsp::cf32(static_cast<float>(expected.real()),
                                 static_cast<float>(expected.imag())));
    }
  }
  return derotate;
}

void prepare_bins(const PlaneInput& in, RxWorkspace& ws) {
  const auto& data_bins = in.demod.map().data_bins();
  ws.rx_pilots.resize(in.nrx);
  ws.sliced.resize(in.nss);
  ws.llr_buf.resize(in.nss * in.constellation.bits_per_symbol());
  ws.h_at.resize(ofdm::kFftSize);
  for (const std::size_t b : data_bins) in.est.at_bin_into(b, ws.h_at[b]);
  if (in.lin_eq == nullptr) return;
  ws.coeffs.resize(ofdm::kFftSize);
  for (const std::size_t b : data_bins) {
    in.lin_eq->prepare(ws.h_at[b], in.nv_bin, ws.coeffs[b]);
  }
}

void track_decisions(const PlaneInput& in, std::size_t bin,
                     std::span<const dsp::cf32> y_obs,
                     std::span<const dsp::cf32> eq_symbols, RxWorkspace& ws) {
  auto& h = ws.h_at[bin];
  const auto& points = in.constellation.points();
  for (std::size_t s = 0; s < in.nss; ++s) {
    ws.sliced[s] = dsp::cf64(points[in.constellation.hard_decision(eq_symbols[s])]);
  }
  const double mu =
      static_cast<double>(in.tracking_mu) / static_cast<double>(in.nss);
  for (std::size_t a = 0; a < in.nrx; ++a) {
    dsp::cf64 pred{0.0, 0.0};
    for (std::size_t s = 0; s < in.nss; ++s) pred += h(a, s) * ws.sliced[s];
    const dsp::cf64 err = dsp::cf64(y_obs[a]) - pred;
    for (std::size_t s = 0; s < in.nss; ++s) {
      // Unit-energy constellations: |x|^2 ~ 1, so no normalizer needed.
      h(a, s) += mu * err * std::conj(ws.sliced[s]);
    }
  }
  in.lin_eq->prepare(h, in.nv_bin, ws.coeffs[bin]);
}

double stream_sinr_db(const std::vector<eq::EqCoeffs>& coeffs,
                      std::span<const std::size_t> bins, std::size_t s) {
  double acc = 0.0;
  std::size_t cnt = 0;
  for (const std::size_t b : bins) {
    const float nv = coeffs[b].noise_vars[s];
    if (nv > 0.0F && nv < eq::kErasedNoiseVar) {
      acc += 1.0 / static_cast<double>(nv);
      ++cnt;
    }
  }
  return cnt > 0 ? 10.0 * std::log10(acc / static_cast<double>(cnt)) : 0.0;
}

void decode_bcc_into(std::span<const float> llrs, fec::CodeRate rate,
                     std::size_t n_info_bits, bool fec_enabled,
                     const fec::ViterbiDecoder& viterbi, RxWorkspace& ws) {
  if (fec_enabled) {
    fec::depuncture_into(llrs, rate, ws.depunctured);
    ws.depunctured.resize(2 * n_info_bits, 0.0F);
    viterbi.decode_soft_into(ws.depunctured, /*terminated=*/false, ws.scrambled,
                             ws.viterbi);
    return;
  }
  ws.scrambled.resize(llrs.size());
  for (std::size_t i = 0; i < llrs.size(); ++i) {
    ws.scrambled[i] = (llrs[i] < 0.0F) ? 1 : 0;
  }
}

bool unpack_psdu(std::vector<std::uint8_t>& scrambled, std::size_t psdu_bytes,
                 std::vector<std::uint8_t>& psdu) {
  const std::size_t psdu_bits = 8 * psdu_bytes;
  if (scrambled.size() < kServiceBits + psdu_bits) return false;
  fec::scramble_in_place(scrambled,
                         fec::recover_scrambler_seed(std::span(scrambled).first(7)));
  wifi::bits_to_bytes_into(
      std::span<const std::uint8_t>(scrambled).subspan(kServiceBits, psdu_bits),
      psdu);
  return true;
}

}  // namespace mimonet::core::detail
