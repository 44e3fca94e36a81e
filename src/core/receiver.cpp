#include "core/receiver.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <span>
#include <stdexcept>

#include "channel/impairments.hpp"
#include "chanest/phase_tracker.hpp"
#include "core/symbol_plane.hpp"
#include "core/workspace.hpp"
#include "dsp/fft.hpp"
#include "eq/equalizer.hpp"
#include "fec/ldpc.hpp"
#include "mod/constellation.hpp"
#include "wifi/interleaver.hpp"
#include "wifi/mcs.hpp"
#include "wifi/preamble.hpp"
#include "wifi/psdu.hpp"
#include "wifi/stream_parser.hpp"

namespace mimonet::core {

namespace {

/// All occupied HT bins (data + pilots) sorted by logical index, for
/// frequency smoothing.
std::vector<std::size_t> occupied_ht_bins() {
  std::vector<std::size_t> bins;
  for (int k = -28; k <= 28; ++k) {
    if (k == 0) continue;
    bins.push_back(ofdm::SubcarrierMap::logical_to_bin(k));
  }
  return bins;
}

/// The frame geometry a decoded HT-SIG announces.
FrameLayout ht_frame_layout(const wifi::McsInfo& mcs, const wifi::HtSig& htsig,
                            bool fec_enabled) {
  const bool stbc = htsig.stbc != 0;
  FrameLayout fl;
  fl.nss = stbc ? 2 : mcs.nss;
  fl.n_data_symbols = data_symbol_count(
      mcs, htsig.length, fec_enabled, stbc,
      htsig.fec_coding ? FecType::kLdpc : FecType::kBcc);
  return fl;
}

/// Reset the reused packet result. Nested buffers keep their capacity; the
/// channel estimate is marked absent via nrx == nss == 0.
void reset_packet(RxPacket& pkt) {
  pkt.lsig_ok = false;
  pkt.htsig_ok = false;
  pkt.fcs_ok = false;
  pkt.error = metrics::RxError::kNoSync;
  pkt.lsig = {};
  pkt.htsig = {};
  pkt.psdu.clear();
  pkt.sync = {};
  pkt.snr.reset();
  pkt.pilot_snr.reset();
  pkt.channel.nrx = 0;
  pkt.channel.nss = 0;
  pkt.residual_cfo_norm = 0.0;
  pkt.stream_sinr_db.fill(0.0);
  pkt.n_stream_sinr = 0;
}

}  // namespace

Receiver::Receiver(PhyConfig cfg, std::size_t nrx)
    : Receiver(std::move(cfg), nrx, sync::ScanMode{}) {}

Receiver::Receiver(PhyConfig cfg, std::size_t nrx, const sync::ScanMode& scan)
    : cfg_(cfg),
      nrx_(nrx),
      synchronizer_(sync::FrameSyncConfig{.scan = scan, .mode = cfg.timing_mode}),
      legacy_demod_(ofdm::CarrierPlan::kLegacy),
      ht_demod_(ofdm::CarrierPlan::kHt) {
  if (nrx == 0 || nrx > 4) throw std::invalid_argument("Receiver: nrx must be 1..4");
}

void Receiver::decode_sig_llrs(const dsp::SampleGrid& grids,
                               const std::vector<std::vector<cf32>>& h_legacy,
                               float noise_var, bool qbpsk, RxWorkspace& ws,
                               std::vector<float>& out) const {
  const auto& data_bins = legacy_demod_.map().data_bins();
  ws.mrc.resize(data_bins.size());
  for (std::size_t i = 0; i < data_bins.size(); ++i) {
    const std::size_t bin = data_bins[i];
    dsp::cf64 num{0.0, 0.0};
    for (std::size_t r = 0; r < nrx_; ++r) {
      num += dsp::cf64(grids(r, bin)) * std::conj(dsp::cf64(h_legacy[r][bin]));
    }
    // Unnormalized MRC: llr = -4 * axis(num) / nv is exact because the MRC
    // gain cancels between numerator and effective noise variance.
    ws.mrc[i] = cf32(static_cast<float>(num.real()), static_cast<float>(num.imag()));
  }
  wifi::demap_sig_field_into(ws.mrc, noise_var, qbpsk, ws.sig_axis_llrs, out);
}

bool Receiver::receive(std::span<const std::span<const cf32>> capture,
                       RxWorkspace& ws) const {
  return receive(capture, ws, HarqDecode{});
}

bool Receiver::receive(std::span<const std::span<const cf32>> capture,
                       RxWorkspace& ws, const HarqDecode& harq) const {
  if (capture.size() != nrx_) {
    throw std::invalid_argument("Receiver: capture antenna count mismatch");
  }
  // No soft state is worth retaining unless decode reaches the FEC stage.
  if (harq.combined != nullptr) harq.combined->clear();
  RxPacket& pkt = ws.packet;
  reset_packet(pkt);

  const auto sync_res = synchronizer_.synchronize(capture, ws.sync);
  if (!sync_res) {
    if (ws.sync.rejected_candidate) {
      // A detector candidate fired but synchronization rejected it. Report
      // its position so a streaming scanner can hop past it instead of
      // declaring the whole remainder idle.
      pkt.sync.packet_start = *ws.sync.rejected_candidate;
      pkt.error = ws.sync.rejected_truncated ? metrics::RxError::kTruncated
                                             : metrics::RxError::kFalseSync;
    }
    return false;  // else pkt.error == kNoSync from the reset
  }
  pkt.sync = *sync_res;

  // CFO-corrected, packet-aligned copy of the preamble through the first
  // HT-LTF. The rest of the frame is aligned once HT-SIG gives its extent,
  // continuing each antenna's oscillator phase, so the samples are those of
  // one derotation from `start` and nothing past the frame is touched.
  const std::size_t start = sync_res->packet_start;
  const std::size_t avail = capture[0].size() - start;
  FrameLayout probe;  // nss=1 layout: offsets through HT-STF are nss-free
  const std::size_t head = probe.htltf_offset() + wifi::kHtLtfLen;
  if (avail < head) {
    pkt.error = metrics::RxError::kTruncated;
    return false;
  }

  std::array<double, 4> cfo_phase{};  // nrx <= 4 (constructor)
  ws.rx.resize(nrx_);
  for (std::size_t a = 0; a < nrx_; ++a) {
    const auto part = capture[a].subspan(start, head);
    ws.rx[a].assign(part.begin(), part.end());
    cfo_phase[a] = channel::apply_cfo(ws.rx[a], -sync_res->cfo_norm);
  }

  const dsp::FftPlan& fft64 = ws.fft_cache.plan(ofdm::kFftSize);

  // ---- L-LTF: legacy channel estimate + SNR estimate. ----
  const std::size_t lltf_payload = probe.lltf_offset() + 32;
  ws.lltf_grids.resize(nrx_, 2, ofdm::kFftSize);
  for (std::size_t a = 0; a < nrx_; ++a) {
    for (std::size_t rep = 0; rep < 2; ++rep) {
      fft64.forward(
          std::span<const cf32>(ws.rx[a]).subspan(lltf_payload + rep * 64, 64),
          ws.lltf_grids.row(a, rep));
    }
  }
  chanest::LsChannelEstimator::estimate_legacy_into(ws.lltf_grids, ws.h_legacy);

  const float nv_bin = detail::lltf_snr_into(ws, pkt.snr);

  // ---- L-SIG. ----
  ws.sig_grid.resize(nrx_, ofdm::kFftSize);
  const auto demod_symbol_grids = [&](std::size_t offset) {
    for (std::size_t a = 0; a < nrx_; ++a) {
      fft64.forward(std::span<const cf32>(ws.rx[a])
                        .subspan(offset + ofdm::kCpLen, ofdm::kFftSize),
                    ws.sig_grid.row(a));
    }
  };

  demod_symbol_grids(probe.lsig_offset());
  decode_sig_llrs(ws.sig_grid, ws.h_legacy, nv_bin, /*qbpsk=*/false, ws, ws.sig_llrs);
  viterbi_.decode_soft_into(ws.sig_llrs, /*terminated=*/true, ws.sig_bits, ws.viterbi);
  if (const auto lsig = wifi::decode_lsig(ws.sig_bits)) {
    pkt.lsig = *lsig;
    pkt.lsig_ok = true;
  }

  // ---- HT-SIG (two symbols, one coded block). ----
  ws.htsig_llrs.clear();
  for (std::size_t s = 0; s < 2; ++s) {
    demod_symbol_grids(probe.htsig_offset() + s * ofdm::kSymLen);
    decode_sig_llrs(ws.sig_grid, ws.h_legacy, nv_bin, /*qbpsk=*/true, ws, ws.sig_llrs);
    ws.htsig_llrs.insert(ws.htsig_llrs.end(), ws.sig_llrs.begin(), ws.sig_llrs.end());
  }
  viterbi_.decode_soft_into(ws.htsig_llrs, /*terminated=*/true, ws.sig_bits,
                            ws.viterbi);
  const auto htsig = wifi::decode_htsig(ws.sig_bits);
  if (!htsig) {
    // With both SIG decodes down there is no evidence a packet ever started
    // here — classify the candidate itself as false, not the HT-SIG stage.
    pkt.error = pkt.lsig_ok ? metrics::RxError::kHtsigFail
                            : metrics::RxError::kFalseSync;
    return true;
  }
  pkt.htsig = *htsig;
  pkt.htsig_ok = true;

  // ---- Frame geometry from HT-SIG. ----
  wifi::McsInfo mcs;
  try {
    mcs = wifi::mcs_info(pkt.htsig.mcs);
  } catch (const std::invalid_argument&) {
    pkt.htsig_ok = false;  // CRC passed but the MCS is outside our support
    pkt.error = metrics::RxError::kUnsupportedMcs;
    return true;
  }
  const bool stbc = pkt.htsig.stbc != 0;
  if (stbc && (pkt.htsig.stbc != 1 || mcs.nss != 1)) {
    pkt.htsig_ok = false;  // only the 1-stream / 2-STS Alamouti mode exists
    pkt.error = metrics::RxError::kUnsupportedMcs;
    return true;
  }
  // The FEC family is announced in HT-SIG, so the receiver self-configures.
  const FecType fec_type = pkt.htsig.fec_coding ? FecType::kLdpc : FecType::kBcc;
  const FrameLayout fl = ht_frame_layout(mcs, pkt.htsig, cfg_.fec_enabled);
  const std::size_t nsts = fl.nss;
  if (avail < fl.total_samples()) {  // truncated capture
    pkt.error = metrics::RxError::kTruncated;
    return true;
  }
  for (std::size_t a = 0; a < nrx_; ++a) {
    const auto rest = capture[a].subspan(start + head, fl.total_samples() - head);
    ws.rx[a].insert(ws.rx[a].end(), rest.begin(), rest.end());
    channel::apply_cfo(std::span<cf32>(ws.rx[a]).subspan(head), -sync_res->cfo_norm,
                       cfo_phase[a]);
  }

  // ---- HT-LTF channel estimation. ----
  chanest::MimoChannelEstimate& est = pkt.channel;
  detail::estimate_ht_channel(fl, nrx_, ws, est);
  if (cfg_.smoothing) {
    static const auto bins = occupied_ht_bins();
    ws.csd.resize(nsts);
    for (std::size_t s = 0; s < nsts; ++s) {
      ws.csd[s] = wifi::ht_csd_samples(s, nsts);
    }
    chanest::smooth_frequency(est, bins, ws.csd);
  }

  // ---- Data symbols. ----
  const mod::Constellation& constellation = mod::constellation_for(mcs.modulation);
  const unsigned bps = constellation.bits_per_symbol();
  const auto& data_bins = ht_demod_.map().data_bins();

  chanest::PilotPhaseTracker tracker(est);
  ws.pilot_evm.reset();

  std::optional<eq::LinearEqualizer> lin_eq;
  std::optional<eq::MlDetector> ml_det;
  if (!stbc) {
    if (cfg_.equalizer == eq::EqualizerType::kMaxLikelihood && mcs.nss <= 2) {
      ml_det.emplace(constellation, mcs.nss);
    } else {
      lin_eq.emplace(cfg_.equalizer == eq::EqualizerType::kMaxLikelihood
                         ? eq::EqualizerType::kMmse
                         : cfg_.equalizer);
    }
  }

  using detail::BinDetector;
  const detail::PlaneInput plane{
      .fl = fl,
      .demod = ht_demod_,
      .est = est,
      .constellation = constellation,
      .nrx = nrx_,
      .nss = mcs.nss,
      .nv_bin = nv_bin,
      .phase_tracking = cfg_.phase_tracking,
      .detector = stbc     ? BinDetector::kAlamouti
                  : ml_det ? BinDetector::kMl
                  : cfg_.decision_tracking ? BinDetector::kTracking
                                           : BinDetector::kLinear,
      .lin_eq = lin_eq ? &*lin_eq : nullptr,
      .ml_det = ml_det ? &*ml_det : nullptr,
      .tracking_mu = cfg_.decision_tracking_mu,
  };

  detail::prepare_bins(plane, ws);
  if (lin_eq) {
    // Per-stream post-eq SINR from the prepared CSI, before any
    // decision-tracking updates: the link-adaptation observable.
    for (std::size_t s = 0; s < mcs.nss; ++s) {
      pkt.stream_sinr_db[s] = detail::stream_sinr_db(ws.coeffs, data_bins, s);
    }
    pkt.n_stream_sinr = mcs.nss;
  }

  // The symbol plane decodes every payload; batched_decode = false keeps
  // the per-symbol reference loop for spatial multiplexing only.
  const bool batched = cfg_.batched_decode || stbc;
  const wifi::StreamParser parser(mcs.bits_per_subcarrier(), mcs.nss);
  const std::size_t n_info_bits = fl.n_data_symbols * mcs.data_bits_per_symbol();
  // Batched BCC streams depunctured LLRs straight into the Viterbi ACS as
  // each chunk lands; everything else accumulates ws.merged for the tail.
  // HARQ combining needs the whole merged stream materialized (to sum the
  // prior in and to retain the result), so it forces the accumulate path —
  // bit-identical to the streaming one (chunked depuncture/ACS is pinned to
  // the one-shot decode; see fec/convolutional.hpp and fec/viterbi.hpp).
  const bool bcc_stream = batched && cfg_.fec_enabled &&
                          fec_type == FecType::kBcc && !harq.active();
  std::size_t llrs_fed = 0;

  if (batched) {
    const std::size_t block = data_bins.size() * bps;  // coded bits/symbol/stream
    if (bcc_stream) {
      ws.depunct_stream.reset(mcs.rate);
      viterbi_.stream_begin(ws.viterbi_stream, ws.viterbi, n_info_bits);
    } else {
      ws.merged.clear();
      ws.merged.reserve(fl.n_data_symbols * block * mcs.nss);
    }
    detail::run_symbol_plane(plane, tracker, ws, [&](std::size_t chunk) {
      ws.chunk_merged.resize(chunk * block * mcs.nss);
      parser.merge_into(std::span<const std::span<const float>>(ws.merge_views),
                        std::span<float>(ws.chunk_merged));
      // Stream the chunk into the FEC consumer — Viterbi ACS runs while
      // later chunks are still in flight.
      if (bcc_stream) {
        ws.depunct_stream.consume(ws.chunk_merged, ws.chunk_depunct);
        const std::size_t take =
            std::min(ws.chunk_depunct.size(), 2 * n_info_bits - llrs_fed);
        viterbi_.stream_consume(
            ws.viterbi_stream, ws.viterbi,
            std::span<const float>(ws.chunk_depunct).first(take));
        llrs_fed += take;
      } else {
        ws.merged.insert(ws.merged.end(), ws.chunk_merged.begin(),
                         ws.chunk_merged.end());
      }
    });
  } else {
    // Per-symbol reference loop (spatial multiplexing only): the oracle the
    // batched-equivalence tests compare the plane against.
    ws.stream_llrs.resize(mcs.nss);
    for (auto& v : ws.stream_llrs) v.clear();
    ws.batch_grids.resize(nrx_, 1, ofdm::kFftSize);  // one-symbol chunks
    ws.y.resize(nrx_);
    std::array<cf32, eq::CMatrix::kMaxDim> eq_syms{};
    std::array<float, eq::CMatrix::kMaxDim> eq_nvars{};
    const auto syms = std::span<cf32>(eq_syms).first(mcs.nss);
    const auto nvars = std::span<float>(eq_nvars).first(mcs.nss);
    for (std::size_t n = 0; n < fl.n_data_symbols; ++n) {
      const std::size_t off = fl.data_offset() + n * ofdm::kSymLen;
      for (std::size_t a = 0; a < nrx_; ++a) {
        fft64.forward(std::span<const cf32>(ws.rx[a]).subspan(off + ofdm::kCpLen, 64),
                      ws.batch_grids.row(a, 0));
      }
      const cf32 derotate = detail::track_pilots(plane, n, 0, tracker, ws);
      for (const std::size_t bin : data_bins) {
        for (std::size_t a = 0; a < nrx_; ++a) {
          ws.y[a] = ws.batch_grids(a, 0, bin) * derotate;
        }

        if (ml_det) {
          ml_det->demap(ws.h_at[bin], ws.y, nv_bin, ws.llr_buf);
          for (std::size_t s = 0; s < mcs.nss; ++s) {
            const auto llrs = ws.llr_buf.begin() + static_cast<long>(s * bps);
            ws.stream_llrs[s].insert(ws.stream_llrs[s].end(), llrs, llrs + bps);
          }
        } else {
          eq::LinearEqualizer::apply(ws.coeffs[bin], ws.y, syms, nvars);
          for (std::size_t s = 0; s < mcs.nss; ++s) {
            constellation.demap_soft(syms[s], nvars[s],
                                     std::span<float>(ws.llr_buf).first(bps));
            ws.stream_llrs[s].insert(ws.stream_llrs[s].end(), ws.llr_buf.begin(),
                                     ws.llr_buf.begin() + bps);
          }
          if (plane.detector == BinDetector::kTracking) {
            detail::track_decisions(plane, bin, ws.y, syms, ws);
          }
        }
      }
    }
    ws.deinterleaved.resize(mcs.nss);
    for (std::size_t s = 0; s < mcs.nss; ++s) {
      const wifi::Interleaver& il =
          wifi::cached_interleaver(mcs.bits_per_subcarrier(), s, mcs.nss);
      il.deinterleave_into(ws.stream_llrs[s], ws.deinterleaved[s]);
    }
    parser.merge_into(ws.deinterleaved, ws.merged);
  }

  ws.pilot_evm.estimate_into(pkt.pilot_snr);
  pkt.residual_cfo_norm = tracker.residual_cfo_norm();

  // ---- HARQ chase combining: sum the retained prior attempts' LLRs into
  // this attempt's merged stream before any FEC decoding, and export the
  // combined stream for retention. A prior whose length disagrees with this
  // attempt's stream (the retransmission changed MCS/length) is skipped —
  // the attempt decodes standalone rather than combining incompatible soft
  // state. ----
  if (harq.active()) {
    if (!harq.prior.empty() && harq.prior.size() == ws.merged.size()) {
      for (std::size_t i = 0; i < ws.merged.size(); ++i) {
        ws.merged[i] += harq.prior[i];
      }
    }
    if (harq.combined != nullptr) {
      harq.combined->assign(ws.merged.begin(), ws.merged.end());
    }
  }

  if (cfg_.fec_enabled && fec_type == FecType::kLdpc) {
    static const fec::LdpcCode code;
    const std::size_t n_cw = ldpc_codeword_count(pkt.htsig.length);
    if (ws.merged.size() < n_cw * kLdpcN) {
      pkt.error = metrics::RxError::kTruncated;
      return true;
    }
    ws.scrambled.clear();
    ws.scrambled.reserve(n_cw * kLdpcK);
    for (std::size_t cw = 0; cw < n_cw; ++cw) {
      const auto word = code.decode(
          std::span<const float>(ws.merged).subspan(cw * kLdpcN, kLdpcN));
      ws.scrambled.insert(ws.scrambled.end(), word.begin(),
                          word.begin() + static_cast<long>(kLdpcK));
    }
  } else if (bcc_stream) {
    // Pad the trellis with zero-LLR erasures up to the 2 * n_info budget
    // (the one-shot path's resize does the same), then trace back.
    std::array<float, 128> zeros{};
    while (llrs_fed < 2 * n_info_bits) {
      const std::size_t take = std::min(zeros.size(), 2 * n_info_bits - llrs_fed);
      viterbi_.stream_consume(ws.viterbi_stream, ws.viterbi,
                              std::span<const float>(zeros).first(take));
      llrs_fed += take;
    }
    viterbi_.stream_finish(ws.viterbi_stream, ws.viterbi,
                           /*terminated=*/false, ws.scrambled);
  } else {
    detail::decode_bcc_into(ws.merged, mcs.rate, n_info_bits, cfg_.fec_enabled,
                            viterbi_, ws);
  }

  if (!detail::unpack_psdu(ws.scrambled, pkt.htsig.length, pkt.psdu)) {
    pkt.error = metrics::RxError::kTruncated;
    return true;
  }
  pkt.fcs_ok = wifi::psdu_fcs_ok(pkt.psdu);
  // A frame delivered past a failed L-SIG still reports the anomaly; a
  // failed FCS is the terminal data-stage classification either way.
  pkt.error = !pkt.fcs_ok ? metrics::RxError::kFcsFail
              : pkt.lsig_ok ? metrics::RxError::kOk
                            : metrics::RxError::kLsigFail;
  return true;
}

std::optional<std::size_t> decoded_frame_samples(const RxPacket& pkt,
                                                 const PhyConfig& cfg) {
  if (!pkt.htsig_ok) return std::nullopt;
  return ht_frame_layout(wifi::mcs_info(pkt.htsig.mcs), pkt.htsig, cfg.fec_enabled)
      .total_samples();
}

}  // namespace mimonet::core
