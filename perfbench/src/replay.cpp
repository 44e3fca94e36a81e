#include "replay.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "chanest/ls_estimator.hpp"
#include "chanest/phase_tracker.hpp"
#include "chanest/snr_estimator.hpp"
#include "channel/impairments.hpp"
#include "common.hpp"
#include "eq/equalizer.hpp"
#include "fec/convolutional.hpp"
#include "fec/scrambler.hpp"
#include "mod/constellation.hpp"
#include "ofdm/pilots.hpp"
#include "wifi/bits.hpp"
#include "wifi/interleaver.hpp"
#include "wifi/mcs.hpp"
#include "wifi/preamble.hpp"
#include "wifi/psdu.hpp"
#include "wifi/signal_field.hpp"
#include "wifi/stream_parser.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace mc = mimonet::core;
namespace dsp = mimonet::dsp;
namespace ofdm = mimonet::ofdm;
namespace wifi = mimonet::wifi;
using mimonet::metrics::RxError;

const char* span_name(SpanId id) {
  static constexpr const char* kNames[kSpanCount] = {
      "core.scan.iter", "sync.detect",    "sync.coarse", "sync.synchronize",
      "core.align",     "chanest",        "wifi.sig",    "core.decode",
      "ofdm.demod",     "eq.apply",       "mod.demap",   "wifi.deint",
      "fec.depuncture", "fec.viterbi",    "core.tx",     "channel.transmit"};
  return kNames[id];
}

std::int32_t Tracer::open(SpanId id) {
  const auto idx = static_cast<std::int32_t>(spans_.size());
  const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({id, parent, wall_ns(), 0});
  stack_.push_back(idx);
  return idx;
}

void Tracer::close(std::int32_t idx) {
  spans_[static_cast<std::size_t>(idx)].t1 = wall_ns();
  stack_.pop_back();
}

namespace {

std::vector<std::size_t> occupied_ht_bins() {
  std::vector<std::size_t> bins;
  for (int k = -28; k <= 28; ++k) {
    if (k != 0) bins.push_back(ofdm::SubcarrierMap::logical_to_bin(k));
  }
  return bins;
}

std::uint32_t recover_scrambler_seed(std::span<const std::uint8_t> first7) {
  std::array<std::uint8_t, 7> seq{};
  for (std::uint32_t seed = 1; seed < 128; ++seed) {
    mimonet::fec::scrambler_sequence_into(seed, seq);
    bool match = true;
    for (std::size_t i = 0; i < 7 && match; ++i) match = seq[i] == (first7[i] & 1U);
    if (match) return seed;
  }
  return mimonet::fec::kDefaultScramblerSeed;
}

void reset_packet(mc::RxPacket& pkt) {
  pkt.lsig_ok = false;
  pkt.htsig_ok = false;
  pkt.fcs_ok = false;
  pkt.error = RxError::kNoSync;
  pkt.lsig = {};
  pkt.htsig = {};
  pkt.psdu.clear();
  pkt.sync = {};
  pkt.channel.nrx = 0;
  pkt.channel.nss = 0;
}

}  // namespace

TracedReceiver::TracedReceiver(const mc::PhyConfig& phy, std::size_t nrx,
                               const mimonet::sync::ScanMode& scan)
    : phy_(phy),
      nrx_(nrx),
      scan_(scan),
      synchronizer_(mimonet::sync::FrameSyncConfig{.scan = scan, .mode = phy.timing_mode}),
      detector_(mimonet::sync::DetectorConfig{}, scan),
      legacy_demod_(ofdm::CarrierPlan::kLegacy),
      ht_demod_(ofdm::CarrierPlan::kHt) {
  if (!phy.fec_enabled || phy.fec_type != mc::FecType::kBcc || phy.stbc ||
      !phy.batched_decode || phy.decision_tracking ||
      phy.equalizer == mimonet::eq::EqualizerType::kMaxLikelihood ||
      phy.timing_mode != mimonet::sync::TimingMode::kLtfCrossCorr) {
    throw std::invalid_argument("TracedReceiver mirrors the default BCC/linear path only");
  }
}

void TracedReceiver::probe_detector(std::span<const std::span<const cf32>> capture,
                                    Tracer& tr, Counters& n) const {
  const std::size_t len = capture[0].size();
  std::optional<mimonet::sync::Detection> det;
  {
    const Scope s(tr, kProbeDetect);
    det = detector_.detect_mimo(capture, probe_scratch_);
  }
  if (scan_.decimation <= 1) {
    // The exhaustive detector sweeps the whole span it is handed.
    n.detector_samples += len;
    return;
  }
  // Two-pass: the streaming coarse pass stops at the first region that
  // detects, so replay it over the prefix that reaches past the detection's
  // STF (the whole span when nothing was found).
  const auto& cfg = detector_.config();
  std::size_t prefix = len;
  if (det) {
    prefix = std::min(len, det->start + wifi::kLstfLen + cfg.lag +
                               detector_.coarse_window() + cfg.window + cfg.min_plateau);
  }
  std::array<std::span<const cf32>, 4> view{};
  for (std::size_t a = 0; a < capture.size(); ++a) view[a] = capture[a].first(prefix);
  probe_regions_.clear();
  {
    const Scope s(tr, kProbeCoarse);
    (void)detector_.scan_coarse(
        std::span<const std::span<const cf32>>(view.data(), capture.size()),
        probe_scratch_, probe_regions_);
  }
  n.detector_samples += prefix;
}

void TracedReceiver::sig_llrs(const dsp::SampleGrid& grids,
                              const std::vector<std::vector<cf32>>& h_legacy,
                              float noise_var, bool qbpsk, mc::RxWorkspace& ws,
                              std::vector<float>& out) const {
  const auto& data_bins = legacy_demod_.map().data_bins();
  ws.mrc.resize(data_bins.size());
  for (std::size_t i = 0; i < data_bins.size(); ++i) {
    const std::size_t bin = data_bins[i];
    dsp::cf64 num{0.0, 0.0};
    for (std::size_t r = 0; r < nrx_; ++r) {
      num += dsp::cf64(grids(r, bin)) * std::conj(dsp::cf64(h_legacy[r][bin]));
    }
    ws.mrc[i] = cf32(static_cast<float>(num.real()), static_cast<float>(num.imag()));
  }
  wifi::demap_sig_field_into(ws.mrc, noise_var, qbpsk, ws.sig_axis_llrs, out);
}

bool TracedReceiver::receive(std::span<const std::span<const cf32>> capture,
                             mc::RxWorkspace& ws, Tracer& tr, Counters& n,
                             bool probe) const {
  if (capture.size() != nrx_) throw std::invalid_argument("replay: antenna count");
  mc::RxPacket& pkt = ws.packet;
  reset_packet(pkt);
  if (probe) probe_detector(capture, tr, n);

  std::optional<mimonet::sync::FrameSyncResult> sync_res;
  {
    const Scope s(tr, kSync);
    sync_res = synchronizer_.synchronize(capture, ws.sync);
  }
  if (!sync_res) {
    if (ws.sync.rejected_candidate) {
      pkt.sync.packet_start = *ws.sync.rejected_candidate;
      pkt.error = ws.sync.rejected_truncated ? RxError::kTruncated : RxError::kFalseSync;
    }
    return false;
  }
  pkt.sync = *sync_res;

  const std::size_t start = sync_res->packet_start;
  const std::size_t avail = capture[0].size() - start;
  mc::FrameLayout probe_fl;
  if (avail < probe_fl.htltf_offset() + wifi::kHtLtfLen) {
    pkt.error = RxError::kTruncated;
    return false;
  }
  {
    const Scope s(tr, kAlign);
    ws.rx.resize(nrx_);
    for (std::size_t a = 0; a < nrx_; ++a) {
      const auto tail = capture[a].subspan(start);
      ws.rx[a].assign(tail.begin(), tail.end());
      mimonet::channel::apply_cfo(ws.rx[a], -sync_res->cfo_norm);
    }
  }
  const dsp::FftPlan& fft64 = ws.fft_cache.plan(ofdm::kFftSize);

  const std::size_t lltf_payload = probe_fl.lltf_offset() + 32;
  float nv_bin = 0.0F;
  {
    const Scope s(tr, kChanest);
    ws.lltf_grids.resize(nrx_, 2, ofdm::kFftSize);
    for (std::size_t a = 0; a < nrx_; ++a) {
      for (std::size_t rep = 0; rep < 2; ++rep) {
        fft64.forward(std::span<const cf32>(ws.rx[a]).subspan(lltf_payload + rep * 64, 64),
                      ws.lltf_grids.row(a, rep));
      }
    }
    mimonet::chanest::LsChannelEstimator::estimate_legacy_into(ws.lltf_grids, ws.h_legacy);
    ws.spans.clear();
    for (const auto& a : ws.rx) {
      ws.spans.emplace_back(std::span<const cf32>(a).subspan(lltf_payload, 128));
    }
    mimonet::chanest::snr_from_lltf_into(ws.spans, pkt.snr);
    nv_bin = static_cast<float>(64.0 * std::max(pkt.snr.noise_variance, 1e-12));
  }

  std::optional<wifi::HtSig> htsig;
  {
    const Scope s(tr, kSig);
    ws.sig_grid.resize(nrx_, ofdm::kFftSize);
    const auto demod_sig = [&](std::size_t offset) {
      for (std::size_t a = 0; a < nrx_; ++a) {
        fft64.forward(std::span<const cf32>(ws.rx[a]).subspan(offset + ofdm::kCpLen,
                                                              ofdm::kFftSize),
                      ws.sig_grid.row(a));
      }
    };
    demod_sig(probe_fl.lsig_offset());
    sig_llrs(ws.sig_grid, ws.h_legacy, nv_bin, false, ws, ws.sig_llrs);
    viterbi_.decode_soft_into(ws.sig_llrs, true, ws.sig_bits, ws.viterbi);
    if (const auto lsig = wifi::decode_lsig(ws.sig_bits)) {
      pkt.lsig = *lsig;
      pkt.lsig_ok = true;
    }
    ws.htsig_llrs.clear();
    for (std::size_t k = 0; k < 2; ++k) {
      demod_sig(probe_fl.htsig_offset() + k * ofdm::kSymLen);
      sig_llrs(ws.sig_grid, ws.h_legacy, nv_bin, true, ws, ws.sig_llrs);
      ws.htsig_llrs.insert(ws.htsig_llrs.end(), ws.sig_llrs.begin(), ws.sig_llrs.end());
    }
    viterbi_.decode_soft_into(ws.htsig_llrs, true, ws.sig_bits, ws.viterbi);
    htsig = wifi::decode_htsig(ws.sig_bits);
  }
  if (!htsig) {
    pkt.error = pkt.lsig_ok ? RxError::kHtsigFail : RxError::kFalseSync;
    return true;
  }
  pkt.htsig = *htsig;
  pkt.htsig_ok = true;

  wifi::McsInfo mcs;
  try {
    mcs = wifi::mcs_info(pkt.htsig.mcs);
  } catch (const std::invalid_argument&) {
    pkt.htsig_ok = false;
    pkt.error = RxError::kUnsupportedMcs;
    return true;
  }
  if (pkt.htsig.stbc != 0) {
    pkt.htsig_ok = false;
    pkt.error = RxError::kUnsupportedMcs;
    if (pkt.htsig.stbc == 1 && mcs.nss == 1) ++n.unsupported;  // a real STBC frame
    return true;
  }
  if (pkt.htsig.fec_coding) {
    ++n.unsupported;  // LDPC payloads are not mirrored
    pkt.error = RxError::kFcsFail;
    return true;
  }
  const std::size_t nsts = mcs.nss;
  mc::FrameLayout fl;
  fl.nss = nsts;
  fl.n_data_symbols =
      mc::data_symbol_count(mcs, pkt.htsig.length, true, false, mc::FecType::kBcc);
  if (avail < fl.total_samples()) {
    pkt.error = RxError::kTruncated;
    return true;
  }

  mimonet::chanest::MimoChannelEstimate& est = pkt.channel;
  {
    const Scope s(tr, kChanest);
    const std::size_t n_ltf = fl.n_ht_ltfs();
    ws.ltf_grids.resize(nrx_, n_ltf, ofdm::kFftSize);
    for (std::size_t a = 0; a < nrx_; ++a) {
      for (std::size_t k = 0; k < n_ltf; ++k) {
        fft64.forward(std::span<const cf32>(ws.rx[a]).subspan(
                          fl.htltf_offset() + k * wifi::kHtLtfLen + ofdm::kCpLen, 64),
                      ws.ltf_grids.row(a, k));
      }
    }
    const mimonet::chanest::LsChannelEstimator ls(nrx_, nsts);
    ls.estimate_into(ws.ltf_grids, est);
    if (phy_.smoothing) {
      static const auto bins = occupied_ht_bins();
      ws.csd.resize(nsts);
      for (std::size_t k = 0; k < nsts; ++k) ws.csd[k] = wifi::ht_csd_samples(k, nsts);
      mimonet::chanest::smooth_frequency(est, bins, ws.csd);
    }
  }

  const Scope decode_scope(tr, kDecode);
  const mimonet::mod::Constellation& constellation =
      mimonet::mod::constellation_for(mcs.modulation);
  const unsigned bps = constellation.bits_per_symbol();
  const auto& data_bins = ht_demod_.map().data_bins();
  const auto& pilot_bins = ht_demod_.map().pilot_bins();
  mimonet::chanest::PilotPhaseTracker tracker(est);
  ws.pilot_evm.reset();
  const mimonet::eq::LinearEqualizer lin_eq(phy_.equalizer);
  {
    const Scope s(tr, kEq);
    ws.h_at.resize(ofdm::kFftSize);
    ws.coeffs.resize(ofdm::kFftSize);
    for (const std::size_t b : data_bins) {
      est.at_bin_into(b, ws.h_at[b]);
      lin_eq.prepare(ws.h_at[b], nv_bin, ws.coeffs[b]);
    }
  }
  for (std::size_t k = 0; k < mcs.nss; ++k) {
    double acc = 0.0;
    std::size_t cnt = 0;
    for (const std::size_t b : data_bins) {
      const float nv = ws.coeffs[b].noise_vars[k];
      if (nv > 0.0F && nv < mimonet::eq::kErasedNoiseVar) {
        acc += 1.0 / static_cast<double>(nv);
        ++cnt;
      }
    }
    pkt.stream_sinr_db[k] = cnt > 0 ? 10.0 * std::log10(acc / static_cast<double>(cnt)) : 0.0;
  }
  pkt.n_stream_sinr = mcs.nss;
  ws.llr_buf.resize(mcs.nss * bps);
  ws.rx_pilots.resize(nrx_);

  const wifi::StreamParser parser(mcs.bits_per_subcarrier(), mcs.nss);
  const std::size_t n_info_bits = fl.n_data_symbols * mcs.data_bits_per_symbol();
  std::size_t llrs_fed = 0;
  const std::size_t n_bins = data_bins.size();
  const std::size_t block = n_bins * bps;
  ws.depunct_stream.reset(mcs.rate);
  viterbi_.stream_begin(ws.viterbi_stream, ws.viterbi, n_info_bits);
  ws.eq_out.resize(mcs.nss);
  ws.nv_out.resize(mcs.nss);
  ws.chunk_llrs.resize(mcs.nss);
  ws.chunk_deint.resize(mcs.nss);
  ws.merge_views.resize(mcs.nss);

  for (std::size_t n0 = 0; n0 < fl.n_data_symbols; n0 += mc::kDecodeBatchSymbols) {
    const std::size_t chunk =
        std::min<std::size_t>(mc::kDecodeBatchSymbols, fl.n_data_symbols - n0);
    {
      const Scope s(tr, kDemod);
      ws.batch_grids.resize(nrx_, chunk, ofdm::kFftSize);
      const std::size_t off = fl.data_offset() + n0 * ofdm::kSymLen;
      for (std::size_t a = 0; a < nrx_; ++a) {
        ht_demod_.demodulate_grids_into(
            std::span<const cf32>(ws.rx[a]).subspan(off, chunk * ofdm::kSymLen), chunk,
            std::span<cf32>(ws.batch_grids.data() + a * chunk * ofdm::kFftSize,
                            chunk * ofdm::kFftSize));
      }
    }
    n.demod_symbols += chunk * nrx_;

    // Pilot CPE tracking and EVM (core.decode's own time).
    ws.derotate.resize(chunk);
    for (std::size_t j = 0; j < chunk; ++j) {
      const std::size_t sym = n0 + j;
      for (std::size_t a = 0; a < nrx_; ++a) {
        for (std::size_t p = 0; p < 4; ++p) {
          ws.rx_pilots[a][p] = ws.batch_grids(a, j, pilot_bins[p]);
        }
      }
      cf32 derotate{1.0F, 0.0F};
      if (phy_.phase_tracking) {
        const double raw = tracker.estimate_cpe(ws.rx_pilots, sym);
        const double theta = tracker.track(raw);
        derotate = dsp::phasor(static_cast<float>(-theta));
      }
      for (std::size_t a = 0; a < nrx_; ++a) {
        for (std::size_t p = 0; p < 4; ++p) {
          dsp::cf64 expected{0.0, 0.0};
          for (std::size_t k = 0; k < nsts; ++k) {
            const auto pv = ofdm::ht_data_pilots(nsts, k, sym);
            expected += dsp::cf64(est.h[a][k][pilot_bins[p]]) * dsp::cf64(pv[p]);
          }
          ws.pilot_evm.add(pilot_bins[p], ws.rx_pilots[a][p] * derotate,
                           cf32(static_cast<float>(expected.real()),
                                static_cast<float>(expected.imag())));
        }
      }
      ws.derotate[j] = derotate;
    }

    {
      const Scope s(tr, kEq);
      for (std::size_t k = 0; k < mcs.nss; ++k) {
        ws.eq_out[k].resize(chunk * n_bins);
        ws.nv_out[k].resize(chunk * n_bins);
        ws.chunk_llrs[k].resize(chunk * block);
      }
      ws.y_batch.resize(chunk * nrx_);
      ws.eq_slab.resize(chunk * mcs.nss);
      ws.nv_slab.resize(chunk * mcs.nss);
      for (std::size_t i = 0; i < n_bins; ++i) {
        const std::size_t bin = data_bins[i];
        for (std::size_t j = 0; j < chunk; ++j) {
          for (std::size_t a = 0; a < nrx_; ++a) {
            ws.y_batch[j * nrx_ + a] = ws.batch_grids(a, j, bin) * ws.derotate[j];
          }
        }
        mimonet::eq::LinearEqualizer::apply_run(ws.coeffs[bin], ws.y_batch, chunk,
                                                ws.eq_slab, ws.nv_slab);
        for (std::size_t j = 0; j < chunk; ++j) {
          for (std::size_t k = 0; k < mcs.nss; ++k) {
            ws.eq_out[k][j * n_bins + i] = ws.eq_slab[j * mcs.nss + k];
            ws.nv_out[k][j * n_bins + i] = ws.nv_slab[j * mcs.nss + k];
          }
        }
      }
    }
    n.eq_bins += chunk * n_bins;

    {
      const Scope s(tr, kDemap);
      for (std::size_t k = 0; k < mcs.nss; ++k) {
        constellation.demap_soft_run(ws.eq_out[k], ws.nv_out[k], ws.chunk_llrs[k]);
      }
    }
    n.demap_llrs += chunk * block * mcs.nss;

    {
      const Scope s(tr, kDeint);
      for (std::size_t k = 0; k < mcs.nss; ++k) {
        const wifi::Interleaver& il =
            wifi::cached_interleaver(mcs.bits_per_subcarrier(), k, mcs.nss);
        ws.chunk_deint[k].resize(chunk * block);
        il.deinterleave_into(ws.chunk_llrs[k], std::span<float>(ws.chunk_deint[k]));
        ws.merge_views[k] = ws.chunk_deint[k];
      }
      ws.chunk_merged.resize(chunk * block * mcs.nss);
      parser.merge_into(std::span<const std::span<const float>>(ws.merge_views),
                        std::span<float>(ws.chunk_merged));
    }
    n.deint_llrs += chunk * block * mcs.nss;

    {
      const Scope s(tr, kDepunct);
      ws.depunct_stream.consume(ws.chunk_merged, ws.chunk_depunct);
    }
    n.depunct_llrs += ws.chunk_depunct.size();

    {
      const Scope s(tr, kViterbi);
      const std::size_t take =
          std::min(ws.chunk_depunct.size(), 2 * n_info_bits - llrs_fed);
      viterbi_.stream_consume(ws.viterbi_stream, ws.viterbi,
                              std::span<const float>(ws.chunk_depunct).first(take));
      llrs_fed += take;
    }
  }

  ws.pilot_evm.estimate_into(pkt.pilot_snr);
  pkt.residual_cfo_norm = tracker.residual_cfo_norm();

  {
    const Scope s(tr, kViterbi);
    std::array<float, 128> zeros{};
    while (llrs_fed < 2 * n_info_bits) {
      const std::size_t take = std::min(zeros.size(), 2 * n_info_bits - llrs_fed);
      viterbi_.stream_consume(ws.viterbi_stream, ws.viterbi,
                              std::span<const float>(zeros).first(take));
      llrs_fed += take;
    }
    viterbi_.stream_finish(ws.viterbi_stream, ws.viterbi, false, ws.scrambled);
  }
  n.viterbi_bits += n_info_bits;

  const std::size_t psdu_bits = 8 * static_cast<std::size_t>(pkt.htsig.length);
  if (ws.scrambled.size() < mc::kServiceBits + psdu_bits) {
    pkt.error = RxError::kTruncated;
    return true;
  }
  const std::uint32_t seed = recover_scrambler_seed(std::span(ws.scrambled).first(7));
  mimonet::fec::scramble_in_place(ws.scrambled, seed);
  wifi::bits_to_bytes_into(
      std::span<const std::uint8_t>(ws.scrambled).subspan(mc::kServiceBits, psdu_bits),
      pkt.psdu);
  pkt.fcs_ok = wifi::psdu_fcs_ok(pkt.psdu);
  pkt.error = !pkt.fcs_ok ? RxError::kFcsFail
              : pkt.lsig_ok ? RxError::kOk
                            : RxError::kLsigFail;
  return true;
}

void traced_scan(const TracedReceiver& rx, const mc::ReceiveSessionConfig& session,
                 std::span<const std::span<const cf32>> capture, mc::RxWorkspace& ws,
                 Tracer& tr, Counters& n, std::vector<Record>& records) {
  const mc::StreamReceiverConfig scfg = session.scan_config();
  const std::size_t nrx = capture.size();
  const std::size_t len = capture[0].size();
  std::array<std::span<const cf32>, 4> view{};
  std::size_t pos = 0;
  std::size_t failed_candidates = 0;
  std::size_t frames = 0;
  std::size_t rewind_barrier = 0;
  while (pos < len) {
    for (std::size_t a = 0; a < nrx; ++a) view[a] = capture[a].subspan(pos);
    const Scope iter(tr, kIter);
    const bool got = rx.receive(std::span<const std::span<const cf32>>(view.data(), nrx),
                                ws, tr, n, /*probe=*/true);
    const mc::RxPacket& pkt = ws.packet;
    const RxError err = pkt.error;
    if (!got && err == RxError::kNoSync) break;

    const std::size_t frame_start = pos + pkt.sync.packet_start;
    ++n.candidates;
    records.push_back({frame_start, err, pkt.fcs_ok, bytes_hash(pkt.psdu)});
    if (err == RxError::kTruncated) break;

    std::size_t next = 0;
    if (pkt.htsig_ok) {
      ++n.useful;
      ++frames;
      failed_candidates = 0;
      next = frame_start + *mc::decoded_frame_samples(pkt, rx.config());
      if (scfg.max_packets != 0 && frames >= scfg.max_packets) break;
    } else {
      ++n.resyncs;
      ++failed_candidates;
      const std::size_t deficit = !got ? ws.sync.rejected_start_deficit : 0;
      bool rewound = false;
      if (deficit != 0 && pos >= deficit && pos - deficit >= rewind_barrier) {
        next = pos - deficit;
        rewind_barrier = next + 1;
        rewound = true;
      } else {
        next = frame_start + scfg.resync_advance;
      }
      if (scfg.candidate_budget != 0 && failed_candidates > scfg.candidate_budget) {
        records.push_back({next, RxError::kBudgetExceeded, false, 0});
        break;
      }
      if (rewound) {
        ++n.rewinds;
        pos = next;
        continue;
      }
    }
    pos = std::max(next, pos + scfg.min_advance);
  }
}

}  // namespace perfbench
