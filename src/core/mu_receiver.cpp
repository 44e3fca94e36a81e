#include "core/mu_receiver.hpp"

#include <stdexcept>

#include "chanest/ls_estimator.hpp"
#include "chanest/phase_tracker.hpp"
#include "channel/impairments.hpp"
#include "core/symbol_plane.hpp"
#include "eq/equalizer.hpp"
#include "mod/constellation.hpp"
#include "wifi/psdu.hpp"

namespace mimonet::core {

namespace {

void reset_mu_packet(MuRxPacket& pkt, std::size_t n_users) {
  pkt.detected = false;
  pkt.sync = {};
  pkt.snr.reset();
  pkt.users.resize(n_users);
  for (auto& u : pkt.users) {
    u.fcs_ok = false;
    u.psdu.clear();
    u.sinr_db = 0.0;
  }
}

}  // namespace

MuUplinkReceiver::MuUplinkReceiver(PhyConfig cfg, std::size_t n_users,
                                   std::size_t nrx)
    : cfg_(cfg),
      n_users_(n_users),
      nrx_(nrx),
      mcs_(cfg.mcs_info()),
      synchronizer_(sync::FrameSyncConfig{.mode = cfg.timing_mode}),
      ht_demod_(ofdm::CarrierPlan::kHt) {
  if (n_users == 0 || n_users > 4) {
    throw std::invalid_argument("MuUplinkReceiver: n_users must be 1..4");
  }
  if (nrx < n_users || nrx > 4) {
    throw std::invalid_argument(
        "MuUplinkReceiver: need n_users <= nrx <= 4 (joint detection)");
  }
  if (mcs_.nss != 1 || cfg.stbc) {
    throw std::invalid_argument(
        "MuUplinkReceiver: users transmit a 1-stream MCS without STBC");
  }
  if (cfg.fec_enabled && cfg.fec_type == FecType::kLdpc) {
    throw std::invalid_argument("MuUplinkReceiver: BCC uplink only");
  }
}

bool MuUplinkReceiver::receive(std::span<const std::span<const cf32>> capture,
                               std::size_t psdu_bytes, MuRxWorkspace& mws) const {
  if (capture.size() != nrx_) {
    throw std::invalid_argument("MuUplinkReceiver: capture antenna count mismatch");
  }
  RxWorkspace& ws = mws.rx;
  MuRxPacket& pkt = mws.packet;
  reset_mu_packet(pkt, n_users_);

  // ---- Sync on the superposed legacy preamble: each user's L-STF/L-LTF is
  // the standard chain-u-of-U field, so the superposition keeps the
  // periodicity the detector and the LTF cross-correlator key on. ----
  const auto sync_res = synchronizer_.synchronize(capture, ws.sync);
  if (!sync_res) return false;
  pkt.sync = *sync_res;

  // Trigger-announced frame geometry: U space-time streams, every user's
  // data field the same symbol count as a 1x1 PPDU of this PSDU size.
  FrameLayout fl;
  fl.nss = n_users_;
  fl.n_data_symbols = data_symbol_count(mcs_, psdu_bytes, cfg_.fec_enabled,
                                        /*stbc=*/false, cfg_.fec_type);

  const std::size_t start = sync_res->packet_start;
  const std::size_t avail = capture[0].size() - start;
  if (avail < fl.total_samples()) return false;  // truncated capture

  // CFO-corrected, packet-aligned copy of the frame alone (one shared
  // oscillator assumption: the triggered uplink uses the BS reference, so
  // one correction serves every user's stream).
  ws.rx.resize(nrx_);
  for (std::size_t a = 0; a < nrx_; ++a) {
    const auto frame = capture[a].subspan(start, fl.total_samples());
    ws.rx[a].assign(frame.begin(), frame.end());
    channel::apply_cfo(ws.rx[a], -sync_res->cfo_norm);
  }

  // ---- L-LTF noise estimate: the two repetitions of the superposition
  // differ only by noise, exactly as in the single-user case. ----
  const float nv_bin = detail::lltf_snr_into(ws, pkt.snr);

  // ---- Joint HT-LTF channel estimation: the stacked nrx x U problem. ----
  chanest::MimoChannelEstimate& est = ws.packet.channel;
  detail::estimate_ht_channel(fl, nrx_, ws, est);

  // ---- Per-bin equalizer (the "tall MIMO" inversion), then the data
  // symbols through the symbol plane. ML joint detection over U users is
  // out of scope; the ML configuration falls back to MMSE like the
  // single-link receiver does above 2 streams. Pilot CPE tracking runs over
  // the joint pilot pattern (stream u flies ht_data_pilots(U, u, n), which
  // is what the tracker models for an est with nss == U). Each user's
  // deinterleaved stream accumulates on its own: every user is its own
  // codeword, no stream merge. ----
  const eq::LinearEqualizer lin_eq(cfg_.equalizer == eq::EqualizerType::kMaxLikelihood
                                       ? eq::EqualizerType::kMmse
                                       : cfg_.equalizer);
  const detail::PlaneInput plane{
      .fl = fl,
      .demod = ht_demod_,
      .est = est,
      .constellation = mod::constellation_for(mcs_.modulation),
      .nrx = nrx_,
      .nss = n_users_,
      .nv_bin = nv_bin,
      .phase_tracking = cfg_.phase_tracking,
      .detector = detail::BinDetector::kLinear,
      .lin_eq = &lin_eq,
  };
  detail::prepare_bins(plane, ws);
  for (std::size_t u = 0; u < n_users_; ++u) {
    pkt.users[u].sinr_db =
        detail::stream_sinr_db(ws.coeffs, ht_demod_.map().data_bins(), u);
  }
  chanest::PilotPhaseTracker tracker(est);
  ws.pilot_evm.reset();
  ws.deinterleaved.resize(n_users_);
  for (auto& v : ws.deinterleaved) v.clear();
  detail::run_symbol_plane(plane, tracker, ws, [&ws](std::size_t) {
    for (std::size_t u = 0; u < ws.deinterleaved.size(); ++u) {
      ws.deinterleaved[u].insert(ws.deinterleaved[u].end(),
                                 ws.chunk_deint[u].begin(), ws.chunk_deint[u].end());
    }
  });

  // ---- Per-user FEC: depuncture / Viterbi / descramble / FCS on each
  // user's stream independently. ----
  const std::size_t n_info_bits =
      fl.n_data_symbols * mcs_.data_bits_per_symbol();
  pkt.detected = true;
  for (std::size_t u = 0; u < n_users_; ++u) {
    detail::decode_bcc_into(ws.deinterleaved[u], mcs_.rate, n_info_bits,
                            cfg_.fec_enabled, viterbi_, ws);
    MuUserPacket& up = pkt.users[u];
    if (detail::unpack_psdu(ws.scrambled, psdu_bytes, up.psdu)) {
      up.fcs_ok = wifi::psdu_fcs_ok(up.psdu);
    }
  }
  return true;
}

}  // namespace mimonet::core
