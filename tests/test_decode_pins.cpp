// Frozen-digest pins for the STBC and multi-user uplink decodes.
//
// Each case decodes a few seeded captures and folds everything the decode
// reports — PSDU bytes, FCS flags, error classes, the SINR / SNR / residual
// CFO float bits, the exported HARQ stream — into one FNV-1a digest. The
// expected digests were recorded from the receivers as they stood before the
// STBC and MU uplink payloads moved onto the chunked symbol plane; any drift
// in any field of any packet changes the digest.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "channel/mimo_channel.hpp"
#include "channel/multi_user_channel.hpp"
#include "core/mu_receiver.hpp"
#include "core/receiver.hpp"
#include "core/transmitter.hpp"
#include "core/workspace.hpp"
#include "wifi/psdu.hpp"

namespace {

using namespace mimonet;

/// FNV-1a over the bytes of every value folded in.
class Digest {
 public:
  void bytes(std::span<const std::uint8_t> b) {
    for (const std::uint8_t x : b) {
      h_ ^= x;
      h_ *= 0x100000001B3ULL;
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes({{static_cast<std::uint8_t>(v >> (8 * i))}});
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void f32(float v) { u64(std::bit_cast<std::uint32_t>(v)); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

std::vector<std::uint8_t> make_payload(std::size_t n, std::uint8_t tag) {
  std::vector<std::uint8_t> payload(n);
  for (std::size_t i = 0; i < n; ++i) {
    payload[i] = static_cast<std::uint8_t>(tag * 17 + i * 29);
  }
  return payload;
}

std::span<const std::span<const dsp::cf32>> as_spans(
    const std::vector<std::vector<dsp::cf32>>& capture,
    std::vector<std::span<const dsp::cf32>>& storage) {
  storage.assign(capture.begin(), capture.end());
  return storage;
}

void fold_packet(Digest& d, bool got, const core::RxPacket& p) {
  d.u64(got ? 1 : 0);
  d.u64(p.htsig_ok ? 1 : 0);
  d.u64(p.fcs_ok ? 1 : 0);
  d.u64(static_cast<std::uint64_t>(p.error));
  d.u64(p.psdu.size());
  d.bytes(p.psdu);
  d.u64(p.n_stream_sinr);
  for (const double s : p.stream_sinr_db) d.f64(s);
  d.f64(p.pilot_snr.snr_db);
  d.f64(p.residual_cfo_norm);
}

// ---------------------------------------------------------------------------
// STBC (Alamouti, 2 space-time streams, 1 spatial stream).

struct StbcCase {
  unsigned mcs;
  core::FecType fec;
  bool fading;
  std::size_t nrx;
  double snr_db;
  bool phase_tracking;
  std::uint64_t expected;
};

std::uint64_t stbc_digest(const StbcCase& c, bool batched) {
  core::PhyConfig phy;
  phy.mcs = c.mcs;
  phy.stbc = true;
  phy.fec_type = c.fec;
  phy.phase_tracking = c.phase_tracking;
  phy.batched_decode = batched;
  const core::Transmitter tx(phy);
  const core::Receiver rx(phy, c.nrx);
  core::RxWorkspace ws;
  std::vector<std::span<const dsp::cf32>> spans;
  Digest d;
  for (std::size_t k = 0; k < 3; ++k) {
    const auto psdu = wifi::build_psdu(
        wifi::MacHeader{},
        make_payload(90 + 211 * k, static_cast<std::uint8_t>(c.mcs + k)));
    channel::ChannelConfig ccfg;
    ccfg.ntx = 2;
    ccfg.nrx = c.nrx;
    ccfg.fading = c.fading;
    ccfg.snr_db = c.snr_db;
    ccfg.cfo_norm = 3e-5;
    ccfg.timing_pad = 230;
    ccfg.tail_pad = 70;
    ccfg.seed = 7001 + 13 * c.mcs + k;
    channel::MimoChannel chan(ccfg);
    const auto capture = chan.transmit(tx.transmit(psdu));
    const bool got = rx.receive(as_spans(capture, spans), ws);
    fold_packet(d, got, ws.packet);
  }
  return d.value();
}

TEST(DecodePins, Stbc) {
  const StbcCase cases[] = {
      {0, core::FecType::kBcc, true, 1, 4.0, true, 0xC59C0F1329A9BB7DULL},
      {2, core::FecType::kBcc, true, 2, 14.0, true, 0x8FB4E5B86ACD7495ULL},
      {4, core::FecType::kBcc, true, 1, 13.0, true, 0x9F792214BEFBAC90ULL},
      {4, core::FecType::kBcc, true, 2, 16.0, false, 0xD5FF0B6D4F1AF5BBULL},
      {7, core::FecType::kBcc, true, 2, 26.0, true, 0x8C038D019B98D239ULL},
      {7, core::FecType::kBcc, false, 2, 19.0, true, 0xF97F358BB3151483ULL},
      {2, core::FecType::kLdpc, true, 1, 7.0, true, 0x12F0A56E2CC8EF62ULL},
      {7, core::FecType::kLdpc, true, 2, 25.0, true, 0x1D625495FE495A6DULL},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(testing::Message() << "mcs " << c.mcs << " nrx " << c.nrx
                                    << " ldpc " << (c.fec == core::FecType::kLdpc));
    // The batched_decode knob selects the per-symbol loop for spatial
    // multiplexing only; STBC decodes the same either way.
    EXPECT_EQ(stbc_digest(c, true), c.expected);
    EXPECT_EQ(stbc_digest(c, false), c.expected);
  }
}

TEST(DecodePins, StbcHarqCombining) {
  // Three attempts of one frame at an SNR where single attempts fail: each
  // attempt combines the previous attempts' exported stream.
  core::PhyConfig phy;
  phy.mcs = 4;
  phy.stbc = true;
  const core::Transmitter tx(phy);
  const core::Receiver rx(phy, 1);
  core::RxWorkspace ws;
  std::vector<std::span<const dsp::cf32>> spans;
  const auto psdu = wifi::build_psdu(wifi::MacHeader{}, make_payload(400, 9));
  std::vector<float> prior;
  std::vector<float> combined;
  Digest d;
  for (std::size_t k = 0; k < 3; ++k) {
    channel::ChannelConfig ccfg;
    ccfg.ntx = 2;
    ccfg.nrx = 1;
    ccfg.fading = true;
    ccfg.snr_db = 9.0;
    ccfg.timing_pad = 180;
    ccfg.tail_pad = 60;
    ccfg.seed = 880 + k;
    channel::MimoChannel chan(ccfg);
    const auto capture = chan.transmit(tx.transmit(psdu));
    core::HarqDecode harq;
    harq.prior = prior;
    harq.combined = &combined;
    const bool got = rx.receive(as_spans(capture, spans), ws, harq);
    fold_packet(d, got, ws.packet);
    d.u64(combined.size());
    for (const float x : combined) d.f32(x);
    prior = combined;
  }
  EXPECT_EQ(d.value(), 0x18BFBEAD327D76F5ULL);
}

// ---------------------------------------------------------------------------
// Multi-user uplink joint detection.

struct MuCase {
  std::size_t users;
  std::size_t nrx;
  eq::EqualizerType eq_type;
  bool fec;
  bool phase_tracking;
  unsigned mcs;
  double snr_db;
  std::uint64_t expected;
};

std::uint64_t mu_digest(const MuCase& c, std::size_t cut_samples) {
  core::PhyConfig phy;
  phy.mcs = c.mcs;
  phy.equalizer = c.eq_type;
  phy.fec_enabled = c.fec;
  phy.phase_tracking = c.phase_tracking;
  const core::Transmitter tx(phy);
  const core::MuUplinkReceiver murx(phy, c.users, c.nrx);
  core::MuRxWorkspace mws;
  std::vector<core::TxWorkspace> utws(c.users);
  std::vector<std::span<const dsp::cf32>> spans;
  Digest d;
  for (std::size_t k = 0; k < 2; ++k) {
    std::size_t psdu_bytes = 0;
    std::vector<std::vector<std::vector<dsp::cf32>>> per_user(c.users);
    for (std::size_t u = 0; u < c.users; ++u) {
      const auto psdu = wifi::build_psdu(
          wifi::MacHeader{},
          make_payload(120 + 170 * k, static_cast<std::uint8_t>(u * 5 + k)));
      psdu_bytes = psdu.size();
      tx.transmit_virtual_into(psdu, u, c.users, utws[u]);
      per_user[u].push_back(utws[u].chains[0]);
    }
    channel::MuChannelConfig mcfg;
    mcfg.n_users = c.users;
    mcfg.n_bs_antennas = c.nrx;
    mcfg.direction = channel::MuDirection::kUplink;
    mcfg.user.fading = true;
    mcfg.user.snr_db = c.snr_db;
    mcfg.user.timing_pad = 210;
    mcfg.user.tail_pad = 90;
    mcfg.user.seed = 4100 + 31 * c.users + 7 * c.nrx + k;
    channel::MultiUserChannel chan(mcfg);
    auto capture = chan.transmit_uplink(per_user);
    if (cut_samples > 0) {
      for (auto& a : capture) a.resize(a.size() - cut_samples);
    }
    const bool got = murx.receive(as_spans(capture, spans), psdu_bytes, mws);
    const core::MuRxPacket& p = mws.packet;
    d.u64(got ? 1 : 0);
    d.u64(p.detected ? 1 : 0);
    d.u64(p.sync.packet_start);
    d.f64(p.snr.snr_db);
    d.u64(p.users.size());
    for (const auto& up : p.users) {
      d.u64(up.fcs_ok ? 1 : 0);
      d.u64(up.psdu.size());
      d.bytes(up.psdu);
      d.f64(up.sinr_db);
    }
  }
  return d.value();
}

TEST(DecodePins, MuUplink) {
  using eq::EqualizerType;
  const MuCase cases[] = {
      {2, 2, EqualizerType::kMmse, true, true, 3, 17.0, 0x2440422E0CC139FBULL},
      {2, 3, EqualizerType::kZeroForcing, true, true, 4, 22.0, 0x33C385153F448803ULL},
      {2, 2, EqualizerType::kMaxLikelihood, true, false, 2, 18.0, 0x7FC56B352DAA0A90ULL},
      {3, 3, EqualizerType::kMmse, true, true, 1, 10.0, 0x275DB3284C8E5AE7ULL},
      {3, 4, EqualizerType::kZeroForcing, false, true, 1, 30.0, 0xAB063B41E822B9F1ULL},
      {4, 4, EqualizerType::kMmse, true, false, 0, 14.0, 0x1B01D4E0B14281BAULL},
      {4, 4, EqualizerType::kMaxLikelihood, false, true, 3, 33.0, 0xC2093D93D57725CAULL},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(testing::Message() << c.users << " users, nrx " << c.nrx
                                    << ", mcs " << c.mcs);
    EXPECT_EQ(mu_digest(c, 0), c.expected);
  }
}

TEST(DecodePins, MuUplinkCaptureCutInsideData) {
  // The tail pad plus 600 samples removed: the frame ends mid-payload.
  const MuCase c{3, 3, eq::EqualizerType::kMmse, true, true, 2, 25.0, 0};
  EXPECT_EQ(mu_digest(c, 690), 0xB5756F2A2D6819FBULL);
}

}  // namespace
