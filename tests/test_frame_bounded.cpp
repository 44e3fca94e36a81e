// Per-candidate receive work is bounded by the frame, not by the capture
// behind it.
//
// The exhaustive detector sweeps its lag autocorrelation one chunk at a time
// through a resumable sweep and stops at the first plateau; Receiver::receive
// aligns (copies and CFO-derotates) the preamble through the first HT-LTF,
// then only the frame's own extent once HT-SIG gives it. Both are scheduling
// changes: these tests pin that every sweep value, every Detection and every
// decoded packet is bit-identical whatever follows the frame, and that the
// aligned samples equal one derotation of exactly the frame.
#include <gtest/gtest.h>

#include <bit>
#include <complex>
#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <span>
#include <vector>

#include "channel/impairments.hpp"
#include "channel/mimo_channel.hpp"
#include "core/receiver.hpp"
#include "core/transmitter.hpp"
#include "core/workspace.hpp"
#include "dsp/correlator.hpp"
#include "dsp/rng.hpp"
#include "sync/packet_detector.hpp"
#include "wifi/psdu.hpp"

namespace {

using namespace mimonet;
using dsp::AutocorrResult;
using dsp::cf32;

bool same_bits(float a, float b) {
  return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

bool same_bits(cf32 a, cf32 b) {
  return same_bits(a.real(), b.real()) && same_bits(a.imag(), b.imag());
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Noise with an STF-like periodic stretch, so the sweep passes through both
/// plateau and noise regions.
std::vector<cf32> test_signal(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> d(-1.0F, 1.0F);
  std::vector<cf32> x(n);
  for (auto& v : x) v = cf32(d(rng), d(rng));
  for (std::size_t i = n / 5; i < n / 5 + 400 && i < n; ++i) {
    x[i] = dsp::phasor(2.0F * dsp::pi_f * static_cast<float>(i % 16) / 16.0F);
  }
  return x;
}

/// Sweep x in the given range lengths (which must sum to the sweep length)
/// and require each range to hold the whole sweep's bits at its positions.
void expect_split_matches_whole(std::span<const cf32> x, std::size_t lag,
                                std::size_t window,
                                const std::vector<std::size_t>& counts) {
  AutocorrResult whole;
  dsp::lag_autocorrelate_into(x, lag, window, whole);
  AutocorrResult part;
  std::size_t pos = 0;
  for (const std::size_t count : counts) {
    dsp::lag_autocorrelate_into(x, lag, window, count, part);
    ASSERT_EQ(part.metric.size(), count);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t n = pos + i;
      ASSERT_TRUE(same_bits(part.corr[i], whole.corr[n])) << "corr at " << n;
      ASSERT_TRUE(same_bits(part.pow_lead[i], whole.pow_lead[n])) << "lead at " << n;
      ASSERT_TRUE(same_bits(part.pow_lag[i], whole.pow_lag[n])) << "lag at " << n;
      ASSERT_TRUE(same_bits(part.metric[i], whole.metric[n])) << "metric at " << n;
    }
    pos += count;
  }
  ASSERT_EQ(pos, whole.metric.size());
  EXPECT_EQ(part.cursor.next, pos);
}

/// Run `body` under runtime dispatch and again with the scalar product kernel
/// forced (both paths when the CPU has AVX2, the scalar path twice if not).
template <typename Body>
void for_each_product_kernel(Body body) {
  for (const bool scalar : {false, true}) {
    SCOPED_TRACE(scalar ? "scalar kernel" : "dispatched kernel");
    dsp::detail::force_scalar_autocorr(scalar);
    body();
    dsp::detail::force_scalar_autocorr(false);
  }
}

TEST(ResumableSweep, RandomSplitsMatchOneSweep) {
  const auto x = test_signal(3001, 7);
  const std::size_t n_out = x.size() - 16 - 48 + 1;
  for_each_product_kernel([&] {
    std::mt19937 rng(11);
    for (int trial = 0; trial < 20; ++trial) {
      SCOPED_TRACE(trial);
      std::vector<std::size_t> counts;
      std::uniform_int_distribution<std::size_t> len_d(1, 300);
      for (std::size_t left = n_out; left > 0;) {
        const std::size_t c = std::min(left, len_d(rng));
        counts.push_back(c);
        left -= c;
      }
      expect_split_matches_whole(x, 16, 48, counts);
    }
  });
}

TEST(ResumableSweep, CountOneRangesMatchOneSweep) {
  const auto x = test_signal(700, 9);
  for_each_product_kernel([&] {
    expect_split_matches_whole(x, 16, 48,
                               std::vector<std::size_t>(x.size() - 16 - 48 + 1, 1));
  });
}

TEST(ResumableSweep, SplitsOnWindowAndLagBoundariesMatchOneSweep) {
  const auto x = test_signal(1000, 13);
  const std::size_t lag = 16;
  const std::size_t window = 48;
  const std::size_t n_out = x.size() - lag - window + 1;
  for_each_product_kernel([&] {
    for (const std::size_t step : {window, window - 1, window + 1, lag,
                                   lag + window, std::size_t{4}, std::size_t{3}}) {
      SCOPED_TRACE(step);
      std::vector<std::size_t> counts;
      for (std::size_t left = n_out; left > 0; left -= counts.back()) {
        counts.push_back(std::min(left, step));
      }
      expect_split_matches_whole(x, lag, window, counts);
    }
  });
}

TEST(ResumableSweep, NonFiniteSamplesMatchOneSweep) {
  // A NaN or Inf poisons the running sums from the position its window
  // first covers it; a chunked sweep must poison at the same position with
  // the same bits, and match exactly before it.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (const cf32 bad : {cf32(nan, 0.0F), cf32(0.0F, inf), cf32(-inf, 1.0F)}) {
    SCOPED_TRACE(::testing::Message() << bad);
    auto x = test_signal(1500, 17);
    x[900] = bad;
    for_each_product_kernel([&] {
      std::vector<std::size_t> counts;
      std::mt19937 rng(23);
      std::uniform_int_distribution<std::size_t> len_d(1, 200);
      for (std::size_t left = x.size() - 16 - 48 + 1; left > 0;
           left -= counts.back()) {
        counts.push_back(std::min(left, len_d(rng)));
      }
      expect_split_matches_whole(x, 16, 48, counts);
    });
  }
}

TEST(ResumableSweep, RangePastTheEndThrows) {
  const auto x = test_signal(200, 3);
  AutocorrResult res;
  const std::size_t n_out = x.size() - 16 - 48 + 1;
  EXPECT_THROW(dsp::lag_autocorrelate_into(x, 16, 48, n_out + 1, res),
               std::invalid_argument);
  dsp::lag_autocorrelate_into(x, 16, 48, n_out - 1, res);
  EXPECT_THROW(dsp::lag_autocorrelate_into(x, 16, 48, 2, res), std::invalid_argument);
  dsp::lag_autocorrelate_into(x, 16, 48, 1, res);
  EXPECT_EQ(res.cursor.next, n_out);
}

// ---------------------------------------------------------------------------
// Exhaustive detector over a frame followed by idle air.

constexpr double kNoiseVar = 1e-3;  // 30 dB below the unit-power frame

/// A 2x2 MCS 12 frame after 2500 noise samples (past two chunk boundaries,
/// so the plateau is found by a resumed sweep), then `idle` more noise
/// samples drawn from their own stream, so the frame part is the same for
/// every `idle`.
std::vector<std::vector<cf32>> frame_then_idle(std::size_t idle) {
  core::PhyConfig phy;
  phy.mcs = 12;
  const core::Transmitter tx(phy);
  const auto psdu = wifi::build_psdu(wifi::MacHeader{},
                                     std::vector<std::uint8_t>(400, 0x5A));
  channel::ChannelConfig ccfg;
  ccfg.ntx = 2;
  ccfg.nrx = 2;
  ccfg.snr_db = 30.0;
  ccfg.cfo_norm = 2e-3;
  ccfg.timing_pad = 2500;
  ccfg.seed = 99;
  channel::MimoChannel chan(ccfg);
  auto capture = chan.transmit(tx.transmit(psdu));
  for (std::size_t a = 0; a < capture.size(); ++a) {
    dsp::ComplexGaussian noise(1000 + a, kNoiseVar);
    const std::size_t n = capture[a].size();
    capture[a].resize(n + idle);
    noise.fill(std::span<cf32>(capture[a]).subspan(n));
  }
  return capture;
}

std::vector<std::span<const cf32>> spans_of(const std::vector<std::vector<cf32>>& c) {
  return {c.begin(), c.end()};
}

/// The per-antenna sweep outputs hold at most one chunk of positions and the
/// product staging at most the samples one chunk reads. Capacities may be up
/// to twice that (a resumed chunk stages one product more than the first, and
/// the vector grows geometrically), but never track the span length.
void expect_scratch_within_one_chunk(const std::vector<AutocorrResult>& scratch,
                                     const sync::DetectorConfig& cfg) {
  const std::size_t chunk = sync::PacketDetector::kFullChunk;
  const std::size_t staged = chunk + cfg.window + cfg.lag;
  for (const auto& ant : scratch) {
    EXPECT_LE(ant.metric.size(), chunk);
    EXPECT_LE(ant.scratch.prod_re.size(), chunk + cfg.window);
    EXPECT_LE(ant.scratch.mag.size(), staged);
    EXPECT_LE(ant.metric.capacity(), chunk);
    EXPECT_LE(ant.corr.capacity(), chunk);
    EXPECT_LE(ant.scratch.prod_re.capacity(), 2 * staged);
    EXPECT_LE(ant.scratch.mag.capacity(), 2 * staged);
  }
}

/// Reference for the exhaustive scan: one whole-span sweep per antenna, then
/// the detector's antenna combine and first-plateau rule position by position.
std::optional<sync::Detection> whole_span_detect(
    std::span<const std::span<const cf32>> rx, const sync::DetectorConfig& cfg) {
  std::vector<AutocorrResult> per_ant(rx.size());
  for (std::size_t a = 0; a < rx.size(); ++a) {
    dsp::lag_autocorrelate_into(rx[a], cfg.lag, cfg.window, per_ant[a]);
  }
  std::size_t run = 0;
  std::size_t run_start = 0;
  float peak = 0.0F;
  dsp::cf64 peak_corr{0.0, 0.0};
  const std::size_t n_pos = per_ant[0].metric.size();
  for (std::size_t i = 0; i <= n_pos; ++i) {
    dsp::cf64 corr{0.0, 0.0};
    float metric = 0.0F;
    if (i < n_pos) {
      double lead = 0.0;
      double lagp = 0.0;
      for (const auto& ant : per_ant) {
        corr += dsp::cf64(ant.corr[i]);
        lead += static_cast<double>(ant.pow_lead[i]);
        lagp += static_cast<double>(ant.pow_lag[i]);
      }
      const double pp = lead * lagp;
      metric = (pp > 0.0) ? static_cast<float>(dsp::mag_sqr(corr) / pp) : 0.0F;
    }
    if (i < n_pos && metric >= cfg.threshold) {
      if (run == 0) run_start = i;
      ++run;
      if (metric > peak) {
        peak = metric;
        peak_corr = corr;
      }
      continue;
    }
    if (run >= cfg.min_plateau) {
      return sync::Detection{
          run_start,
          -std::arg(peak_corr) / (dsp::two_pi_d * static_cast<double>(cfg.lag)),
          peak};
    }
    run = 0;
    peak = 0.0F;
    peak_corr = dsp::cf64{0.0, 0.0};
  }
  return std::nullopt;
}

TEST(ExhaustiveDetect, TrailingIdleLeavesDetectionIdentical) {
  const sync::PacketDetector det(sync::DetectorConfig{});
  const auto ref_capture = frame_then_idle(0);
  const auto ref = whole_span_detect(spans_of(ref_capture), det.config());
  ASSERT_TRUE(ref.has_value());
  ASSERT_GT(ref->start, 2 * sync::PacketDetector::kFullChunk);
  for (const std::size_t idle : {std::size_t{0}, std::size_t{10000},
                                 std::size_t{200000}}) {
    SCOPED_TRACE(idle);
    const auto capture = frame_then_idle(idle);
    std::vector<AutocorrResult> fresh;
    const auto got = det.detect_mimo(spans_of(capture), fresh);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->start, ref->start);
    EXPECT_TRUE(same_bits(got->cfo_norm, ref->cfo_norm));
    EXPECT_TRUE(same_bits(got->peak_metric, ref->peak_metric));
    expect_scratch_within_one_chunk(fresh, det.config());
  }
}

TEST(ExhaustiveDetect, ScratchStaysOneChunkOverLongIdleSpan) {
  // Nothing to find: the sweep runs the whole span, a chunk at a time.
  std::vector<std::vector<cf32>> idle(2, std::vector<cf32>(200000));
  for (std::size_t a = 0; a < idle.size(); ++a) {
    dsp::ComplexGaussian(500 + a, kNoiseVar).fill(idle[a]);
  }
  const sync::PacketDetector det(sync::DetectorConfig{});
  std::vector<AutocorrResult> scratch;
  EXPECT_FALSE(det.detect_mimo(spans_of(idle), scratch).has_value());
  expect_scratch_within_one_chunk(scratch, det.config());
}

// ---------------------------------------------------------------------------
// Receiver::receive with trailing air.

struct RxCase {
  unsigned mcs = 0;
  eq::EqualizerType eq_type = eq::EqualizerType::kMmse;
  core::FecType fec_type = core::FecType::kBcc;
  bool stbc = false;
  bool batched = true;
  bool harq = false;
};

struct Decoded {
  bool returned = false;
  core::RxPacket pkt;
  std::vector<std::vector<cf32>> rx;  ///< the aligned samples
  std::vector<float> combined;        ///< HARQ export (harq cases)
};

/// Transmit one frame over a fading channel with CFO, append `trailing`
/// noise samples and receive it into `out`. HARQ cases receive a first
/// attempt to export its LLRs, then decode the same capture again combining
/// with them.
void receive_with_trailing(const RxCase& rc, std::size_t trailing, Decoded& out) {
  core::PhyConfig phy;
  phy.mcs = rc.mcs;
  phy.equalizer = rc.eq_type;
  phy.fec_type = rc.fec_type;
  phy.stbc = rc.stbc;
  phy.batched_decode = rc.batched;
  const core::Transmitter tx(phy);
  const std::size_t nsts = phy.n_sts();
  const auto psdu = wifi::build_psdu(wifi::MacHeader{},
                                     std::vector<std::uint8_t>(300, 0xC3));
  channel::ChannelConfig ccfg;
  ccfg.ntx = nsts;
  ccfg.nrx = nsts;
  ccfg.fading = true;
  ccfg.snr_db = 25.0;
  ccfg.cfo_norm = 3e-3;
  ccfg.timing_pad = 200;
  ccfg.seed = 4242 + rc.mcs;
  channel::MimoChannel chan(ccfg);
  auto capture = chan.transmit(tx.transmit(psdu));
  for (std::size_t a = 0; a < capture.size(); ++a) {
    dsp::ComplexGaussian noise(77 + a, kNoiseVar);
    const std::size_t n = capture[a].size();
    capture[a].resize(n + trailing);
    noise.fill(std::span<cf32>(capture[a]).subspan(n));
  }

  const core::Receiver rx(phy, nsts);
  core::RxWorkspace ws;
  const auto spans = spans_of(capture);
  if (rc.harq) {
    core::HarqDecode first;
    first.combined = &ws.harq_combined;
    (void)rx.receive(spans, ws, first);
    const std::vector<float> prior = ws.harq_combined;
    core::HarqDecode second;
    second.prior = prior;
    second.combined = &ws.harq_combined;
    out.returned = rx.receive(spans, ws, second);
    out.combined = ws.harq_combined;
  } else {
    out.returned = rx.receive(spans, ws);
  }
  out.pkt = ws.packet;
  out.rx = ws.rx;

  // The aligned samples are one derotation of exactly the frame.
  if (out.returned && out.pkt.htsig_ok) {
    const std::size_t start = out.pkt.sync.packet_start;
    core::FrameLayout fl;
    fl.nss = nsts;
    fl.n_data_symbols = core::data_symbol_count(phy.mcs_info(), psdu.size(),
                                                phy.fec_enabled, phy.stbc, phy.fec_type);
    const std::size_t total = fl.total_samples();
    for (std::size_t a = 0; a < capture.size(); ++a) {
      std::vector<cf32> want(capture[a].begin() + static_cast<std::ptrdiff_t>(start),
                             capture[a].begin() +
                                 static_cast<std::ptrdiff_t>(start + total));
      channel::apply_cfo(want, -out.pkt.sync.cfo_norm);
      ASSERT_EQ(ws.rx[a].size(), total) << "antenna " << a;
      for (std::size_t i = 0; i < total; ++i) {
        ASSERT_TRUE(same_bits(ws.rx[a][i], want[i]))
            << "antenna " << a << " sample " << i;
      }
    }
  }
}

void expect_identical(const Decoded& a, const Decoded& b) {
  EXPECT_EQ(a.returned, b.returned);
  const core::RxPacket& p = a.pkt;
  const core::RxPacket& q = b.pkt;
  EXPECT_EQ(p.lsig_ok, q.lsig_ok);
  EXPECT_EQ(p.htsig_ok, q.htsig_ok);
  EXPECT_EQ(p.fcs_ok, q.fcs_ok);
  EXPECT_EQ(p.error, q.error);
  EXPECT_EQ(p.psdu, q.psdu);
  EXPECT_EQ(p.sync.packet_start, q.sync.packet_start);
  EXPECT_TRUE(same_bits(p.sync.cfo_norm, q.sync.cfo_norm));
  EXPECT_TRUE(same_bits(p.sync.coarse_cfo_norm, q.sync.coarse_cfo_norm));
  EXPECT_TRUE(same_bits(p.sync.detect_metric, q.sync.detect_metric));
  EXPECT_TRUE(same_bits(p.snr.snr_db, q.snr.snr_db));
  EXPECT_TRUE(same_bits(p.snr.noise_variance, q.snr.noise_variance));
  EXPECT_TRUE(same_bits(p.pilot_snr.snr_db, q.pilot_snr.snr_db));
  EXPECT_TRUE(same_bits(p.residual_cfo_norm, q.residual_cfo_norm));
  EXPECT_EQ(p.n_stream_sinr, q.n_stream_sinr);
  for (std::size_t s = 0; s < p.stream_sinr_db.size(); ++s) {
    EXPECT_TRUE(same_bits(p.stream_sinr_db[s], q.stream_sinr_db[s])) << "stream " << s;
  }
  ASSERT_EQ(p.channel.nrx, q.channel.nrx);
  ASSERT_EQ(p.channel.nss, q.channel.nss);
  ASSERT_EQ(p.channel.h.size(), q.channel.h.size());
  for (std::size_t i = 0; i < p.channel.h.size(); ++i) {
    EXPECT_EQ(p.channel.h[i], q.channel.h[i]) << "h " << i;
  }
  EXPECT_EQ(a.rx, b.rx);
  ASSERT_EQ(a.combined.size(), b.combined.size());
  for (std::size_t i = 0; i < a.combined.size(); ++i) {
    ASSERT_TRUE(same_bits(a.combined[i], b.combined[i])) << "llr " << i;
  }
}

void expect_trailing_air_invariant(const RxCase& rc) {
  Decoded ref;
  ASSERT_NO_FATAL_FAILURE(receive_with_trailing(rc, 0, ref));
  ASSERT_TRUE(ref.returned);
  ASSERT_TRUE(ref.pkt.fcs_ok);
  for (const std::size_t trailing : {std::size_t{1}, std::size_t{4095},
                                     std::size_t{200000}}) {
    SCOPED_TRACE(trailing);
    Decoded got;
    ASSERT_NO_FATAL_FAILURE(receive_with_trailing(rc, trailing, got));
    expect_identical(got, ref);
  }
}

TEST(FrameBoundedReceive, SisoEqualizers) {
  for (const auto eq_type : {eq::EqualizerType::kZeroForcing, eq::EqualizerType::kMmse,
                             eq::EqualizerType::kMaxLikelihood}) {
    SCOPED_TRACE(static_cast<int>(eq_type));
    expect_trailing_air_invariant({.mcs = 4, .eq_type = eq_type});
  }
}

TEST(FrameBoundedReceive, MimoEqualizers) {
  for (const auto eq_type : {eq::EqualizerType::kZeroForcing, eq::EqualizerType::kMmse,
                             eq::EqualizerType::kMaxLikelihood}) {
    SCOPED_TRACE(static_cast<int>(eq_type));
    expect_trailing_air_invariant({.mcs = 11, .eq_type = eq_type});
  }
}

TEST(FrameBoundedReceive, Stbc) {
  expect_trailing_air_invariant({.mcs = 3, .stbc = true});
}

TEST(FrameBoundedReceive, Ldpc) {
  expect_trailing_air_invariant({.mcs = 12, .fec_type = core::FecType::kLdpc});
}

TEST(FrameBoundedReceive, HarqCombining) {
  expect_trailing_air_invariant({.mcs = 13, .harq = true});
}

TEST(FrameBoundedReceive, PerSymbolDecode) {
  expect_trailing_air_invariant({.mcs = 10, .batched = false});
}

TEST(FrameBoundedReceive, TruncatedFramesClassifyAsBefore) {
  core::PhyConfig phy;
  phy.mcs = 9;
  const core::Transmitter tx(phy);
  const auto psdu = wifi::build_psdu(wifi::MacHeader{},
                                     std::vector<std::uint8_t>(500, 0x11));
  channel::ChannelConfig ccfg;
  ccfg.ntx = 2;
  ccfg.nrx = 2;
  ccfg.snr_db = 30.0;
  ccfg.cfo_norm = 1e-3;
  ccfg.timing_pad = 200;
  ccfg.seed = 5;
  channel::MimoChannel chan(ccfg);
  const auto full = chan.transmit(tx.transmit(psdu));
  const core::Receiver rx(phy, 2);

  const auto cut_at = [&](std::size_t len) {
    std::vector<std::vector<cf32>> cut;
    for (const auto& a : full) {
      cut.emplace_back(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(len));
    }
    return cut;
  };
  const core::FrameLayout probe;

  {
    // Cut inside HT-SIG: the synchronizer's region does not fit, so the
    // candidate is rejected as a truncation.
    SCOPED_TRACE("cut inside HT-SIG");
    const auto cut = cut_at(200 + probe.htsig_offset() + 100);
    core::RxWorkspace ws;
    EXPECT_FALSE(rx.receive(spans_of(cut), ws));
    EXPECT_EQ(ws.packet.error, metrics::RxError::kTruncated);
    EXPECT_FALSE(ws.packet.htsig_ok);
  }
  {
    // Cut inside the data: HT-SIG decodes, then the frame does not fit.
    SCOPED_TRACE("cut inside the data");
    core::FrameLayout fl;
    fl.nss = 2;
    const auto cut = cut_at(200 + fl.data_offset() + 3 * 80 + 17);
    core::RxWorkspace ws;
    EXPECT_TRUE(rx.receive(spans_of(cut), ws));
    EXPECT_EQ(ws.packet.error, metrics::RxError::kTruncated);
    EXPECT_TRUE(ws.packet.htsig_ok);
    EXPECT_FALSE(ws.packet.fcs_ok);
    EXPECT_TRUE(ws.packet.psdu.empty());
  }
}

}  // namespace
