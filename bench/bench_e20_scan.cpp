// E20 — front-end scan throughput: can the always-on packet scan keep up
// with a live 20 Msps air interface on one core?
//
// Three figures per case, all in Msamp/s of capture time (one "sample" is
// one multi-antenna sample instant, the unit an air interface produces):
//   coarse   — the decimated two-pass coarse sweep (PacketDetector::
//              scan_coarse, stride 8), the stage that runs on every sample;
//   full     — the full-rate sliding-correlation kernel (per-antenna
//              lag_autocorrelate_into over the whole capture), the
//              exhaustive-scan baseline the coarse pass gates;
//   e2e      — StreamReceiver::scan end to end (detect + sync + decode),
//              exhaustive vs two-pass.
// Each figure is the best of five timing windows of at least 0.2 s, the
// windows of a case's five figures taken round-robin.
// The two-pass end-to-end scan must deliver records identical to the
// exhaustive scan on every case — this bench re-checks that on its own
// captures, so the throughput figures can never drift away from the
// equivalence contract they assume.
//
// The acceptance bar (ISSUE 7): coarse >= 20 Msamp/s for the 2x2 clean
// capture. The process exits nonzero if the bar or the record-equivalence
// check fails. MIMONET_BENCH_PACKETS shrinks the captures for smoke runs.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "channel/fault_plan.hpp"
#include "channel/mimo_channel.hpp"
#include "core/stream_receiver.hpp"
#include "core/transmitter.hpp"
#include "core/workspace.hpp"
#include "dsp/correlator.hpp"
#include "sync/packet_detector.hpp"
#include "wifi/psdu.hpp"

using namespace mimonet;
using dsp::cf32;

namespace {

constexpr std::size_t kPayloadBytes = 700;
constexpr std::size_t kGapLen = 600;
constexpr std::size_t kDecimation = 8;

struct Stream {
  core::PhyConfig phy;
  std::vector<std::vector<cf32>> capture;
  std::size_t n_packets = 0;
};

/// Same capture shape as E18: `n_packets` PPDUs with idle gaps, clean flat
/// channel; when `faulted`, a CW interferer burst in every other gap.
Stream make_stream(unsigned mcs, std::size_t n_packets, bool faulted) {
  Stream s;
  s.phy.mcs = mcs;
  s.n_packets = n_packets;
  const core::Transmitter tx(s.phy);
  const std::size_t nss = tx.num_streams();
  constexpr std::size_t kPad = 200;

  std::vector<std::uint8_t> payload(kPayloadBytes);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  const auto psdu = wifi::build_psdu(wifi::MacHeader{}, payload);
  const auto streams = tx.transmit(psdu);

  channel::FaultPlan plan;
  std::vector<std::vector<cf32>> concat(nss);
  for (std::size_t p = 0; p < n_packets; ++p) {
    if (faulted && p + 1 < n_packets && p % 2 == 0) {
      plan.tone_burst(kPad + concat[0].size() + streams[0].size() + 150, 240,
                      3.0, 0.07);
    }
    for (std::size_t c = 0; c < nss; ++c) {
      concat[c].insert(concat[c].end(), streams[c].begin(), streams[c].end());
      if (p + 1 < n_packets) concat[c].resize(concat[c].size() + kGapLen);
    }
  }

  channel::ChannelConfig ccfg;
  ccfg.ntx = nss;
  ccfg.nrx = nss;
  ccfg.snr_db = 30.0;
  ccfg.timing_pad = kPad;
  ccfg.tail_pad = 100;
  ccfg.seed = 0xE20;
  ccfg.faults = plan;
  channel::MimoChannel chan(ccfg);
  s.capture = chan.transmit(concat);
  return s;
}

/// Wall seconds per call of each closure: the best of five timing windows
/// of at least 0.2 s each, after one warm call and an uncounted ramp of the
/// call count. The windows go round-robin over the closures, so a slow
/// stretch of a busy host lands on windows of several figures instead of on
/// all five of one; single windows of the same binary spread by a third.
std::vector<double> time_per_call(const std::vector<std::function<void()>>& fns) {
  constexpr int kWindows = 5;
  constexpr double kMinWindowS = 0.2;
  std::vector<std::size_t> calls(fns.size(), 1);
  const auto window = [&](std::size_t k) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < calls[k]; ++i) fns[k]();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  for (std::size_t k = 0; k < fns.size(); ++k) {
    fns[k]();  // warm: scratch capacity, caches, dispatch
    while (window(k) < kMinWindowS && calls[k] < 1U << 14) calls[k] *= 4;
  }
  std::vector<double> best(fns.size(), std::numeric_limits<double>::infinity());
  for (int w = 0; w < kWindows; ++w) {
    for (std::size_t k = 0; k < fns.size(); ++k) {
      best[k] = std::min(best[k], window(k) / static_cast<double>(calls[k]));
    }
  }
  return best;
}

struct ScanFigures {
  double coarse_msps = 0.0;
  double full_msps = 0.0;
  double full_scalar_msps = 0.0;  ///< kernel forced onto the scalar path
  double e2e_exhaustive_msps = 0.0;
  double e2e_twopass_msps = 0.0;
  std::size_t delivered = 0;
  bool records_identical = false;
};

/// End-to-end record signature for the equivalence check.
struct RecordSig {
  std::size_t offset;
  metrics::RxError error;
  bool fcs_ok;
  std::vector<std::uint8_t> psdu;
  bool operator==(const RecordSig&) const = default;
};

ScanFigures run_case(const Stream& s) {
  ScanFigures f;
  const std::size_t nrx = s.capture.size();
  const std::size_t len = s.capture[0].size();
  const double mega = 1e6;
  std::vector<std::span<const cf32>> spans(s.capture.begin(), s.capture.end());
  const std::span<const std::span<const cf32>> sspan(spans.data(), nrx);

  // Coarse pass (the always-on stage of the two-pass scan).
  sync::ScanMode scan;
  scan.decimation = kDecimation;
  const sync::PacketDetector det(sync::DetectorConfig{}, scan);
  sync::DetectScratch scratch;
  std::vector<sync::CoarseRegion> regions;
  const auto coarse = [&] {
    regions.clear();
    (void)det.scan_coarse(sspan, scratch, regions);
  };

  // Full-rate correlation kernel (exhaustive-scan baseline), AVX2-dispatch
  // and forced-scalar — the SIMD speedup is the difference.
  std::vector<dsp::AutocorrResult> res(nrx);
  const auto sweep = [&] {
    for (std::size_t a = 0; a < nrx; ++a) {
      dsp::lag_autocorrelate_into(spans[a], 16, 48, res[a]);
    }
  };
  const auto sweep_scalar = [&] {
    dsp::detail::force_scalar_autocorr(true);
    sweep();
    dsp::detail::force_scalar_autocorr(false);
  };

  // End to end: exhaustive vs two-pass StreamReceiver scans, with the
  // record-equivalence check folded in.
  std::vector<RecordSig> ref_recs;
  std::vector<RecordSig> tp_recs;
  const core::StreamReceiver srx_exh(s.phy, nrx,
                                     core::StreamReceiverConfig::make().build());
  const core::StreamReceiver srx_2pass(
      s.phy, nrx,
      core::StreamReceiverConfig::make().scan_decimation(kDecimation).build());
  core::RxWorkspace ws_exh;
  core::RxWorkspace ws_2pass;
  core::StreamStats warm_stats;
  const auto e2e = [&](const core::StreamReceiver& srx, core::RxWorkspace& ws,
                       std::vector<RecordSig>& recs) {
    recs.clear();
    srx.scan(sspan, ws, warm_stats, [&recs](const core::StreamEvent& ev) {
      RecordSig r;
      r.offset = ev.offset;
      r.error = ev.error;
      r.fcs_ok = ev.packet != nullptr && ev.packet->fcs_ok;
      if (ev.packet != nullptr) r.psdu = ev.packet->psdu;
      recs.push_back(std::move(r));
    });
  };

  const auto secs = time_per_call({
      coarse,
      sweep,
      sweep_scalar,
      [&] { e2e(srx_exh, ws_exh, ref_recs); },
      [&] { e2e(srx_2pass, ws_2pass, tp_recs); },
  });
  const auto msps = [&](double s_per_call) {
    return static_cast<double>(len) / s_per_call / mega;
  };
  f.coarse_msps = msps(secs[0]);
  f.full_msps = msps(secs[1]);
  f.full_scalar_msps = msps(secs[2]);
  f.e2e_exhaustive_msps = msps(secs[3]);
  f.e2e_twopass_msps = msps(secs[4]);
  f.records_identical = ref_recs == tp_recs;
  for (const auto& r : ref_recs) f.delivered += r.fcs_ok;
  return f;
}

struct Case {
  const char* name;
  unsigned mcs;
  bool faulted;
};

}  // namespace

int main() {
  bench::heading("E20", "Front-end scan throughput (Msamp/s per stage)");

  std::size_t n_packets = 32;
  if (const char* env = std::getenv("MIMONET_BENCH_PACKETS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) n_packets = static_cast<std::size_t>(v);
  }
  bench::note("%zu packets per capture, %zu-byte payload, %zu-sample gaps, "
              "coarse decimation %zu, AVX2 kernel %s",
              n_packets, kPayloadBytes, kGapLen, kDecimation,
              dsp::detail::autocorr_simd_active() ? "active" : "unavailable");

  const std::vector<Case> cases{
      {"1x1_mcs7_clean", 7, false},
      {"1x1_mcs7_faulted_gaps", 7, true},
      {"2x2_mcs15_clean", 15, false},
  };

  const bench::Table table({"case", "coarse", "full", "full-sc", "e2e-exh",
                            "e2e-2pass", "identical"},
                           12);

  bench::JsonReport report("stream");
  bench::JsonReport scan("e20_scan");
  scan.field("packets_per_capture", n_packets);
  scan.field("decimation", kDecimation);
  scan.field("simd_active", dsp::detail::autocorr_simd_active());

  std::string cases_json = "[";
  bool all_identical = true;
  double coarse_2x2_clean = 0.0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& c = cases[i];
    const Stream s = make_stream(c.mcs, n_packets, c.faulted);
    const ScanFigures f = run_case(s);
    all_identical = all_identical && f.records_identical;
    if (std::string(c.name) == "2x2_mcs15_clean") coarse_2x2_clean = f.coarse_msps;
    table.row({c.name, bench::fix(f.coarse_msps, 1), bench::fix(f.full_msps, 1),
               bench::fix(f.full_scalar_msps, 1),
               bench::fix(f.e2e_exhaustive_msps, 2),
               bench::fix(f.e2e_twopass_msps, 2),
               f.records_identical ? "yes" : "NO"});

    bench::JsonReport cj(c.name);
    cj.field("mcs", c.mcs);
    cj.field("faulted_gaps", c.faulted);
    cj.field("coarse_msamp_s", f.coarse_msps);
    cj.field("full_kernel_msamp_s", f.full_msps);
    cj.field("full_kernel_scalar_msamp_s", f.full_scalar_msps);
    cj.field("e2e_exhaustive_msamp_s", f.e2e_exhaustive_msps);
    cj.field("e2e_twopass_msamp_s", f.e2e_twopass_msps);
    cj.field("delivered", f.delivered);
    cj.field("records_identical", f.records_identical);
    if (i != 0) cases_json += ", ";
    cases_json += cj.to_json();
  }
  cases_json += "]";
  scan.raw("cases", cases_json);

  const bool meets_bar = coarse_2x2_clean >= 20.0;
  scan.field("coarse_2x2_clean_msamp_s", coarse_2x2_clean);
  scan.field("meets_20msps_bar", meets_bar);
  report.raw("scan", scan.to_json());
  report.emit_merged();  // preserve E18/E19 tables in BENCH_stream.json

  if (!all_identical) {
    std::fprintf(stderr,
                 "E20: two-pass records diverged from the exhaustive scan\n");
    return 1;
  }
  if (!meets_bar) {
    std::fprintf(stderr,
                 "E20: coarse pass %.1f Msamp/s below the 20 Msamp/s bar\n",
                 coarse_2x2_clean);
    return 1;
  }
  return 0;
}
