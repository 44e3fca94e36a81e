#include "workloads.hpp"

#include <algorithm>
#include <complex>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>

#include "channel/mimo_channel.hpp"
#include "core/transmitter.hpp"
#include "dsp/rng.hpp"
#include "wifi/psdu.hpp"

namespace perfbench {

namespace mc = mimonet::core;
namespace mch = mimonet::channel;
using mimonet::dsp::splitmix64;

namespace {

/// Independent seed streams drawn from the workload seed.
enum Stream : std::uint64_t { kPayload = 1, kNoise = 2, kCfo = 3, kTone = 4 };

std::uint64_t draw(std::uint64_t seed, Stream s, std::uint64_t i = 0) {
  return splitmix64(splitmix64(seed * 0x100000001B3ULL + s) ^ (i + 1));
}

/// Phase of the second receive antenna for a single-stream frame (a fixed
/// SIMO channel [1, e^{j theta}] through the identity 2x2 channel).
constexpr float kSimoPhase = 1.0F;

mimonet::wifi::MacHeader header(std::size_t seq) {
  mimonet::wifi::MacHeader h;
  h.addr1 = {0x02, 0x10, 0x20, 0x30, 0x40, 0x50};
  h.addr2 = {0x02, 0xA0, 0xB0, 0xC0, 0xD0, 0xE0};
  h.addr3 = h.addr1;
  h.sequence_control = static_cast<std::uint16_t>((seq & 0xFFFU) << 4U);
  return h;
}

/// Transmit `frames` back to back (with their gaps) onto two TX chains and
/// return the chains plus each frame's PSDU, start and length in the chains.
struct Composed {
  Capture chains{2};
  std::vector<SentFrame> frames;
  std::vector<std::size_t> lengths;
};

Composed compose(std::span<const PlannedFrame> plan, std::uint64_t seed,
                 std::uint64_t first_index) {
  std::map<unsigned, std::unique_ptr<mc::Transmitter>> tx_by_mcs;
  Composed out;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const PlannedFrame& pf = plan[i];
    auto& tx = tx_by_mcs[pf.mcs];
    if (!tx) {
      mc::PhyConfig phy;
      phy.mcs = pf.mcs;
      tx = std::make_unique<mc::Transmitter>(phy);
    }
    const std::uint64_t index = first_index + i;
    mimonet::dsp::BitSource bits(draw(seed, kPayload, index));
    const auto payload = bits.bytes(pf.payload_bytes);
    SentFrame sf;
    sf.psdu = mimonet::wifi::build_psdu(header(index), payload);
    sf.start = out.chains[0].size();
    sf.faulted = pf.faulted;
    const auto chains = tx->transmit(sf.psdu);
    const std::size_t len = chains[0].size();
    if (chains.size() == 1) {
      const cf32 rot = std::polar(1.0F, kSimoPhase);
      out.chains[0].insert(out.chains[0].end(), chains[0].begin(), chains[0].end());
      for (const cf32 x : chains[0]) out.chains[1].push_back(x * rot);
    } else {
      for (std::size_t c = 0; c < 2; ++c) {
        out.chains[c].insert(out.chains[c].end(), chains[c].begin(), chains[c].end());
      }
    }
    for (auto& c : out.chains) c.resize(sf.start + len + pf.gap_after);
    out.frames.push_back(std::move(sf));
    out.lengths.push_back(len);
  }
  return out;
}

/// Pass composed chains through the identity 2x2 channel: CFO, AWGN,
/// lead-in/tail idle air and the fault plan.
Capture air(const Capture& chains, double snr_db, double cfo_norm,
            std::size_t lead_in, std::size_t tail, mch::FaultPlan faults,
            std::uint64_t noise_seed) {
  mch::ChannelConfig cfg;
  cfg.ntx = 2;
  cfg.nrx = 2;
  cfg.fading = false;
  cfg.snr_db = snr_db;
  cfg.cfo_norm = cfo_norm;
  cfg.timing_pad = lead_in;
  cfg.tail_pad = tail;
  cfg.faults = std::move(faults);
  cfg.seed = noise_seed;
  mch::MimoChannel chan(cfg);
  return chan.transmit(chains);
}

/// CFO of +/-2e-3 cycles/sample (40 kHz at 20 Msps), the sign drawn. The
/// magnitude stays fixed: at MCS 15 the residual phase error it leaves moves
/// PER, and the PER workload must not change its work with the seed.
double draw_cfo(std::uint64_t seed, std::uint64_t i) {
  return (draw(seed, kCfo, i) & 1U) != 0 ? 2e-3 : -2e-3;
}

}  // namespace

ScanPlan dense_plan() {
  // Back-to-back 2x2 frames cycling MCS 8-15 over four PSDU lengths: every
  // (MCS, length) pair appears at least three times in 120 frames, ten
  // frames to a capture.
  static constexpr std::size_t kPayloads[] = {100, 300, 700, 1200};
  ScanPlan p;
  for (std::size_t i = 0; i < 120; ++i) {
    PlannedFrame f;
    f.mcs = 8 + static_cast<unsigned>(i % 8);
    f.payload_bytes = kPayloads[(i / 8) % 4];
    f.gap_after = 80 + 40 * (i % 4);
    p.frames.push_back(f);
  }
  p.frames_per_capture = 10;
  p.lead_in = 333;
  p.tail = 200;
  p.snr_db = 32.0;
  p.session = mc::ReceiveSessionConfig{};  // exhaustive scan, 1 worker
  p.priming = {{8, 1200, 200, false}, {15, 1200, 0, false}};
  return p;
}

ScanPlan sparse_plan() {
  // Mostly idle air: short 1- and 2-stream frames separated by 5000-9200
  // idle samples, four frames to a capture. Interferer bursts, gain steps
  // and erasures sit in the gaps; four frames carry a fault of their own.
  // The 16-periodic tones make rejected candidates about four in five of
  // all candidates, so the median candidate is a rejection.
  static constexpr std::size_t kPayloads[] = {60, 180, 400};
  ScanPlan p;
  constexpr std::size_t kFrames = 48;
  for (std::size_t i = 0; i < kFrames; ++i) {
    PlannedFrame f;
    f.mcs = static_cast<unsigned>((i % 2 == 0 ? 0 : 8) + (i / 2) % 8);
    f.payload_bytes = kPayloads[i % 3];
    f.gap_after = 5000 + 700 * (i % 7);
    f.faulted = i == 9 || i == 21 || i == 33 || i == 45;
    p.frames.push_back(f);
  }
  p.frames_per_capture = 4;
  p.lead_in = 1500;
  p.tail = 200;
  p.snr_db = 25.0;

  using K = mch::FaultKind;
  const auto ev = [](K kind, std::size_t len, double mag, double freq = 0.0) {
    mch::FaultEvent e;
    e.kind = kind;
    e.length = len;
    e.magnitude = mag;
    e.freq_norm = freq;
    return e;
  };
  for (std::size_t i = 0; i < kFrames; ++i) {
    // In the gap after frame i (at least 5000 samples long).
    const std::size_t gap = p.frames[i].gap_after;
    switch (i % 6) {
      case 0:  // 16-periodic tone: a run of false detector candidates
        p.faults.push_back({i, true, 600, ev(K::kToneBurst, 1200, 0.7, 3.0 / 16.0)});
        break;
      case 1:  // wideband interferer
        p.faults.push_back({i, true, 800, ev(K::kNoiseBurst, 1500, 0.5)});
        break;
      case 2:  // AGC gain step over idle air
        p.faults.push_back({i, true, 500, ev(K::kGainStep, 2000, 0.3)});
        break;
      case 3:  // blanked window
        p.faults.push_back({i, true, 700, ev(K::kErasure, 1000, 0.0)});
        break;
      case 4:  // tone ending just before the next frame's L-STF
        p.faults.push_back(
            {i, true, gap - 1040, ev(K::kToneBurst, 1000, 0.7, 5.0 / 16.0)});
        break;
      default:  // a longer, weaker tone mid-gap
        p.faults.push_back({i, true, 2000, ev(K::kToneBurst, 2000, 0.4, 1.0 / 16.0)});
        break;
    }
  }
  // Faults over frames: an erasure in the payload, a strong wideband burst
  // over a whole frame, a deep gain step inside the data field and a tone
  // over the preamble.
  p.faults.push_back({9, false, 900, ev(K::kErasure, 240, 0.0)});
  p.faults.push_back({21, false, 0, ev(K::kNoiseBurst, 3000, 2.0)});
  p.faults.push_back({33, false, 1000, ev(K::kGainStep, 600, 0.05)});
  p.faults.push_back({45, false, 0, ev(K::kToneBurst, 700, 1.5, 3.0 / 16.0)});

  p.session = mc::ReceiveSessionConfig::make().scan_decimation(8).build();
  p.priming = {{0, 400, 200, false}, {15, 400, 0, false}};
  return p;
}

ScanInput make_scan_input(const ScanPlan& plan, std::uint64_t seed) {
  ScanInput in;
  const std::span<const PlannedFrame> all(plan.frames);
  for (std::size_t first = 0, cap = 0; first < all.size();
       first += plan.frames_per_capture, ++cap) {
    const std::size_t count = std::min(plan.frames_per_capture, all.size() - first);
    Composed c = compose(all.subspan(first, count), seed, first);
    mch::FaultPlan faults;
    for (std::size_t k = 0; k < plan.faults.size(); ++k) {
      const auto& f = plan.faults[k];
      if (f.frame < first || f.frame >= first + count) continue;
      const std::size_t i = f.frame - first;
      mch::FaultEvent e = f.event;
      e.start = plan.lead_in + c.frames[i].start + (f.from_end ? c.lengths[i] : 0) +
                f.offset;
      if (e.kind == mch::FaultKind::kToneBurst && (draw(seed, kTone, k) & 1U) != 0) {
        e.freq_norm = -e.freq_norm;
      }
      faults.events.push_back(e);
    }
    in.captures.push_back(air(c.chains, plan.snr_db, draw_cfo(seed, cap), plan.lead_in,
                              plan.tail, std::move(faults), draw(seed, kNoise, cap)));
    for (auto& f : c.frames) f.start += plan.lead_in;
    in.frames.push_back(std::move(c.frames));
  }
  const Composed prime = compose(plan.priming, seed, 1U << 20U);
  in.priming = air(prime.chains, plan.snr_db, draw_cfo(seed, 1U << 20U), plan.lead_in,
                   plan.tail, {}, draw(seed, kNoise, 1U << 20U));
  return in;
}

LinkPlan link_plan(std::uint64_t seed) {
  LinkPlan p;
  p.link = mc::LinkConfig::make()
               .mcs(15)
               .snr_db(31.0)
               .payload_bytes(400)
               .fading(true, mch::DelayProfile::kTypical)
               .seed(seed)
               .build();
  p.link.channel.cfo_norm = draw_cfo(seed, 0);  // seed-drawn, like the scans
  p.runs_per_pass = 8;
  p.packets_per_run = 240;
  p.threads = 2;
  p.event_runs = 2;
  p.check_prefix = 24;
  return p;
}

mc::LinkConfig LinkPlan::run_config(std::size_t run) const {
  mc::LinkConfig c = link;
  c.seed = splitmix64(link.seed * 0x100000001B3ULL + run);
  return c;
}

LinkPacket link_packet(const mc::LinkConfig& cfg, std::size_t p) {
  // LinkSimulator's per-packet seeding (core/link_simulator.cpp).
  constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;
  const std::uint64_t pkt_seed =
      splitmix64(cfg.seed ^ splitmix64(static_cast<std::uint64_t>(p) + 1));
  mimonet::wifi::MacHeader hdr;
  hdr.addr1 = {0x02, 0x11, 0x22, 0x33, 0x44, 0x55};
  hdr.addr2 = {0x02, 0xAA, 0xBB, 0xCC, 0xDD, 0xEE};
  hdr.addr3 = hdr.addr1;
  hdr.sequence_control = static_cast<std::uint16_t>((p & 0xFFFU) << 4U);
  mimonet::dsp::BitSource payload_src(pkt_seed * 0x2545F4914F6CDD1DULL + 7);
  const auto payload = payload_src.bytes(cfg.psdu_payload_bytes);
  return {mimonet::wifi::build_psdu(hdr, payload),
          cfg.channel.seed * kGolden + pkt_seed};
}

std::uint64_t bytes_hash(std::span<const std::uint8_t> b) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const std::uint8_t v : b) {
    h ^= v;
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::uint64_t capture_hash(const Capture& c) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const auto& ant : c) {
    for (const cf32 x : ant) {
      std::uint32_t w[2];
      std::memcpy(w, &x, sizeof w);
      for (const std::uint32_t v : w) {
        h ^= v;
        h *= 0x100000001B3ULL;
      }
    }
  }
  return h;
}

std::string describe(const ScanPlan& plan) {
  std::ostringstream os;
  os << "frames_per_capture=" << plan.frames_per_capture << " lead_in=" << plan.lead_in << " tail=" << plan.tail << " snr=" << plan.snr_db
     << " decimation=" << plan.session.scan_decimation << ";";
  for (const auto& f : plan.frames) {
    os << f.mcs << '/' << f.payload_bytes << '/' << f.gap_after << (f.faulted ? "F" : "")
       << ';';
  }
  for (const auto& f : plan.faults) {
    os << mch::fault_kind_name(f.event.kind) << '@' << f.frame << (f.from_end ? "e+" : "+")
       << f.offset << '/' << f.event.length << ';';
  }
  return os.str();
}

}  // namespace perfbench
