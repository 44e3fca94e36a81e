// perfbench_host: runs one benchmark workload for a fixed time and prints
// its raw readings — CPU time of every timed pass, the reference-kernel
// readings around it, per-candidate times, trace spans and output checks —
// as one JSON object on stdout. perfbench/run.py turns them into metrics.
//
//   perfbench_host --workload scan_dense --seed 1 --seconds 10 --trace 0
//   perfbench_host --workload scan_dense --seed 1 --describe
//   perfbench_host --measure-ref --seconds 20
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "channel/mimo_channel.hpp"
#include "common.hpp"
#include "core/link_simulator.hpp"
#include "core/receive_session.hpp"
#include "core/transmitter.hpp"
#include "core/workspace.hpp"
#include "host_info.hpp"
#include "replay.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace mc = mimonet::core;
using mimonet::metrics::RxError;

/// Set-ups timed per run; setup_s is their median.
constexpr int kSetups = 15;
/// A delivered frame must sit within this many samples of its true start.
constexpr std::size_t kStartTolerance = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool describe = false;
  bool measure_ref = false;
};

/// Output checks: every operation attempted and every one that failed,
/// with the first few failures spelled out.
struct Checks {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> notes;

  void expect(bool ok, const std::string& what) { tally(1, ok ? 0 : 1, what); }

  /// `n_ops` operations checked, `n_bad` of them wrong.
  void tally(std::size_t n_ops, std::size_t n_bad, const std::string& what) {
    attempted += n_ops;
    failed += n_bad;
    if (n_bad > 0 && notes.size() < 10) notes.push_back(std::to_string(n_bad) + " " + what);
  }
};

using Spans = std::vector<std::span<const cf32>>;

Spans spans_of(const Capture& c) { return Spans(c.begin(), c.end()); }

void write_ref(Json& j, const RefReading& r) {
  j.num("ref_cpu_s", r.cpu_s).num("ref_wall_s", r.wall_s);
}

void write_segments(Json& j, const std::vector<double>& cpu_s,
                    const std::vector<RefReading>& refs) {
  j.list("segment_cpu_s", cpu_s);
  std::vector<double> ref_cpu;
  for (const auto& r : refs) ref_cpu.push_back(r.cpu_s);
  j.list("refs_cpu_s", ref_cpu);
}

void write_spans(Json& j, const Tracer& tr, std::int64_t origin) {
  j.open_list("spans");
  for (const auto& s : tr.spans()) {
    j.open_list();
    j.num(nullptr, static_cast<std::int64_t>(s.id));
    j.num(nullptr, static_cast<std::int64_t>(s.parent));
    j.num(nullptr, s.t0 - origin);
    j.num(nullptr, s.t1 - origin);
    j.close_list();
  }
  j.close_list();
}

void write_counters(Json& j, const Counters& n) {
  j.open("counters");
  j.num("candidates", n.candidates).num("useful", n.useful);
  j.num("resyncs", n.resyncs).num("rewinds", n.rewinds);
  j.num("detector_samples", n.detector_samples);
  j.num("demod_symbols", n.demod_symbols).num("eq_bins", n.eq_bins);
  j.num("demap_llrs", n.demap_llrs).num("deint_llrs", n.deint_llrs);
  j.num("depunct_llrs", n.depunct_llrs).num("viterbi_bits", n.viterbi_bits);
  j.num("unsupported", n.unsupported);
  j.close();
}

/// Compare records with the expected ones, one operation per record, and
/// count every record that differs (or is missing or extra) as failed.
void check_records(Checks& checks, std::span<const Record> got, std::span<const Record> want,
                   const std::string& what) {
  std::size_t bad = got.size() > want.size() ? got.size() - want.size()
                                             : want.size() - got.size();
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    bad += got[i] == want[i] ? 0 : 1;
  }
  checks.tally(std::max(got.size(), want.size()), bad, what);
}

/// Timed passes run until the deadline, at least `min_passes` of each kind.
class PassClock {
 public:
  PassClock(double seconds, int min_passes)
      : deadline_(wall_ns() + static_cast<std::int64_t>(seconds * 1e9)),
        min_passes_(min_passes) {}
  [[nodiscard]] bool more(int done) const {
    return done < min_passes_ || wall_ns() < deadline_;
  }

 private:
  std::int64_t deadline_;
  int min_passes_;
};

// ---------------------------------------------------------------------------
// Scan workloads

struct Delivery {
  std::size_t ok = 0;
  std::size_t wrong = 0;
  std::size_t missing_clean = 0;
};

Delivery check_delivery(std::span<const Record> recs, const std::vector<SentFrame>& frames,
                        const std::vector<std::uint64_t>& hashes) {
  Delivery d;
  std::vector<bool> got(frames.size(), false);
  for (const Record& r : recs) {
    if (!r.fcs_ok) continue;
    // Frames are sorted by start: find the first that could match.
    const auto it = std::lower_bound(
        frames.begin(), frames.end(), r.offset,
        [](const SentFrame& f, std::size_t off) { return f.start + kStartTolerance < off; });
    const std::size_t i = static_cast<std::size_t>(it - frames.begin());
    if (i < frames.size() && frames[i].start <= r.offset + kStartTolerance &&
        hashes[i] == r.psdu_hash && !got[i]) {
      got[i] = true;
      ++d.ok;
    } else {
      ++d.wrong;
    }
  }
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (!got[i] && !frames[i].faulted) ++d.missing_clean;
  }
  return d;
}

Record record_of(const mc::StreamEvent& ev) {
  const bool has = ev.packet != nullptr;
  return {ev.offset, ev.error, has && ev.packet->fcs_ok,
          has ? bytes_hash(ev.packet->psdu) : 0};
}

void run_scan(const Args& a, const ScanPlan& plan, Json& j, Checks& checks) {
  const ScanInput in = make_scan_input(plan, a.seed);
  std::vector<Spans> captures;
  std::vector<std::vector<std::uint64_t>> hashes;
  std::size_t samples = 0;
  std::size_t n_frames = 0;
  for (std::size_t c = 0; c < in.captures.size(); ++c) {
    captures.push_back(spans_of(in.captures[c]));
    samples += in.captures[c][0].size();
    n_frames += in.frames[c].size();
    hashes.emplace_back();
    for (const auto& f : in.frames[c]) hashes.back().push_back(bytes_hash(f.psdu));
  }
  const Spans priming = spans_of(in.priming);
  const mc::PhyConfig phy;  // receive side: everything else is in-band
  const auto noop = [](const mc::StreamEvent&) {};

  j.num("threads", std::int64_t{1}).num("samples_per_pass", samples);
  j.num("frames_per_pass", n_frames).num("captures_per_pass", captures.size());

  // Set-up: construct a session and receive the priming capture.
  j.open_list("setup");
  for (int k = 0; k < kSetups; ++k) {
    const RefReading r0 = measure_ref(1);
    const std::int64_t c0 = thread_cpu_ns();
    auto session = std::make_unique<mc::ReceiveSession>(phy, 2, plan.session);
    session->scan(priming, noop);
    const std::int64_t c1 = thread_cpu_ns();
    const RefReading r1 = measure_ref(1);
    session.reset();
    j.open().num("cpu_s", static_cast<double>(c1 - c0) * 1e-9);
    write_ref(j, mean_of({r0, r1}));
    j.close();
  }
  j.close_list();

  mc::ReceiveSession session(phy, 2, plan.session);
  session.scan(priming, noop);
  const TracedReceiver replay(phy, 2, plan.session.scan_config().scan_mode());
  mc::RxWorkspace rws;
  Tracer tr;

  // One pass over every capture; `ends[c]` is where capture c's records end.
  // The reference kernel runs before every capture and after the last, so
  // its readings sample the host across the whole pass; `cpu_ns` holds only
  // the captures' own time.
  std::vector<Record> recs;
  std::vector<std::size_t> ends;
  std::vector<std::int64_t> events;
  std::int64_t cpu_ns = 0;
  std::int64_t wall_total_ns = 0;
  std::vector<double> capture_cpu_s;
  std::vector<RefReading> refs;
  const auto pass = [&](bool traced, Counters& n) {
    recs.clear();
    ends.clear();
    events.clear();
    cpu_ns = 0;
    wall_total_ns = 0;
    capture_cpu_s.clear();
    refs.clear();
    for (const Spans& cap : captures) {
      refs.push_back(measure_ref(1));
      const std::int64_t w0 = wall_ns();
      const std::int64_t c0 = thread_cpu_ns();
      if (traced) {
        traced_scan(replay, plan.session, cap, rws, tr, n, recs);
      } else {
        // A candidate's time runs from the previous event of its capture
        // (or the capture's start) to its own event.
        std::int64_t last = c0;
        session.scan(cap, [&](const mc::StreamEvent& ev) {
          const std::int64_t t = thread_cpu_ns();
          events.push_back(t - last);
          last = t;
          recs.push_back(record_of(ev));
        });
      }
      const std::int64_t c1 = thread_cpu_ns();
      cpu_ns += c1 - c0;
      capture_cpu_s.push_back(static_cast<double>(c1 - c0) * 1e-9);
      wall_total_ns += wall_ns() - w0;
      ends.push_back(recs.size());
    }
    refs.push_back(measure_ref(1));
  };
  Counters warm;
  pass(false, warm);
  const std::vector<Record> want = recs;
  recs.reserve(want.size() + 16);
  events.reserve(want.size() + 16);
  pass(true, warm);
  tr.clear();

  j.open_list("passes");
  const PassClock clock(a.seconds, a.trace ? 2 : 3);
  for (int i = 0, plain = 0, traced = 0; clock.more(std::min(plain, a.trace ? traced : plain)); ++i) {
    const bool is_traced = a.trace && i % 2 == 1;
    tr.clear();
    Counters n;
    const std::int64_t w0 = wall_ns();
    pass(is_traced, n);

    j.open().boolean("traced", is_traced);
    j.num("cpu_s", static_cast<double>(cpu_ns) * 1e-9);
    j.num("wall_s", static_cast<double>(wall_total_ns) * 1e-9);
    write_ref(j, mean_of(refs));
    // Per capture: its CPU time and the reference readings before and
    // after it (refs_cpu_s[c], refs_cpu_s[c + 1]).
    write_segments(j, capture_cpu_s, refs);
    j.num("samples", samples);
    if (is_traced) {
      check_records(checks, recs, want, "records where the traced replay disagrees with the scan");
      checks.expect(n.unsupported == 0, "replay met a frame mode it does not mirror");
      write_counters(j, n);
      write_spans(j, tr, w0);
      ++traced;
    } else {
      check_records(checks, recs, want, "scan records that differ between passes");
      Delivery d;
      for (std::size_t c = 0; c < captures.size(); ++c) {
        const std::size_t from = c == 0 ? 0 : ends[c - 1];
        const Delivery dc = check_delivery(
            std::span<const Record>(recs).subspan(from, ends[c] - from), in.frames[c],
            hashes[c]);
        d.ok += dc.ok;
        d.wrong += dc.wrong;
        d.missing_clean += dc.missing_clean;
      }
      checks.tally(n_frames, d.wrong + d.missing_clean,
                   "frames delivered wrong, or clean frames missing");
      j.num("delivered_ok", d.ok).num("frames", n_frames);
      j.list("events_ns", events);
      j.list("segment_events_end", ends);
      ++plain;
    }
    j.close();
  }
  j.close_list();
}

// ---------------------------------------------------------------------------
// Link-simulation workload

bool same_stats(const mimonet::dsp::RunningStats& x, const mimonet::dsp::RunningStats& y) {
  return x.count() == y.count() && x.mean() == y.mean() && x.min() == y.min() &&
         x.max() == y.max();
}

bool same_result(const mc::LinkResult& x, const mc::LinkResult& y) {
  bool ok = x.per.packets() == y.per.packets() && x.per.failures() == y.per.failures() &&
            x.ber.bits() == y.ber.bits() && x.ber.errors() == y.ber.errors() &&
            x.undetected == y.undetected &&
            x.throughput.goodput_mbps() == y.throughput.goodput_mbps() &&
            same_stats(x.snr_est_db, y.snr_est_db) &&
            same_stats(x.pilot_snr_db, y.pilot_snr_db) &&
            same_stats(x.timing_err, y.timing_err) && same_stats(x.cfo_err, y.cfo_err);
  for (std::size_t e = 0; e < mimonet::metrics::kRxErrorCount; ++e) {
    const auto k = static_cast<RxError>(e);
    ok = ok && x.rx_errors.count(k) == y.rx_errors.count(k);
  }
  for (std::size_t s = 0; s < x.stream_sinr_db.size(); ++s) {
    ok = ok && same_stats(x.stream_sinr_db[s], y.stream_sinr_db[s]);
  }
  return ok;
}

/// Per-packet outcome, in the form both the simulator's observer and the
/// replay can produce.
Record packet_record(bool detected, const mc::RxPacket& rx) {
  if (!detected) return {0, RxError::kNoSync, false, 0};
  return {rx.sync.packet_start, rx.error, rx.fcs_ok, bytes_hash(rx.psdu)};
}

class LinkObserver final : public mc::PacketObserver {
 public:
  void reset() {
    cpu_ns.clear();
    recs.clear();
    delivered_ok = 0;
    wrong = 0;
  }
  void on_packet(const mc::PacketOutcome& o) override {
    cpu_ns.push_back(thread_cpu_ns());
    recs.push_back(packet_record(o.detected, o.rx));
    if (!o.detected || !o.rx.fcs_ok) return;
    const std::size_t start = o.rx.sync.packet_start;
    const std::size_t truth = o.truth_packet_start;
    const bool at_start = start + kStartTolerance >= truth && start <= truth + kStartTolerance;
    if (o.rx.psdu == o.sent_psdu && at_start) {
      ++delivered_ok;
    } else {
      ++wrong;
    }
  }

  /// Thread CPU time at each call. On the single-thread loop the observer
  /// runs right after its packet is simulated, on the same thread, so
  /// consecutive stamps bracket exactly one packet.
  std::vector<std::int64_t> cpu_ns;
  std::vector<Record> recs;
  std::size_t delivered_ok = 0;
  std::size_t wrong = 0;
};

void run_link(const Args& a, Json& j, Checks& checks) {
  const LinkPlan lp = link_plan(a.seed);
  const std::size_t n_runs = lp.runs_per_pass;
  const std::size_t per_run = lp.packets_per_run;
  const std::size_t n_pkts = n_runs * per_run;
  const auto opts = [](std::size_t n, std::size_t threads) {
    return mc::RunOptions::make().n_packets(n).n_threads(threads).build();
  };
  std::vector<mc::LinkConfig> cfgs;
  for (std::size_t r = 0; r < n_runs; ++r) cfgs.push_back(lp.run_config(r));
  const mc::LinkConfig& cfg0 = cfgs[0];

  // Every packet's capture has the same length (fixed PSDU size, no SFO).
  std::size_t capture_len = 0;
  {
    const mc::Transmitter tx(cfg0.phy);
    mc::TxWorkspace tws;
    mimonet::channel::MimoChannel chan(cfg0.channel);
    const LinkPacket pk = link_packet(cfg0, 0);
    tx.transmit_into(pk.psdu, tws);
    chan.reseed(pk.channel_seed);
    capture_len = chan.transmit(tws.chains)[0].size();
  }
  const std::size_t samples = capture_len * n_pkts;
  j.num("threads", static_cast<std::int64_t>(lp.threads)).num("samples_per_pass", samples);
  j.num("frames_per_pass", n_pkts);
  const int ref_threads = static_cast<int>(lp.threads);

  j.open_list("setup");
  for (int k = 0; k < kSetups; ++k) {
    const RefReading r0 = measure_ref(ref_threads);
    const std::int64_t c0 = process_cpu_ns();
    auto sim = std::make_unique<mc::LinkSimulator>(cfg0);
    (void)sim->run(opts(lp.threads, lp.threads));
    const std::int64_t c1 = process_cpu_ns();
    const RefReading r1 = measure_ref(ref_threads);
    sim.reset();
    j.open().num("cpu_s", static_cast<double>(c1 - c0) * 1e-9);
    write_ref(j, mean_of({r0, r1}));
    j.close();
  }
  j.close_list();

  std::vector<std::unique_ptr<mc::LinkSimulator>> sims;
  for (const auto& c : cfgs) sims.push_back(std::make_unique<mc::LinkSimulator>(c));
  {
    const mc::LinkResult one = sims[0]->run(opts(lp.check_prefix, 1));
    const mc::LinkResult two = sims[0]->run(opts(lp.check_prefix, lp.threads));
    checks.expect(same_result(one, two), "LinkResult differs between 1 and 2 threads");
  }

  // One pass: the first `runs` simulator runs once each, the reference
  // kernel read before each run and after the last. On one thread `events`
  // holds per-packet service times: the thread CPU time from the previous
  // packet of its run (or the run's start) to its own. The pool's observer
  // runs as packets are popped in order, which times departures, not
  // service, so a pool pass records no events.
  LinkObserver obs;
  std::vector<double> seg_cpu;
  std::vector<RefReading> refs;
  std::vector<std::int64_t> events;
  std::vector<std::size_t> seg_ends;
  const auto pool_pass = [&](std::size_t threads, std::size_t runs) {
    obs.reset();
    seg_cpu.clear();
    refs.clear();
    events.clear();
    seg_ends.clear();
    const int rt = threads > 1 ? ref_threads : 1;
    for (std::size_t r = 0; r < runs; ++r) {
      refs.push_back(measure_ref(rt));
      const std::size_t first = obs.cpu_ns.size();
      const std::int64_t c0 = threads > 1 ? process_cpu_ns() : thread_cpu_ns();
      (void)sims[r]->run(opts(per_run, threads), &obs);
      const std::int64_t c1 = threads > 1 ? process_cpu_ns() : thread_cpu_ns();
      seg_cpu.push_back(static_cast<double>(c1 - c0) * 1e-9);
      for (std::size_t p = first; threads == 1 && p < obs.cpu_ns.size(); ++p) {
        events.push_back(obs.cpu_ns[p] - (p == first ? c0 : obs.cpu_ns[p - 1]));
      }
      seg_ends.push_back(events.size());
    }
    refs.push_back(measure_ref(rt));
  };
  pool_pass(lp.threads, n_runs);
  const std::vector<Record> want = obs.recs;
  const std::span<const Record> want_events(want.data(), lp.event_runs * per_run);

  const mc::Transmitter tx(cfg0.phy);
  mimonet::channel::MimoChannel chan(cfg0.channel);
  const TracedReceiver replay(cfg0.phy, cfg0.channel.nrx, mimonet::sync::ScanMode{});
  mc::TxWorkspace tws;
  mc::RxWorkspace rws;
  Tracer tr;
  std::vector<Record> recs;
  const auto replay_run = [&](const mc::LinkConfig& cfg, std::size_t count, Counters& n) {
    for (std::size_t p = 0; p < count; ++p) {
      const Scope iter(tr, kIter);
      const LinkPacket pk = link_packet(cfg, p);
      {
        const Scope s(tr, kTx);
        tx.transmit_into(pk.psdu, tws);
      }
      Capture cap;
      {
        const Scope s(tr, kChannel);
        chan.reseed(pk.channel_seed);
        cap = chan.transmit(tws.chains);
      }
      rws.capture_spans.assign(cap.begin(), cap.end());
      const bool got = replay.receive(rws.capture_spans, rws, tr, n, /*probe=*/true);
      ++n.candidates;
      if (got && rws.packet.htsig_ok) ++n.useful;
      recs.push_back(packet_record(got, rws.packet));
    }
  };
  {
    Counters warm;
    replay_run(cfg0, std::min<std::size_t>(per_run, 8), warm);
  }

  j.open_list("passes");
  const PassClock clock(a.seconds, a.trace ? 2 : 3);
  for (int i = 0, plain = 0, traced = 0; clock.more(std::min(plain, a.trace ? traced : plain)); ++i) {
    const bool is_traced = a.trace && i % 2 == 1;
    j.open().boolean("traced", is_traced);
    j.num("samples", samples);
    if (is_traced) {
      recs.clear();
      tr.clear();
      Counters n;
      const RefReading r0 = measure_ref(1);
      const std::int64_t w0 = wall_ns();
      const std::int64_t c0 = thread_cpu_ns();
      for (const auto& cfg : cfgs) replay_run(cfg, per_run, n);
      const std::int64_t c1 = thread_cpu_ns();
      const std::int64_t w1 = wall_ns();
      const RefReading r1 = measure_ref(1);
      j.num("cpu_s", static_cast<double>(c1 - c0) * 1e-9);
      j.num("wall_s", static_cast<double>(w1 - w0) * 1e-9);
      write_ref(j, mean_of({r0, r1}));
      check_records(checks, recs, want,
                    "packets where the traced replay disagrees with the simulator");
      checks.expect(n.unsupported == 0, "replay met a frame mode it does not mirror");
      write_counters(j, n);
      write_spans(j, tr, w0);
      ++traced;
    } else {
      pool_pass(lp.threads, n_runs);
      double cpu = 0.0;
      for (const double c : seg_cpu) cpu += c;
      j.num("cpu_s", cpu);
      write_ref(j, mean_of(refs));
      write_segments(j, seg_cpu, refs);
      // The pool's workers are not the threads the kernel runs on, so a
      // reading says nothing particular about the run next to it: each
      // run is normalised by the median of all the run's readings.
      j.str("ref_scope", "run");
      check_records(checks, obs.recs, want, "simulator outcomes that differ between passes");
      checks.tally(n_pkts, obs.wrong, "packets delivered wrong");
      j.num("delivered_ok", obs.delivered_ok).num("frames", n_pkts);
      // Per-packet service times, and the serial CPU time of the same
      // packets for the pool overhead: the first runs again on one thread.
      pool_pass(1, lp.event_runs);
      check_records(checks, obs.recs, want_events,
                    "packets where the single-thread loop disagrees with the pool");
      j.open("event_pass");
      write_segments(j, seg_cpu, refs);
      j.list("events_ns", events);
      j.list("segment_events_end", seg_ends);
      j.close();
      ++plain;
    }
    j.close();
  }
  j.close_list();
}

// ---------------------------------------------------------------------------

void describe_inputs(const Args& a, Json& j) {
  if (a.workload == "linksim_per") {
    const LinkPlan lp = link_plan(a.seed);
    const mc::LinkConfig c = lp.run_config(0);
    const std::string plan =
        "mcs=" + std::to_string(c.phy.mcs) + " snr=" + std::to_string(c.channel.snr_db) +
        " payload=" + std::to_string(c.psdu_payload_bytes) +
        " profile=" + std::to_string(static_cast<int>(c.channel.profile)) +
        " runs=" + std::to_string(lp.runs_per_pass) +
        " packets=" + std::to_string(lp.packets_per_run) +
        " threads=" + std::to_string(lp.threads);
    const mc::Transmitter tx(c.phy);
    mc::TxWorkspace tws;
    mimonet::channel::MimoChannel chan(c.channel);
    std::uint64_t h = 0;
    for (std::size_t p = 0; p < 4; ++p) {
      const LinkPacket pk = link_packet(c, p);
      tx.transmit_into(pk.psdu, tws);
      chan.reseed(pk.channel_seed);
      h = h * 31U + capture_hash(chan.transmit(tws.chains));
    }
    j.str("plan", plan).str("input_hash", std::to_string(h));
    return;
  }
  const ScanPlan plan = a.workload == "scan_dense" ? dense_plan() : sparse_plan();
  const ScanInput in = make_scan_input(plan, a.seed);
  std::string starts;
  std::uint64_t h = 0;
  for (std::size_t c = 0; c < in.captures.size(); ++c) {
    for (const auto& f : in.frames[c]) starts += std::to_string(f.start) + ",";
    starts += "|";
    h = h * 31U + capture_hash(in.captures[c]);
  }
  j.str("plan", describe(plan) + " starts=" + starts);
  j.str("input_hash", std::to_string(h));
  j.str("priming_hash", std::to_string(capture_hash(in.priming)));
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has_value = i + 1 < argc;
    if (k == "--describe") {
      a.describe = true;
    } else if (k == "--measure-ref") {
      a.measure_ref = true;
    } else if (k == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (k == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (k == "--seconds" && has_value) {
      a.seconds = std::strtod(argv[++i], nullptr);
    } else if (k == "--trace" && has_value) {
      a.trace = std::strcmp(argv[++i], "0") != 0;
    } else {
      return false;
    }
  }
  return a.measure_ref || a.workload == "scan_dense" ||
         a.workload == "scan_sparse_faulted" || a.workload == "linksim_per";
}

}  // namespace

/// The reference kernel alone, `seconds` long on one thread: the readings
/// ref_nominal_s in config.json is taken from on a quiet host.
void measure_ref_alone(const Args& a, Json& j) {
  std::vector<double> cpu;
  const std::int64_t deadline = wall_ns() + static_cast<std::int64_t>(a.seconds * 1e9);
  while (wall_ns() < deadline) cpu.push_back(measure_ref(1).cpu_s);
  std::sort(cpu.begin(), cpu.end());
  const auto at = [&](double q) { return cpu[static_cast<std::size_t>(q * (cpu.size() - 1))]; };
  j.num("runs", cpu.size()).num("p10_s", at(0.1)).num("median_s", at(0.5)).num("p90_s", at(0.9));
}

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench_host --workload scan_dense|scan_sparse_faulted|"
                 "linksim_per [--seed N] [--seconds S] [--trace 0|1] [--describe]\n"
                 "       perfbench_host --measure-ref [--seconds S]\n");
    return 2;
  }
  try {
    Json j;
    j.open();
    if (!a.measure_ref) {
      j.str("workload", a.workload).num("seed", static_cast<std::int64_t>(a.seed));
    }
    if (a.measure_ref) {
      measure_ref_alone(a, j);
    } else if (a.describe) {
      describe_inputs(a, j);
    } else {
      write_fingerprint(j);
      Checks checks;
      if (a.workload == "linksim_per") {
        run_link(a, j, checks);
      } else {
        run_scan(a, a.workload == "scan_dense" ? dense_plan() : sparse_plan(), j, checks);
      }
      j.open("checks").num("attempted", checks.attempted).num("failed", checks.failed);
      j.open_list("notes");
      for (const auto& s : checks.notes) j.str(nullptr, s);
      j.close_list().close();
      rusage ru{};
      getrusage(RUSAGE_SELF, &ru);
      j.num("peak_rss_kb", static_cast<std::int64_t>(ru.ru_maxrss));
      j.open_list("span_names");
      for (int s = 0; s < kSpanCount; ++s) j.str(nullptr, span_name(static_cast<SpanId>(s)));
      j.close_list();
    }
    j.close();
    std::printf("%s\n", j.text().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_host: %s\n", e.what());
    return 1;
  }
}
