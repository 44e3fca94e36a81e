// Input generators for the three benchmark workloads.
//
// The frame plan (MCS, PSDU lengths, gaps, fault placement) is a constant of
// each workload, so every seed asks the receiver for the same work. The seed
// draws only what a real capture would randomise: noise, CFO, payload bits
// and interferer tone signs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "channel/fault_plan.hpp"
#include "core/link_simulator.hpp"
#include "core/phy_config.hpp"
#include "core/receive_session.hpp"
#include "dsp/types.hpp"

namespace perfbench {

using mimonet::dsp::cf32;
using Capture = std::vector<std::vector<cf32>>;

/// One planned frame of a scan capture.
struct PlannedFrame {
  unsigned mcs = 0;
  std::size_t payload_bytes = 0;
  std::size_t gap_after = 0;  ///< idle samples after the frame
  /// A fault of the plan lands on this frame, so it may legitimately fail.
  bool faulted = false;
};

/// A frame as sent: where its first L-STF sample lies in its capture and
/// the PSDU bytes a correct receiver must deliver.
struct SentFrame {
  std::size_t start = 0;
  std::vector<std::uint8_t> psdu;
  bool faulted = false;
};

/// Seed-independent description of a scan workload. One pass scans a set
/// of captures, each holding `frames_per_capture` consecutive frames of
/// `frames` — a receiver draining fixed-size capture buffers.
struct ScanPlan {
  std::vector<PlannedFrame> frames;
  std::size_t frames_per_capture = 1;
  std::size_t lead_in = 0;   ///< idle samples before a capture's first frame
  std::size_t tail = 0;      ///< idle samples after its last frame's gap
  double snr_db = 30.0;
  /// A fault event placed `offset` samples after the start (or, with
  /// `from_end`, the end) of frame `frame`.
  struct Fault {
    std::size_t frame = 0;
    bool from_end = false;
    std::size_t offset = 0;
    mimonet::channel::FaultEvent event;
  };
  std::vector<Fault> faults;
  mimonet::core::ReceiveSessionConfig session;
  /// Frames of the priming capture setup decodes once: the workload's
  /// largest frame shapes, so workspaces reach steady size.
  std::vector<PlannedFrame> priming;
};

struct ScanInput {
  std::vector<Capture> captures;
  std::vector<std::vector<SentFrame>> frames;  ///< per capture
  Capture priming;
};

[[nodiscard]] ScanPlan dense_plan();
[[nodiscard]] ScanPlan sparse_plan();
[[nodiscard]] ScanInput make_scan_input(const ScanPlan& plan, std::uint64_t seed);

/// The PER workload. A pass is `runs_per_pass` LinkSimulator runs of
/// `packets_per_run` packets each; run j simulates with run_config(j), its
/// own link seed, so the pass covers runs_per_pass x packets_per_run
/// distinct packets and the reference kernel can be read between runs.
struct LinkPlan {
  mimonet::core::LinkConfig link;
  std::size_t runs_per_pass = 0;
  std::size_t packets_per_run = 0;
  std::size_t threads = 2;
  std::size_t event_runs = 0;    ///< runs timed per packet on one thread
  std::size_t check_prefix = 0;  ///< packets of the 1-vs-2-thread check

  [[nodiscard]] mimonet::core::LinkConfig run_config(std::size_t run) const;
};

[[nodiscard]] LinkPlan link_plan(std::uint64_t seed);

/// The sent PSDU of LinkSimulator packet `p` and the seed its channel draw
/// restarts from — the simulator's documented per-packet seeding, so the
/// traced replay rebuilds exactly the packets the untraced run simulated.
struct LinkPacket {
  std::vector<std::uint8_t> psdu;
  std::uint64_t channel_seed = 0;
};
[[nodiscard]] LinkPacket link_packet(const mimonet::core::LinkConfig& cfg,
                                     std::size_t p);

/// FNV-1a over bytes: records carry PSDU hashes, not copies, so checking
/// them adds no allocation to a timed pass.
[[nodiscard]] std::uint64_t bytes_hash(std::span<const std::uint8_t> b);

/// FNV-1a over the samples of a capture: the generator self-check compares
/// inputs across seeds by hash.
[[nodiscard]] std::uint64_t capture_hash(const Capture& c);

/// Human-readable frame plan, identical for every seed by construction.
[[nodiscard]] std::string describe(const ScanPlan& plan);

}  // namespace perfbench
