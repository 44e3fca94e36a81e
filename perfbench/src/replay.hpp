// Traced replay: the receive path re-driven from the benchmark's own files
// through each layer's public functions, with a span around every layer
// call. It mirrors core::Receiver::receive (batched BCC payload, linear
// equalizer) and core::StreamReceiver's scan loop for the whole-capture
// window, so it must reproduce the library's records exactly; the host
// checks that it does.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/phy_config.hpp"
#include "core/receive_session.hpp"
#include "core/workspace.hpp"
#include "dsp/types.hpp"
#include "fec/viterbi.hpp"
#include "metrics/rx_error.hpp"
#include "ofdm/symbol.hpp"
#include "sync/frame_sync.hpp"
#include "sync/packet_detector.hpp"

namespace perfbench {

using mimonet::dsp::cf32;

/// Span names. The two probes are measurement-only calls (a second detector
/// run on the window synchronize() is about to scan) and are excluded from
/// traced receive time.
enum SpanId : std::uint16_t {
  kIter,          // one scan-loop iteration / one simulated packet
  kProbeDetect,   // sync.detect: PacketDetector::detect_mimo on the window
  kProbeCoarse,   // sync.coarse: PacketDetector::scan_coarse on its prefix
  kSync,          // FrameSynchronizer::synchronize
  kAlign,         // packet-aligned, CFO-corrected copy
  kChanest,       // L-LTF and HT-LTF estimation (FFT + LS + smoothing + SNR)
  kSig,           // L-SIG and HT-SIG decode
  kDecode,        // payload decode (parent of the six below)
  kDemod,         // ofdm: batched FFT of data symbols
  kEq,            // eq: prepare + apply_run
  kDemap,         // mod: demap_soft_run
  kDeint,         // wifi: deinterleave + stream merge
  kDepunct,       // fec: streaming depuncture
  kViterbi,       // fec: streaming Viterbi ACS + traceback
  kTx,            // core::Transmitter::transmit_into
  kChannel,       // channel::MimoChannel::transmit
  kSpanCount
};

const char* span_name(SpanId id);

/// Flat span log: one entry per closed span, parent index into the same
/// log (-1 at the top). Timed with the monotonic wall clock.
class Tracer {
 public:
  struct Span {
    std::uint16_t id;
    std::int32_t parent;
    std::int64_t t0;
    std::int64_t t1;
  };

  std::int32_t open(SpanId id);
  void close(std::int32_t idx);
  void clear() { spans_.clear(); stack_.clear(); }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& t, SpanId id) : t_(t), idx_(t.open(id)) {}
  ~Scope() { t_.close(idx_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  std::int32_t idx_;
};

/// Work counts at the layer boundaries, per pass.
struct Counters {
  std::size_t candidates = 0;
  std::size_t useful = 0;          // candidates that decoded HT-SIG
  std::size_t resyncs = 0;
  std::size_t rewinds = 0;
  std::size_t detector_samples = 0;
  std::size_t demod_symbols = 0;   // data OFDM symbols x antennas
  std::size_t eq_bins = 0;         // (symbol, data bin) pairs equalized
  std::size_t demap_llrs = 0;
  std::size_t deint_llrs = 0;
  std::size_t depunct_llrs = 0;    // depunctured LLRs out
  std::size_t viterbi_bits = 0;    // trellis steps decoded
  std::size_t unsupported = 0;     // frames the replay does not mirror
};

/// What a scan record must agree on between the library and the replay.
struct Record {
  std::size_t offset = 0;
  mimonet::metrics::RxError error = mimonet::metrics::RxError::kOk;
  bool fcs_ok = false;
  std::uint64_t psdu_hash = 0;
  bool operator==(const Record&) const = default;
};

/// Receiver::receive re-driven layer by layer.
class TracedReceiver {
 public:
  TracedReceiver(const mimonet::core::PhyConfig& phy, std::size_t nrx,
                 const mimonet::sync::ScanMode& scan);

  /// Same contract as core::Receiver::receive (result in ws.packet). When
  /// `probe` is set, the detector is first run again on its own to time it.
  bool receive(std::span<const std::span<const cf32>> capture,
               mimonet::core::RxWorkspace& ws, Tracer& tr, Counters& n,
               bool probe) const;

  [[nodiscard]] const mimonet::core::PhyConfig& config() const { return phy_; }

 private:
  void probe_detector(std::span<const std::span<const cf32>> capture, Tracer& tr,
                      Counters& n) const;
  void sig_llrs(const mimonet::dsp::SampleGrid& grids,
                const std::vector<std::vector<cf32>>& h_legacy, float noise_var,
                bool qbpsk, mimonet::core::RxWorkspace& ws,
                std::vector<float>& out) const;

  mimonet::core::PhyConfig phy_;
  std::size_t nrx_;
  mimonet::sync::ScanMode scan_;
  mimonet::sync::FrameSynchronizer synchronizer_;
  mimonet::sync::PacketDetector detector_;
  mimonet::ofdm::SymbolDemodulator legacy_demod_;
  mimonet::ofdm::SymbolDemodulator ht_demod_;
  mimonet::fec::ViterbiDecoder viterbi_;
  mutable mimonet::sync::DetectScratch probe_scratch_;
  mutable std::vector<mimonet::sync::CoarseRegion> probe_regions_;
};

/// StreamReceiver::scan's loop over a whole capture, re-driven through a
/// TracedReceiver; appends one Record per event.
void traced_scan(const TracedReceiver& rx,
                 const mimonet::core::ReceiveSessionConfig& session,
                 std::span<const std::span<const cf32>> capture,
                 mimonet::core::RxWorkspace& ws, Tracer& tr, Counters& n,
                 std::vector<Record>& records);

}  // namespace perfbench
