"""Arithmetic of the repository benchmark: normalisation to reference-core
time, per-candidate percentiles, span self times and the metric set.

perfbench_host prints raw readings (CPU seconds per pass, the reference
kernel's reading around each pass, per-candidate times, spans, counters);
everything here turns those into the metrics named in BENCHMARK.json.
"""

import math
import statistics

# Metric units, shared with BENCHMARK.json.
END_TO_END_UNITS = {
    "msamp_per_s": "Msamp/s",
    "frame_delivery": "share",
    "event_us_p50": "us",
    "event_us_p90": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Span names whose time is summed per pass into a "<name>.us" metric.
LAYER_SPANS = {
    "core.align": "core.align.us",
    "chanest": "chanest.us",
    "wifi.sig": "wifi.sig.us",
    "ofdm.demod": "ofdm.demod.us",
    "eq.apply": "eq.apply.us",
    "mod.demap": "mod.demap.us",
    "wifi.deint": "wifi.deint.us",
    "fec.depuncture": "fec.depuncture.us",
    "fec.viterbi": "fec.viterbi.us",
    "core.tx": "core.tx.us",
    "channel.transmit": "channel.transmit.us",
    "sync.detect": "sync.detect.us",
    "sync.coarse": "sync.coarse.us",
}

# Counter name -> per-layer count metric.
LAYER_COUNTS = {
    "candidates": "core.scan.candidates",
    "resyncs": "core.scan.resyncs",
    "rewinds": "core.scan.rewinds",
    "demod_symbols": "ofdm.demod.symbols",
    "eq_bins": "eq.apply.bins",
    "demap_llrs": "mod.demap.llrs",
    "deint_llrs": "wifi.deint.llrs",
    "depunct_llrs": "fec.depuncture.llrs",
    "viterbi_bits": "fec.viterbi.info_bits",
}

# Measurement-only spans: a second detector run on the window the receive
# call is about to scan. Excluded from traced receive time.
PROBE_SPANS = ("sync.detect", "sync.coarse")

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER_UNITS = {
    "core.scan.candidates": "count",
    "core.scan.useful_ratio": "ratio",
    "core.scan.resyncs": "count",
    "core.scan.rewinds": "count",
    "core.scan.self_us": "us",
    "sync.coarse.us": "us",
    "sync.detect.us": "us",
    "sync.detect.rescan_factor": "ratio",
    "sync.fine.us": "us",
    "core.align.us": "us",
    "chanest.us": "us",
    "wifi.sig.us": "us",
    "ofdm.demod.us": "us",
    "ofdm.demod.symbols": "count",
    "eq.apply.us": "us",
    "eq.apply.bins": "count",
    "mod.demap.us": "us",
    "mod.demap.llrs": "count",
    "wifi.deint.us": "us",
    "wifi.deint.llrs": "count",
    "fec.depuncture.us": "us",
    "fec.depuncture.llrs": "count",
    "fec.viterbi.us": "us",
    "fec.viterbi.info_bits": "count",
    "core.decode.unattributed_us": "us",
    "core.tx.us": "us",
    "channel.transmit.us": "us",
    "core.sim.parallel_overhead": "ratio",
    "host.ref_measured_us": "us",
    "host.raw_msamp_per_cpu_s": "Msamp/s",
    "trace.overhead": "ratio",
    "trace.unattributed_share": "share",
}


def median(values):
    return statistics.median(values)


def quartile_spread(values):
    """(Q3 - Q1) / median, with the quartiles statistics.quantiles gives."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def normalise(seconds, ref_measured_s, ref_nominal_s):
    """A time in reference-core units: the measured time scaled by how much
    slower (or faster) the reference kernel ran than its nominal time."""
    if ref_measured_s <= 0:
        raise ValueError("reference reading must be positive")
    return seconds * ref_nominal_s / ref_measured_s


def percentile_with_tail(values, q, min_tail=10):
    """Nearest-rank q-th percentile (0 < q < 100) of `values`, refusing a
    percentile with fewer than `min_tail` samples strictly beyond it."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    value = ordered[rank - 1]
    beyond = sum(1 for v in ordered if v > value)
    if beyond < min_tail:
        raise ValueError(
            "p%g of %d samples has only %d beyond it (need %d)"
            % (q, len(ordered), beyond, min_tail))
    return value


def per_candidate_medians(passes_events):
    """passes_events[i][k] is candidate k's normalised time in pass i; every
    pass must hold the same candidates. Returns each candidate's median over
    the passes."""
    counts = {len(p) for p in passes_events}
    if len(counts) != 1:
        raise ValueError("passes hold different candidate counts: %s" % sorted(counts))
    return [statistics.median(column) for column in zip(*passes_events)]


def self_times(spans, names):
    """Total and self time per span name. `spans` are [id, parent, t0, t1]
    with parent an index into `spans` (-1 at the top); a span's self time is
    its duration minus its direct children's durations."""
    child = [0] * len(spans)
    for span_id, parent, t0, t1 in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    total = {}
    own = {}
    for i, (span_id, _parent, t0, t1) in enumerate(spans):
        name = names[span_id]
        total[name] = total.get(name, 0) + (t1 - t0)
        own[name] = own.get(name, 0) + (t1 - t0 - child[i])
    return total, own


def run_reading(raw):
    """The median reference reading over a run's untraced passes."""
    plain = [p for p in raw["passes"] if not p["traced"] and "refs_cpu_s" in p]
    if not plain:
        return None
    return median([r for p in plain for r in p["refs_cpu_s"]])


def segments(p, run_ref=None):
    """A pass as (cpu_s, ref_cpu_s, first_event, end_event) segments. An
    untraced pass reads the reference before each of its segments (a
    scan's captures, the PER workload's simulator runs) and after the last. A segment is normalised by the mean of the readings
    just before and after it, or, for a pass with ref_scope "run", by the
    run's median reading `run_ref`. Other passes are one segment with the
    pass's own reading."""
    if "segment_cpu_s" not in p:
        return [(p["cpu_s"], p["ref_cpu_s"], 0, len(p.get("events_ns", ())))]
    rc = p["refs_cpu_s"]
    ends = p.get("segment_events_end", [0] * len(p["segment_cpu_s"]))
    out = []
    for k, cpu in enumerate(p["segment_cpu_s"]):
        ref_cpu = run_ref if p.get("ref_scope") == "run" else (rc[k] + rc[k + 1]) / 2
        out.append((cpu, ref_cpu, ends[k - 1] if k > 0 else 0, ends[k]))
    return out


def normalised_cpu(p, nominal_s, run_ref=None):
    """A pass's CPU time in reference-core seconds, segment by segment."""
    return sum(normalise(cpu, rc, nominal_s) for cpu, rc, _, _ in segments(p, run_ref))


def end_to_end(raw, nominal_s, normalised=True):
    """End-to-end metrics of one run from the host's raw readings. With
    normalised=False every reference reading is taken as nominal, which
    gives the same figures in plain CPU (or wall) time."""
    def ref(reading):
        return reading if normalised else nominal_s

    plain = [p for p in raw["passes"] if not p["traced"]]
    if not plain:
        raise ValueError("no untraced passes")
    run_ref = run_reading(raw)
    # Throughput: the median over passes of each pass's samples over its
    # normalised CPU time.
    msamp = median([p["samples"] / sum(normalise(cpu, ref(rc), nominal_s)
                                       for cpu, rc, _, _ in segments(p, run_ref)) / 1e6
                    for p in plain])
    delivered = sum(p["delivered_ok"] for p in plain)
    frames = sum(p["frames"] for p in plain)

    # Per-candidate service time (thread CPU), normalised like the segment
    # it lies in. A pass whose own work does not time candidates (the PER
    # workload's pool) carries an "event_pass" that does.
    per_pass = []
    for p in plain:
        ev = p.get("event_pass", p)
        times = []
        for _, rc, first, end in segments(ev, run_ref):
            times += [normalise(ns * 1e-3, ref(rc), nominal_s)
                      for ns in ev["events_ns"][first:end]]
        per_pass.append(times)
    cands = per_candidate_medians(per_pass)
    setup = median([normalise(s["cpu_s"], ref(s["ref_cpu_s"]), nominal_s)
                    for s in raw["setup"]])
    return {
        "msamp_per_s": msamp,
        "frame_delivery": delivered / frames,
        "event_us_p50": median(cands),
        "event_us_p90": percentile_with_tail(cands, 90),
        "setup_s": setup,
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }, {"candidates": len(cands), "passes": len(plain)}


def raw_figures(raw, nominal_s):
    """The host's state and the unnormalised timing figures of one run."""
    figures, _ = end_to_end(raw, nominal_s, normalised=False)
    out = {k: figures[k] for k in ("msamp_per_s", "event_us_p50", "event_us_p90", "setup_s")}
    out["ref_measured_s"] = median([p["ref_cpu_s"] for p in raw["passes"]])
    return out


def traced_pass_layers(p, names, nominal_s):
    """Per-layer figures of one traced pass, in reference-core us."""
    scale = nominal_s / p["ref_wall_s"] * 1e-3  # wall ns -> reference-core us
    total, own = self_times(p["spans"], names)
    probes = sum(total.get(n, 0) for n in PROBE_SPANS)
    # Time no span below the scan/packet loop covers: the iterations' own
    # time plus the loop between iterations, excluding the probes.
    traced_ns = p["wall_s"] * 1e9 - probes
    covered = sum(t1 - t0 for span_id, parent, t0, t1 in p["spans"]
                  if parent >= 0 and names[p["spans"][parent][0]] == "core.scan.iter"
                  and names[span_id] not in PROBE_SPANS)
    out = {metric: total.get(span, 0) * scale for span, metric in LAYER_SPANS.items()}
    out["sync.fine.us"] = (total.get("sync.synchronize", 0) - total.get("sync.detect", 0)) * scale
    out["core.scan.self_us"] = own.get("core.scan.iter", 0) * scale
    out["core.decode.unattributed_us"] = own.get("core.decode", 0) * scale
    out["trace.unattributed_share"] = (traced_ns - covered) / traced_ns
    counters = p["counters"]
    for counter, metric in LAYER_COUNTS.items():
        out[metric] = float(counters[counter])
    out["core.scan.useful_ratio"] = counters["useful"] / max(1, counters["candidates"])
    out["sync.detect.rescan_factor"] = counters["detector_samples"] / p["samples"]
    # Traced throughput on the CPU clock, probes taken out.
    cpu = p["cpu_s"] - probes * 1e-9 * p["cpu_s"] / p["wall_s"]
    out["_traced_msamp"] = p["samples"] / normalise(cpu, p["ref_cpu_s"], nominal_s) / 1e6
    return out


def per_layer(raw, nominal_s):
    """Per-layer metrics of a traced run: the median over its traced passes."""
    names = raw["span_names"]
    traced = [traced_pass_layers(p, names, nominal_s) for p in raw["passes"] if p["traced"]]
    if not traced:
        raise ValueError("no traced passes")
    out = {k: median([t[k] for t in traced]) for k in traced[0]}
    e2e, _ = end_to_end(raw, nominal_s)
    out["trace.overhead"] = out.pop("_traced_msamp") / e2e["msamp_per_s"]
    plain = [p for p in raw["passes"] if not p["traced"]]
    out["host.ref_measured_us"] = median([p["ref_cpu_s"] for p in raw["passes"]]) * 1e6
    out["host.raw_msamp_per_cpu_s"] = raw_figures(raw, nominal_s)["msamp_per_s"]
    out["core.sim.parallel_overhead"] = (
        median([parallel_overhead(p, nominal_s, run_reading(raw)) for p in plain])
        if "event_pass" in plain[0] else 0.0)
    return out


def parallel_overhead(p, nominal_s, run_ref):
    """Pool CPU / single-thread CPU for the same packets, both normalised:
    the event pass re-runs the pool pass's first simulator runs on one
    thread."""
    single = p["event_pass"]
    runs = len(single["segment_cpu_s"])
    pool = sum(normalise(cpu, rc, nominal_s) for cpu, rc, _, _ in segments(p, run_ref)[:runs])
    return pool / normalised_cpu(single, nominal_s)
