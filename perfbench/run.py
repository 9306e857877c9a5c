"""Benchmark of the mapping pipeline and the runtime engine.

Run from the repository root::

    python3 perfbench/run.py --workload paper_mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload paper_mix --seed 1 --seconds 30 --trace 1

``--trace 0`` measures the end-to-end metrics with observability off;
``--trace 1`` runs every operation twice, plain and traced, and reports
the per-layer metrics, the span self times and the tracing overhead.
Every reported time is scaled to a nominal host speed, measured by a
fixed reference computation timed before each group of operations.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the catalogue.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Build outputs of the benchmark (the compiled C kernel) stay in the tree.
CACHE = ROOT / ".bench_build" / "cache"
COMPILE_RECORD = CACHE / "perfbench-compile.json"
SETUP_PROBES = 3
#: Reference timings each set-up probe takes after its set-up.
SETUP_REFERENCES = 5
#: Untraced runs gather at least this many latency samples, so the p90
#: has MIN_BEYOND samples above it.
MIN_SAMPLES = 100

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_latency_p50_ms": "ms",
    "op_latency_p90_ms": "ms",
    "improvement_pct": "%",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be positive")
    return args


def setup(workload: str, seed: int):
    """Everything before the first measured operation.

    Imports, C-kernel load, input generation (and runtime_stream's
    one-off mapping of its panel), then one warm-up operation so lazy
    first-use work is paid here.  Returns the workload and its warm-up
    result.
    """
    from perfbench.workloads import make_workload

    wl = make_workload(workload, seed)
    return wl, wl.run(0)


def _probe_setup(args) -> float:
    """Set-up time of a fresh process, measured and host-scaled by it."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-probe"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=170, check=True)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def _warm_kernel():
    """Load (compiling on a cold cache) the C kernel; return env + compile s."""
    from repro.obs import collect_env

    so_dir = CACHE / "repro-kernel"
    before = set(os.listdir(so_dir)) if so_dir.is_dir() else set()
    t0 = time.perf_counter()
    env = collect_env()
    elapsed = time.perf_counter() - t0
    so_name = os.path.basename(env["kernel_so"] or "")
    record = None
    if so_name and so_name not in before:
        record = {"so": so_name, "compile_s": elapsed}
        COMPILE_RECORD.write_text(json.dumps(record) + "\n")
    elif COMPILE_RECORD.is_file():
        record = json.loads(COMPILE_RECORD.read_text())
        if record.get("so") != so_name:
            record = None
    return env, (record["compile_s"] if record else None), so_name not in before


def _run_untraced(wl, seconds, need):
    """Groups of operations for ``seconds``, each after a reference timing."""
    from perfbench.measure import time_reference

    results, refs = [], []
    deadline = time.perf_counter() + seconds
    while True:
        refs.append(time_reference())
        for _ in range(wl.group):
            results.append(wl.run(len(results)))
        if time.perf_counter() >= deadline and len(results) >= need:
            return results, refs


def _run_traced(wl, seconds, need, tracer, registry):
    """Each operation plain and traced, alternating which goes first."""
    from perfbench.measure import time_reference
    from repro import obs

    plain, traced, refs = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        refs.append(time_reference())
        for _ in range(wl.group):
            i = len(plain)
            for run_traced in ((False, True) if i % 2 == 0 else (True, False)):
                if run_traced:
                    obs.observe(tracer, registry)
                    try:
                        traced.append(wl.run(i, traced=True))
                    finally:
                        obs.shutdown()
                else:
                    plain.append(wl.run(i))
        if time.perf_counter() >= deadline and len(plain) >= need:
            return plain, traced, refs


def end_to_end(wl, results, setup_s, refs):
    """End-to-end metrics, times scaled to the nominal host.

    ``setup_s`` comes scaled from the set-up probes.
    """
    from perfbench.measure import (
        kind_median,
        kind_medians,
        percentile,
        scale_to_host,
    )
    from perfbench.workloads import SCORED_PREFIX, improvement_pct

    lat = scale_to_host([r.latency_s for r in results], refs, wl.group)
    # Medians are taken per input kind (operation index modulo the group):
    # the kinds' latencies barely overlap, so a median over the whole mix
    # would fall in the gap between two kinds, and a median over groups
    # between two workflow families or panel draws.  Throughput is that of
    # a group of median operations, so a few operations the host scaling
    # missed do not move it.
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_per_s": wl.group / sum(kind_medians(lat, wl.group)),
        "op_latency_p50_ms": 1e3 * kind_median(lat, wl.group),
        "op_latency_p90_ms": 1e3 * percentile(lat, 0.9),
        "improvement_pct": improvement_pct(results[:SCORED_PREFIX[wl.name]]),
    }


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(wl, plain, traced, tracer, registry, scale):
    """Every per-layer metric; 0 where the workload skips the layer.

    Times (units ms and us) are multiplied by ``scale``, the run's
    host-speed factor.
    """
    from perfbench.measure import self_times_ns
    from perfbench.workloads import CELLS, SCORED_PREFIX

    spec = per_layer_spec()
    out = {name: 0.0 for name in spec}
    n = len(traced)
    prefix = traced[:SCORED_PREFIX[wl.name]]
    span_ns = {}
    for name, _cat, _t0, dur, _lane, _args in tracer.spans:
        span_ns[name] = span_ns.get(name, 0) + dur
    snap = registry.snapshot()

    def total(key, ops=traced):
        return sum(r.counts.get(key, 0) for r in ops)

    def step(key):
        return sum(r.step_s.get(key, 0.0) for r in traced)

    if wl.name == "runtime_stream":
        for cell in CELLS:
            ops = [r for r in traced if "replay." + cell in r.step_s]
            out[f"engine.us_per_task.{cell}"] = 1e6 * _ratio(
                sum(r.latency_s for r in ops), sum(r.n_tasks for r in ops))
        out["engine.events_per_replay"] = _mean(r.counts["events"] for r in prefix)
        out["engine.area_waits_per_replay"] = _mean(
            r.counts["area_waits"] for r in prefix)
        out["engine.link_waits_per_replay"] = _mean(
            r.counts["link_waits"] for r in prefix)
    else:
        out["schedules.suite_build_ms"] = 1e3 * step("suite") / n
        out["costmodel.build_ms"] = 1e3 * step("evaluator") / n
        out["evaluator.reported_ms"] = 1e3 * _ratio(
            step("score"), sum(len(r.improvements) for r in traced))
        out["eval.full_per_graph"] = total("full", prefix) / len(prefix)
        out["eval.delta_per_graph"] = total("delta", prefix) / len(prefix)
        delta_phase_s = (span_ns.get("mapper.improve", 0) / 1e9
                         + step("map.Tabu") + step("map.Annealing"))
        out["eval.delta_us"] = 1e6 * _ratio(
            delta_phase_s, total("decomp_delta") + total("phase_delta"))
        suffix = snap.get("delta.suffix_len") or {}
        out["delta.suffix_len_mean"] = _ratio(suffix.get("total", 0),
                                              suffix.get("n", 0))
        out["eval.batch_lanes_per_graph"] = total("batch_lanes", prefix) / len(prefix)
        out["eval.batch_lane_us"] = _ratio(
            span_ns.get("bench.batch_eval", 0), total("batch_lanes")) / 1e3
        out["kernel.dedup_hit_ratio"] = _ratio(snap.get("kernel.dedup_hits", 0),
                                               snap.get("kernel.dedup_lanes", 0))
        for phase in ("decompose", "construct", "improve"):
            out[f"decomp.{phase}_ms"] = span_ns.get(f"mapper.{phase}", 0) / 1e6 / n
        out["decomp.candidates_per_graph"] = total("candidates", prefix) / len(prefix)
        out["decomp.iterations_per_graph"] = total("iterations", prefix) / len(prefix)
        out["decomp.move_yield"] = _ratio(total("iterations", prefix),
                                          total("decomp_delta", prefix))
        for key in {k for r in traced for k in r.step_s if k.startswith("map.")}:
            out[f"mapper.{key[4:]}.map_ms"] = 1e3 * step(key) / n
    for name, ns in self_times_ns(tracer.spans).items():
        key = f"self.{name}_ms"
        if key in out:
            out[key] = ns / 1e6 / n
        else:
            print(f"unlisted span {name}: self {ns / 1e6 / n:.6g} ms/op")
    out["trace.overhead_pct"] = 100.0 * (
        sum(r.latency_s for r in traced) / sum(r.latency_s for r in plain) - 1.0)
    return {name: value * scale if spec[name] in ("ms", "us") else value
            for name, value in out.items()}


def per_layer_spec():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer"]}


def main(argv=None) -> int:
    args = _parse(argv)
    t_start = time.perf_counter()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    CACHE.mkdir(parents=True, exist_ok=True)
    os.environ["XDG_CACHE_HOME"] = str(CACHE)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    if args.setup_probe:
        setup(args.workload, args.seed)
        elapsed = time.perf_counter() - t_start
        # Scaled by this process's own reference timings: the host may
        # change speed between the probes and the measured loop.
        from perfbench.measure import host_scale, time_reference

        refs = [time_reference() for _ in range(SETUP_REFERENCES)]
        print(json.dumps({"setup_s": elapsed * host_scale(refs)}))
        return 0

    env, compile_s, cold = _warm_kernel()
    if env["kernel"] != "c":
        print("perfbench: the C kernel is not loaded (kernel="
              f"{env['kernel']!r}); refusing to report timings",
              file=sys.stderr)
        return 3
    from perfbench.measure import REFERENCE_S, host_scale
    from perfbench.workloads import SCORED_PREFIX, WORKLOADS, input_digest

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    if not args.trace:
        setup_s = statistics.median(
            _probe_setup(args) for _ in range(SETUP_PROBES))
    wl, warm = setup(args.workload, args.seed)
    # Keep full collections from rescanning the inputs the benchmark
    # holds (runtime_stream's panel and engine caches: ~300k objects, a
    # ~100 ms pause every few replays); objects the operations create
    # are still collected.
    gc.collect()
    gc.freeze()
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env: " + json.dumps(env, sort_keys=True))
    print(f"kernel: compile_s={compile_s} cache={'cold' if cold else 'warm'}")
    print(f"inputs: sha256={input_digest(wl, SCORED_PREFIX[wl.name])}")

    prefix = SCORED_PREFIX[wl.name]
    if args.trace:
        from repro import obs

        tracer, registry = obs.Tracer(), obs.MetricsRegistry()
        plain, traced, refs = _run_traced(wl, args.seconds, prefix, tracer,
                                          registry)
        ops = [warm] + plain + traced
        metrics = per_layer(wl, plain, traced, tracer, registry,
                            host_scale(refs))
        units = per_layer_spec()
    else:
        results, refs = _run_untraced(wl, args.seconds,
                                      max(prefix, MIN_SAMPLES))
        ops = [warm] + results
        metrics = end_to_end(wl, results, setup_s, refs)
        units = E2E_UNITS
    print(f"host: reference median {1e3 * statistics.median(refs):.4f} ms "
          f"over {len(refs)} timings, nominal {1e3 * REFERENCE_S:g} ms; "
          f"times below are scaled by {host_scale(refs):.6g} "
          "(operation latencies group by group)")
    failed = [r for r in ops if r.problems]
    for r in failed[:5]:
        print("FAILED: " + "; ".join(r.problems[:3]), file=sys.stderr)
    print(f"ops: attempted={len(ops)} failed={len(failed)}")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
