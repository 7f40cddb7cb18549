"""structattn benchmark: one closed-loop workload per run, checked and measured.

    python3 perfbench/run.py --workload icl-train --seed 0 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
The untraced run (--trace 0) prints the end-to-end metrics; the traced run
(--trace 1) prints the per-layer metrics from spans around the benchmark's
calls into each module, with the tracing overhead. The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}. A run
record with versions, counts, failures and (when traced) every span is
written under perfbench/out/. Exit code 0 when every check passed, 1 when a
check failed or the package cannot be imported.
"""
import os

BLAS_THREADS = 1  # one client, one core: steadiest on a small shared machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import glob
import json
import math
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

MIN_OPS = 92       # fewest ops for which op_ms_p90 leaves 10 ops above it
SETUP_REPS = 3
TRACE_OPS = 20     # traced ops in a traced run, each followed by an untraced one
PROBE_REPS = 3
COVER_OPS = 2


def import_package() -> float:
    """Import structattn from this checkout's src/; returns the seconds it took."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    try:
        import structattn
        import workloads  # noqa: F401  (imports the package modules it drives)
    except ImportError as e:
        raise SystemExit(f"error: cannot import structattn from {src}: {e}")
    elapsed = time.perf_counter() - t0
    where = Path(structattn.__file__).resolve().parent.parent
    if where != src.resolve():
        raise SystemExit(f"error: structattn imported from {where}, not {src}")
    return elapsed


class Tally:
    """Attempted and failed items: ops, eval passes, gates and cross-checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, failures):
        """Count one item; None means nothing was attempted."""
        if failures is None:
            return
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures += failures


class ExactCounts:
    """Counts that must repeat exactly, op after op and traced or not."""

    def __init__(self):
        self.values: dict = {}

    def add(self, counts: dict, where: str) -> list[str]:
        drift = []
        for key, value in counts.items():
            first = self.values.setdefault(key, value)
            if value != first:
                drift.append(f"{key} drifted {first} -> {value} ({where})")
        return drift


def run_loop(wl, tracer, counts, tally, seconds, min_ops, alternate=False):
    """Closed loop until both the time and the op count are reached.

    Returns (op latencies in s, window in s). The window covers the ops,
    less the per-op checks, plus the share the workload's finish() charges
    for work due at a cadence longer than a run (icl-train's eval passes).
    With alternate, every second op runs with the tracer off, to measure the
    tracing overhead.
    """
    lat, checks = [], 0.0
    start = time.perf_counter()
    while True:
        if alternate:
            tracer.enabled = len(lat) % 2 == 0
        with tracer.span("op"):
            lat.append(wl.op())
        if alternate:
            tracer.enabled = True
        c0 = time.perf_counter()
        op_counts, failures = wl.check_op()
        tally.add(failures + counts.add(op_counts, f"op {len(lat)}"))
        checks += time.perf_counter() - c0
        if len(lat) >= min_ops and time.perf_counter() - start >= seconds:
            break
    window = time.perf_counter() - start - checks
    failures, charged = wl.finish(len(lat))
    tally.add(failures)
    return lat, window + charged


def setup(wl, tracer, counts, tally, reps) -> list[float]:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        with tracer.span("setup"):
            wl.setup_rep()
        times.append(time.perf_counter() - t0)
        op_counts, failures = wl.check_op()
        tally.add(failures + counts.add(op_counts, "set-up"))
    return times


def run_gates(wl, counts, tally):
    for gate, ok, detail in wl.gates():
        tally.add([] if ok else [f"{gate}: {detail}"])
    if wl.gate_counts:
        tally.add(counts.add(wl.gate_counts, "gates"))


def ratio_gate(counts, tally):
    """Every metered score MAC count equals the cost model's closed form."""
    ratios = {k: v for k, v in counts.values.items() if k.startswith("costs.macs_ratio.")}
    if ratios:
        tally.add([f"{k} is {v!r}, not 1.0" for k, v in ratios.items() if v != 1.0])


def layer_metrics(wl, tracer, counts) -> dict:
    metrics = tracer.median_ms()
    metrics.update(counts.values)
    metrics.update(wl.derived(metrics))
    return metrics


def blas_info() -> dict:
    import numpy as np
    info = {"env_threads": BLAS_THREADS, "threads": None, "version": None}
    try:
        info["version"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        pass
    import ctypes
    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*.so*")):
        try:
            fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_")
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        info["threads"] = fn()
    return info


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_record(args, import_s) -> dict:
    import numpy as np
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_info(), "dtype": "float64",
            "git_commit": git_commit(), "import_s": import_s, "platform": platform.platform()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # ru_maxrss is KiB


def end_to_end(lat, window_s, setup_times, import_s, tally) -> dict:
    ms = [1e3 * x for x in lat]
    return {
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": statistics.quantiles(ms, n=10, method="inclusive")[-1] if len(ms) > 1 else ms[0],
        "ops_per_s": len(lat) / window_s,
        "setup_s": import_s + statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        "ok_ratio": 1.0 - tally.failed / tally.attempted,
    }


def traced_run(args, wl, tracer, counts, tally, record) -> dict:
    """Per-layer metrics: own spans, probes, then a few ops of other workloads."""
    import workloads
    lat, _ = run_loop(wl, tracer, counts, tally, args.seconds, 2 * min(args.min_ops, TRACE_OPS),
                      alternate=True)
    traced, untraced = lat[0::2], lat[1::2]
    run_gates(wl, counts, tally)
    probe_tracer = spans.Tracer("probes")
    for rep_counts in workloads.run_probes(args.seed, probe_tracer, PROBE_REPS):
        tally.add(counts.add(rep_counts, "probes"))
    metrics = layer_metrics(wl, tracer, counts)
    for name, value in probe_tracer.median_ms().items():
        metrics.setdefault(name, value)
    tracers = [tracer, probe_tracer]

    wanted = {name for name, _ in workloads.per_layer_metrics()}
    for name, cls in workloads.WORKLOADS.items():
        if name == wl.name or wanted <= metrics.keys():
            continue
        cover_tracer = spans.Tracer(name)
        cover = cls(args.seed, cover_tracer, ROOT)
        cover_counts = ExactCounts()
        setup(cover, cover_tracer, cover_counts, tally, 1)
        run_loop(cover, cover_tracer, cover_counts, tally, 0.0, COVER_OPS)
        tracers.append(cover_tracer)
        for key, value in layer_metrics(cover, cover_tracer, cover_counts).items():
            metrics.setdefault(key, value)
        record.setdefault("cover", []).append(name)

    p50_u, p50_t = 1e3 * statistics.median(untraced), 1e3 * statistics.median(traced)
    metrics.update({"trace.untraced_op_ms_p50": p50_u, "trace.traced_op_ms_p50": p50_t,
                    "trace.overhead_pct": 100.0 * (p50_t - p50_u) / p50_u})
    record["self_ms"] = {t.source: {k: 1e3 * v for k, v in t.self_seconds().items()}
                         for t in tracers}
    record["spans"] = [s for t in tracers for s in t.to_json()]
    missing = wanted - metrics.keys()
    if missing:
        tally.add([f"per-layer metrics not measured: {sorted(missing)}"])
    return {name: metrics[name] for name in sorted(wanted & metrics.keys())}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("icl-train", "long-context", "checks"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--min-ops", type=int, default=MIN_OPS,
                   help="ops per window at least (short runs in tests)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0 or args.min_ops < 1:
        p.error("--seed and --seconds must be >= 0, --min-ops >= 1")

    import_s = import_package()
    import workloads

    record = run_record(args, import_s)
    tally = Tally()
    tracer = spans.Tracer(args.workload, enabled=bool(args.trace))
    counts = ExactCounts()
    wl = workloads.WORKLOADS[args.workload](args.seed, tracer, ROOT)
    setup_times = setup(wl, tracer, counts, tally, SETUP_REPS)
    record["setup_rep_s"] = setup_times

    if args.trace:
        metrics = traced_run(args, wl, tracer, counts, tally, record)
        ratio_gate(counts, tally)
        units = dict(workloads.per_layer_metrics())
    else:
        lat, window_s = run_loop(wl, tracer, counts, tally, args.seconds, args.min_ops)
        run_gates(wl, counts, tally)
        ratio_gate(counts, tally)
        metrics = end_to_end(lat, window_s, setup_times, import_s, tally)
        units = {name: unit for name, unit, _, _ in workloads.END_TO_END}
        record.update(ops=len(lat), window_s=window_s, op_ms=[1e3 * x for x in lat])
    record.update(losses=wl.losses, metrics=metrics, counts=counts.values, attempted=tally.attempted,
                  failed=tally.failed, failures=tally.failures)

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-s{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    for name, value in metrics.items():
        print(f"{name:34s} {value:16.6f} {units[name]}")
    if not args.trace:
        print(f"ops {record['ops']}, window {window_s:.3f} s")
    for failure in tally.failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    correct = tally.failed == 0 and all(math.isfinite(v) for v in metrics.values())
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
