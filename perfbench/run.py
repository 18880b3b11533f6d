"""sdcodes benchmark: time complete certificates, checked in every pass.

    python3 perfbench/run.py --workload serial --seed 0 --seconds 50 --trace 0

Run from the root of a source checkout.  One process runs one pass at a
time (a closed loop with one client); a pass is one complete
certificate, and passes repeat until the next one would take their
summed time past ``--seconds``.  The last line of standard output is the
result object; the line before it holds the run's details and metadata.

With ``--trace 0`` the result carries the end-to-end metrics, and a
batch of set-up probes runs before the first pass and after each pass.
With ``--trace 1`` the inputs are built under the tracer, traced and
untraced passes alternate, traced first, and the result carries the
per-layer metrics of the set-up and the traced passes; the span file is
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracing import (
    SETUP_PASS,
    SETUP_ROOT,
    Tracer,
    layer_metric_names,
    maxrss_mb,
    pass_totals,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# fresh processes timed for setup_s before the first pass and after each
# pass, so that they sample the whole run; the median is reported
SETUP_PROBE_BATCH = 6

LIMITS = (
    "Only this benchmark's own processes are measured. Page cache, CPU "
    "frequency and cgroup state are left as found. The machine has 2 cores, "
    "so nothing scales beyond 2 workers."
)


@dataclass(frozen=True)
class Pass:
    wall_s: float
    cpu_s: float
    attempted: int
    failed: int
    output: bytes


def _cpu_total() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def timed_pass(workload, inputs) -> Pass:
    """One pass; CPU counts this process and every worker it reaped."""
    cpu0 = _cpu_total()
    t0 = time.perf_counter()
    result = workload.run_pass(inputs)
    wall = time.perf_counter() - t0
    multiprocessing.active_children()  # joins any worker not yet reaped
    return Pass(wall, _cpu_total() - cpu0, result.attempted, result.failed, result.output)


def timing(values: list[float]) -> dict:
    """Median, and the highest percentile with ten samples beyond it."""
    s = sorted(values)
    n = len(s)
    tail = None
    if n - 10 > n / 2:  # that percentile lies above the median
        tail = {"percentile": round(100 * (n - 10) / n, 1), "value": s[n - 11]}
    return {"n": n, "median": statistics.median(s), "tail": tail}


def src_line_count() -> int:
    return sum(
        len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))
    )


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def metadata() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "src_lines": src_line_count(),
        "limits": LIMITS,
    }


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that import sdcodes and build inputs."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
    out = []
    for _ in range(SETUP_PROBE_BATCH):
        t0 = time.perf_counter()
        # no timeout: waiting with one polls in sleeps of up to 50 ms
        subprocess.run(cmd, cwd=ROOT, env=env, check=True)
        out.append(time.perf_counter() - t0)
    return out


def check_outputs(passes: list[Pass]) -> tuple[int, int]:
    """Every pass after the first must certify byte-identical output."""
    first = passes[0].output
    later = passes[1:]
    return len(later), sum(p.output != first for p in later)


def _done(passes: list[Pass], seconds: float) -> bool:
    """Whether a pass as long as the last would take the total past seconds."""
    return sum(p.wall_s for p in passes) + passes[-1].wall_s > seconds


def run_untraced(workload, inputs, seed: int, seconds: float):
    """Passes, with a batch of set-up probes before the first and after each."""
    passes: list[Pass] = []
    setup = setup_seconds(workload.name, seed)
    while True:
        passes.append(timed_pass(workload, inputs))
        setup += setup_seconds(workload.name, seed)
        if _done(passes, seconds):
            return passes, setup


def run_traced(workload, inputs, seconds: float, tracer: Tracer):
    """Alternates traced and untraced passes, traced first, at least one each."""
    traced: list[Pass] = []
    plain: list[Pass] = []
    while True:
        if len(traced) <= len(plain):
            with tracer.installed(), tracer.pass_span(len(traced)):
                traced.append(timed_pass(workload, inputs))
            last = traced[-1]
        else:
            plain.append(timed_pass(workload, inputs))
            last = plain[-1]
        if plain and _done(traced + plain, seconds):
            return traced, plain


def layer_metrics(tracer: Tracer, traced: list[Pass], plain: list[Pass]) -> dict:
    """Set-up totals plus the median traced pass: one certificate from scratch."""
    setup = pass_totals(tracer.spans, SETUP_PASS)
    totals = [pass_totals(tracer.spans, i) for i in range(len(traced))]
    out = {}
    for name, unit in layer_metric_names():
        values = [t.get(name, 0) for t in totals]
        once = setup.get(name, 0)
        if once is None or any(v is None for v in values):
            value = None  # not measured: a worker outlived its span
        elif name.endswith(".rss_rise_mb"):
            value = once + sum(values)  # the high-water mark rises once per process
        else:
            value = once + statistics.median(values)
        out[name] = {"value": value, "unit": unit}
    traced_s = statistics.median(p.wall_s for p in traced)
    plain_s = statistics.median(p.wall_s for p in plain)
    out["bench.traced_cert_s"] = {"value": traced_s, "unit": "s"}
    out["bench.trace_overhead_s"] = {"value": traced_s - plain_s, "unit": "s"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sdcodes" / "__init__.py").is_file():
        print(f"error: no sdcodes sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, table1_rows

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    # RUSAGE_CHILDREN can carry a high-water mark inherited across exec
    child_rss_at_start = maxrss_mb(resource.RUSAGE_CHILDREN)

    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "seed_effect": (
            f"picks Table 1 rows {table1_rows(args.seed)}; "
            "the CLI certificate runs the paper's fixed inputs"
        ),
        "trace": args.trace,
    }
    if args.trace:
        tracer = Tracer()
        with tracer.installed(), tracer.pass_span(SETUP_PASS, SETUP_ROOT) as span:
            inputs = workload.setup(args.seed)
        detail["traced_setup_s"] = span.end - span.start
        traced, plain = run_traced(workload, inputs, args.seconds, tracer)
        passes = traced + plain
        metrics = layer_metrics(tracer, traced, plain)
        detail["traced_wall_s"] = [p.wall_s for p in traced]
        child_rss_mb = maxrss_mb(resource.RUSAGE_CHILDREN)
        if child_rss_mb <= child_rss_at_start:
            child_rss_mb = 0.0  # no worker was reaped during the run
        metrics["bench.child_rss_mb"] = {"value": child_rss_mb, "unit": "MB"}
    else:
        inputs = workload.setup(args.seed)
        plain, setup = run_untraced(workload, inputs, args.seed, args.seconds)
        passes = plain

    peak_rss_mb = maxrss_mb(resource.RUSAGE_SELF)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    extra_attempted, extra_failed = check_outputs(passes)
    attempted += extra_attempted
    failed += extra_failed

    if not args.trace:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "cert_s": {"value": statistics.median(p.wall_s for p in plain), "unit": "s"},
            "cpu_s": {"value": statistics.median(p.cpu_s for p in plain), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        detail["setup_s"] = setup
    detail.update(
        passes=len(passes),
        cert_s=timing([p.wall_s for p in plain]),
        cpu_s=timing([p.cpu_s for p in plain]),
        claim_fail_frac=failed / attempted,
        output_sha256=hashlib.sha256(passes[0].output).hexdigest(),
        metadata=metadata(),
    )
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{workload.name}-seed{args.seed}.json"
        spans = [s.to_json() for s in tracer.spans]
        path.write_text(json.dumps({"detail": detail, "spans": spans}))
        detail["spans_file"] = str(path.relative_to(ROOT))

    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
