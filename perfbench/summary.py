"""Print every benchmark metric with its unit, for each workload.

    python3 perfbench/summary.py [--seeds 0 1 ...] [--out FILE]

Runs ``run.py`` on each workload of BENCHMARK.json and each seed twice,
for its ``run_seconds``, with tracing off (the end-to-end metrics) and
on (the per-layer metrics), one run at a time.
It prints the metrics, the claim failure fraction and the tracing
overhead, then checks the layer separation the workloads are chosen for
and that traced and untraced runs certify byte-identical output.  With
``--out`` it also writes every result as JSON (the committed baseline
is made this way).  Exits 1 if a check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
    )
    detail_line, result_line = out.stdout.splitlines()[-2:]
    return {"detail": json.loads(detail_line)["detail"], "result": json.loads(result_line)}


# per workload: call prefixes it must (True) or must not (False) reach, and
# whether its counts fork workers (see README.md)
EXPECT = {
    "serial": ({"wefsym.": True, "minweight.min_weight.": False}, False),
    "forked": ({"wefsym.": False, "minweight.min_weight.": True}, True),
}


def separation_checks(runs: dict) -> list[tuple[bool, str]]:
    """The layer separation the workloads are built for, and correctness."""
    out = []
    for wl, rs in runs.items():
        for r in rs:
            m = r["traced"]["result"]["metrics"]
            tag = f"{wl} seed {r['seed']}"
            if wl in EXPECT:
                reach, forks = EXPECT[wl]
                for prefix, wanted in reach.items():
                    calls = sum(
                        v["value"]
                        for k, v in m.items()
                        if k.startswith(prefix) and k.endswith(".calls")
                    )
                    out.append((bool(calls) == wanted, f"{tag}: {prefix}* calls = {calls}"))
                neighbors = m["constructions.neighbor.calls"]["value"]
                out.append((neighbors > 0,
                            f"{tag}: constructions.neighbor.calls = {neighbors}"))
                child = m["minweight.count_words_upto.child_cpu_s"]["value"]
                ok = child > 0 if forks else child == 0
                out.append((ok, f"{tag}: count_words_upto.child_cpu_s = {child}"))
            self_names = [k for k in m if k.endswith(".self_s")]
            top = max(self_names, key=lambda k: m[k]["value"])
            out.append((top == "minweight.count_words_upto.self_s",
                        f"{tag}: largest self time is {top}"))
            same = (r["plain"]["detail"]["output_sha256"]
                    == r["traced"]["detail"]["output_sha256"])
            out.append((same, f"{tag}: traced output equals untraced"))
            for mode in ("plain", "traced"):
                res = r[mode]["result"]
                out.append((res["correct"] and res["failed"] == 0,
                            f"{tag} {mode}: every claim certified"))
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs="+", type=int, default=[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    runs: dict[str, list[dict]] = {}
    for wl in [w["name"] for w in bench["workloads"]]:
        for seed in args.seeds:
            plain = run(wl, seed, seconds, 0)
            traced = run(wl, seed, seconds, 1)
            runs.setdefault(wl, []).append({"seed": seed, "plain": plain, "traced": traced})
            d = plain["detail"]
            print(f"\n== {wl} seed {seed} ({d['seed_effect']}; "
                  f"{d['passes']} passes) ==")
            for name, m in plain["result"]["metrics"].items():
                print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
            child_rss = traced["result"]["metrics"]["bench.child_rss_mb"]["value"]
            print(f"  {'child_rss_mb (traced run)':48s} {child_rss:14.6g} MB")
            print(f"  {'claim_fail_frac':48s} {d['claim_fail_frac']:14.6g} ratio")
            print(f"  cert_s tail: {d['cert_s']['tail'] or 'under 21 passes, none'}")
            for name, m in traced["result"]["metrics"].items():
                v = m["value"]
                shown = "not measured" if v is None else f"{v:14.6g}"
                print(f"  {name:48s} {shown:>14s} {m['unit']}")

    print()
    checks = separation_checks(runs)
    for ok, what in checks:
        print(("ok   " if ok else "FAIL ") + what)
    if args.out:
        args.out.write_text(json.dumps(
            {"seconds": seconds, "runs": runs}, indent=1) + "\n")
    return 0 if all(ok for ok, _ in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
