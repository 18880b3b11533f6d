"""Harness self-test on a small code; runs in a few seconds.

    python3 perfbench/selftest.py

Runs the ``tiny`` workload (the [24,12,8] Golay code and its [26,13]
extension) through ``run.py`` with tracing off and on, then checks that
spans nest, that the self times of each traced pass sum to its wall time
within the tracing overhead, that worker CPU is attributed only to the
forked count, and that every metric printed is named in BENCHMARK.json
with the same unit.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# parent span expected for a span, where the tiny pass makes one call
NESTING = {
    "gf2core.doubly_even_subcode": "gf2core.shadow",
    "gf2core.dual": "gf2core.shadow",
    "wefsym.family_for": "wefsym.w1_family",
    "wefsym.gleason_expand": "wefsym.family_for",
    "wefsym.apply_shadow_case": "wefsym.family_for",
    "wefsym.shadow_transform": "wefsym.apply_shadow_case",
    "constructions.bordered_double_circulant": "bench.setup",
    "constructions.neighbor": "bench.setup",
    "constructions.tsai_extend": "bench.pass",
}
ROOTS = ("bench.pass", "bench.setup")

failures: list[str] = []


def check(ok: bool, what: str):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "tiny",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    detail_line, result_line = out.stdout.splitlines()[-2:]
    return json.loads(detail_line)["detail"], json.loads(result_line)


def check_names(result: dict, declared: list[dict], kind: str):
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in declared}
    check(printed == wanted, f"{kind} metric names and units match BENCHMARK.json")
    for name in sorted(set(printed) ^ set(wanted)):
        print(f"     differs: {name}")


def check_spans(detail: dict, result: dict):
    spans = json.loads((ROOT / detail["spans_file"]).read_text())["spans"]
    by_id = {s["id"]: s for s in spans}
    nested = all(
        s["parent"] is None
        if s["name"] in ROOTS
        else (
            (p := by_id[s["parent"]])["pass"] == s["pass"]
            and p["start"] <= s["start"] <= s["end"] <= p["end"]
        )
        for s in spans
    )
    roots = [s["pass"] for s in spans if s["parent"] is None]
    check(
        nested and len(roots) == len(set(roots)) and roots[0] == "setup",
        f"{len(spans)} spans nest inside their parents, one root for the "
        f"set-up and one per pass",
    )
    parents = {
        s["name"]: by_id[s["parent"]]["name"] for s in spans if s["parent"] is not None
    }
    check(
        all(parents.get(child) == parent for child, parent in NESTING.items()),
        "spans record the calls that caused them",
    )
    self_sum = defaultdict(float)
    for s in spans:
        self_sum[s["pass"]] += s["self_s"]
    overhead = max(result["metrics"]["bench.trace_overhead_s"]["value"], 0.002)
    walls = dict(enumerate(detail["traced_wall_s"]), setup=detail["traced_setup_s"])
    gaps = [abs(w - self_sum[i]) for i, w in walls.items()]
    check(
        len(gaps) == len(self_sum) and max(gaps) <= overhead,
        f"self times sum to the set-up's and each traced pass's wall time "
        f"(largest gap {max(gaps) * 1e3:.3f} ms, overhead {overhead * 1e3:.3f} ms)",
    )


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    plain_detail, plain = run(0)
    traced_detail, traced = run(1)
    for name, res in (("untraced", plain), ("traced", traced)):
        check(
            res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
            f"{name} run certifies every claim",
        )
    check(
        plain_detail["output_sha256"] == traced_detail["output_sha256"],
        "traced and untraced runs certify byte-identical output",
    )
    check_names(plain, declared["end_to_end"], "end-to-end")
    check_names(traced, declared["per_layer"], "per-layer")
    check_spans(traced_detail, traced)
    m = traced["metrics"]
    check(
        m["minweight.count_words_upto.child_cpu_s"]["value"] > 0
        and m["minweight.count_coset_upto.child_cpu_s"]["value"] == 0,
        "worker CPU is attributed to the forked count only",
    )
    check(
        m["minweight.count_words_upto.words"]["value"] == 2 * (1 + 759 + 2576),
        "count_words_upto.words sums the certified counts",
    )
    check(
        m["constructions.neighbor.calls"]["value"] == 1,
        "the set-up's neighbour construction is traced",
    )
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
