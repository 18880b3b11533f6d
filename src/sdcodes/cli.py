"""Command-line front end: build codes, verify properties, emit enumerator
families, and regenerate the recorded tables as pass/fail reports.

Exit status: 0 when every certified claim passed, 1 on any mismatch,
2 on usage or input errors.  All commands are deterministic; there is no
randomness anywhere.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from . import reference as ref
from .constructions import (
    CirculantSpec,
    bordered_double_circulant,
    build_b80,
    build_c82,
    neighbor,
    neighbor_parameters,
    table1,
    tsai_extend,
)
from .gf2core import (
    BitVector,
    LinearCode,
    ParityClass,
    ParseError,
    dual,
    load_code,
    parity_class,
    save_code,
    shadow,
)
from .minweight import (
    SearchBudget,
    coset_min_weight,
    count_coset_upto,
    count_words_upto,
    min_weight,
)
from .wefsym import (
    FAMILY_LENGTHS,
    Family,
    InconsistentConstraints,
    InfeasibleCase,
    LinearForm,
    SHADOW_CASES,
    c1_basis,
    derive_parity,
    family_congruences,
    family_for,
    family_to_json,
    feasible_range,
    gleason_expand,
    shadow_transform,
    w1_family,
)

USAGE_ERROR = 2


@dataclass
class Report:
    """Everything one command produced, JSON-ready and deterministic.

    The timing field is informational and excluded from the determinism
    contract; every other field is identical across identical runs.
    """

    command: str
    inputs: dict[str, Any] = field(default_factory=dict)
    results: dict[str, Any] = field(default_factory=dict)
    claims: list[dict[str, Any]] = field(default_factory=list)
    budget: dict[str, Any] | None = None
    lines: list[str] = field(default_factory=list)
    started: float = field(default_factory=time.monotonic)

    def say(self, text: str = ""):
        self.lines.append(text)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.claims.append({"name": name, "ok": bool(ok), "detail": detail})
        mark = "PASS" if ok else "FAIL"
        self.say(f"[{mark}] {name}" + (f": {detail}" if detail else ""))
        return ok

    @property
    def ok(self) -> bool:
        return all(c["ok"] for c in self.claims)

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def to_json(self) -> dict[str, Any]:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "claims": self.claims,
            "ok": self.ok,
            "budget": self.budget,
            "timing": {"seconds": round(time.monotonic() - self.started, 3)},
        }

    def emit(self, as_json: bool) -> int:
        if as_json:
            print(json.dumps(self.to_json(), indent=2))
        else:
            for line in self.lines:
                print(line)
        return self.exit_code


def _budget_of(report: Report, args) -> SearchBudget | None:
    """The ``--minweight-budget`` search budget, recorded on the report."""
    limit = args.minweight_budget
    if limit is None:
        return None
    report.budget = {"max_enumerated": limit}
    return SearchBudget(max_enumerated=limit)


def _record_weight(report: Report, label: str, value) -> None:
    """Stores an exact weight or a (lo, hi) bound pair under one label."""
    if isinstance(value, tuple):
        lo, hi = value
        report.results[label] = {"lower": lo, "upper": hi}
        report.say(f"{label}: between {lo} and {hi} (budget exhausted)")
    else:
        report.results[label] = value
        report.say(f"{label}: {value}")


def _load(path: str) -> LinearCode:
    try:
        return load_code(path)
    except (OSError, ParseError) as exc:
        raise SystemExit(f"error: {path}: {exc}")


def _parse_vector(args, length: int) -> BitVector:
    if args.support:
        try:
            coords = [int(tok) for tok in args.support.split(",")]
        except ValueError:
            raise SystemExit(f"error: bad support list {args.support!r}")
        if not all(1 <= c <= length for c in coords):
            raise SystemExit(f"error: support coordinates must lie in 1..{length}")
        return BitVector.from_support(length, coords)
    bits = args.x
    if len(bits) != length or set(bits) - {"0", "1"}:
        raise SystemExit(
            f"error: x must be a {length}-character string of 0s and 1s"
        )
    return BitVector.from01(bits)


def _output_code(report: Report, code: LinearCode, out: str | None):
    report.results["n"] = code.length
    report.results["k"] = code.dimension
    report.results["generators"] = [r.to01() for r in code.generators]
    if out:
        save_code(code, out)
        report.say(f"wrote [{code.length},{code.dimension}] code to {out}")
    else:
        for r in code.generators:
            report.say(r.to01())


# -- code inspection --------------------------------------------------------


def cmd_code_check(args) -> int:
    report = Report(command="code check", inputs={"path": args.path})
    code = _load(args.path)
    budget = _budget_of(report, args)
    report.results["n"] = code.length
    report.results["k"] = code.dimension
    report.results["self_dual"] = code.is_self_dual
    report.results["self_orthogonal"] = code.is_self_orthogonal
    report.say(f"[{code.length},{code.dimension}] code from {args.path}")
    report.say(f"self-dual: {code.is_self_dual}")
    if code.is_self_dual:
        cls = parity_class(code)
        report.results["parity_class"] = cls.name
        report.say(f"parity class: {cls.name}")
    _record_weight(report, "d", min_weight(code, budget))
    if args.shadow:
        if not code.is_self_dual:
            raise SystemExit("error: --shadow requires a self-dual code")
        if parity_class(code) is ParityClass.DOUBLY_EVEN:
            report.results["shadow"] = "the code itself (doubly even)"
            report.say("shadow: the code itself (doubly even)")
        else:
            sh = shadow(code)
            ds = coset_min_weight(code, sh.rep, budget)
            _record_weight(report, "d_shadow", ds)
            upto = (ds if isinstance(ds, int) else ds[0]) + 8
            dist = count_coset_upto(code, sh.rep, min(upto, code.length), budget)
            counts = {
                w: dist.count(w)
                for w in range(dist.complete_upto + 1)
                if dist.count(w)
            }
            report.results["shadow_counts"] = counts
            report.results["shadow_counts_upto"] = dist.complete_upto
            report.say(
                f"shadow counts to weight {dist.complete_upto}: "
                + (
                    ", ".join(f"B_{w}={c}" for w, c in counts.items())
                    or "(all zero)"
                )
            )
    return report.emit(args.json)


def cmd_code_dual(args) -> int:
    report = Report(command="code dual", inputs={"path": args.path})
    code = _load(args.path)
    d = dual(code)
    report.results["self_dual_input"] = d == code
    _output_code(report, d, args.output)
    return report.emit(args.json)


def cmd_code_shadow(args) -> int:
    report = Report(command="code shadow", inputs={"path": args.path})
    code = _load(args.path)
    if not code.is_self_dual:
        raise SystemExit("error: shadow requires a self-dual code")
    if parity_class(code) is ParityClass.DOUBLY_EVEN:
        raise SystemExit(
            "error: this code is doubly even; its shadow is the code itself"
        )
    sh = shadow(code)
    report.results["rep"] = sh.rep.to01()
    report.results["c0_generators"] = [r.to01() for r in sh.c0.generators]
    _record_weight(report, "d_shadow", coset_min_weight(code, sh.rep))
    report.say(f"shadow = rep + C0 with rep {sh.rep.to01()}")
    return report.emit(args.json)


# -- enumerator families ----------------------------------------------------


def _render_family(
    report: Report, family: Family, congs: list[str], max_exponent: int | None
):
    shown = family.displayed(max_exponent)
    report.results["family"] = family_to_json(family, max_exponent)
    report.say(
        f"family n={family.n} case={family.case} d={family.d}"
        + (f" parameters: {', '.join(family.params)}" if family.params else "")
    )
    for label, poly in (("W_C", shown.wc), ("W_S", shown.ws)):
        report.say(f"{label}:")
        for e, form in poly.coefficients:
            report.say(f"  y^{e}: {form}")
    cons = feasible_range(family, max_exponent)
    report.results["constraints"] = [str(c) for c in cons]
    if cons:
        report.say("nonnegativity constraints:")
        for c in cons:
            report.say(f"  {c}")
    report.results["congruences"] = congs
    if congs:
        report.say("integrality congruences:")
        for c in congs:
            report.say(f"  {c}")


def cmd_wef_possible(args) -> int:
    case = args.shadow_case or "min5"
    report = Report(
        command="wef possible",
        inputs={"n": args.n, "dmin": args.dmin, "shadow_case": case},
    )
    n, dmin = args.n, args.dmin
    if n % 2 or n <= 0:
        raise SystemExit("error: n must be a positive even integer")
    if dmin % 2 or dmin <= 0:
        raise SystemExit("error: dmin must be a positive even integer")
    tabulated = n in FAMILY_LENGTHS
    if not tabulated and args.shadow_case is not None:
        raise SystemExit(
            f"error: no shadow cases tabulated for n={n}; "
            "omit --shadow-case to see the generic expansion"
        )
    try:
        if tabulated:
            family = family_for(n, dmin, case)
            congs = family_congruences(family).lines()
        else:
            g = gleason_expand(n, {0: 1} | {w: 0 for w in range(2, dmin, 2)})
    except (InfeasibleCase, InconsistentConstraints) as exc:
        report.results["infeasible"] = str(exc)
        report.say(f"no such enumerator family: {exc}")
        return report.emit(args.json)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    if tabulated:
        _render_family(report, family, congs, args.max_exponent)
        return report.emit(args.json)
    cut = args.max_exponent if args.max_exponent is not None else dmin + 16
    wc = g.to_enumerator()
    ws = shadow_transform(g)
    report.results["free_params"] = list(g.free_params)
    report.say(
        f"generic expansion for n={n}, d >= {dmin}; free coefficients: "
        + (", ".join(g.free_params) or "(none)")
    )
    for label, poly in (("W_C", wc), ("W_S", ws)):
        terms = poly.truncate(cut).coefficients
        report.results[label] = [{"deg": e, "form": str(f)} for e, f in terms]
        report.say(f"{label} (to y^{cut}):")
        for e, form in terms:
            report.say(f"  y^{e}: {form}")
    return report.emit(args.json)


# -- constructions ----------------------------------------------------------


def cmd_construct_circulant(args) -> int:
    report = Report(
        command="construct circulant", inputs={"first_row": args.first_row}
    )
    if set(args.first_row) - {"0", "1"} or not args.first_row:
        raise SystemExit("error: first row must be a nonempty string of 0s and 1s")
    spec = CirculantSpec(
        first_row=BitVector.from01(args.first_row), border=not args.no_border
    )
    try:
        code = bordered_double_circulant(spec)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    report.results["parity_class"] = parity_class(code).name
    report.say(f"parity class: {parity_class(code).name}")
    _output_code(report, code, args.output)
    return report.emit(args.json)


def cmd_construct_tsai(args) -> int:
    report = Report(command="construct tsai", inputs={"path": args.path})
    base = _load(args.path)
    x = _parse_vector(args, base.length)
    report.inputs["x"] = x.to01()
    try:
        code = tsai_extend(base, x)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    report.results["parity_class"] = parity_class(code).name
    report.say(f"parity class: {parity_class(code).name}")
    _output_code(report, code, args.output)
    return report.emit(args.json)


def cmd_construct_neighbor(args) -> int:
    report = Report(command="construct neighbor", inputs={"path": args.path})
    base = _load(args.path)
    x = _parse_vector(args, base.length)
    report.inputs["x"] = x.to01()
    try:
        code = neighbor(base, x)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    _output_code(report, code, args.output)
    return report.emit(args.json)


# -- reproduction -----------------------------------------------------------


def cmd_reproduce_c82(args) -> int:
    report = Report(command="reproduce c82")
    base = build_b80()
    report.check("base code is self-dual", base.is_self_dual)
    report.check(
        "base code is doubly even",
        parity_class(base) is ParityClass.DOUBLY_EVEN,
    )
    d80 = min_weight(base)
    report.check(
        f"base code minimum weight {ref.B80_MIN_WEIGHT}",
        d80 == ref.B80_MIN_WEIGHT,
        f"computed {d80}",
    )
    code = build_c82()
    report.check("extension is self-dual", code.is_self_dual)
    report.check(
        "extension is singly even",
        parity_class(code) is ParityClass.SINGLY_EVEN,
    )
    dist = count_words_upto(code, 14)
    d = dist.minimum()
    report.check(
        f"minimum weight {ref.C82_MIN_WEIGHT}", d == ref.C82_MIN_WEIGHT,
        f"computed {d}",
    )
    a14 = dist.count(14)
    report.check(f"A_14 = {ref.C82_A14}", a14 == ref.C82_A14, f"computed {a14}")
    sh = shadow(code)
    ds = coset_min_weight(code, sh.rep)
    report.check(
        f"shadow minimum weight {ref.C82_SHADOW_MIN}",
        ds == ref.C82_SHADOW_MIN,
        f"computed {ds}",
    )
    sdist = count_coset_upto(code, sh.rep, 13)
    b13 = sdist.count(13)
    report.check(f"B_13 = {ref.C82_B13}", b13 == ref.C82_B13, f"computed {b13}")
    report.results["d"] = d
    report.results["A_14"] = a14
    report.results["d_shadow"] = ds
    report.results["B_13"] = b13
    return report.emit(args.json)


def _table1_selection(args) -> list[int]:
    rows = 50
    if args.all:
        return list(range(1, rows + 1))
    # deterministic spot set: the recorded row with the B_5 = 1 enumerator
    # first, then spread over both halves of the table
    preferred = [1, 23, 50]
    preferred += [i for i in range(2, rows + 1) if i not in preferred]
    n = max(1, min(args.sample, rows))
    return sorted(preferred[:n])


def cmd_reproduce_table1(args) -> int:
    report = Report(command="reproduce table1")
    selection = _table1_selection(args)
    report.inputs["selection"] = selection
    budget = _budget_of(report, args)
    base = build_c82()
    specs = {s.index: s for s in table1()}
    rows = []
    for idx in selection:
        spec = specs[idx]
        code = spec.build(base)
        row: dict[str, Any] = {"index": idx}
        report.check(f"N_{idx}: self-dual", code.is_self_dual)
        dist = count_words_upto(code, 16, budget)
        if dist.complete_upto < 16:
            report.check(
                f"N_{idx}: counts certified to weight 16",
                False,
                f"budget exhausted at weight {dist.complete_upto}",
            )
            rows.append(row)
            continue
        low = {w: dist.count(w) for w in range(2, 14, 2)}
        report.check(
            f"N_{idx}: minimum weight 14",
            all(c == 0 for c in low.values()) and dist.count(14) > 0,
            f"A_14 = {dist.count(14)}",
        )
        a14, a16 = dist.count(14), dist.count(16)
        row["A_14"], row["A_16"] = a14, a16
        try:
            alpha, beta = neighbor_parameters(a14, a16)
            row["alpha"], row["beta"] = alpha, beta
            report.check(
                f"N_{idx}: (alpha, beta) = ({spec.alpha}, {spec.beta})",
                (alpha, beta) == (spec.alpha, spec.beta),
                f"recovered ({alpha}, {beta})",
            )
        except ValueError as exc:
            report.check(f"N_{idx}: parameter recovery", False, str(exc))
        sh = shadow(code)
        sdist = count_coset_upto(code, sh.rep, 5, budget)
        if sdist.complete_upto >= 5:
            got = "W1" if sdist.count(1) else ("W2" if sdist.count(5) else "W3")
            row["family"] = got
            report.check(
                f"N_{idx}: enumerator family {spec.family}",
                got == spec.family,
                f"shadow counts give {got}",
            )
        rows.append(row)
    report.results["neighbors"] = rows
    report.say(f"checked {len(selection)} of 50 recorded neighbors")
    return report.emit(args.json)


def _diff_prefix(report: Report, name: str, poly, prefix) -> None:
    problems = ref.check_prefix(poly, prefix)
    report.check(
        f"{name} printed coefficients",
        not problems,
        "; ".join(problems) if problems else f"{len(prefix)} checked",
    )


def cmd_reproduce_families(args) -> int:
    report = Report(command="reproduce families")
    g = gleason_expand(82, {0: 1} | {w: 0 for w in range(2, 14, 2)})
    head = tuple(
        f.constant if f.is_constant else None for f in g.a[: len(ref.GLEASON_A82)]
    )
    report.check(
        "expansion coefficients a_0..a_6",
        head == tuple(map(Fraction, ref.GLEASON_A82)),
        f"computed {tuple(int(c) if c is not None else None for c in head)}",
    )
    for fid, (n, dmin, case, pc, ps) in sorted(ref.FAMILIES.items()):
        fam = family_for(n, dmin, case)
        _diff_prefix(report, f"{fid} W_C", fam.wc, pc)
        _diff_prefix(report, f"{fid} W_S", fam.ws, ps)
    for k in sorted(ref.C1_DISPLAY):
        _diff_prefix(report, f"difference basis k={k}", c1_basis(k), ref.C1_DISPLAY[k])
    for k in sorted(ref.W1_DISPLAY):
        _diff_prefix(report, f"half-coset family k={k}", w1_family(k), ref.W1_DISPLAY[k])
    for k, name in sorted(ref.PARITY_PARAM.items()):
        report.check(
            f"parity congruence k={k}",
            derive_parity(k).relations == ((LinearForm.var(name), 2),),
            f"{name} even",
        )
    fam = family_for(82, 14, ref.DGH_CASE)
    ws = fam.ws.substitute({k: Fraction(v) for k, v in ref.DGH_POINT.items()})
    corrected = all(
        ws.coeff(e) == LinearForm.make(c) for e, c in ref.DGH_SHADOW_PREFIX.items()
    )
    report.check(
        "corrected shadow enumerator at (alpha, beta) = (0, -656)",
        corrected,
        " + ".join(f"{c}y^{e}" for e, c in sorted(ref.DGH_SHADOW_PREFIX.items())),
    )
    return report.emit(args.json)


# -- argument parsing -------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdcodes",
        description="construct, verify and enumerate self-dual binary codes "
        "and their shadows",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_json(p):
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        return p

    code = sub.add_parser("code", help="inspect a code file").add_subparsers(
        dest="subcommand", required=True
    )
    p = with_json(code.add_parser("check", help="verify self-duality and weights"))
    p.add_argument("path")
    p.add_argument("--shadow", action="store_true", help="also analyze the shadow")
    p.add_argument(
        "--minweight-budget",
        type=int,
        metavar="N",
        help="enumerate at most N codewords; results may become bounds",
    )
    p.set_defaults(func=cmd_code_check)
    p = with_json(code.add_parser("dual", help="compute the dual code"))
    p.add_argument("path")
    p.add_argument("-o", "--output", help="write the dual to this file")
    p.set_defaults(func=cmd_code_dual)
    p = with_json(code.add_parser("shadow", help="compute the shadow coset"))
    p.add_argument("path")
    p.set_defaults(func=cmd_code_shadow)

    wef = sub.add_parser("wef", help="weight enumerator families").add_subparsers(
        dest="subcommand", required=True
    )
    p = with_json(
        wef.add_parser("possible", help="possible W_C/W_S for given n, dmin")
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dmin", type=int, required=True)
    p.add_argument(
        "--shadow-case",
        choices=SHADOW_CASES,
        help="shadow minimum-weight case at a tabulated n (default min5)",
    )
    p.add_argument(
        "--max-exponent",
        type=int,
        metavar="E",
        help="truncate displayed coefficients at y^E",
    )
    p.set_defaults(func=cmd_wef_possible)

    cons = sub.add_parser("construct", help="build codes").add_subparsers(
        dest="subcommand", required=True
    )
    p = with_json(cons.add_parser("circulant", help="bordered double circulant"))
    p.add_argument("--first-row", required=True, metavar="BITS")
    p.add_argument("--no-border", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_construct_circulant)

    def vector_args(p):
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--support", metavar="I,J,...", help="1-indexed coordinates")
        g.add_argument("--x", metavar="BITS", help="explicit 0/1 vector")
        p.add_argument("-o", "--output")
        return p

    p = vector_args(
        with_json(cons.add_parser("tsai", help="two-coordinate odd-vector extension"))
    )
    p.add_argument("path")
    p.set_defaults(func=cmd_construct_tsai)
    p = vector_args(with_json(cons.add_parser("neighbor", help="self-dual neighbor")))
    p.add_argument("path")
    p.set_defaults(func=cmd_construct_neighbor)

    rep = sub.add_parser(
        "reproduce", help="regenerate recorded results"
    ).add_subparsers(dest="subcommand", required=True)
    p = with_json(rep.add_parser("c82", help="certify the [82,41,14] construction"))
    p.set_defaults(func=cmd_reproduce_c82)
    p = with_json(rep.add_parser("table1", help="recheck recorded neighbors"))
    p.add_argument(
        "--sample", type=int, default=5, metavar="N", help="check N neighbors"
    )
    p.add_argument("--all", action="store_true", help="check all 50 neighbors")
    p.add_argument("--minweight-budget", type=int, metavar="N")
    p.set_defaults(func=cmd_reproduce_table1)
    p = with_json(rep.add_parser("families", help="recheck enumerator displays"))
    p.set_defaults(func=cmd_reproduce_families)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return USAGE_ERROR
        raise


if __name__ == "__main__":
    sys.exit(main())
