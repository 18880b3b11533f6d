"""Span tracing of sdcodes' public functions, installed from outside ``src/``.

A ``Tracer`` replaces each traced function with a wrapper in every
``sdcodes`` namespace that holds it (``cli`` and ``constructions`` import
names directly, so patching the defining module alone would miss their
calls).  Each call records a span: name, start, end, parent span and the
pass it belongs to.  Spans stay in memory until the run writes them out.

A span's self time is its duration minus the durations of the child
spans it encloses.  The root span of a pass is ``bench.pass``, so the
self times of one pass sum to the pass's traced wall time.  Building a
run's inputs is traced the same way, under the root ``bench.setup`` with
the pass id ``setup``.
"""

from __future__ import annotations

import contextlib
import importlib
import multiprocessing
import resource
import sys
import time
from dataclasses import dataclass, field

# (module, attribute path, extra fields recorded per call)
TARGETS = (
    ("gf2core", "LinearCode.from_rows", ()),
    ("gf2core", "dual", ()),
    ("gf2core", "doubly_even_subcode", ()),
    ("gf2core", "shadow", ()),
    ("constructions", "bordered_double_circulant", ()),
    ("constructions", "tsai_extend", ()),
    ("constructions", "build_b80", ()),
    ("constructions", "build_c82", ()),
    ("constructions", "neighbor", ()),
    ("minweight", "min_weight", ("rss",)),
    ("minweight", "coset_min_weight", ("rss",)),
    ("minweight", "count_words_upto", ("rss", "count")),
    ("minweight", "count_coset_upto", ("rss", "count")),
    ("wefsym", "gleason_expand", ("coeffs",)),
    ("wefsym", "shadow_transform", ("coeffs",)),
    ("wefsym", "apply_shadow_case", ("coeffs",)),
    ("wefsym", "family_for", ("coeffs",)),
    ("wefsym", "c1_basis", ("coeffs",)),
    ("wefsym", "w1_family", ("coeffs",)),
    ("wefsym", "derive_parity", ("coeffs",)),
    ("reference", "check_prefix", ()),
    ("cli", "cmd_reproduce_c82", ()),
    ("cli", "cmd_reproduce_families", ()),
)

ROOT = "bench.pass"
SETUP_ROOT = "bench.setup"
SETUP_PASS = "setup"

_EXTRA_FIELDS = {
    "rss": ("rss_rise_mb",),
    "count": ("words", "cpu_s", "child_cpu_s", "wait_s"),
    "coeffs": ("coeffs",),
}


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr}"


def layer_metric_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-span metric, in TARGETS order."""
    units = {
        "calls": "count",
        "self_s": "s",
        "rss_rise_mb": "MB",
        "words": "count",
        "cpu_s": "s",
        "child_cpu_s": "s",
        "wait_s": "s",
        "coeffs": "count",
    }
    out = []
    for module, attr, extras in TARGETS:
        fields = ["calls", "self_s"]
        for kind in extras:
            fields += _EXTRA_FIELDS[kind]
        out += [(f"{span_name(module, attr)}.{f}", units[f]) for f in fields]
    out.append((f"{ROOT}.self_s", "s"))
    return out


def _cpu(who: int) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def maxrss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def _coeff_count(value) -> int:
    """Number of coefficient forms in a wefsym return value."""
    from sdcodes import wefsym

    if isinstance(value, wefsym.CongruenceSystem):
        return len(value.relations)
    if isinstance(value, wefsym.Family):
        return len(value.wc.coefficients) + len(value.ws.coefficients)
    if isinstance(value, wefsym.ParamPoly):
        return len(value.coefficients)
    return len(value.a)  # GleasonCoeffs


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    pass_id: int | str
    start: float
    end: float = 0.0
    child_s: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return (self.end - self.start) - self.child_s

    def to_json(self) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "parent": self.parent,
            "pass": self.pass_id,
            "start": self.start,
            "end": self.end,
            "self_s": self.self_s,
            **self.extra,
        }


class Tracer:
    """Records spans around the TARGETS while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._pass_id: int | str = 0

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            sid=len(self.spans),
            name=name,
            parent=parent.sid if parent else None,
            pass_id=self._pass_id,
            start=time.perf_counter(),
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if self._stack:
            self._stack[-1].child_s += span.end - span.start

    @contextlib.contextmanager
    def pass_span(self, pass_id: int | str, name: str = ROOT):
        """Root span of one pass; every span opened inside shares pass_id."""
        self._pass_id = pass_id
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name: str, fn, extras: tuple[str, ...]):
        def traced(*args, **kwargs):
            span = self._open(name)
            if "rss" in extras:
                rss0 = maxrss_mb(resource.RUSAGE_SELF)
            if "count" in extras:
                cpu0 = _cpu(resource.RUSAGE_SELF)
                child0 = _cpu(resource.RUSAGE_CHILDREN)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if "rss" in extras:
                span.extra["rss_rise_mb"] = maxrss_mb(resource.RUSAGE_SELF) - rss0
            if "count" in extras:
                cpu = _cpu(resource.RUSAGE_SELF) - cpu0
                span.extra["words"] = sum(result.counts.values())
                span.extra["cpu_s"] = cpu
                span.extra["wait_s"] = (span.end - span.start) - cpu
                # RUSAGE_CHILDREN only covers reaped workers: a worker still
                # alive here would make the delta unattributable.
                reaped = not multiprocessing.active_children()
                span.extra["child_cpu_s"] = (
                    _cpu(resource.RUSAGE_CHILDREN) - child0 if reaped else None
                )
            if "coeffs" in extras:
                span.extra["coeffs"] = _coeff_count(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Installs every wrapper for the duration of the block."""
        restore = []
        try:
            for module, attr, extras in TARGETS:
                mod = importlib.import_module(f"sdcodes.{module}")
                name = span_name(module, attr)
                if "." in attr:  # a classmethod, e.g. LinearCode.from_rows
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    wrapped = classmethod(self._wrap(name, orig.__func__, extras))
                    setattr(cls, meth, wrapped)
                    restore.append((cls, meth, orig))
                    continue
                orig = getattr(mod, attr)
                wrapped = self._wrap(name, orig, extras)
                for holder in _sdcodes_modules():
                    for key, value in list(vars(holder).items()):
                        if value is orig:
                            setattr(holder, key, wrapped)
                            restore.append((holder, key, orig))
            yield self
        finally:
            for holder, key, orig in reversed(restore):
                setattr(holder, key, orig)


def _sdcodes_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "sdcodes" or name.startswith("sdcodes."))
    ]


def pass_totals(spans: list[Span], pass_id: int | str) -> dict[str, float | None]:
    """Per-metric totals of one pass: calls, self time and extra fields."""
    out: dict[str, float | None] = {}
    for span in spans:
        if span.pass_id != pass_id:
            continue
        calls = f"{span.name}.calls"
        out[calls] = out.get(calls, 0) + 1
        for key, value in [("self_s", span.self_s), *span.extra.items()]:
            metric = f"{span.name}.{key}"
            if value is None or (metric in out and out[metric] is None):
                out[metric] = None
            else:
                out[metric] = out.get(metric, 0) + value
    return out
