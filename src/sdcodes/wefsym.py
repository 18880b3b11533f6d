"""Exact symbolic weight-enumerator algebra for self-dual binary codes.

Everything here is exact rational arithmetic (stdlib fractions); there is
no floating point in this module.  The pipeline is:

  1. ``gleason_expand`` writes the weight enumerator of a length-n
     self-dual code in the invariant basis
     (1+y^2)^(n/2-4j) (y^2(1-y^2)^2)^j with coefficients a_j, solving for
     as many a_j as the supplied low-order coefficients determine.
  2. ``shadow_transform`` rewrites the shadow enumerator in the same a_j
     via (-1)^j a_j 2^(n/2-6j) y^(n/2-4j) (1-y^4)^(2j).
  3. ``apply_shadow_case`` pins the a_j forced by a shadow minimum-weight
     assumption and writes each surviving a_j as 2^max(0, 6j - n/2) times
     a conventional letter (a{j} itself once the letters run out), yielding
     the parameterized families for n = 58, 82, 106, 130.
  4. ``c1_basis`` / ``w1_family`` / ``family_congruences`` express the
     enumerator of one shadow half-coset of a family and extract the
     congruences its integrality forces; ``derive_parity`` applies this to
     the tabulated d = 4k + 2 families (gamma, c, d, e even).

Polynomials are sparse maps exponent -> coefficient: plain dicts
internally, and ParamPoly, whose coefficients are affine-linear forms in
named parameters, for every family the module returns.  The internal
bases are seeded with Python ints, so their coefficients stay ints
except for the powers 2^(n/2-6j) < 1 of the shadow basis.  Every sum of
forms goes through one routine, ``_sum_forms``, which accumulates the
constant and the per-parameter coefficients and builds the form once.
Float inputs are refused with a TypeError.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import cache
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

from .gf2core import eliminate

Rational = Union[int, Fraction]


class InconsistentConstraints(ValueError):
    """A linear constraint system admits no solution."""


class InfeasibleCase(ValueError):
    """A shadow case forces a negative coefficient."""


_NAME_RE = re.compile(r"^([A-Za-z]+)(\d*)$")


@cache
def _name_key(name: str) -> tuple[str, int]:
    m = _NAME_RE.match(name)
    if not m:
        raise ValueError(f"invalid parameter name {name!r}")
    return (m.group(1), int(m.group(2)) if m.group(2) else -1)


def _exact(value: Rational) -> Fraction:
    """``value`` as a Fraction; a float is refused, being inexact."""
    if isinstance(value, float):
        raise TypeError(
            f"{value!r} is a float; exact algebra takes ints and Fractions"
        )
    return Fraction(value)


@dataclass(frozen=True)
class LinearForm:
    """An affine-linear combination of named parameters, exact rationals.

    ``terms`` is kept sorted by parameter name with zero coefficients
    pruned, so equal forms compare and hash equal.
    """

    constant: Fraction
    terms: tuple[tuple[str, Fraction], ...]

    @classmethod
    def make(
        cls, constant: Rational = 0, terms: Mapping[str, Rational] | None = None
    ) -> "LinearForm":
        clean = {}
        for name, c in (terms or {}).items():
            q = c if isinstance(c, Fraction) else _exact(c)
            if q:
                clean[name] = q
        ordered = tuple(
            (name, clean[name]) for name in sorted(clean, key=_name_key)
        )
        if not isinstance(constant, Fraction):
            constant = _exact(constant)
        return cls(constant, ordered)

    @classmethod
    def var(cls, name: str) -> "LinearForm":
        return cls.make(0, {name: 1})

    @classmethod
    def of(cls, value: "LinearForm | Rational") -> "LinearForm":
        if isinstance(value, LinearForm):
            return value
        return cls.make(value)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.terms)

    def coeff(self, name: str) -> Fraction:
        for n, c in self.terms:
            if n == name:
                return c
        return Fraction(0)

    @property
    def is_constant(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms) or bool(self.constant)

    def __add__(self, other: "LinearForm | Rational") -> "LinearForm":
        return _sum_forms(((self, 1), (LinearForm.of(other), 1)))

    def __sub__(self, other: "LinearForm | Rational") -> "LinearForm":
        return _sum_forms(((self, 1), (LinearForm.of(other), -1)))

    def __mul__(self, scalar: Rational) -> "LinearForm":
        q = _exact(scalar)
        return LinearForm.make(
            self.constant * q, {n: c * q for n, c in self.terms}
        )

    __rmul__ = __mul__

    def substitute(
        self, mapping: Mapping[str, "LinearForm | Rational"]
    ) -> "LinearForm":
        mapped = [(LinearForm.of(mapping[n]), c) for n, c in self.terms if n in mapping]
        if not mapped:
            return self
        kept = tuple((n, c) for n, c in self.terms if n not in mapping)
        return _sum_forms([(LinearForm(self.constant, kept), 1), *mapped])

    def evaluate(self, assignment: Mapping[str, Rational]) -> Fraction:
        total = self.constant
        for n, c in self.terms:
            if n not in assignment:
                raise ValueError(f"no value for parameter {n}")
            total += c * _exact(assignment[n])
        return total

    def __str__(self) -> str:
        parts = []
        if self.constant or not self.terms:
            parts.append(str(self.constant))
        for n, c in self.terms:
            if c == 1:
                term = n
            elif c == -1:
                term = f"-{n}"
            else:
                term = f"{c}*{n}"
            if parts and not term.startswith("-"):
                parts.append(f"+ {term}")
            elif parts:
                parts.append(f"- {term[1:]}")
            else:
                parts.append(term)
        return " ".join(parts)


_ZERO = LinearForm.make(0)


def _sum_forms(pairs: Iterable[tuple[LinearForm, Rational]]) -> LinearForm:
    """Sum(c * form) over (form, c) pairs, with one ``make`` at the end."""
    constant: Rational = 0
    acc: dict[str, Fraction] = {}
    for form, c in pairs:
        constant += form.constant * c
        for n, t in form.terms:
            acc[n] = acc[n] + t * c if n in acc else t * c
    return LinearForm.make(constant, acc)


# -- sparse polynomial helpers (plain dicts internally) ---------------------


def _pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return out


def _ppow(a: dict, exp: int) -> dict:
    out = {0: 1}
    base = dict(a)
    e = exp
    while e:
        if e & 1:
            out = _pmul(out, base)
        e >>= 1
        if e:
            base = _pmul(base, base)
    return out


@dataclass(frozen=True)
class ParamPoly:
    """A polynomial whose coefficients are LinearForm values.

    This is the representation of every W_C / W_S family.
    """

    coefficients: tuple[tuple[int, LinearForm], ...]

    @classmethod
    def from_dict(cls, d: Mapping[int, LinearForm]) -> "ParamPoly":
        clean = {int(e): f for e, f in d.items() if f}
        return cls(tuple(sorted(clean.items())))

    def as_dict(self) -> dict[int, LinearForm]:
        return dict(self.coefficients)

    def coeff(self, e: int) -> LinearForm:
        for ee, f in self.coefficients:
            if ee == e:
                return f
        return _ZERO

    @property
    def params(self) -> tuple[str, ...]:
        names = {n for _, f in self.coefficients for n in f.names}
        return tuple(sorted(names, key=_name_key))

    def exponents(self) -> tuple[int, ...]:
        return tuple(e for e, _ in self.coefficients)

    def substitute(self, mapping: Mapping[str, LinearForm | Rational]) -> "ParamPoly":
        return ParamPoly.from_dict(
            {e: f.substitute(mapping) for e, f in self.coefficients}
        )

    def truncate(self, max_exponent: int | None) -> "ParamPoly":
        """The terms up to y^max_exponent; None keeps every term."""
        if max_exponent is None:
            return self
        return ParamPoly(
            tuple((e, f) for e, f in self.coefficients if e <= max_exponent)
        )

    def eval_at(self, y: Rational) -> LinearForm:
        """Value at a numeric y, as a form in the remaining parameters."""
        q = _exact(y)
        return _sum_forms((f, q**e) for e, f in self.coefficients)

    def __add__(self, other: "ParamPoly") -> "ParamPoly":
        acc = {e: f for e, f in self.coefficients}
        for e, f in other.coefficients:
            acc[e] = acc.get(e, _ZERO) + f
        return ParamPoly.from_dict(acc)

    def scale(self, s: Rational) -> "ParamPoly":
        q = _exact(s)
        return ParamPoly.from_dict({e: f * q for e, f in self.coefficients})

    def __str__(self) -> str:
        if not self.coefficients:
            return "0"
        parts = []
        for e, f in self.coefficients:
            inner = str(f)
            if f.is_constant and "/" not in inner and not inner.startswith("-"):
                body = inner
            else:
                body = f"({inner})"
            parts.append(f"{body}*y^{e}" if e else body)
        return " + ".join(parts)


def _param_sum(pairs: Iterable[tuple[LinearForm, dict]]) -> dict[int, LinearForm]:
    """Accumulates Sum(form_i * poly_i) as exponent -> LinearForm."""
    acc: dict[int, list[tuple[LinearForm, Rational]]] = {}
    for form, poly in pairs:
        for e, c in poly.items():
            acc.setdefault(e, []).append((form, c))
    return {e: _sum_forms(terms) for e, terms in acc.items()}


# -- Gleason expansion and the shadow transform -----------------------------


@cache
def _gleason_basis(n: int) -> tuple[dict, ...]:
    one_y2 = {0: 1, 2: 1}
    # y^2 (1-y^2)^2 = y^2 - 2y^4 + y^6
    g2 = {2: 1, 4: -2, 6: 1}
    return tuple(
        _pmul(_ppow(one_y2, n // 2 - 4 * j), _ppow(g2, j))
        for j in range(n // 8 + 1)
    )


@cache
def _shadow_basis(n: int) -> tuple[dict, ...]:
    one_m_y4_sq = {0: 1, 4: -1}
    out = []
    for j in range(n // 8 + 1):
        m = n // 2 - 6 * j
        scale = (-1) ** j * (2**m if m >= 0 else Fraction(1, 2**-m))
        poly = _ppow(one_m_y4_sq, 2 * j)
        out.append({e + n // 2 - 4 * j: c * scale for e, c in poly.items()})
    return tuple(out)


@dataclass(frozen=True)
class GleasonCoeffs:
    """Coefficients a_0 .. a_(n//8) of the invariant-basis expansion.

    Entries are LinearForm values: solved coefficients are constants (or
    forms in foreign parameters), unsolved ones remain the free variables
    a0, a1, ...
    """

    n: int
    a: tuple[LinearForm, ...]

    @property
    def free_params(self) -> tuple[str, ...]:
        names = {nm for f in self.a for nm in f.names}
        return tuple(sorted(names, key=_name_key))

    def to_enumerator(self) -> ParamPoly:
        """Reconstructs W_C from the coefficients."""
        basis = _gleason_basis(self.n)
        return ParamPoly.from_dict(_param_sum(zip(self.a, basis)))


def _pin(
    mapping: dict[str, LinearForm],
    form: LinearForm,
    a_names: list[str],
    what: str,
):
    """Solves form == 0 for its highest free a_j and records it in mapping.

    Raises:
        InconsistentConstraints: no a_j is left and the form is nonzero.
    """
    free = [nm for nm in form.names if nm in a_names]
    if not free:
        if form:
            raise InconsistentConstraints(f"{what} forces {form} = 0")
        return
    pick = max(free, key=_name_key)
    c = form.coeff(pick)
    mapping[pick] = (form - LinearForm.make(0, {pick: c})) * (Fraction(-1) / c)


def gleason_expand(
    n: int, known_A: Mapping[int, LinearForm | Rational]
) -> GleasonCoeffs:
    """Expands a self-dual weight enumerator in the Gleason basis.

    ``known_A`` maps weights to their (possibly symbolic) coefficients and
    must contain A_0 = 1.  Constraints are consumed in weight order; the
    constraint at weight 2m determines a_m (the basis is triangular), and
    constraints beyond the last basis element become consistency checks.

    Raises:
        InconsistentConstraints: when a constraint cannot be satisfied;
            the message names the offending weight.
    """
    if n <= 0 or n % 2:
        raise ValueError("n must be a positive even integer")
    if 0 not in known_A or LinearForm.of(known_A[0]) != LinearForm.make(1):
        raise ValueError("known_A must include A_0 = 1")
    J = n // 8
    basis = _gleason_basis(n)
    a_names = [f"a{j}" for j in range(J + 1)]
    sym = _param_sum(
        (LinearForm.var(a_names[j]), basis[j]) for j in range(J + 1)
    )
    mapping: dict[str, LinearForm] = {}
    for w in sorted(known_A):
        target = LinearForm.of(known_A[w])
        form = sym.get(w, _ZERO).substitute(mapping) - target.substitute(mapping)
        _pin(mapping, form, a_names, f"coefficient of y^{w}")
    a = tuple(
        mapping.get(nm, LinearForm.var(nm)).substitute(mapping)
        for nm in a_names
    )
    return GleasonCoeffs(n=n, a=a)


def shadow_transform(g: GleasonCoeffs) -> ParamPoly:
    """The shadow enumerator W_S in terms of the same Gleason coefficients."""
    basis = _shadow_basis(g.n)
    return ParamPoly.from_dict(_param_sum(zip(g.a, basis)))


# -- shadow minimum-weight cases --------------------------------------------


@dataclass(frozen=True)
class Family:
    """A parameterized enumerator pair (W_C, W_S) for one shadow case.

    Iterating yields (wc, ws), so ``wc, ws = apply_shadow_case(...)``
    works; the extra fields carry the context the CLI and the feasibility
    reporting need.
    """

    n: int
    case: str
    d: int
    wc: ParamPoly
    ws: ParamPoly

    def __iter__(self) -> Iterator[ParamPoly]:
        return iter((self.wc, self.ws))

    @property
    def params(self) -> tuple[str, ...]:
        names = set(self.wc.params) | set(self.ws.params)
        return tuple(sorted(names, key=_name_key))

    def displayed(self, max_exponent: int | None = None) -> "Family":
        """The family cut at ``display_cutoffs(n, max_exponent)``."""
        wc_cut, ws_cut = display_cutoffs(self.n, max_exponent)
        return replace(self, wc=self.wc.truncate(wc_cut), ws=self.ws.truncate(ws_cut))


# constraints, in order: ("B", w, value) sets the shadow coefficient B_w
# to an integer, or names it when value is a string; ("ABmatch",) equates
# A_d with B_(d-1) at the inferred minimum weight d.  names: the parameters
# for the a_j still free afterwards, highest j first (see apply_shadow_case).
_CASES: dict[tuple[int, str], tuple[list, list[str]]] = {
    (82, "wt1"): ([("B", 1, 1), ("B", 5, 0), ("B", 9, 0), ("ABmatch",)], []),
    (82, "min5"): ([("B", 1, 0), ("B", 5, 1)], ["alpha", "beta"]),
    (82, "min9"): ([("B", 1, 0), ("B", 5, 0)], ["alpha", "beta"]),
    (82, "ge5"): ([("B", 1, 0), ("B", 5, "a")], ["b", "c"]),
    (58, "min5"): ([("B", 1, 0), ("B", 5, "beta"), ("B", 9, "gamma")], []),
    (106, "min5"): ([("B", 1, 0), ("B", 5, "a")], ["b", "c", "d"]),
    (130, "min5"): ([("B", 1, 0), ("B", 5, "a")], ["b", "c", "d", "e"]),
}
# the three-parameter n=82 family doubles as the d(S) >= 5 case there
_CASES[(58, "ge5")] = _CASES[(58, "min5")]
_CASES[(106, "ge5")] = _CASES[(106, "min5")]
_CASES[(130, "ge5")] = _CASES[(130, "min5")]

SHADOW_CASES = ("wt1", "min5", "min9", "ge5")
# the tabulated lengths n = 24k + 10, k = 2..5
FAMILY_LENGTHS = tuple(sorted({n for n, _ in _CASES}))

# degrees (W_C, W_S) of the displayed family prefixes
_CUTOFFS = {58: (12, 17), 82: (18, 21), 106: (24, 17), 130: (30, 21)}


def display_cutoffs(
    n: int, max_exponent: int | None = None
) -> tuple[int | None, int | None]:
    """Truncation degrees (W_C, W_S) of a displayed family of length n.

    ``max_exponent`` overrides both; otherwise the degrees of the recorded
    display prefixes, or None (untruncated) for a length without one.
    """
    if max_exponent is not None:
        return max_exponent, max_exponent
    return _CUTOFFS.get(n, (None, None))


def apply_shadow_case(g: GleasonCoeffs, case: str) -> Family:
    """Instantiates the enumerator family for a shadow minimum-weight case.

    Cases: for n = 82, "wt1" (d(S) = 1: the shadow's unique weight-1
    vector forces B_1 = 1, B_5 = B_9 = 0 and A_d = B_(d-1)), "min5"
    (d(S) = 5, so B_1 = 0 and B_5 = 1 by uniqueness), "min9" (B_1 = B_5
    = 0), and "ge5" (the three-parameter d(S) >= 5 family).  For n = 58,
    106, 130 the cases "min5"/"ge5" both give the d(S) >= 5 family with
    B_1 = 0; B_5 stays a free parameter at those lengths.

    Each constraint is solved for the highest a_j it involves.  Every a_j
    still free afterwards, highest j first, becomes 2^max(0, 6j - n/2) * p
    for the case's next parameter name p (alpha, beta for n = 82 cases
    2-3; b, c, ... for the uniform families), or p = a{j} once the names
    run out.  The scale is the inverse of the power of two in a_j's
    shadow-basis factor (-1)^j 2^(n/2-6j), so that p enters W_S with
    integral coefficients.

    Raises:
        ValueError: unsupported (n, case) combination.
        InconsistentConstraints: the constraints admit no solution.
        InfeasibleCase: a fully determined coefficient comes out negative.
    """
    key = (g.n, case)
    if key not in _CASES:
        raise ValueError(
            f"unsupported shadow case {case!r} for n={g.n}; "
            "supported: " + ", ".join(f"n={n}:{c}" for n, c in sorted(_CASES))
        )
    constraints, names = _CASES[key]
    a_names = [f"a{j}" for j in range(len(g.a))]
    sym_ws = shadow_transform(g).as_dict()
    sym_wc = g.to_enumerator().as_dict()
    mapping: dict[str, LinearForm] = {}

    def current(table: dict[int, LinearForm], w: int) -> LinearForm:
        return table.get(w, _ZERO).substitute(mapping)

    for con in constraints:
        if con[0] == "B":
            _, w, value = con
            named = isinstance(value, str)
            form = current(sym_ws, w) - (LinearForm.var(value) if named else value)
            what = f"{'naming ' if named else ''}B_{w} = {value}"
        else:
            d = _min_weight_of(sym_wc, mapping)
            form = current(sym_wc, d) - current(sym_ws, d - 1)
            what = f"A_{d} = B_{d - 1}"
        _pin(mapping, form, a_names, what)
    wc = ParamPoly.from_dict(sym_wc).substitute(mapping)
    ws = ParamPoly.from_dict(sym_ws).substitute(mapping)
    free = {*wc.params, *ws.params}
    names = iter(names)
    scaled = {
        nm: LinearForm.make(0, {next(names, nm): 2 ** max(0, 6 * j - g.n // 2)})
        for j, nm in reversed(list(enumerate(a_names)))
        if nm in free
    }
    wc, ws = wc.substitute(scaled), ws.substitute(scaled)
    for poly in (wc, ws):
        for e, f in poly.coefficients:
            if f.is_constant and f.constant < 0:
                raise InfeasibleCase(
                    f"coefficient of y^{e} is forced to {f.constant} < 0"
                )
    d = _min_weight_of(sym_wc, mapping)
    return Family(n=g.n, case=case, d=d, wc=wc, ws=ws)


def _min_weight_of(sym_wc: dict[int, LinearForm], mapping) -> int:
    """Smallest positive exponent whose coefficient form is nonzero."""
    for e in sorted(sym_wc):
        if e and sym_wc[e].substitute(mapping):
            return e
    raise InconsistentConstraints("enumerator vanished above weight 0")


def family_for(n: int, dmin: int, case: str) -> Family:
    """Convenience pipeline: Gleason expansion at d >= dmin, then the case."""
    known: dict[int, int] = {0: 1}
    for w in range(2, dmin, 2):
        known[w] = 0
    return apply_shadow_case(gleason_expand(n, known), case)


# -- the W(1) - W(3) basis and parity restrictions --------------------------


def c1_basis(k: int) -> ParamPoly:
    """The span of W(1) - W(3) for length n = 24k + 10, parameters b_i.

    Sum over i < k of b_i (1+14y^4+y^8)^(3k-1-3i) (y^4(1-y^4)^4)^i f(y)
    with f(y) = y - 34y^5 + 34y^13 - y^17.
    """
    if not 1 <= k <= 5:
        raise ValueError("k must be between 1 and 5")
    phi = {0: 1, 4: 14, 8: 1}
    psi = _pmul({4: 1}, _ppow({0: 1, 4: -1}, 4))
    f = {1: 1, 5: -34, 13: 34, 17: -1}
    return ParamPoly.from_dict(
        _param_sum(
            (
                LinearForm.var(f"b{i}"),
                _pmul(_pmul(_ppow(phi, 3 * k - 1 - 3 * i), _ppow(psi, i)), f),
            )
            for i in range(k)
        )
    )


def _parity_family(k: int) -> Family:
    """The d(S) >= 5 family of length 24k + 10 at d = 4k + 2."""
    if not 2 <= k <= 5:
        raise ValueError("k must be between 2 and 5")
    return family_for(24 * k + 10, 4 * k + 2, "ge5")


def _w1(family: Family) -> ParamPoly:
    """W(1) = (W_S + (W(1) - W(3))) / 2 for a family of length 24k + 10.

    W(1) is the half-coset holding no weight-1 vector, so the y^1
    coefficient (B_1 + b_0) / 2 vanishes: the difference is c1_basis with
    b_0 = -B_1, which is b_0 = 0 unless the shadow has minimum weight 1.
    """
    b0 = family.ws.coeff(1) * -1
    diff = c1_basis((family.n - 10) // 24).substitute({"b0": b0})
    return (family.ws + diff).scale(Fraction(1, 2))


def w1_family(k: int) -> ParamPoly:
    """W(1) of the d(S) >= 5 family of length 24k + 10 at d = 4k + 2."""
    return _w1(_parity_family(k))


@dataclass(frozen=True)
class CongruenceSystem:
    """Congruences form ≡ 0 (mod modulus) on integer parameter values."""

    relations: tuple[tuple[LinearForm, int], ...]

    def lines(self) -> list[str]:
        return [f"{f} == 0 (mod {m})" for f, m in self.relations]

    def __str__(self) -> str:
        return "; ".join(self.lines()) or "(no congruences)"


def family_congruences(
    family: Family, max_exponent: int | None = None
) -> CongruenceSystem:
    """Congruences on the family's parameters forced by integrality of W(1).

    Every coefficient of W(1) must be a nonnegative integer.  Doubling a
    coefficient form clears the denominator 2 of its parameter terms;
    reducing the doubled forms mod 2 gives a GF(2) system in the
    parameters, and eliminating the auxiliary b_i leaves the congruences
    on the family's own parameters.  Coefficients are taken up to
    ``max_exponent`` (default: all of W(1)).

    Raises:
        InconsistentConstraints: no integer parameter values make W(1)
            integral: a doubled coefficient has a fractional constant, or
            the system forces 1 == 0 (mod 2).
        ValueError: a doubled coefficient has a fractional parameter term.
    """
    w1 = _w1(family).truncate(max_exponent)
    # GF(2) columns: the b_i first, then the shadow parameters, then the
    # constant, so that rows pivoting past the b_i are free of them
    b_names = [nm for nm in w1.params if nm not in family.params]
    names = b_names + list(family.params)
    rows = []
    for e, form in w1.coefficients:
        doubled = form * 2
        coeffs = [doubled.coeff(nm) for nm in names]
        if any(c.denominator != 1 for c in coeffs):
            raise ValueError(
                f"coefficient of y^{e} doubled is not integral: {doubled}"
            )
        if doubled.constant.denominator != 1:
            raise InconsistentConstraints(
                f"W(1) coefficient of y^{e} is {form}, never an integer"
            )
        coeffs.append(doubled.constant)
        rows.append(sum((c.numerator & 1) << i for i, c in enumerate(coeffs)))
    work, pivots = eliminate(rows, range(len(names) + 1))
    out = []
    for row, col in zip(work, pivots):
        if col == len(names):
            raise InconsistentConstraints("integrality forces 1 == 0 (mod 2)")
        if col >= len(b_names):
            terms = {nm: 1 for i, nm in enumerate(names) if row >> i & 1}
            out.append((LinearForm.make(row >> len(names), terms), 2))
    return CongruenceSystem(relations=tuple(out))


def derive_parity(k: int, max_exponent: int | None = None) -> CongruenceSystem:
    """``family_congruences`` of the family behind ``w1_family(k)``.

    Coefficients up to ``max_exponent`` (default: all of W(1)).  For
    k = 2, 3, 4, 5 the result is gamma, c, d, e even, respectively.
    """
    return family_congruences(_parity_family(k), max_exponent)


# -- feasibility and export -------------------------------------------------


@dataclass(frozen=True)
class Constraint:
    """A linear inequality form >= 0 from coefficient nonnegativity."""

    source: str  # "W_C" or "W_S"
    exponent: int
    form: LinearForm

    def __str__(self) -> str:
        return f"{self.source}[y^{self.exponent}]: {self.form} >= 0"


def feasible_range(
    family: Family, max_exponent: int | None = None
) -> list[Constraint]:
    """Nonnegativity constraints on the family's displayed coefficients.

    Only coefficients actually involving parameters become constraints;
    fully determined coefficients were already checked when the family
    was built.  The coefficients are those of
    ``family.displayed(max_exponent)``.
    """
    shown = family.displayed(max_exponent)
    return [
        Constraint(source=source, exponent=e, form=form)
        for source, poly in (("W_C", shown.wc), ("W_S", shown.ws))
        for e, form in poly.coefficients
        if not form.is_constant
    ]


def _form_json(f: LinearForm) -> dict:
    return {
        "const": str(f.constant),
        "terms": {nm: str(c) for nm, c in f.terms},
    }


def family_to_json(family: Family, max_exponent: int | None = None) -> dict:
    """JSON-ready description of a family; rationals become "p/q" strings.

    ``params`` are those of the whole family; the polynomials are those of
    ``family.displayed(max_exponent)``.
    """
    shown = family.displayed(max_exponent)

    def poly_json(poly: ParamPoly) -> list[dict]:
        return [{"deg": e, **_form_json(f)} for e, f in poly.coefficients]

    return {
        "n": family.n,
        "case": family.case,
        "d": family.d,
        "params": list(family.params),
        "W_C": poly_json(shown.wc),
        "W_S": poly_json(shown.ws),
    }
