"""The exact algebra against an independent sympy solver, and its invariants.

The oracle builds the Gleason basis (1+y^2)^(n/2-4j) (y^2(1-y^2)^2)^j
and the shadow S(x, y) = W((x+y)/sqrt2, i(x-y)/sqrt2) from their
definitions with sympy, solves the triangular system for the known
prefix, and compares the solution with ``gleason_expand``,
``to_enumerator`` and ``shadow_transform``.
"""

import random
from fractions import Fraction
from functools import cache

import pytest

from sdcodes import reference as ref
from sdcodes.wefsym import (
    _CASES,
    InconsistentConstraints,
    InfeasibleCase,
    LinearForm,
    ParamPoly,
    _name_key,
    c1_basis,
    family_for,
    gleason_expand,
    shadow_transform,
    w1_family,
)

sympy = pytest.importorskip("sympy")

Y = sympy.Symbol("y")


@cache
def _oracle_bases(n: int) -> tuple[list[list], list[dict]]:
    """Gleason basis coefficient lists and their shadows, by sympy.

    The shadow of each basis element is its image under x -> (1+y)/sqrt2,
    y -> i(1-y)/sqrt2, with x = 1 after the substitution.
    """
    x_to = (1 + Y) / sympy.sqrt(2)
    y_to = sympy.I * (1 - Y) / sympy.sqrt(2)
    f1 = sympy.expand(x_to**2 + y_to**2)
    f2 = sympy.expand(x_to**2 * y_to**2 * (x_to**2 - y_to**2) ** 2)
    wc, ws = [], []
    for j in range(n // 8 + 1):
        g = sympy.Poly(
            (1 + Y**2) ** (n // 2 - 4 * j) * (Y**2 * (1 - Y**2) ** 2) ** j, Y
        )
        wc.append([g.coeff_monomial(Y**w) for w in range(n + 1)])
        s = sympy.Poly(sympy.expand(f1 ** (n // 2 - 4 * j) * f2**j), Y)
        ws.append({m[0]: c for m, c in s.terms()})
    return wc, ws


def _sym(value) -> "sympy.Expr":
    """A LinearForm or a Fraction as a sympy expression."""
    if isinstance(value, LinearForm):
        return _sym(value.constant) + sum(
            (_sym(c) * sympy.Symbol(nm) for nm, c in value.terms), sympy.Integer(0)
        )
    q = Fraction(value)
    return sympy.Rational(q.numerator, q.denominator)


def _random_prefix(top: int, rng: random.Random, symbolic: bool) -> dict:
    """A_0 = 1, then random A_2 .. A_2top, some in a free parameter x."""
    known: dict = {0: 1}
    for w in range(2, 2 * top + 1, 2):
        value = rng.choice([0, 0, rng.randint(-60, 60)])
        if symbolic and (w == 2 * top or rng.random() < 0.3):
            value = LinearForm.make(value, {"x": rng.randint(-3, 3) or 1})
        known[w] = value
    return known


@pytest.mark.parametrize("n", [8, 16, 24, 32, 34, 40, 48])
def test_gleason_and_shadow_match_sympy(n):
    rng = random.Random(1000 + n)
    wc_basis, ws_basis = _oracle_bases(n)
    J = n // 8
    a = sympy.symbols(f"a0:{J + 1}")
    # a full prefix (every a_j solved), a symbolic one, and two short
    # ones that leave the top a_j free
    tops = [(J, False), (J, True), (rng.randint(1, J), True)]
    for top, symbolic in tops + [(rng.randint(0, J - 1), False)]:
        known = _random_prefix(top, rng, symbolic)
        equations = [
            sum(a[j] * wc_basis[j][w] for j in range(J + 1)) - _sym(known[w])
            for w in known
        ]
        (solution,) = sympy.linsolve(equations, a[: top + 1])
        want_a = list(solution) + list(a[top + 1 :])

        g = gleason_expand(n, known)
        diffs = [sympy.expand(_sym(f) - w) for f, w in zip(g.a, want_a)]
        assert diffs == [0] * (J + 1), (n, known)

        wc = g.to_enumerator()
        for w in range(n + 1):
            want = sum(want_a[j] * wc_basis[j][w] for j in range(J + 1))
            assert sympy.expand(_sym(wc.coeff(w)) - want) == 0, (n, known, w)
        ws = shadow_transform(g)
        for e in range(n // 2 + 1):
            want = sum(want_a[j] * ws_basis[j].get(e, 0) for j in range(J + 1))
            assert sympy.expand(_sym(ws.coeff(e)) - want) == 0, (n, known, e)
        assert set(ws.exponents()) <= set().union(*ws_basis)


def _check_canonical(poly: ParamPoly, what: str) -> None:
    exponents = poly.exponents()
    assert list(exponents) == sorted(set(exponents)), what
    for e, form in poly.coefficients:
        assert form, f"{what}: zero form at y^{e}"
        assert type(form.constant) is Fraction, f"{what} y^{e}: {form.constant!r}"
        names = [nm for nm, _ in form.terms]
        assert names == sorted(set(names), key=_name_key), f"{what} y^{e}: {names}"
        for nm, c in form.terms:
            assert type(c) is Fraction and c, f"{what} y^{e}: {nm} has {c!r}"


class TestCanonicalForms:
    """Every form is Fraction-valued, zero-free and sorted by name.

    A zero term or an unsorted one would break equality and hashing of
    otherwise equal forms.
    """

    @pytest.mark.parametrize("n", sorted({n for n, _ in _CASES}))
    def test_every_case_at_and_below_the_tabulated_distance(self, n):
        k = (n - 10) // 24
        built = 0
        for (nn, case) in sorted(_CASES):
            if nn != n:
                continue
            for dmin in range(2, 4 * k + 3, 2):
                try:
                    family = family_for(n, dmin, case)
                except (InfeasibleCase, InconsistentConstraints):
                    continue
                built += 1
                _check_canonical(family.wc, f"W_C n={n} {case} dmin={dmin}")
                _check_canonical(family.ws, f"W_S n={n} {case} dmin={dmin}")
        assert built

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_half_coset_forms(self, k):
        _check_canonical(c1_basis(k), f"c1_basis({k})")
        if k >= 2:
            _check_canonical(w1_family(k), f"w1_family({k})")


class TestNoFloats:
    # 1 + x y^2
    POLY = ParamPoly.from_dict({0: LinearForm.make(1), 2: LinearForm.var("x")})

    @pytest.mark.parametrize(
        "build",
        [
            lambda: LinearForm.make(0.1),
            lambda: LinearForm.make(0, {"x": 0.5}),
            lambda: LinearForm.var("x") * 0.5,
            lambda: LinearForm.var("x").evaluate({"x": 0.5}),
            lambda: TestNoFloats.POLY.scale(0.5),
            lambda: TestNoFloats.POLY.eval_at(0.5),
        ],
        ids=["make-constant", "make-term", "mul", "evaluate", "scale", "eval_at"],
    )
    def test_float_is_refused(self, build):
        with pytest.raises(TypeError, match="float"):
            build()

    def test_exact_values_are_accepted(self):
        half = LinearForm.make(Fraction(1, 2), {"x": 3})
        assert half == ref.form_of(("1/2", {"x": "3"}))
        half_x = LinearForm.make(0, {"x": Fraction(1, 2)})
        assert self.POLY.scale(Fraction(1, 2)).coeff(2) == half_x
        quarter = Fraction(1, 4)
        assert self.POLY.eval_at(Fraction(1, 2)) == LinearForm.make(1, {"x": quarter})
        assert self.POLY.eval_at(3) == LinearForm.make(1, {"x": 9})
