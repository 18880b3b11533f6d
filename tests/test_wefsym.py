"""Symbolic enumerator machinery: Gleason expansion, shadow cases, parity."""

from fractions import Fraction

import pytest

from sdcodes import reference as ref
from sdcodes.gf2core import LinearCode, shadow
from sdcodes.minweight import brute_force_wef
from sdcodes.wefsym import (
    InconsistentConstraints,
    InfeasibleCase,
    LinearForm,
    SHADOW_CASES,
    apply_shadow_case,
    c1_basis,
    derive_parity,
    display_cutoffs,
    family_congruences,
    family_for,
    family_to_json,
    feasible_range,
    gleason_expand,
    shadow_transform,
    w1_family,
)
from conftest import pairs_code


class TestLinearForm:
    def test_term_ordering_is_numeric_then_name(self):
        f = LinearForm.make(0, {"a10": 1, "a7": 1, "alpha": 1, "b2": 1})
        assert f.names == ("a7", "a10", "alpha", "b2")

    def test_arithmetic(self):
        f = LinearForm.make(3, {"x": 2}) - LinearForm.make(1, {"x": 2, "y": 1})
        assert f == LinearForm.make(2, {"y": -1})
        assert str(2 * f) == "4 - 2*y"

    def test_substitute_and_evaluate(self):
        f = LinearForm.make(1, {"x": 2, "y": -1})
        g = f.substitute({"x": LinearForm.make(0, {"y": Fraction(1, 2)})})
        assert g == LinearForm.make(1)
        assert f.evaluate({"x": 3, "y": 7}) == 0
        with pytest.raises(ValueError, match="no value"):
            f.evaluate({"x": 3})

    def test_str_matches_convention(self):
        f = LinearForm.make(-18, {"alpha": 1})
        assert str(f) == "-18 + alpha"
        assert str(LinearForm.make(0, {"beta": Fraction(-1, 2)})) == "-1/2*beta"


class TestGleasonExpand:
    def test_length_two(self):
        g = gleason_expand(2, {0: 1})
        assert g.free_params == ()
        assert g.to_enumerator().coeff(2) == LinearForm.make(1)
        assert shadow_transform(g).as_dict() == {1: LinearForm.make(2)}

    def test_length_eight(self):
        g = gleason_expand(8, {0: 1, 2: 0})
        w = g.to_enumerator()
        assert {e: f.constant for e, f in w.coefficients} == {0: 1, 4: 14, 8: 1}

    def test_overdetermined_but_consistent(self):
        code = pairs_code(10)
        dist = brute_force_wef(code)
        known = {w: dist.count(w) for w in range(0, 11, 2)}
        g = gleason_expand(10, known)
        assert g.free_params == ()
        got = {e: f.constant for e, f in g.to_enumerator().coefficients}
        assert got == {w: c for w, c in known.items() if c}

    def test_shadow_round_trip_small_code(self):
        code = pairs_code(10)
        dist = brute_force_wef(code)
        g = gleason_expand(10, {w: dist.count(w) for w in range(0, 11, 2)})
        sh = shadow(code)
        counts: dict[int, int] = {}
        for w in code.words():
            v = sh.rep ^ w
            counts[v.weight] = counts.get(v.weight, 0) + 1
        assert {e: f.constant for e, f in shadow_transform(g).coefficients} == counts

    def test_inconsistent_constraint_names_weight(self):
        with pytest.raises(InconsistentConstraints, match=r"y\^4"):
            gleason_expand(8, {0: 1, 2: 0, 4: 0})

    def test_input_validation(self):
        with pytest.raises(ValueError, match="A_0"):
            gleason_expand(8, {2: 0})
        with pytest.raises(ValueError, match="even"):
            gleason_expand(7, {0: 1})

    def test_length_82_prefix(self):
        known = {0: 1} | {w: 0 for w in range(2, 14, 2)}
        g = gleason_expand(82, known)
        assert g.free_params == ("a7", "a8", "a9", "a10")
        head = tuple(g.a[j].constant for j in range(7))
        assert all(g.a[j].is_constant for j in range(7))
        assert head == ref.GLEASON_A82


class TestFamilies:
    @pytest.mark.parametrize("fid", sorted(ref.FAMILIES))
    def test_displayed_prefix(self, fid):
        n, dmin, case, pc, ps = ref.FAMILIES[fid]
        fam = family_for(n, dmin, case)
        assert fam.d == dmin == 4 * (n // 24) + 2
        assert ref.check_prefix(fam.wc, pc) == []
        assert ref.check_prefix(fam.ws, ps) == []

    @pytest.mark.parametrize("case", SHADOW_CASES)
    def test_parameters_enter_integrally(self, case):
        # the scale 2^max(0, 6j - n/2) on each free a_j, leftovers included,
        # clears the power of two in its shadow-basis factor
        for dmin in range(2, 16, 2):
            fam = family_for(82, dmin, case)
            for poly in (fam.wc, fam.ws):
                for e, form in poly.coefficients:
                    assert all(c.denominator == 1 for _, c in form.terms), (
                        f"dmin={dmin} y^{e}: {form}"
                    )

    def test_leftover_coefficients_keep_their_names(self):
        assert family_for(82, 12, "min5").params == ("a6", "alpha", "beta")
        assert family_for(82, 10, "ge5").params == ("a", "a5", "a6", "b", "c")

    @pytest.mark.parametrize("fid", sorted(ref.FAMILIES))
    def test_shadow_total_mass(self, fid):
        # summing all W_S coefficients must give |S| = 2^(n/2),
        # independently of the parameters
        n, dmin, case, _, _ = ref.FAMILIES[fid]
        fam = family_for(n, dmin, case)
        assert fam.ws.eval_at(1) == LinearForm.make(2 ** (n // 2))

    def test_unpacks_as_pair(self):
        wc, ws = family_for(82, 14, "wt1")
        assert wc.coeff(0) == LinearForm.make(1)
        assert ws.coeff(1) == LinearForm.make(1)

    def test_minimal_shadow_family_is_determined(self):
        fam = family_for(82, 14, "wt1")
        assert fam.params == ()

    def test_parameter_names(self):
        assert family_for(82, 14, "min5").params == ("alpha", "beta")
        assert family_for(82, 14, "ge5").params == ("a", "b", "c")
        assert family_for(58, 10, "min5").params == ("beta", "gamma")
        assert family_for(106, 18, "min5").params == ("a", "b", "c", "d")
        assert family_for(130, 22, "min5").params == ("a", "b", "c", "d", "e")

    def test_case_list_is_published(self):
        assert set(SHADOW_CASES) == {"wt1", "min5", "min9", "ge5"}

    def test_known_shadow_correction(self):
        # the published enumerator with (alpha, beta) = (0, -656) in the
        # B_5 = 0 family; the corrected shadow starts 656 y^13
        fam = family_for(82, 14, ref.DGH_CASE)
        point = {k: Fraction(v) for k, v in ref.DGH_POINT.items()}
        ws = fam.ws.substitute(point)
        for e, c in ref.DGH_SHADOW_PREFIX.items():
            assert ws.coeff(e) == LinearForm.make(c)

    def test_unsupported_cases_raise(self):
        with pytest.raises(ValueError, match="unsupported shadow case"):
            family_for(82, 14, "min7")
        with pytest.raises(ValueError, match="unsupported shadow case"):
            family_for(24, 8, "min5")

    def test_extremal_with_minimal_shadow_is_inconsistent(self):
        with pytest.raises(InconsistentConstraints, match="A_16"):
            family_for(82, 16, "wt1")

    def test_distance_18_is_infeasible(self):
        with pytest.raises(InfeasibleCase, match=r"y\^9"):
            family_for(82, 18, "min5")

    def test_apply_shadow_case_composes(self):
        known = {0: 1} | {w: 0 for w in range(2, 14, 2)}
        fam = apply_shadow_case(gleason_expand(82, known), "min9")
        assert fam.case == "min9"
        assert ref.check_prefix(fam.ws, ref.W82_3_S) == []


class TestC1Basis:
    def test_k1_single_row(self):
        c1 = c1_basis(1)
        assert c1.coeff(1) == LinearForm.make(0, {"b0": 1})
        assert c1.coeff(5) == LinearForm.make(0, {"b0": -6})

    @pytest.mark.parametrize("k", sorted(ref.C1_DISPLAY))
    def test_displayed_rows(self, k):
        assert ref.check_prefix(c1_basis(k), ref.C1_DISPLAY[k]) == []

    @pytest.mark.parametrize("k", sorted(ref.W1_DISPLAY))
    def test_half_coset_enumerator(self, k):
        assert ref.check_prefix(w1_family(k), ref.W1_DISPLAY[k]) == []

    def test_exponent_support_is_odd(self):
        for k in range(1, 6):
            assert all(e % 4 == 1 for e in c1_basis(k).exponents())

    def test_range_checks(self):
        with pytest.raises(ValueError):
            c1_basis(0)
        with pytest.raises(ValueError):
            c1_basis(6)
        with pytest.raises(ValueError):
            w1_family(1)


class TestParity:
    @pytest.mark.parametrize("k", sorted(ref.PARITY_PARAM))
    def test_single_even_parameter(self, k):
        sys = derive_parity(k)
        assert len(sys.relations) == 1
        form, modulus = sys.relations[0]
        assert modulus == 2
        assert form == LinearForm.var(ref.PARITY_PARAM[k])
        assert str(sys) == f"{ref.PARITY_PARAM[k]} == 0 (mod 2)"

    @pytest.mark.parametrize("k", sorted(ref.PARITY_PARAM))
    @pytest.mark.parametrize("max_exponent", [0, 8, 12, 16, 20, 56, 200])
    def test_max_exponent(self, k, max_exponent):
        # the first W(1) coefficient forcing a congruence is y^(4k+1)
        if max_exponent <= 4 * k:
            assert str(derive_parity(k, max_exponent)) == "(no congruences)"
        else:
            assert derive_parity(k, max_exponent) == derive_parity(k)

    @pytest.mark.parametrize(
        "case, want", [("min5", "beta"), ("min9", "beta"), ("ge5", "c")]
    )
    def test_named_by_the_family(self, case, want):
        sys = family_congruences(family_for(82, 14, case))
        assert sys.relations == ((LinearForm.var(want), 2),)

    def test_weight_one_shadow_has_no_congruences(self):
        # W(1) is the half-coset without the weight-1 vector: b_0 = -B_1
        assert family_congruences(family_for(82, 14, "wt1")).relations == ()

    def test_fractional_constant_is_inconsistent(self):
        with pytest.raises(InconsistentConstraints, match="never an integer"):
            family_congruences(family_for(82, 18, "ge5"))

    def test_range_checks(self):
        with pytest.raises(ValueError):
            derive_parity(1)
        with pytest.raises(ValueError):
            derive_parity(6)


class TestFeasibleRange:
    def _form(self, cons, source, exponent):
        for c in cons:
            if c.source == source and c.exponent == exponent:
                return c.form
        raise AssertionError(f"no constraint at {source} y^{exponent}")

    def test_b5_one_family(self):
        cons = feasible_range(family_for(82, 14, "min5"))
        assert self._form(cons, "W_S", 9) == LinearForm.make(-18, {"alpha": 1})
        assert self._form(cons, "W_S", 13) == LinearForm.make(
            153, {"alpha": -16, "beta": -1}
        )
        assert self._form(cons, "W_C", 14) == LinearForm.make(3280, {"beta": 2})

    def test_b5_zero_family(self):
        cons = feasible_range(family_for(82, 14, "min9"))
        assert self._form(cons, "W_S", 9) == LinearForm.var("alpha")
        assert self._form(cons, "W_S", 13) == LinearForm.make(
            0, {"alpha": -16, "beta": -1}
        )

    def test_determined_family_has_no_constraints(self):
        assert feasible_range(family_for(82, 14, "wt1")) == []

    def test_default_truncation(self):
        cons = feasible_range(family_for(82, 14, "min5"))
        assert all(c.exponent <= 18 for c in cons if c.source == "W_C")
        assert all(c.exponent <= 21 for c in cons if c.source == "W_S")

    def test_one_override_rule(self):
        assert display_cutoffs(82) == (18, 21)
        assert display_cutoffs(82, 9) == (9, 9)
        assert display_cutoffs(20) == (None, None)
        fam = family_for(82, 14, "min5")
        assert fam.displayed().wc == fam.wc.truncate(18)
        assert fam.displayed(40).ws == fam.ws.truncate(40)

    def test_explicit_truncation(self):
        # the pinned constant B_5 = 1 never becomes a constraint
        cons = feasible_range(family_for(82, 14, "min5"), max_exponent=9)
        assert {(c.source, c.exponent) for c in cons} == {("W_S", 9)}

    def test_str(self):
        cons = feasible_range(family_for(82, 14, "min5"), max_exponent=9)
        assert any(s == "W_S[y^9]: -18 + alpha >= 0" for s in map(str, cons))


class TestJsonExport:
    def test_shape(self):
        fam = family_for(58, 10, "min5")
        doc = family_to_json(fam)
        assert doc["n"] == 58 and doc["case"] == "min5" and doc["d"] == 10
        assert doc["params"] == ["beta", "gamma"]
        degs = [row["deg"] for row in doc["W_C"]]
        assert degs == sorted(degs) and degs[0] == 0
        first = doc["W_C"][0]
        assert first == {"deg": 0, "const": "1", "terms": {}}

    def test_rationals_become_strings(self):
        doc = family_to_json(family_for(82, 14, "min5"))
        b13 = next(r for r in doc["W_S"] if r["deg"] == 13)
        assert b13 == {
            "deg": 13,
            "const": "153",
            "terms": {"alpha": "-16", "beta": "-1"},
        }
        b5 = next(r for r in doc["W_S"] if r["deg"] == 5)
        assert b5["const"] == "1"

    def test_truncation(self):
        doc = family_to_json(family_for(82, 14, "min5"), max_exponent=16)
        assert max(r["deg"] for r in doc["W_C"]) <= 16
        assert max(r["deg"] for r in doc["W_S"]) <= 16
