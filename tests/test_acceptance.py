"""Acceptance gate: the eight headline claims, one test (and one line) each.

Each test certifies a claim end to end through the public API, at exact
tolerance unless noted, and stays inside its stated runtime budget.
"""

import random
import time
from fractions import Fraction

from sdcodes import reference as ref
from sdcodes.constructions import (
    build_b80,
    build_c82,
    neighbor_parameters,
    table1,
    tsai_extend,
)
from sdcodes.gf2core import (
    BitVector,
    LinearCode,
    ParityClass,
    concat,
    coset_split,
    doubly_even_subcode,
    dual,
    parity_class,
    shadow,
)
from sdcodes.minweight import (
    brute_force_coset_wef,
    brute_force_wef,
    coset_min_weight,
    count_coset_upto,
    count_words_upto,
    min_weight,
)
from sdcodes.wefsym import (
    LinearForm,
    c1_basis,
    derive_parity,
    family_congruences,
    family_for,
    gleason_expand,
    shadow_transform,
    w1_family,
)
from conftest import e8_code, random_self_dual


def test_ac1_b80_extremal_doubly_even_certificate():
    start = time.monotonic()
    code = build_b80()
    assert (code.length, code.dimension) == (80, 40)
    assert code.is_self_dual
    assert parity_class(code) is ParityClass.DOUBLY_EVEN
    assert min_weight(code) == 16
    assert time.monotonic() - start < 300


def test_ac2_c82_certificate():
    start = time.monotonic()
    code = build_c82()
    assert (code.length, code.dimension) == (82, 41)
    assert code.is_self_dual
    assert parity_class(code) is ParityClass.SINGLY_EVEN
    dist = count_words_upto(code, 14)
    assert dist.minimum() == 14
    assert dist.count(14) == 560
    s = shadow(code)
    sdist = count_coset_upto(code, s.rep, 13)
    assert sdist.minimum(exclude_zero=False) == 1
    assert sdist.count(13) == 560
    assert time.monotonic() - start < 600


def test_ac3_table1_neighbor_spot_check():
    start = time.monotonic()
    specs = {spec.index: spec for spec in table1()}
    selection = (1, 2, 3, 23, 50)
    assert 1 in selection and 23 in selection
    assert specs[1].family == "W2"
    base = build_c82()
    for idx in selection:
        spec = specs[idx]
        code = spec.build(base)
        assert code.is_self_dual
        assert parity_class(code) is ParityClass.SINGLY_EVEN
        dist = count_words_upto(code, 16)
        assert dist.minimum() == 14
        recovered = neighbor_parameters(dist.count(14), dist.count(16))
        assert recovered == (spec.alpha, spec.beta)
    assert time.monotonic() - start < 3600


def test_ac4_symbolic_goldens():
    g = gleason_expand(82, {0: 1} | {w: 0 for w in range(2, 14, 2)})
    head = tuple(f.constant for f in g.a[: len(ref.GLEASON_A82)])
    assert head == tuple(map(Fraction, ref.GLEASON_A82))
    for fid, (n, dmin, case, prefix_c, prefix_s) in sorted(ref.FAMILIES.items()):
        fam = family_for(n, dmin, case)
        assert ref.check_prefix(fam.wc, prefix_c) == [], fid
        assert ref.check_prefix(fam.ws, prefix_s) == [], fid
    for k, prefix in sorted(ref.C1_DISPLAY.items()):
        assert ref.check_prefix(c1_basis(k), prefix) == [], f"difference basis k={k}"
    assert c1_basis(3).coeff(13) == LinearForm.make(
        0, {"b0": -32382, "b1": -553, "b2": -14}
    )
    for k, prefix in sorted(ref.W1_DISPLAY.items()):
        assert ref.check_prefix(w1_family(k), prefix) == [], f"half-coset k={k}"


def test_ac5_parity_congruences():
    for k, name in sorted(ref.PARITY_PARAM.items()):
        assert derive_parity(k).relations == ((LinearForm.var(name), 2),), f"k={k}"
    # the n=82 display renames the free parameters to alpha, beta
    assert family_congruences(family_for(82, 14, "min5")).lines() == [
        "beta == 0 (mod 2)"
    ]


def test_ac6_corrected_family_point():
    fam = family_for(82, 14, ref.DGH_CASE)
    point = {k: Fraction(v) for k, v in ref.DGH_POINT.items()}
    ws = fam.ws.substitute(point)
    for e in (1, 5, 9):
        assert ws.coeff(e) == LinearForm.make(0)
    for e, c in ref.DGH_SHADOW_PREFIX.items():
        assert ws.coeff(e) == LinearForm.make(c)


def test_ac7_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(0xC0DE)
    checked = 0
    for n in range(8, 26, 2):
        for _ in range(12):
            code = random_self_dual(n, rng)
            wef = brute_force_wef(code)
            d = min_weight(code)
            assert d == wef.minimum()
            upto = min(n, d + 6)
            dist = count_words_upto(code, upto)
            assert all(
                dist.count(w) == wef.counts.get(w, 0) for w in range(upto + 1)
            )
            while True:
                x = BitVector(n, rng.getrandbits(n))
                if x.bits and x not in code:
                    break
            coset_wef = brute_force_coset_wef(code, x)
            assert coset_min_weight(code, x) == coset_wef.minimum(exclude_zero=False)
            ws = shadow_transform(gleason_expand(n, dict(wef.counts)))
            assert not ws.params
            assert ws.eval_at(1).constant == Fraction(2 ** (n // 2))
            if parity_class(code) is ParityClass.SINGLY_EVEN:
                s = shadow(code)
                words = [BitVector(n, 0)]
                for gen in dual(s.c0).generators:
                    words += [w ^ gen for w in words]
                brute_shadow = {w.bits for w in words if w not in code}
                assert brute_shadow == {(s.rep ^ c).bits for c in code.words()}
                counts: dict[int, int] = {}
                for bits in brute_shadow:
                    w = bits.bit_count()
                    counts[w] = counts.get(w, 0) + 1
                expected = {w: Fraction(c) for w, c in counts.items()}
            else:
                # doubly even: the transform returns the code's enumerator
                try:
                    shadow(code)
                    raise AssertionError("shadow() accepted a doubly even code")
                except ValueError:
                    pass
                expected = {w: Fraction(c) for w, c in wef.counts.items()}
            assert {e: f.constant for e, f in ws.coefficients} == expected
            checked += 1
    assert checked >= 100
    assert time.monotonic() - start < 120


def _check_extension(base: LinearCode, x: BitVector, coset_elems: list[int]):
    """Extension of a doubly even base by odd x: parity, shadow, congruences."""
    split = coset_split(base, x)
    ext = tsai_extend(base, x)
    assert (ext.length, ext.dimension) == (base.length + 2, base.dimension + 1)
    assert ext.is_self_dual
    assert parity_class(ext) is ParityClass.SINGLY_EVEN
    # predicted weight-1 shadow vector, by wt(x) mod 4
    v1 = BitVector(ext.length, 1 if x.weight % 4 == 1 else 2)
    ext0 = doubly_even_subcode(ext)
    assert all(v1.dot(g) == 0 for g in ext0.generators)
    assert v1 not in ext
    # the doubly even subcode is the predicted pair of cosets
    assert ext0.dimension == base.dimension
    assert all(concat(BitVector(2, 0), g) in ext0 for g in split.c0.generators)
    if x.weight % 4 == 1:
        assert concat(BitVector(2, 2), split.r3) in ext0
    else:
        assert concat(BitVector(2, 1), split.r1) in ext0
    # coset congruences: wt on r1 + C0 is wt(x), on r3 + C0 is wt(x) + 2 (mod 4)
    r1, r3, wx = split.r1.bits, split.r3.bits, x.weight
    assert all((r1 ^ c).bit_count() % 4 == wx % 4 for c in coset_elems)
    assert all((r3 ^ c).bit_count() % 4 == (wx + 2) % 4 for c in coset_elems)
    return ext, v1


def _subcode_words(split) -> list[int]:
    words = [0]
    for g in split.c0.generators:
        words += [w ^ g.bits for w in words]
    return words


def test_ac8_extension_shadow_property():
    base8 = e8_code()
    for bits in range(1 << 8):
        if bits.bit_count() % 2 == 0:
            continue
        x = BitVector(8, bits)
        ext, v1 = _check_extension(base8, x, _subcode_words(coset_split(base8, x)))
        assert v1 in shadow(ext)

    rows = [concat(r, BitVector(8, 0)) for r in base8.generators]
    rows += [concat(BitVector(8, 0), r) for r in base8.generators]
    base16 = LinearCode.from_rows(16, rows)
    assert base16.is_self_dual
    assert parity_class(base16) is ParityClass.DOUBLY_EVEN
    rng = random.Random(0xC0DE)
    for _ in range(10_000):
        bits = rng.getrandbits(16)
        if bits.bit_count() % 2 == 0:
            bits ^= 1
        x = BitVector(16, bits)
        _check_extension(base16, x, _subcode_words(coset_split(base16, x)))
