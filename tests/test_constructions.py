"""Builders: bordered circulants, odd-vector extension, neighbors, table data."""

import pytest

from sdcodes import reference as ref

from sdcodes.constructions import (
    B80_FIRST_ROW,
    CirculantSpec,
    FAMILY_CASES,
    NeighborSpec,
    X80_SUPPORT,
    _assemble,
    bordered_double_circulant,
    build_b80,
    build_c82,
    neighbor,
    neighbor_parameters,
    table1,
    tsai_extend,
)
from sdcodes.gf2core import (
    BitVector,
    LinearCode,
    ParityClass,
    parity_class,
    shadow,
)
from sdcodes.minweight import (
    brute_force_coset_wef,
    brute_force_wef,
    count_words_upto,
)
from sdcodes.wefsym import family_for
from conftest import e8_code, pairs_code, random_self_dual, _neighbor_step


def spec_of(row: str) -> CirculantSpec:
    return CirculantSpec(first_row=BitVector.from01(row))


class TestBorderedDoubleCirculant:
    def test_small_doubly_even(self):
        code = bordered_double_circulant(spec_of("110"))
        assert (code.length, code.dimension) == (8, 4)
        assert code.is_self_dual
        assert parity_class(code) is ParityClass.DOUBLY_EVEN
        assert brute_force_wef(code).count(4) == 14

    def test_small_singly_even(self):
        code = bordered_double_circulant(spec_of("11110"))
        assert (code.length, code.dimension) == (12, 6)
        assert code.is_self_dual
        assert parity_class(code) is ParityClass.SINGLY_EVEN

    def test_all_ones_row_rejected(self):
        assert not _assemble(spec_of("111")).is_self_orthogonal
        with pytest.raises(ValueError, match="self-orthogonal"):
            bordered_double_circulant(spec_of("111"))

    def test_unbordered_shape(self):
        spec = CirculantSpec(first_row=BitVector.from01("110"), border=False)
        code = _assemble(spec)
        assert (code.length, code.dimension) == (6, 3)

    def test_base_code_certificate(self):
        code = build_b80()
        assert (code.length, code.dimension) == (80, 40)
        assert code.is_self_dual
        assert parity_class(code) is ParityClass.DOUBLY_EVEN

    def test_circulant_rows_are_shifts(self):
        # [I | R] is already in reduced form, so the generator rows expose
        # the circulant block directly: row i carries the i-step shift
        first = "1101000"
        m = len(first)
        spec = CirculantSpec(first_row=BitVector.from01(first), border=False)
        code = _assemble(spec)
        for i, row in enumerate(code.generators):
            ident = "0" * i + "1" + "0" * (m - 1 - i)
            shifted = first[-i:] + first[:-i] if i else first
            assert row.to01() == ident + shifted

    @pytest.mark.parametrize("border", [True, False])
    def test_left_shifts_give_the_same_gram_matrix(self, border):
        # row i of the left-shift block is row m - i of the right-shift one,
        # so the Gram matrix changes from c(i - j) to c(j - i), where c is
        # the first row's cyclic autocorrelation; c is symmetric, so a
        # first row is self-orthogonal under both conventions or neither
        def rows(first: str, left: bool) -> list[int]:
            m = len(first)
            circ = [
                first[i:] + first[:i] if left else first[m - i:] + first[:m - i]
                for i in range(m)
            ]
            block = ["0" + "1" * m] + ["1" + r for r in circ] if border else circ
            w = len(block)
            return [
                BitVector.from01("0" * i + "1" + "0" * (w - 1 - i) + r).bits
                for i, r in enumerate(block)
            ]

        def gram(g: list[int]) -> list[list[int]]:
            return [[(u & v).bit_count() & 1 for v in g] for u in g]

        for m in range(1, 10):
            for bits in range(1 << m):
                first = format(bits, f"0{m}b")
                right = rows(first, left=False)
                code = _assemble(CirculantSpec(BitVector.from01(first), border))
                assert [r.bits for r in code.generators] == right
                assert gram(rows(first, left=True)) == gram(right), first


class TestTsaiExtend:
    def test_weight_one_extension_of_e8(self):
        c = e8_code()
        x = BitVector.from_support(8, [1])
        ext = tsai_extend(c, x)
        assert (ext.length, ext.dimension) == (10, 5)
        assert ext.is_self_dual
        assert parity_class(ext) is ParityClass.SINGLY_EVEN
        assert brute_force_wef(ext).minimum() == 2
        sh = shadow(ext)
        assert brute_force_coset_wef(ext, sh.rep).minimum(exclude_zero=False) == 1

    def test_dimension_and_length_bump(self):
        c = pairs_code(8)
        # pairs code is singly even, so extension must refuse it
        with pytest.raises(ValueError):
            tsai_extend(c, BitVector.from_support(8, [1]))
        ext = tsai_extend(e8_code(), BitVector.from_support(8, [1, 2, 3]))
        assert ext.dimension == e8_code().dimension + 1
        assert ext.length == e8_code().length + 2

    def test_even_weight_rejected(self):
        with pytest.raises(ValueError):
            tsai_extend(e8_code(), BitVector.from_support(8, [1, 2]))

    def test_membership_structure(self):
        # every word starts with 00/10/11/01 according to its coset piece
        c = e8_code()
        x = BitVector.from_support(8, [1, 2, 3])
        ext = tsai_extend(c, x)
        prefixes = {}
        for w in ext.words():
            body = BitVector(8, w.bits >> 2)
            prefixes.setdefault(w.to01()[:2], set()).add(body.to01())
        assert set(prefixes) == {"00", "10", "11", "01"}
        c0 = [w for w in c.words() if w.dot(x) == 0]
        c2 = [w for w in c.words() if w.dot(x) == 1]
        assert prefixes["00"] == {w.to01() for w in c0}
        assert prefixes["11"] == {w.to01() for w in c2}
        assert prefixes["10"] == {(x ^ w).to01() for w in c0}
        assert prefixes["01"] == {(x ^ w).to01() for w in c2}


class TestC82:
    def test_structure(self):
        code = build_c82()
        assert (code.length, code.dimension) == (82, 41)
        assert code.is_self_dual
        assert parity_class(code) is ParityClass.SINGLY_EVEN

    def test_counts_match_the_determined_family(self):
        # W82_1 is fully determined, so counting C82 to weight 18 ties the
        # enumeration engine to the symbolic layer
        assert count_words_upto(build_c82(), 18).counts == ref.W82_1_C

    def test_extension_vector(self):
        x = BitVector.from_support(80, X80_SUPPORT)
        assert x.weight == 13
        assert len(B80_FIRST_ROW) == 39


class TestNeighbor:
    def test_agrees_with_direct_construction(self, rng):
        for _ in range(10):
            code = random_self_dual(12, rng)
            x = BitVector(12, rng.getrandbits(12))
            if x.weight % 2:
                x = x ^ BitVector.from_support(12, [1])
            if x.weight == 0 or x in code:
                continue
            got = neighbor(code, x)
            assert got == _neighbor_step(code, x)
            assert got.is_self_dual

    def test_intersection_dimension(self, rng):
        code = random_self_dual(16, rng)
        x = BitVector.from_support(16, [1, 3, 5, 7, 9, 11])
        if x in code:
            x = BitVector.from_support(16, [2, 4, 6, 8, 10, 12])
        if x in code:
            pytest.skip("both probes landed inside the random code")
        nb = neighbor(code, x)
        both = {w.sort_key() for w in code.words()} & {
            w.sort_key() for w in nb.words()
        }
        assert len(both) == 2 ** (code.dimension - 1)

    def test_rejections(self):
        code = pairs_code(8)
        word = BitVector.from_support(8, [1, 2])
        with pytest.raises(ValueError, match="already a codeword"):
            neighbor(code, word)
        with pytest.raises(ValueError, match="even weight"):
            neighbor(code, BitVector.from_support(8, [1]))
        with pytest.raises(ValueError, match="length"):
            neighbor(code, BitVector.from_support(10, [1, 3]))
        not_sd = LinearCode.from_rows(8, ["11000000"])
        with pytest.raises(ValueError, match="self-dual"):
            neighbor(not_sd, word)


class TestParameterInversion:
    def test_round_trip(self):
        # (A_14, A_16) from the docstring's lattice, inverted back
        for alpha, beta in ((18, -750), (0, -640), (2, -658), (0, -656)):
            a14, a16 = 3280 + 2 * beta, 36244 + 128 * alpha - 2 * beta
            assert neighbor_parameters(a14, a16) == (alpha, beta)

    def test_counts_agree_with_the_shadow_families(self):
        # a second derivation of (A_14, A_16): the symbolic n = 82 family
        # of each Table 1 row's shadow case and of the corrected point,
        # evaluated at its (alpha, beta), inverts to that (alpha, beta)
        families = {case: family_for(82, 14, case) for case in ("min5", "min9")}
        for fam in families.values():
            wc = fam.wc
            base = (wc.coeff(14).constant, wc.coeff(16).constant)
            assert neighbor_parameters(*base) == (0, 0)
        points = [(s.shadow_case, s.alpha, s.beta) for s in table1()]
        points.append((ref.DGH_CASE, ref.DGH_POINT["alpha"], ref.DGH_POINT["beta"]))
        for case, alpha, beta in points:
            wc = families[case].wc
            point = {"alpha": alpha, "beta": beta}
            a14, a16 = (wc.coeff(w).evaluate(point) for w in (14, 16))
            assert neighbor_parameters(a14, a16) == (alpha, beta), (case, alpha, beta)

    def test_rejects_off_lattice(self):
        with pytest.raises(ValueError, match="A_14"):
            neighbor_parameters(3281, 36244)
        with pytest.raises(ValueError, match="A_16"):
            neighbor_parameters(3280, 36245)


class TestTable1:
    def test_shape_and_cross_check(self):
        rows = table1()
        assert len(rows) == 50
        assert [r.index for r in rows] == list(range(1, 51))
        for r in rows:
            assert len(r.support) == 14
            assert list(r.support) == sorted(set(r.support))
            assert 1 <= r.support[0] and r.support[-1] <= 82
            assert r.vector().weight == 14

    def test_family_histogram(self):
        rows = table1()
        tags = [r.family for r in rows]
        assert tags.count("W2") == 1 and tags.count("W3") == 49
        assert set(tags) <= set(FAMILY_CASES)

    def test_recorded_entries(self):
        rows = table1()
        assert rows[0].support == (2, 7, 10, 14, 47, 51, 54, 56, 58, 59, 62, 64, 72, 79)
        assert (rows[0].family, rows[0].alpha, rows[0].beta) == ("W2", 18, -750)
        assert rows[22].support == (4, 7, 8, 9, 46, 57, 58, 61, 63, 68, 71, 73, 78, 81)
        assert (rows[22].family, rows[22].alpha, rows[22].beta) == ("W3", 0, -640)
        assert rows[49].support == (3, 7, 9, 13, 43, 46, 48, 49, 50, 52, 58, 60, 63, 81)
        assert (rows[49].family, rows[49].alpha, rows[49].beta) == ("W3", 0, -728)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="family"):
            NeighborSpec(index=1, family="W9", alpha=0, beta=0, support=(1, 2))
        with pytest.raises(ValueError, match="sorted"):
            NeighborSpec(index=1, family="W2", alpha=0, beta=0, support=(2, 1))
        with pytest.raises(ValueError, match="1..82"):
            NeighborSpec(index=1, family="W2", alpha=0, beta=0, support=(0, 5))
        with pytest.raises(ValueError, match="1..82"):
            NeighborSpec(index=1, family="W2", alpha=0, beta=0, support=(5, 83))

    def test_shadow_case_mapping(self):
        rows = table1()
        assert rows[0].shadow_case == "min5"
        assert rows[1].shadow_case == "min9"
