"""Core GF(2) machinery: vectors, RREF codes, duality, shadows, splits, file I/O."""

import json

import pytest

from sdcodes.gf2core import (
    BitVector,
    CosetSplit,
    LinearCode,
    ParityClass,
    ParseError,
    code_from_json,
    code_to_json,
    concat,
    coset_split,
    doubly_even_subcode,
    dual,
    dumps_code,
    load_code,
    loads_code,
    parity_class,
    rains_bound,
    save_code,
    shadow,
)
from conftest import (
    MALFORMED_JSON,
    e8_code,
    pairs_code,
    random_self_dual,
    random_singly_even,
)


class TestBitVector:
    def test_round_trip_01(self):
        v = BitVector.from01("0110100")
        assert v.length == 7
        assert v.to01() == "0110100"
        assert v.weight == 3

    def test_support_is_one_indexed(self):
        v = BitVector.from01("0110100")
        assert v.support == (2, 3, 5)
        assert BitVector.from_support(7, [2, 3, 5]) == v

    def test_getitem_one_indexed(self):
        v = BitVector.from01("100")
        assert v[1] == 1 and v[2] == 0 and v[3] == 0
        with pytest.raises(IndexError):
            v[0]
        with pytest.raises(IndexError):
            v[4]

    def test_dot_and_overlap(self):
        a = BitVector.from01("1101")
        b = BitVector.from01("1011")
        assert a.dot(b) == 0
        assert a.dot(BitVector.from01("0111")) == 0
        assert a.dot(BitVector.from01("1000")) == 1

    def test_xor_and_bool(self):
        a = BitVector.from01("1100")
        b = BitVector.from01("0110")
        assert (a ^ b).to01() == "1010"
        assert not (a ^ a)

    def test_rejects_bad_input(self):
        with pytest.raises(ParseError):
            BitVector.from01("012")
        with pytest.raises(ValueError):
            BitVector.from_support(4, [5])
        with pytest.raises(ValueError):
            BitVector(3, 8)
        with pytest.raises(ValueError):
            BitVector.from01("10").dot(BitVector.from01("100"))

    def test_concat(self):
        v = concat(BitVector.from01("10"), BitVector.from01("011"))
        assert v.to01() == "10011"


class TestRref:
    """A code is the RREF of its rows: canonical, idempotent, coset-exact."""

    def test_small_example(self):
        code = LinearCode.from_rows(4, ["1100", "0110", "1010"])
        assert code.dimension == 2
        assert code._pivots == (0, 1)
        assert [r.to01() for r in code.generators] == ["1010", "0110"]

    def test_idempotent_and_span_preserved(self, rng):
        for _ in range(25):
            n = rng.randrange(3, 12)
            rows = [BitVector(n, rng.getrandbits(n)) for _ in range(rng.randrange(1, 8))]
            code = LinearCode.from_rows(n, rows)
            assert LinearCode.from_rows(n, code.generators) == code
            assert list(code._pivots) == sorted(set(code._pivots))
            for r in rows:
                assert r in code and not code.coset_rep(r)

    def test_coset_rep_is_coset_canonical(self, rng):
        for _ in range(25):
            n = rng.randrange(3, 12)
            rows = [rng.getrandbits(n) for _ in range(rng.randrange(1, n))]
            code = LinearCode.from_rows(n, rows)
            v = BitVector(n, rng.getrandbits(n))
            rep = code.coset_rep(v)
            assert code.coset_rep(rep) == rep
            assert all(code.coset_rep(v ^ c) == rep for c in code.words())
            u = BitVector(n, rng.getrandbits(n))
            assert (code.coset_rep(u) == rep) == ((u ^ v) in code)


class TestLinearCode:
    def test_canonical_equality(self):
        a = LinearCode.from_rows(4, ["1100", "0011"])
        b = LinearCode.from_rows(4, ["1111", "0011"])
        assert a == b
        assert a.dimension == 2

    def test_from_rows_accepts_three_row_types(self):
        code = LinearCode.from_rows(4, ["1100", 0b1100, BitVector.from01("0011")])
        assert code == LinearCode.from_rows(4, ["1100", "0011"])
        with pytest.raises(TypeError):
            LinearCode.from_rows(4, [[1, 1, 0, 0]])
        for bad in ("110", BitVector.from01("11000"), 1 << 4):
            with pytest.raises(ValueError):
                LinearCode.from_rows(4, ["1100", bad])

    def test_contains_and_words(self):
        c = e8_code()
        assert c.dimension == 4
        words = set(v.bits for v in c.words())
        assert len(words) == 16
        for v in c.words():
            assert v in c
        assert BitVector.from01("10000000") not in c

    def test_words_weights_doubly_even(self):
        c = e8_code()
        assert sorted(v.weight for v in c.words()) == [0] + [4] * 14 + [8]


class TestDual:
    def test_self_dual_examples(self):
        assert dual(e8_code()) == e8_code()
        assert dual(pairs_code(10)) == pairs_code(10)

    def test_double_dual_and_dimensions(self, rng):
        for _ in range(20):
            n = rng.randrange(4, 14)
            rows = [BitVector(n, rng.getrandbits(n)) for _ in range(rng.randrange(1, n))]
            c = LinearCode.from_rows(n, rows)
            if c.dimension == 0:
                continue
            d = dual(c)
            assert c.dimension + d.dimension == n
            assert dual(d) == c
            for u in c.generators:
                for v in d.generators:
                    assert u.dot(v) == 0

    def test_dual_is_full_orthogonal_space(self):
        c = LinearCode.from_rows(5, ["11000", "00110"])
        d = dual(c)
        brute = [
            BitVector(5, b)
            for b in range(32)
            if all(BitVector(5, b).dot(g) == 0 for g in c.generators)
        ]
        assert sorted(v.bits for v in d.words()) == sorted(v.bits for v in brute)


class TestParityAndShadow:
    def test_parity_classes(self):
        assert parity_class(e8_code()) is ParityClass.DOUBLY_EVEN
        assert parity_class(pairs_code(6)) is ParityClass.SINGLY_EVEN
        with pytest.raises(ValueError):
            parity_class(LinearCode.from_rows(4, ["1100"]))

    def test_random_self_dual_walk(self, rng):
        for n in (8, 10, 12, 14):
            c = random_self_dual(n, rng)
            assert c.is_self_dual
            assert all(v.weight % 2 == 0 for v in c.words())

    def test_doubly_even_subcode(self, rng):
        for n in (6, 10, 12, 14):
            c = random_singly_even(n, rng)
            c0 = doubly_even_subcode(c)
            assert c0.dimension == c.dimension - 1
            expect = {v.bits for v in c.words() if v.weight % 4 == 0}
            assert {v.bits for v in c0.words()} == expect

    def test_doubly_even_subcode_rejects(self):
        with pytest.raises(ValueError):
            doubly_even_subcode(e8_code())

    def test_shadow_matches_brute_force(self, rng):
        for n in (6, 10, 12, 14):
            c = random_singly_even(n, rng)
            s = shadow(c)
            c0_perp = dual(s.c0)
            brute = {v.bits for v in c0_perp.words()} - {v.bits for v in c.words()}
            got = {(s.rep ^ v).bits for v in c.words()}
            assert got == brute
            assert s.rep.bits in brute

    def test_shadow_weights_mod_four(self, rng):
        # every shadow weight is congruent to n/2 mod 4
        for n in (6, 10, 14):
            c = random_singly_even(n, rng)
            s = shadow(c)
            for v in c.words():
                assert (s.rep ^ v).weight % 4 == (n // 2) % 4

    def test_shadow_rejects_doubly_even(self):
        with pytest.raises(ValueError):
            shadow(e8_code())


class TestCosetSplit:
    def test_partition_of_c0_dual(self, rng):
        c = e8_code()
        for bits in (0b1, 0b10110101, 0b1110):
            x = BitVector(8, bits | 1 if bin(bits).count("1") % 2 == 0 else bits)
            if x.weight % 2 == 0:
                continue
            split = coset_split(c, x)
            assert isinstance(split, CosetSplit)
            c0 = split.c0
            assert c0.dimension == 3
            all_words = {v.bits for v in dual(c0).words()}
            union = set()
            for rep in (BitVector.zero(8), split.r1, split.r2, split.r3):
                piece = {(rep ^ v).bits for v in c0.words()}
                assert not (piece & union)
                union |= piece
            assert union == all_words

    def test_piece_membership(self):
        c = e8_code()
        x = BitVector.from_support(8, [1])
        split = coset_split(c, x)
        assert (split.r1 ^ x) in split.c0
        assert split.r2 in c and split.r2 not in split.c0
        assert (split.r3 ^ x ^ split.r2) in split.c0

    def test_rejects_bad_inputs(self):
        c = e8_code()
        with pytest.raises(ValueError):
            coset_split(c, BitVector.from01("11000000"))  # even weight
        with pytest.raises(ValueError):
            coset_split(pairs_code(8), BitVector.from_support(8, [1]))  # singly even
        with pytest.raises(ValueError):
            coset_split(c, BitVector.from_support(10, [1]))  # wrong length


class TestRainsBound:
    def test_values(self):
        assert rains_bound(22) == 6
        assert rains_bound(24) == 8
        assert rains_bound(58) == 12
        assert rains_bound(80) == 16
        assert rains_bound(82) == 16
        assert rains_bound(106) == 20
        assert rains_bound(130) == 24

    def test_rejects(self):
        with pytest.raises(ValueError):
            rains_bound(7)
        with pytest.raises(ValueError):
            rains_bound(0)


class TestFileFormats:
    def test_text_round_trip(self, tmp_path):
        c = e8_code()
        p = tmp_path / "e8.txt"
        save_code(c, p)
        assert load_code(p) == c

    def test_json_round_trip(self, tmp_path):
        c = pairs_code(6)
        p = tmp_path / "c.json"
        save_code(c, p)
        assert load_code(p) == c
        obj = json.loads(p.read_text())
        assert obj["length"] == 6 and obj["dimension"] == 3

    def test_text_comments_and_blanks(self):
        c = loads_code("# header\n\n1100  \n0011 # trailing\n")
        assert c == LinearCode.from_rows(4, ["1100", "0011"])

    def test_parse_error_reports_line(self):
        with pytest.raises(ParseError, match="line 3"):
            loads_code("1100\n0011\n01x0\n")
        with pytest.raises(ParseError, match="line 2"):
            loads_code("1100\n011\n")
        with pytest.raises(ParseError):
            loads_code("# nothing\n")

    def test_json_rejects_bad_dimension(self):
        obj = code_to_json(e8_code())
        obj["dimension"] = 2
        with pytest.raises(ParseError):
            code_from_json(obj)

    @pytest.mark.parametrize("text", MALFORMED_JSON.values(), ids=MALFORMED_JSON)
    def test_malformed_json_is_a_parse_error(self, tmp_path, text):
        p = tmp_path / "bad.json"
        p.write_text(text)
        with pytest.raises(ParseError):
            load_code(p)

    def test_dumps_includes_rows(self):
        text = dumps_code(e8_code())
        assert text.count("\n") == 5  # header + 4 rows
