"""Enumeration engine: certified minimums and exact low-weight counts.

Brute-force enumeration over all 2^k words is the oracle throughout.
"""

import itertools
import random
import tracemalloc

import numpy as np
import pytest

import sdcodes.minweight as mw
from sdcodes.constructions import build_c82, table1
from sdcodes.gf2core import BitVector, LinearCode
from sdcodes.minweight import (
    SearchBudget,
    WeightDistribution,
    brute_force_coset_wef,
    brute_force_wef,
    coset_min_weight,
    count_coset_upto,
    count_words_upto,
    min_weight,
)
from conftest import e8_code, pairs_code, random_self_dual


def random_code(n, kmax, rng):
    rows = [BitVector(n, rng.getrandbits(n)) for _ in range(rng.randrange(1, kmax))]
    c = LinearCode.from_rows(n, rows)
    return c if c.dimension else None


def brute_min(c, exclude_zero=True):
    return min(v.weight for v in c.words() if v.weight or not exclude_zero)


class TestBruteForce:
    def test_e8_distribution(self):
        d = brute_force_wef(e8_code())
        assert d.counts == {0: 1, 4: 14, 8: 1}
        assert d.complete_upto == 8
        assert d.total_dim == 4

    def test_pairs_distribution(self):
        d = brute_force_wef(pairs_code(6))
        assert d.counts == {0: 1, 2: 3, 4: 3, 6: 1}

    def test_matches_direct_enumeration(self, rng):
        for _ in range(20):
            c = random_code(rng.randrange(4, 14), 9, rng)
            if c is None:
                continue
            expect = {}
            for v in c.words():
                expect[v.weight] = expect.get(v.weight, 0) + 1
            assert brute_force_wef(c).counts == expect

    def test_coset_matches_direct(self, rng):
        for _ in range(20):
            c = random_code(rng.randrange(4, 12), 7, rng)
            if c is None:
                continue
            x = BitVector(c.length, rng.getrandbits(c.length))
            expect = {}
            for v in c.words():
                w = (v ^ x).weight
                expect[w] = expect.get(w, 0) + 1
            assert brute_force_coset_wef(c, x).counts == expect

    def test_dimension_limit(self):
        c = LinearCode.from_rows(30, [1 << i for i in range(30)])
        with pytest.raises(ValueError):
            brute_force_wef(c)

    def test_gray_walk_path(self, rng):
        # dimension above the doubling base exercises the Gray-code walk
        n = 24
        rows = [BitVector(n, rng.getrandbits(n)) for _ in range(23)]
        c = LinearCode.from_rows(n, rows)
        assert c.dimension > 20
        total = sum(brute_force_wef(c).counts.values())
        assert total == 1 << c.dimension


def check_info_sets(c):
    """The information-set invariants the lower bound relies on."""
    gens = [r.bits for r in c.generators]
    k = len(gens)
    sets = mw._build_info_sets(gens, c.length)
    assert sets and sets[0].rows_int == gens
    used = set()
    for s in sets:
        assert len(s.rows_int) == len(s.pivots) == k
        for i, row in enumerate(s.rows_int):
            assert [row >> p & 1 for p in s.pivots] == [int(i == j) for j in range(k)]
        assert LinearCode.from_rows(c.length, s.rows_int) == c
        fresh = s.pivots[: k - s.defect]
        assert fresh and used.isdisjoint(fresh)
        assert set(s.pivots[k - s.defect :]) <= used
        used.update(fresh)
    return sets


class TestInfoSets:
    def test_random_codes(self, rng):
        for _ in range(30):
            c = random_code(rng.randrange(4, 24), 14, rng)
            if c is not None:
                check_info_sets(c)

    def test_random_self_dual(self, rng):
        for n in (8, 12, 20, 26):
            check_info_sets(random_self_dual(n, rng))

    def test_defective_case(self):
        sets = check_info_sets(LinearCode.from_rows(4, ["1100", "1010"]))
        assert [s.defect for s in sets] == [0, 1]


class TestLevels:
    def test_colex_layout(self, rng):
        """Level r of a set is base ^ XOR of each r-subset of rows, in colex order."""
        for _ in range(12):
            n = rng.choice([16, 40, 70, 130])
            c = LinearCode.from_rows(n, [rng.getrandbits(n) for _ in range(12)])
            e = mw._Engine(c, BitVector(n, rng.getrandbits(n)), None)
            for si, s in enumerate(e.sets):
                assert s.mat_limit == e.k
                e._materialize(si, e.k)
                for r, level in enumerate(e._mat[si]):
                    subsets = sorted(
                        itertools.combinations(range(e.k), r), key=lambda t: t[::-1]
                    )
                    want = [
                        s.base_np ^ np.bitwise_xor.reduce(s.rows_np[list(t)], axis=0)
                        for t in subsets
                    ]
                    assert level.tolist() == np.array(want).tolist()


class TestMemory:
    def test_count_holds_one_set_of_levels(self):
        """Counting holds at most _MAT_CAP bytes of levels plus one chunk's rows.

        Both information sets of a Table 1 neighbor materialize levels 0..6
        (43 MB each); the first set's levels are freed before the second
        set's are built.
        """
        spec = table1()[0]
        code = spec.build(build_c82())
        tracemalloc.start()
        try:
            d = count_words_upto(code, 14, workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.count(14) == 3280 + 2 * spec.beta
        assert peak <= mw._MAT_CAP + 2 * mw._CHUNK * 8 + (1 << 20)


class TestMinWeight:
    def test_known_codes(self):
        assert min_weight(e8_code()) == 4
        assert min_weight(pairs_code(12)) == 2

    def test_random_codes_match_brute(self, rng):
        for _ in range(30):
            c = random_code(rng.randrange(4, 16), 10, rng)
            if c is None:
                continue
            assert min_weight(c) == brute_min(c)

    def test_random_self_dual_match_brute(self, rng):
        for n in (8, 10, 12, 16, 20):
            c = random_self_dual(n, rng)
            assert min_weight(c) == brute_min(c)

    def test_defective_information_sets(self):
        # second info set must borrow a column: only 1 fresh pivot remains
        c = LinearCode.from_rows(4, ["1100", "1010"])
        assert min_weight(c) == brute_min(c)

    def test_zero_code_rejected(self):
        c = LinearCode.from_rows(4, ["0000"])
        with pytest.raises(ValueError):
            min_weight(c)

    def test_budget_gives_valid_bounds(self, rng):
        for _ in range(10):
            c = random_code(14, 10, rng)
            if c is None or c.dimension < 6:
                continue
            res = min_weight(c, SearchBudget(max_enumerated=3))
            true = brute_min(c)
            if isinstance(res, tuple):
                lo, hi = res
                assert lo <= true <= hi
            else:
                assert res == true

    def test_deadline_zero_still_sound(self, rng):
        c = random_self_dual(20, rng)
        res = min_weight(c, SearchBudget(deadline_seconds=0.0))
        true = brute_min(c)
        if isinstance(res, tuple):
            assert res[0] <= true <= res[1]
        else:
            assert res == true


class TestCountWords:
    def test_full_count_small(self, rng):
        for _ in range(25):
            c = random_code(rng.randrange(4, 14), 9, rng)
            if c is None:
                continue
            w = rng.randrange(0, c.length + 1)
            got = count_words_upto(c, w)
            brute = brute_force_wef(c)
            assert got.complete_upto == w
            expect = {k: v for k, v in brute.counts.items() if k <= w}
            assert got.counts == expect

    def test_self_dual_counts(self, rng):
        for n in (12, 16, 20, 24):
            c = random_self_dual(n, rng)
            got = count_words_upto(c, n // 2)
            brute = brute_force_wef(c)
            assert got.counts == {
                k: v for k, v in brute.counts.items() if k <= n // 2
            }

    @pytest.mark.parametrize("workers", [1, 2])
    def test_budget_partial_is_exact_prefix(self, rng, workers):
        c = random_self_dual(24, rng)
        full = brute_force_wef(c)
        got = count_words_upto(
            c, 12, SearchBudget(max_enumerated=50), workers=workers
        )
        assert got.complete_upto <= 12
        for w, cnt in got.counts.items():
            assert w <= got.complete_upto
            assert cnt == full.counts.get(w, 0)

    @pytest.mark.parametrize("cap", [12, 400])
    def test_defective_sets_match_brute(self, rng, monkeypatch, cap):
        """Sets that borrow pivots, and redundancies n - k that cross a word.

        Rate above 1/2 leaves later information sets too few fresh columns,
        so they borrow pivots of earlier sets; n - k in {63, 64, 65} puts
        the columns off the first set's pivots on either side of 64.
        """
        monkeypatch.setattr(mw, "_CHUNK", 37)
        monkeypatch.setattr(mw, "_MAT_CAP", cap)
        codes = []
        while len(codes) < 4:
            n = rng.randrange(12, 22)
            k = rng.randrange(n // 2 + 1, min(n, 14))
            c = LinearCode.from_rows(n, [rng.getrandbits(n) for _ in range(k)])
            if 2 * c.dimension > n:
                codes.append(c)
        for redundancy in (63, 64, 65):
            k = rng.randrange(8, 11)
            n = k + redundancy
            c = LinearCode.from_rows(n, [rng.getrandbits(n) for _ in range(k)])
            assert c.dimension == k
            codes.append(c)
        for c in codes:
            gens = [r.bits for r in c.generators]
            assert any(s.defect for s in mw._build_info_sets(gens, c.length))
            x = BitVector(c.length, rng.getrandbits(c.length))
            brute = brute_force_wef(c)
            brute_coset = brute_force_coset_wef(c, x)
            weights = sorted(brute.counts)
            for w in (weights[len(weights) // 4], weights[len(weights) // 2]):
                got = count_words_upto(c, w)
                assert got.complete_upto == w
                assert got.counts == {
                    k: v for k, v in brute.counts.items() if k <= w
                }
                coset = count_coset_upto(c, x, w)
                assert coset.counts == {
                    k: v for k, v in brute_coset.counts.items() if k <= w
                }
            assert min_weight(c) == brute_min(c)
            assert coset_min_weight(c, x) == min(brute_coset.counts)

    def test_count_rejects_negative(self):
        with pytest.raises(ValueError):
            count_words_upto(e8_code(), -1)


class TestCosets:
    def test_coset_min_matches_brute(self, rng):
        for _ in range(25):
            c = random_code(rng.randrange(4, 14), 8, rng)
            if c is None:
                continue
            x = BitVector(c.length, rng.getrandbits(c.length))
            got = coset_min_weight(c, x)
            expect = min(brute_force_coset_wef(c, x).counts)
            assert got == expect

    def test_coset_containing_zero(self, rng):
        c = random_self_dual(12, rng)
        x = c.generators[0]
        assert coset_min_weight(c, x) == 0

    def test_coset_counts_match_brute(self, rng):
        for _ in range(20):
            c = random_code(rng.randrange(6, 14), 8, rng)
            if c is None:
                continue
            x = BitVector(c.length, rng.getrandbits(c.length))
            w = rng.randrange(0, c.length + 1)
            got = count_coset_upto(c, x, w)
            brute = brute_force_coset_wef(c, x)
            assert got.counts == {k: v for k, v in brute.counts.items() if k <= w}

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            coset_min_weight(e8_code(), BitVector.from01("110"))
        with pytest.raises(ValueError):
            count_coset_upto(e8_code(), BitVector.from01("110"), 4)


class TestDeterminism:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_chunk_size_invariance(self, rng, monkeypatch, workers):
        c = random_self_dual(24, rng)
        a = count_words_upto(c, 10)
        monkeypatch.setattr(mw, "_CHUNK", 37)
        b = count_words_upto(c, 10, workers=workers)
        assert a == b

    @pytest.mark.parametrize("workers", [1, 2])
    def test_materialization_cap_invariance(self, rng, monkeypatch, workers):
        c = random_self_dual(22, rng)
        x = BitVector(22, rng.getrandbits(22) | 1)
        a = count_words_upto(c, 10)
        monkeypatch.setattr(mw, "_MAT_CAP", 12)  # forces the suffix-tuple path
        b = count_words_upto(c, 10, workers=workers)
        assert a == b
        assert min_weight(c) == brute_min(c)
        coset = count_coset_upto(c, x, 11, workers=workers)
        brute = brute_force_coset_wef(c, x)
        assert coset.counts == {k: v for k, v in brute.counts.items() if k <= 11}

    def test_worker_invariance(self, rng):
        c = random_self_dual(28, rng)
        serial = count_words_upto(c, 12)
        parallel = count_words_upto(c, 12, workers=2)
        assert serial == parallel

    def test_worker_invariance_coset(self, rng):
        c = random_self_dual(24, rng)
        x = BitVector(24, rng.getrandbits(24) | 1)
        serial = count_coset_upto(c, x, 11)
        parallel = count_coset_upto(c, x, 11, workers=3)
        assert serial == parallel


class TestMultiWord:
    """Lengths above 64 bits, where word 0 alone does not give the weight."""

    @pytest.mark.parametrize("n", [70, 100, 130])
    def test_counts_match_brute(self, rng, monkeypatch, n):
        monkeypatch.setattr(mw, "_CHUNK", 37)
        monkeypatch.setattr(mw, "_MAT_CAP", 12)  # forces the suffix-tuple path
        for _ in range(3):
            dim = rng.randrange(8, 15)
            c = LinearCode.from_rows(n, [rng.getrandbits(n) for _ in range(dim)])
            x = BitVector(n, rng.getrandbits(n))
            brute = brute_force_wef(c)
            brute_coset = brute_force_coset_wef(c, x)
            weights = sorted(brute.counts)
            for w in (weights[len(weights) // 4], weights[len(weights) // 2]):
                got = count_words_upto(c, w)
                assert got.complete_upto == w
                assert got.counts == {
                    k: v for k, v in brute.counts.items() if k <= w
                }
                coset = count_coset_upto(c, x, w)
                assert coset.counts == {
                    k: v for k, v in brute_coset.counts.items() if k <= w
                }

    @pytest.mark.parametrize("words", [1, 2, 3])
    def test_weights_of(self, rng, words):
        for rows in (0, 1, 57):
            arr = np.array(
                [[rng.getrandbits(64) for _ in range(words)] for _ in range(rows)],
                dtype=np.uint64,
            ).reshape(rows, words)
            got = mw._weights_of(arr)
            assert got.dtype == np.int64
            assert got.tolist() == np.bitwise_count(arr).sum(axis=1).tolist()


class TestWeightDistribution:
    def test_count_accessor_guards(self):
        d = WeightDistribution(counts={0: 1, 4: 14}, complete_upto=5, total_dim=4)
        assert d.count(4) == 14
        assert d.count(3) == 0
        with pytest.raises(ValueError):
            d.count(6)

    def test_minimum(self):
        d = WeightDistribution(counts={0: 1, 4: 14}, complete_upto=8, total_dim=4)
        assert d.minimum() == 4
        assert d.minimum(exclude_zero=False) == 0
        empty = WeightDistribution(counts={}, complete_upto=2, total_dim=4)
        assert empty.minimum() is None
