"""Certified minimum weights and low-weight counts for binary linear codes.

The workhorse is an information-set enumeration in the Brouwer-Zimmermann
style.  Disjoint (up to borrowed columns) information sets are extracted
from the generator matrix by ``gf2core.eliminate``, fresh columns tried
before borrowed ones; enumerating all codewords that use at most r
rows of each set gives, once level r is complete on every set, the lower
bound

    wt(v) >= sum_j max(0, r_j + 1 - defect_j)

for every vector not yet seen.  The bound is then rounded up to the next
weight admissible for the code's parity class (multiples of 4 for doubly
even generators, even weights for even generators, with the matching
residue shift for cosets), which typically saves one or two enumeration
levels.

Cosets x + C are enumerated through per-set affine bases: x is reduced
against each information set by ``gf2core.reduce_bits`` so that the reduced
base vanishes on that set's pivot columns.  The same lower-bound formula
and deduplication rule then apply verbatim to the coset elements
themselves.

Enumeration is vectorized with numpy on bit-packed uint64 words, and each
set packs its rows, its base and its materialized levels to its own
columns: every column except its fresh pivots.  A level-r row of set i is
the base XOR r of the set's rows.  The rows are the identity on the pivot
columns and the base vanishes there, so the row has exactly r ones on
them, and its weight is

    wt = r + popcount(packed row & non-pivot columns).

The test is exact, so a row is kept or dropped by its first popcount.  At
n = 82 and k = 41 the packed width is 41 columns, one word per row.
Pivots a set borrowed from earlier sets stay in its packed rows: the dedup
test of set i reads each row on the pivot columns of every earlier set,
and set i's borrowed pivots are among those.  Its fresh pivots can be left
out, because no earlier set has them among its pivots.  Only the weight
test masks the borrowed columns out, since r already counts them.

Level r of a set is materialized in colex order from level r - 1 while the
set's levels 0..r together fit in ``_MAT_CAP`` bytes; higher levels are
streamed as suffix tuples XORed onto the largest materialized level.
Counts are deterministic: they do not depend on chunk sizes or on the
number of workers.

Counting finishes one set before it starts the next, and later sets read
only the earlier sets' pivot masks, so a set's levels are freed as soon as
its planned levels are done.  While counting, the engine thus holds at
most ``_MAT_CAP`` bytes of levels plus one chunk's working set: at n = 82,
levels 0..6 of one set, 43 MB.  The minimum-weight search keeps every
set's levels, because iterative deepening returns to earlier sets.

Serial counting is the one-worker case of one chunk loop; with more
workers the same chunk descriptors go to a per-level pool of forked
processes, which read the materialized levels copy-on-write instead of
receiving a pickled copy.  That per-level pool no longer pays: on two
cores, counting a Table 1 neighbor to weight 16 takes 0.73 s with two
workers against 0.42 s with one.  It is kept only until one process per
certificate replaces it.

numpy is imported on the first enumeration, not with the module: code
construction, the exact algebra and the CLI's start-up never need it, and
its import is the largest part of their start-up time.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from math import comb, inf
from typing import Iterable, Iterator, Mapping

from .gf2core import BitVector, LinearCode, eliminate, reduce_bits


class _LazyNumpy:
    """Stands in for numpy until first touched, then rebinds ``np`` to it."""

    def __getattr__(self, name: str):
        global np
        import numpy

        np = numpy
        return getattr(numpy, name)


np = _LazyNumpy()

_CHUNK = 1 << 20
# cap on the bytes of one set's materialized levels 0..r together: at
# n = 82 a row is one word, so levels 0..6 (5,358,578 rows, 43 MB) fit and
# level 7 alone (C(41, 7) rows, 179 MB) does not
_MAT_CAP = 1 << 26
_BRUTE_MAX_DIM = 28


@dataclass(frozen=True)
class SearchBudget:
    """Caps on an enumeration run.

    Attributes:
        max_enumerated: stop scheduling work once this many combinations
            have been generated (checked between chunks, so a running
            chunk may overshoot slightly).  None means unlimited.
        deadline_seconds: wall-clock allowance measured from the start of
            the call.  None means unlimited.
    """

    max_enumerated: int | None = None
    deadline_seconds: float | None = None


@dataclass(frozen=True)
class WeightDistribution:
    """Exact low-weight counts of a code or coset.

    ``counts[w]`` is the exact number of elements of weight w, for every
    w <= complete_upto.  Weights above complete_upto are not certified and
    are omitted.  ``total_dim`` is the dimension of the underlying code,
    so the full distribution would sum to 2**total_dim.
    """

    counts: Mapping[int, int]
    complete_upto: int
    total_dim: int

    def count(self, w: int) -> int:
        if w > self.complete_upto:
            raise ValueError(
                f"weight {w} not certified (complete up to {self.complete_upto})"
            )
        return self.counts.get(w, 0)

    def minimum(self, exclude_zero: bool = True) -> int | None:
        """Smallest certified weight with a nonzero count, if any."""
        wts = [w for w, c in self.counts.items() if c and (w > 0 or not exclude_zero)]
        return min(wts) if wts else None


# -- packing helpers --------------------------------------------------------


def _nwords(n: int) -> int:
    return (n + 63) // 64


def _pack(bits: int, words: int) -> np.ndarray:
    out = np.zeros(words, dtype=np.uint64)
    for w in range(words):
        out[w] = (bits >> (64 * w)) & 0xFFFFFFFFFFFFFFFF
    return out


def _compress(bits: int, cols: list[int]) -> int:
    """The bits of ``bits`` at positions ``cols``, as bits 0, 1, ... ."""
    return sum(1 << t for t, c in enumerate(cols) if bits >> c & 1)


def _weights_of(arr: np.ndarray) -> np.ndarray:
    """Row weights of packed rows, one column popcount at a time.

    Summing per column avoids the rows x words uint8 temporary that
    ``np.bitwise_count(arr).sum(axis=1)`` would build before reducing it.
    """
    wts = np.zeros(arr.shape[0], dtype=np.int64)
    for j in range(arr.shape[1]):
        wts += np.bitwise_count(arr[:, j])
    return wts


# -- information sets -------------------------------------------------------


@dataclass
class _InfoSet:
    rows_int: list[int]  # basis diagonalized on this set's pivot columns
    pivots: list[int]  # the k pivot columns, in row order: fresh, then borrowed
    defect: int  # pivot columns borrowed from earlier sets
    # packed to every column but the fresh pivots (see the module docstring)
    rows_np: np.ndarray = field(init=False)
    base_np: np.ndarray = field(init=False)
    free_np: np.ndarray | None = field(init=False)  # non-pivots; None if all
    masks_np: np.ndarray = field(init=False)  # earlier sets' pivot columns
    mat_limit: int = field(init=False)  # deepest materialized level


def _build_info_sets(gen_rows: list[int], n: int) -> list[_InfoSet]:
    """Greedy disjoint information sets, left to right.

    Each round eliminates the original generators over the columns unused
    by earlier sets first, then over the used ones; pivots on used columns
    count toward the set's defect.  Rounds stop when a set would have no
    fresh column at all.
    """
    k = len(gen_rows)
    sets: list[_InfoSet] = []
    used: set[int] = set()
    while True:
        fresh = [c for c in range(n) if c not in used]
        work, pivots = eliminate(gen_rows, fresh + sorted(used))
        fresh_pivots = [c for c in pivots if c not in used]
        if not fresh_pivots:
            break
        used.update(fresh_pivots)
        sets.append(
            _InfoSet(rows_int=work, pivots=pivots, defect=k - len(fresh_pivots))
        )
    return sets


# -- parity rounding --------------------------------------------------------


def _parity_step(gen_rows: list[int], offset: int) -> tuple[int, int]:
    """Returns (step, residue): admissible weights are residue mod step."""
    weights = [r.bit_count() for r in gen_rows]
    ortho = all(
        (a & b).bit_count() % 2 == 0
        for i, a in enumerate(gen_rows)
        for b in gen_rows[i:]
    )
    mod4 = ortho and all(w % 4 == 0 for w in weights)
    even = all(w % 2 == 0 for w in weights)
    if mod4 and all((r & offset).bit_count() % 2 == 0 for r in gen_rows):
        return 4, offset.bit_count() % 4
    if even:
        return 2, offset.bit_count() % 2
    return 1, 0


def _round_up(raw: int, step: int, residue: int) -> int:
    return raw + (residue - raw) % step


# -- the engine -------------------------------------------------------------


class _Exhausted(Exception):
    """Internal: budget ran out; partial state lives on the engine."""


class _Engine:
    def __init__(
        self,
        code: LinearCode,
        offset: BitVector | None,
        budget: SearchBudget | None,
    ):
        if offset is not None and offset.length != code.length:
            raise ValueError("x has the wrong length")
        if code.dimension == 0:
            raise ValueError("the zero code has no enumerable words")
        self.n = code.length
        self.k = code.dimension
        gen_rows = [r.bits for r in code.generators]
        off = offset.bits if offset is not None else 0
        self.sets = _build_info_sets(gen_rows, self.n)
        pivot_masks = [sum(1 << c for c in s.pivots) for s in self.sets]
        for si, s in enumerate(self.sets):
            fresh = set(s.pivots[: self.k - s.defect])
            cols = [c for c in range(self.n) if c not in fresh]
            words = _nwords(len(cols))

            def pack(*ints: int) -> np.ndarray:
                return np.array(
                    [_pack(_compress(b, cols), words) for b in ints],
                    dtype=np.uint64,
                ).reshape(len(ints), words)

            s.rows_np = pack(*s.rows_int)
            s.base_np = pack(reduce_bits(off, s.rows_int, s.pivots))[0]
            s.free_np = (
                pack(((1 << self.n) - 1) & ~pivot_masks[si])[0]
                if s.defect
                else None
            )
            s.masks_np = pack(*pivot_masks[:si])
            # levels 0..mat_limit fit in _MAT_CAP bytes together; deeper
            # levels stream as suffix tuples
            row_bytes = 8 * max(1, words)
            r, held = 0, row_bytes
            while r < self.k and held + comb(self.k, r + 1) * row_bytes <= _MAT_CAP:
                r += 1
                held += comb(self.k, r) * row_bytes
            s.mat_limit = r
        self.step, self.residue = _parity_step(gen_rows, off)
        # per-set materialized colex levels: _mat[si][r] has C(k, r) rows
        self._mat: list[list[np.ndarray]] = [
            [s.base_np.reshape(1, -1).copy()] for s in self.sets
        ]
        self.enumerated = 0
        budget = budget or SearchBudget()
        self.max_enum: float = (
            budget.max_enumerated if budget.max_enumerated is not None else inf
        )
        self.deadline = (
            time.monotonic() + budget.deadline_seconds
            if budget.deadline_seconds is not None
            else None
        )

    def _charge(self, amount: int):
        self.enumerated += amount
        if self.enumerated >= self.max_enum:
            raise _Exhausted
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _Exhausted

    def _materialize(self, si: int, r: int):
        """Extends the cached colex levels of set si up to level r.

        Level r in colex order is the concatenation, over the top row
        index m, of level r - 1 restricted to combinations inside
        {0..m-1}, XOR row m.  Each level is allocated once and every such
        slice is XORed straight into it.  The base offset is already
        folded into level 0, and XOR keeps it folded at every level.
        """
        mat = self._mat[si]
        rows = self.sets[si].rows_np
        while len(mat) - 1 < r:
            prev = len(mat) - 1
            nxt = np.empty((comb(self.k, prev + 1), rows.shape[1]), dtype=np.uint64)
            at = 0
            for m in range(prev, self.k):
                cnt = comb(m, prev)
                np.bitwise_xor(mat[prev][:cnt], rows[m], out=nxt[at : at + cnt])
                at += cnt
            assert at == nxt.shape[0]
            mat.append(nxt)

    def _chunks(self, si: int, r: int) -> Iterator[tuple]:
        """Chunk descriptors (b, tup, lo, hi) covering level r of set si.

        A descriptor stands for rows lo..hi of materialized level b, each
        XORed with the rows of set si listed in the suffix tuple ``tup``;
        ``tup`` is empty when level r itself is materialized.  Level b is
        materialized before this returns, so a pool forked afterwards
        shares it; the descriptors are then produced lazily.
        """
        b = min(r, self.sets[si].mat_limit)
        self._materialize(si, b)

        def descriptors():
            for tup in itertools.combinations(range(b, self.k), r - b):
                # the suffix fixes the top row, so only colex rows below it
                cnt = comb(tup[0] if tup else self.k, b)
                for lo in range(0, cnt, _CHUNK):
                    yield b, tup, lo, min(lo + _CHUNK, cnt)

        return descriptors()

    def _rows(
        self, si: int, chunk: tuple, w: int
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """(rows, weights, size): the chunk's packed rows of weight <= w.

        A level-r row has exactly r ones on the set's pivot columns, so its
        weight is r plus the popcount of its non-pivot columns; ``size`` is
        the chunk's row count before the weight filter.
        """
        b, tup, lo, hi = chunk
        s = self.sets[si]
        r = b + len(tup)
        rows = self._mat[si][b][lo:hi]
        if tup:
            rows = rows ^ np.bitwise_xor.reduce(s.rows_np[list(tup)], axis=0)
        free = rows if s.free_np is None else rows & s.free_np
        if free.shape[1] == 1:  # one uint8 popcount per row, no int64 sum
            pc = np.bitwise_count(free[:, 0])
        else:
            pc = _weights_of(free)
        keep = np.flatnonzero(pc <= w - r)
        return rows[keep], pc[keep].astype(np.int64) + r, rows.shape[0]

    def raw_bound(self, levels: list[int]) -> int:
        raw = sum(
            max(0, lv + 1 - s.defect) for lv, s in zip(levels, self.sets)
        )
        return _round_up(raw, self.step, self.residue)

    def next_set(self, levels: list[int]) -> int | None:
        """The set whose next level is cheapest; None once all are complete."""
        return min(
            (i for i in range(len(self.sets)) if levels[i] < self.k),
            key=lambda i: comb(self.k, levels[i] + 1),
            default=None,
        )

    # -- minimum weight ----------------------------------------------------

    def run_min(self, include_zero: bool) -> tuple[int, int]:
        """Iterative deepening; returns (lower, upper), equal when exact.

        ``include_zero`` distinguishes coset minimums (the base vector is
        a legitimate element) from code minimums (the zero word is not).
        """
        levels = [-1] * len(self.sets)
        hi = inf
        complete = True
        try:
            while True:
                lb = self.raw_bound(levels)
                if lb >= hi:
                    break
                nxt = self.next_set(levels)
                if nxt is None:
                    break  # whole space enumerated: hi is the true minimum
                r = levels[nxt] + 1
                for chunk in self._chunks(nxt, r):
                    _, wts, size = self._rows(nxt, chunk, min(hi - 1, self.n))
                    if not include_zero:
                        wts = wts[wts > 0]
                    if wts.size:
                        hi = int(wts.min())
                    self._charge(size)
                levels[nxt] = r
        except _Exhausted:
            complete = False
        if hi == inf:
            hi = self.n  # k >= 1, so some word exists even if none was seen
        lo = hi if complete else min(self.raw_bound(levels), hi)
        return lo, hi

    # -- exact counting ----------------------------------------------------

    def plan_levels(self, w: int) -> list[int]:
        """Cheapest static schedule whose bound certifies weights <= w."""
        levels = [0] * len(self.sets)
        while self.raw_bound(levels) <= w:
            nxt = self.next_set(levels)
            if nxt is None:
                break  # full enumeration reached on every set
            levels[nxt] += 1
        return levels

    def tally(
        self, si: int, w: int, caps: list[int], chunk: tuple
    ) -> tuple[np.ndarray, int]:
        """Weight histogram of one chunk, and the chunk's row count.

        Only rows of weight <= w are tallied, and of those only the ones
        whose restriction to some earlier set j's pivot columns has more
        than caps[j] ones: the rest were already tallied at set j.
        """
        rows, wts, size = self._rows(si, chunk, w)
        for mask, cap in zip(self.sets[si].masks_np, caps):
            if rows.shape[0] == 0:
                break
            keep = _weights_of(rows & mask) > cap
            rows = rows[keep]
            wts = wts[keep]
        return np.bincount(wts, minlength=w + 1), size

    def run_count(self, w: int, workers: int) -> tuple[dict[int, int], int]:
        """Counts elements of weight <= w; returns (counts, certified_upto).

        Sets are processed in order, each to its planned level.  An element
        is tallied at the first set whose pivot-column restriction is small
        enough to have produced it; later sets skip it by that same test,
        so completed earlier sets make the rule exact under any schedule.
        With more than one worker, each level's chunks are tallied by a
        pool forked after the level is materialized.  Tallies are merged by
        summation, so the result cannot depend on scheduling; the budget is
        charged after each merged chunk.
        """
        plan = self.plan_levels(w)
        hist = np.zeros(w + 1, dtype=np.int64)
        done = [-1] * len(self.sets)
        fork = False
        if workers > 1:
            from multiprocessing import get_all_start_methods, get_context

            fork = "fork" in get_all_start_methods()
        exhausted = False
        try:
            for si in range(len(self.sets)):
                caps = plan[:si]
                for r in range(0, plan[si] + 1):
                    chunks = self._chunks(si, r)
                    if fork:
                        with get_context("fork").Pool(
                            workers, _fork_init, (self, si, w, caps)
                        ) as pool:
                            self._merge(hist, pool.imap(_fork_tally, chunks))
                    else:
                        self._merge(
                            hist, (self.tally(si, w, caps, c) for c in chunks)
                        )
                    done[si] = r
                # later sets never read these levels: their dedup reads masks_np
                self._mat[si].clear()
        except _Exhausted:
            exhausted = True
        certified = min(w, self.raw_bound(done) - 1) if exhausted else w
        counts = {
            i: int(c) for i, c in enumerate(hist) if c and i <= certified
        }
        return counts, certified

    def _merge(
        self, hist: np.ndarray, parts: Iterable[tuple[np.ndarray, int]]
    ):
        for part, size in parts:
            hist += part
            self._charge(size)


# set in each forked worker by _fork_init; the parent never assigns it
_FORK_ENGINE = None


def _fork_init(engine: _Engine, si: int, w: int, caps: list[int]):
    global _FORK_ENGINE
    _FORK_ENGINE = (engine, si, w, caps)


def _fork_tally(chunk: tuple) -> tuple[np.ndarray, int]:
    engine, si, w, caps = _FORK_ENGINE
    return engine.tally(si, w, caps, chunk)


# -- public operations ------------------------------------------------------


def min_weight(
    code: LinearCode,
    budget: SearchBudget | None = None,
) -> int | tuple[int, int]:
    """Certified minimum weight of a nonzero codeword.

    Returns the exact minimum weight, or a pair (lower, upper) when the
    budget runs out first.  The bounds are always valid; exactness is
    exactly the condition lower == upper, which the int return signals.
    """
    return _min(code, None, False, budget)


def coset_min_weight(
    code: LinearCode,
    x: BitVector,
    budget: SearchBudget | None = None,
) -> int | tuple[int, int]:
    """Certified minimum weight of the coset x + C (x itself included)."""
    return _min(code, x, True, budget)


def count_words_upto(
    code: LinearCode,
    w: int,
    budget: SearchBudget | None = None,
    *,
    workers: int = 1,
) -> WeightDistribution:
    """Exact codeword counts for every weight <= w (weight 0 included).

    With a budget, the distribution may come back certified only up to a
    smaller weight; ``complete_upto`` always states what is exact.
    """
    return _count(code, None, w, budget, workers)


def count_coset_upto(
    code: LinearCode,
    x: BitVector,
    w: int,
    budget: SearchBudget | None = None,
    *,
    workers: int = 1,
) -> WeightDistribution:
    """Exact counts of coset elements of x + C for every weight <= w."""
    return _count(code, x, w, budget, workers)


def _min(
    code: LinearCode,
    x: BitVector | None,
    include_zero: bool,
    budget: SearchBudget | None,
) -> int | tuple[int, int]:
    lo, hi = _Engine(code, x, budget).run_min(include_zero)
    return hi if lo >= hi else (lo, hi)


def _count(
    code: LinearCode,
    x: BitVector | None,
    w: int,
    budget: SearchBudget | None,
    workers: int,
) -> WeightDistribution:
    if w < 0:
        raise ValueError("w must be nonnegative")
    counts, certified = _Engine(code, x, budget).run_count(w, workers)
    return WeightDistribution(
        counts=counts, complete_upto=certified, total_dim=code.dimension
    )


def brute_force_wef(code: LinearCode) -> WeightDistribution:
    """Full weight distribution by enumerating all 2^k codewords (k <= 28)."""
    return _brute(code, 0)


def brute_force_coset_wef(code: LinearCode, x: BitVector) -> WeightDistribution:
    """Full weight distribution of the coset x + C by enumeration (k <= 28)."""
    if x.length != code.length:
        raise ValueError("x has the wrong length")
    return _brute(code, x.bits)


def _brute(code: LinearCode, offset: int) -> WeightDistribution:
    k = code.dimension
    n = code.length
    if k > _BRUTE_MAX_DIM:
        raise ValueError(f"dimension {k} exceeds brute-force limit {_BRUTE_MAX_DIM}")
    words = _nwords(n)
    rows = [_pack(r.bits, words) for r in code.generators]
    base_dim = min(k, 20)
    arr = _pack(offset, words).reshape(1, -1)
    for i in range(base_dim):
        arr = np.concatenate([arr, arr ^ rows[i]])
    tally = np.zeros(n + 1, dtype=np.int64)
    cur = np.zeros(words, dtype=np.uint64)
    steps = 1 << (k - base_dim)
    for step in range(steps):
        if step:
            flip = (step & -step).bit_length() - 1
            cur = cur ^ rows[base_dim + flip]
        tally += np.bincount(_weights_of(arr ^ cur), minlength=n + 1)
    counts = {w: int(c) for w, c in enumerate(tally) if c}
    return WeightDistribution(counts=counts, complete_upto=n, total_dim=k)
