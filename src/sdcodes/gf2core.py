"""Binary linear codes over GF(2): vectors, codes, duality, and shadows.

Vectors are stored as packed integers (bit i of the integer is coordinate
i + 1 of the vector), so weight, XOR, AND and inner products are single
machine operations on arbitrary-length words.  All user-facing coordinate
labels, such as supports and file formats, are 1-indexed; bit positions
inside the packed integers are 0-indexed.

Codes are kept in a canonical form: a code is the tuple of rows of the
reduced row echelon form of whatever rows were supplied.  Two ``LinearCode``
objects are equal exactly when they describe the same set of codewords.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence


class ParseError(ValueError):
    """Raised when a code file or vector literal cannot be parsed."""


@dataclass(frozen=True)
class BitVector:
    """An immutable vector in GF(2)^length, packed into a Python integer.

    Attributes:
        length: Number of coordinates.
        bits: Packed value; bit i holds coordinate i + 1.
    """

    length: int
    bits: int

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("length must be nonnegative")
        if self.bits < 0 or self.bits >> self.length:
            raise ValueError("bits outside of GF(2)^length")

    @classmethod
    def zero(cls, length: int) -> "BitVector":
        return cls(length, 0)

    @classmethod
    def from_support(cls, length: int, support: Iterable[int]) -> "BitVector":
        """Builds a vector from 1-indexed coordinate labels."""
        bits = 0
        for c in support:
            if not 1 <= c <= length:
                raise ValueError(f"coordinate {c} outside 1..{length}")
            bits |= 1 << (c - 1)
        return cls(length, bits)

    @classmethod
    def from01(cls, text: str) -> "BitVector":
        """Parses a 0/1 string; the first character is coordinate 1."""
        bits = 0
        for i, ch in enumerate(text):
            if ch == "1":
                bits |= 1 << i
            elif ch != "0":
                raise ParseError(f"invalid character {ch!r} in vector literal")
        return cls(len(text), bits)

    def to01(self) -> str:
        return "".join("1" if self.bits >> i & 1 else "0" for i in range(self.length))

    @property
    def support(self) -> tuple[int, ...]:
        """1-indexed coordinates of the nonzero entries."""
        return tuple(i + 1 for i in range(self.length) if self.bits >> i & 1)

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def dot(self, other: "BitVector") -> int:
        """Standard inner product over GF(2)."""
        self._check(other)
        return (self.bits & other.bits).bit_count() & 1

    def __xor__(self, other: "BitVector") -> "BitVector":
        self._check(other)
        return BitVector(self.length, self.bits ^ other.bits)

    def __and__(self, other: "BitVector") -> "BitVector":
        self._check(other)
        return BitVector(self.length, self.bits & other.bits)

    def __bool__(self) -> bool:
        return self.bits != 0

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, coord: int) -> int:
        """Entry at a 1-indexed coordinate."""
        if not 1 <= coord <= self.length:
            raise IndexError(f"coordinate {coord} outside 1..{self.length}")
        return self.bits >> (coord - 1) & 1

    def sort_key(self) -> tuple[int, str]:
        """Orders vectors by length, then lexicographically on the 0/1 string."""
        return (self.length, self.to01())

    def __str__(self) -> str:
        return self.to01()

    def _check(self, other: "BitVector"):
        if self.length != other.length:
            raise ValueError(f"length mismatch: {self.length} != {other.length}")


def concat(*parts: BitVector) -> BitVector:
    """Concatenates vectors; the first argument occupies the first coordinates."""
    bits = 0
    shift = 0
    for p in parts:
        bits |= p.bits << shift
        shift += p.length
    return BitVector(shift, bits)


def eliminate(
    rows: Sequence[int], cols: Iterable[int]
) -> tuple[list[int], list[int]]:
    """Gauss-Jordan elimination over GF(2) on packed-int rows.

    Columns are tried in the order given.  A column with a 1 in some row
    not yet pivoted becomes a pivot and is cleared in every other row.

    Returns:
        A pair (work, pivots).  ``work[:len(pivots)]`` are the pivot rows,
        row i holding a 1 in column ``pivots[i]``; the remaining rows
        vanish on every column of ``cols``.
    """
    work = list(rows)
    pivots: list[int] = []
    for col in cols:
        rank = len(pivots)
        if rank == len(work):
            break
        mask = 1 << col
        pivot = next((i for i in range(rank, len(work)) if work[i] & mask), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(len(work)):
            if i != rank and work[i] & mask:
                work[i] ^= work[rank]
        pivots.append(col)
    return work, pivots


def reduce_bits(bits: int, rows: Iterable[int], pivots: Iterable[int]) -> int:
    """Clears each pivot column of ``bits`` with the RREF row that holds it.

    The result is the canonical representative of ``bits``'s coset of the
    row space: two vectors reduce to the same value exactly when they
    differ by a row-space element.
    """
    for row, col in zip(rows, pivots):
        if bits >> col & 1:
            bits ^= row
    return bits


class ParityClass(Enum):
    """Weight residue class of a self-dual code.

    DOUBLY_EVEN means every codeword weight is divisible by 4; SINGLY_EVEN
    means all weights are even but some weight is 2 mod 4.
    """

    DOUBLY_EVEN = "doubly_even"
    SINGLY_EVEN = "singly_even"


@dataclass(frozen=True)
class LinearCode:
    """A binary linear code, held as its canonical RREF generator rows.

    Construct through :meth:`from_rows` unless the rows are already reduced;
    the constructor itself trusts its input.
    """

    length: int
    generators: tuple[BitVector, ...]

    @classmethod
    def from_rows(cls, length: int, rows: Iterable) -> "LinearCode":
        """The code spanned by BitVector, packed-int, or 0/1-string rows.

        Raises:
            TypeError: a row of any other type.
            ValueError: a row of the wrong length.
        """
        bits = []
        for r in rows:
            if isinstance(r, int):
                r = BitVector(length, r)
            elif isinstance(r, str):
                r = BitVector.from01(r)
            elif not isinstance(r, BitVector):
                raise TypeError(f"cannot build a row from {type(r).__name__}")
            if r.length != length:
                raise ValueError(f"row length {r.length} != {length}")
            bits.append(r.bits)
        work, pivots = eliminate(bits, range(length))
        return cls(length, tuple(BitVector(length, w) for w in work[: len(pivots)]))

    @property
    def dimension(self) -> int:
        return len(self.generators)

    @cached_property
    def _pivots(self) -> tuple[int, ...]:
        return tuple((r.bits & -r.bits).bit_length() - 1 for r in self.generators)

    def __contains__(self, v: BitVector) -> bool:
        return v.length == self.length and not self.coset_rep(v)

    def coset_rep(self, v: BitVector) -> BitVector:
        """Canonical representative of v + C."""
        rows = (r.bits for r in self.generators)
        return BitVector(v.length, reduce_bits(v.bits, rows, self._pivots))

    @cached_property
    def is_self_orthogonal(self) -> bool:
        rows = self.generators
        return all(
            rows[i].dot(rows[j]) == 0
            for i in range(len(rows))
            for j in range(i, len(rows))
        )

    @cached_property
    def is_self_dual(self) -> bool:
        return 2 * self.dimension == self.length and self.is_self_orthogonal

    def words(self) -> Iterator[BitVector]:
        """Yields all codewords.  Only sensible for small dimensions."""
        rows = [r.bits for r in self.generators]
        for m in range(1 << len(rows)):
            bits = 0
            for i, r in enumerate(rows):
                if m >> i & 1:
                    bits ^= r
            yield BitVector(self.length, bits)

    def __str__(self) -> str:
        return f"[{self.length},{self.dimension}] code"


@dataclass(frozen=True)
class CosetSplit:
    """The four-piece decomposition of (C0)^perp for doubly even self-dual C.

    Given an odd-weight x, C0 is the subcode of C orthogonal to x and the
    dual of C0 splits as C0, r1 + C0, r2 + C0, r3 + C0 where r1 lies in
    x + C0, r2 in C \\ C0, and r3 = r1 + r2's coset.  Representatives are
    canonical: each is reduced against C0's RREF basis.
    """

    c0: LinearCode
    r1: BitVector
    r2: BitVector
    r3: BitVector


@dataclass(frozen=True)
class ShadowCoset:
    """The shadow of a self-dual code, as the coset rep + C0.

    ``rep`` is deterministic: of the two C0-cosets making up the shadow,
    each canonical representative is computed, and the lexicographically
    smaller one is kept.
    """

    code: LinearCode
    c0: LinearCode
    rep: BitVector

    def __contains__(self, v: BitVector) -> bool:
        return (v ^ self.rep) in self.code


def dual(code: LinearCode) -> LinearCode:
    """The dual code under the standard inner product.

    The nullspace basis is read off the RREF generator matrix: for each
    non-pivot column there is one dual generator supported on that column
    and the pivot columns whose rows have a 1 there.
    """
    pivots = code._pivots
    pivot_set = set(pivots)
    out = []
    for col in range(code.length):
        if col in pivot_set:
            continue
        bits = 1 << col
        for row, p in zip(code.generators, pivots):
            if row.bits >> col & 1:
                bits |= 1 << p
        out.append(bits)
    return LinearCode.from_rows(code.length, out)


def parity_class(code: LinearCode) -> ParityClass:
    """Classifies a self-dual code as doubly or singly even.

    Raises:
        ValueError: if the code is not self-dual.
    """
    if not code.is_self_dual:
        raise ValueError("parity class is defined for self-dual codes only")
    # With even pairwise overlaps, weights mod 4 are determined by the
    # generator weights: the code is doubly even iff every generator is.
    if all(r.weight % 4 == 0 for r in code.generators):
        return ParityClass.DOUBLY_EVEN
    return ParityClass.SINGLY_EVEN


def _kernel_rows(
    code: LinearCode, f: Callable[[BitVector], int]
) -> tuple[list[BitVector], BitVector]:
    """Rows spanning {c in C : f(c) = 0} for a functional f linear on C.

    f must not vanish on C.  Returns the rows and the anchor: the first
    generator with f = 1, which is XORed onto every other such generator.
    """
    ortho = [r for r in code.generators if not f(r)]
    rest = [r for r in code.generators if f(r)]
    anchor = rest[0]
    return ortho + [anchor ^ r for r in rest[1:]], anchor


def doubly_even_subcode(code: LinearCode) -> LinearCode:
    """The doubly even subcode C0 of a singly even self-dual code.

    C0 collects the codewords of weight divisible by 4 and has index 2.
    Self-duality makes generator overlaps even, so wt/2 mod 2 is linear
    on C, and C0 is the subcode where it vanishes.
    """
    if parity_class(code) is not ParityClass.SINGLY_EVEN:
        raise ValueError("expected a singly even self-dual code")
    rows, _ = _kernel_rows(code, lambda r: r.weight >> 1 & 1)
    sub = LinearCode.from_rows(code.length, rows)
    assert sub.dimension == code.dimension - 1
    assert all(r.weight % 4 == 0 for r in sub.generators)
    return sub


def shadow(code: LinearCode) -> ShadowCoset:
    """The shadow S = C0^perp \\ C of a singly even self-dual code.

    S is a single coset of C inside C0^perp; the stored representative is
    the lexicographically smallest of the two canonical C0-coset reps.

    Raises:
        ValueError: if the code is not singly even self-dual.
    """
    c0 = doubly_even_subcode(code)
    c0_perp = dual(c0)
    out_c = [v for v in c0_perp.generators if v not in code]
    if not out_c:
        raise ValueError("dual of C0 does not extend C")  # unreachable for valid input
    s = out_c[0]
    # The other shadow coset of C0 is s + c for any c in C \ C0.
    c2 = next(r for r in code.generators if r.weight % 4 == 2)
    a = c0.coset_rep(s)
    b = c0.coset_rep(s ^ c2)
    rep = a if a.sort_key() <= b.sort_key() else b
    return ShadowCoset(code=code, c0=c0, rep=rep)


def coset_split(code: LinearCode, x: BitVector) -> CosetSplit:
    """Splits (C0)^perp by an odd-weight vector x for doubly even self-dual C.

    C0 here is the subcode of C orthogonal to x.  The length must be a
    multiple of 8 so that C can be doubly even self-dual.

    Raises:
        ValueError: if C is not doubly even self-dual, or wt(x) is even.
    """
    if x.length != code.length:
        raise ValueError("x has the wrong length")
    if x.weight % 2 == 0:
        raise ValueError("x must have odd weight")
    if not code.is_self_dual or parity_class(code) is not ParityClass.DOUBLY_EVEN:
        raise ValueError("expected a doubly even self-dual code")
    # x has odd weight while every codeword weight is even, so x is not in
    # C = C^perp and some generator fails orthogonality with x.
    rows, anchor = _kernel_rows(code, x.dot)
    c0 = LinearCode.from_rows(code.length, rows)
    assert c0.dimension == code.dimension - 1
    r1 = c0.coset_rep(x)
    r2 = c0.coset_rep(anchor)
    r3 = c0.coset_rep(x ^ anchor)
    return CosetSplit(c0=c0, r1=r1, r2=r2, r3=r3)


def rains_bound(n: int) -> int:
    """Upper bound on the minimum weight of a self-dual code of length n."""
    if n <= 0 or n % 2:
        raise ValueError("length must be a positive even integer")
    d = 4 * (n // 24) + 4
    if n % 24 == 22:
        d += 2
    return d


# -- file formats -----------------------------------------------------------
#
# Text format: one 0/1 generator row per line, '#' starts a comment,
# blank lines ignored.  JSON format: {"length": n, "rows": ["0101...", ...]}.


def loads_code(text: str) -> LinearCode:
    """Parses the text format.  Raises ParseError with a 1-based line number."""
    rows = []
    length = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if any(ch not in "01" for ch in line):
            raise ParseError(f"line {lineno}: rows must be strings of 0 and 1")
        if length is None:
            length = len(line)
        elif len(line) != length:
            raise ParseError(
                f"line {lineno}: row length {len(line)} != {length}"
            )
        rows.append(line)
    if not rows:
        raise ParseError("no generator rows found")
    return LinearCode.from_rows(length, rows)


def dumps_code(code: LinearCode) -> str:
    header = f"# [{code.length},{code.dimension}] binary code, RREF generators\n"
    return header + "".join(r.to01() + "\n" for r in code.generators)


def load_code(path) -> LinearCode:
    """Reads a code from a text or JSON file, chosen by the .json suffix."""
    with open(path) as f:
        text = f.read()
    if str(path).endswith(".json"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid JSON: {e}") from e
        return code_from_json(obj)
    return loads_code(text)


def save_code(code: LinearCode, path):
    with open(path, "w") as f:
        if str(path).endswith(".json"):
            json.dump(code_to_json(code), f, indent=1)
            f.write("\n")
        else:
            f.write(dumps_code(code))


def code_to_json(code: LinearCode) -> dict:
    return {
        "length": code.length,
        "dimension": code.dimension,
        "rows": [r.to01() for r in code.generators],
    }


def code_from_json(obj: dict) -> LinearCode:
    """Parses the JSON format.  Raises ParseError on a missing or malformed field."""
    try:
        code = LinearCode.from_rows(int(obj["length"]), list(obj["rows"]))
        declared = int(obj["dimension"]) if "dimension" in obj else code.dimension
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"missing or malformed field: {e}") from e
    if code.dimension != declared:
        raise ParseError(
            f"declared dimension {obj['dimension']} but rows span {code.dimension}"
        )
    return code
