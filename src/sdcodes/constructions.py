"""Generator constructions: bordered double circulants, the two-coordinate
odd-vector extension, self-dual neighbors, and the embedded length-82 data.

The central artifact is an [82,41,14] singly even self-dual code whose
shadow has minimum weight 1, built by extending an extremal doubly even
[80,40,16] bordered double circulant code along a weight-13 vector, plus
the fifty recorded self-dual neighbors of that code.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf2core import BitVector, LinearCode, _kernel_rows, concat, coset_split

# first row of the 39 x 39 circulant block of the [80,40,16] code
B80_FIRST_ROW = "111100000100101111101011101001101100011"

# support of the weight-13 extension vector producing the [82,41,14] code
X80_SUPPORT = (2, 5, 8, 11, 14, 17, 20, 23, 26, 29, 32, 35, 38)

# enumerator family tags -> shadow minimum-weight case names
FAMILY_CASES = {"W1": "wt1", "W2": "min5", "W3": "min9"}


@dataclass(frozen=True)
class CirculantSpec:
    """First row of the circulant block, plus the bordered-shape flag."""

    first_row: BitVector
    border: bool = True


def _rotations(first: BitVector) -> list[int]:
    """All m cyclic shifts of the first row, towards higher coordinates."""
    m = first.length
    mask = (1 << m) - 1
    bits = first.bits
    return [((bits << s) | (bits >> (m - s))) & mask if s else bits for s in range(m)]


def _assemble(spec: CirculantSpec) -> LinearCode:
    m = spec.first_row.length
    rot = _rotations(spec.first_row)
    if spec.border:
        # right block: corner 0 with a row of 1s, then a column of 1s
        # alongside the circulant rows
        right = [((1 << m) - 1) << 1]
        right += [1 | (r << 1) for r in rot]
        width = m + 1
    else:
        right = rot
        width = m
    n = 2 * width
    rows = [
        BitVector(n, (1 << i) | (right[i] << width)) for i in range(width)
    ]
    return LinearCode.from_rows(n, rows)


def bordered_double_circulant(spec: CirculantSpec) -> LinearCode:
    """The self-dual code [I | B] with B a (bordered) circulant block.

    Row i+1 of the circulant block is the cyclic right shift of row i.
    Left shifts would give the same Gram matrix, since the first row's
    cyclic autocorrelation is symmetric.

    Raises:
        ValueError: the code is not self-orthogonal (malformed first row).
    """
    code = _assemble(spec)
    if not code.is_self_orthogonal:
        raise ValueError("circulant spec yields no self-orthogonal code")
    return code


def tsai_extend(c: LinearCode, x: BitVector) -> LinearCode:
    """Two-coordinate extension of a doubly even self-dual code along x.

    With C split by the odd-weight vector x into the four cosets C0..C3
    of the x-orthogonal subcode, the result is
    (0,0,C0) u (1,0,C1) u (1,1,C2) u (0,1,C3): a singly even self-dual
    code of length n + 2 and dimension n/2 + 1 whose shadow contains a
    weight-1 vector.

    Raises:
        ValueError: c not doubly even self-dual, or x not of odd weight.
    """
    split = coset_split(c, x)
    rows = [concat(BitVector(2, 0), g) for g in split.c0.generators]
    rows.append(concat(BitVector.from01("10"), split.r1))
    rows.append(concat(BitVector.from01("11"), split.r2))
    return LinearCode.from_rows(c.length + 2, rows)


def build_b80() -> LinearCode:
    """The extremal doubly even self-dual [80,40,16] base code."""
    spec = CirculantSpec(first_row=BitVector.from01(B80_FIRST_ROW))
    return bordered_double_circulant(spec)


def build_c82() -> LinearCode:
    """The singly even self-dual [82,41,14] code with minimal shadow."""
    x = BitVector.from_support(80, X80_SUPPORT)
    return tsai_extend(build_b80(), x)


def neighbor(c: LinearCode, x: BitVector) -> LinearCode:
    """The self-dual neighbor <(C intersect x-perp), x> of a self-dual C.

    Raises:
        ValueError: c not self-dual, x of odd weight (not self-orthogonal),
            x already a codeword, or mismatched lengths.
    """
    if not c.is_self_dual:
        raise ValueError("base code must be self-dual")
    if x.length != c.length:
        raise ValueError("x length does not match the code")
    if x.weight % 2:
        raise ValueError("x must have even weight")
    if x in c:
        raise ValueError("x is already a codeword; the neighbor would be C itself")
    rows, _ = _kernel_rows(c, x.dot)
    return LinearCode.from_rows(c.length, rows + [x])


def neighbor_parameters(a14: int, a16: int) -> tuple[int, int]:
    """(alpha, beta) from the exact counts of a length-82 neighbor.

    The families with no weight-1 shadow vector (W2 and W3) have
    A_14 = 3280 + 2*beta and A_16 = 36244 + 128*alpha - 2*beta.

    Raises:
        ValueError: the counts lie off that integer lattice.
    """
    if (a14 - 3280) % 2:
        raise ValueError(f"A_14 = {a14} does not fit 3280 + 2*beta")
    beta = (a14 - 3280) // 2
    if (a16 - 36244 + 2 * beta) % 128:
        raise ValueError(f"A_16 = {a16} does not fit 36244 + 128*alpha - 2*beta")
    return (a16 - 36244 + 2 * beta) // 128, beta


@dataclass(frozen=True)
class NeighborSpec:
    """One recorded neighbor: the support of x and the expected invariants."""

    index: int
    family: str
    alpha: int
    beta: int
    support: tuple[int, ...]

    def __post_init__(self):
        if self.family not in FAMILY_CASES:
            raise ValueError(f"unknown family tag {self.family!r}")
        if list(self.support) != sorted(set(self.support)):
            raise ValueError("support must be sorted and duplicate-free")
        if self.support and not 1 <= self.support[0] <= self.support[-1] <= 82:
            raise ValueError("support coordinates must lie in 1..82")

    @property
    def shadow_case(self) -> str:
        return FAMILY_CASES[self.family]

    def vector(self) -> BitVector:
        return BitVector.from_support(82, self.support)

    def build(self, base: LinearCode) -> LinearCode:
        return neighbor(base, self.vector())


def table1() -> tuple[NeighborSpec, ...]:
    """The fifty recorded [82,41,14] neighbors."""
    return tuple(
        NeighborSpec(index=i, family=f, alpha=a, beta=b, support=sup)
        for i, f, a, b, sup in _TABLE1
    )


_TABLE1 = (
    (1, "W2", 18, -750,
     (2, 7, 10, 14, 47, 51, 54, 56, 58, 59, 62, 64, 72, 79)),
    (2, "W3", 1, -650,
     (2, 7, 12, 13, 14, 42, 47, 56, 57, 59, 61, 71, 73, 79)),
    (3, "W3", 1, -668,
     (6, 9, 11, 42, 44, 47, 51, 56, 59, 61, 75, 77, 78, 79)),
    (4, "W3", 1, -680,
     (5, 9, 45, 49, 55, 59, 61, 63, 66, 70, 71, 72, 75, 81)),
    (5, "W3", 1, -682,
     (2, 3, 9, 13, 14, 39, 40, 47, 49, 56, 57, 64, 77, 82)),
    (6, "W3", 1, -686,
     (2, 3, 9, 11, 12, 45, 46, 49, 53, 64, 72, 75, 77, 80)),
    (7, "W3", 1, -688,
     (5, 43, 46, 49, 50, 51, 63, 65, 66, 71, 72, 73, 77, 81)),
    (8, "W3", 1, -692,
     (3, 4, 5, 7, 9, 45, 48, 55, 56, 58, 61, 66, 73, 77)),
    (9, "W3", 1, -694,
     (3, 7, 40, 46, 49, 52, 54, 57, 58, 59, 72, 74, 75, 79)),
    (10, "W3", 1, -696,
     (3, 11, 14, 44, 45, 46, 49, 51, 59, 71, 72, 76, 77, 81)),
    (11, "W3", 1, -698,
     (6, 7, 10, 12, 46, 51, 53, 55, 58, 70, 71, 73, 78, 82)),
    (12, "W3", 1, -700,
     (5, 8, 47, 51, 52, 57, 61, 66, 67, 71, 72, 74, 79, 80)),
    (13, "W3", 1, -702,
     (2, 3, 7, 8, 9, 11, 40, 44, 49, 52, 55, 63, 77, 82)),
    (14, "W3", 1, -704,
     (11, 12, 45, 46, 49, 50, 52, 55, 60, 62, 66, 70, 71, 81)),
    (15, "W3", 1, -712,
     (3, 44, 45, 46, 58, 60, 62, 64, 65, 67, 68, 73, 74, 77)),
    (16, "W3", 1, -722,
     (2, 4, 10, 43, 45, 46, 49, 54, 64, 66, 76, 78, 80, 81)),
    (17, "W3", 1, -738,
     (2, 4, 9, 10, 45, 56, 57, 59, 63, 64, 67, 68, 70, 76)),
    (18, "W3", 1, -748,
     (3, 6, 9, 10, 40, 47, 53, 54, 55, 68, 73, 76, 80, 81)),
    (19, "W3", 2, -672,
     (2, 11, 13, 37, 47, 51, 52, 55, 70, 77, 78, 79, 80, 82)),
    (20, "W3", 2, -720,
     (3, 9, 11, 47, 49, 59, 60, 62, 67, 68, 74, 76, 81, 82)),
    (21, "W3", 2, -732,
     (4, 8, 9, 40, 48, 49, 52, 54, 55, 66, 67, 68, 73, 81)),
    (22, "W3", 2, -734,
     (5, 6, 8, 11, 44, 45, 53, 56, 57, 61, 62, 64, 65, 66)),
    (23, "W3", 0, -640,
     (4, 7, 8, 9, 46, 57, 58, 61, 63, 68, 71, 73, 78, 81)),
    (24, "W3", 0, -650,
     (2, 3, 5, 10, 40, 44, 57, 58, 60, 63, 65, 71, 76, 79)),
    (25, "W3", 0, -660,
     (2, 5, 6, 8, 50, 51, 58, 63, 64, 66, 67, 71, 73, 81)),
    (26, "W3", 0, -662,
     (2, 3, 9, 46, 54, 56, 59, 60, 61, 62, 67, 76, 78, 82)),
    (27, "W3", 0, -664,
     (4, 5, 38, 40, 48, 53, 56, 57, 62, 64, 66, 69, 71, 76)),
    (28, "W3", 0, -668,
     (3, 7, 8, 10, 39, 50, 51, 62, 66, 67, 70, 73, 77, 82)),
    (29, "W3", 0, -672,
     (2, 43, 45, 46, 50, 51, 52, 53, 61, 69, 72, 74, 77, 81)),
    (30, "W3", 0, -676,
     (6, 7, 9, 40, 58, 61, 63, 70, 73, 77, 79, 80, 81, 82)),
    (31, "W3", 0, -678,
     (3, 4, 5, 7, 43, 45, 48, 50, 54, 59, 64, 70, 71, 81)),
    (32, "W3", 0, -680,
     (6, 11, 50, 53, 54, 56, 59, 61, 64, 68, 69, 72, 74, 76)),
    (33, "W3", 0, -684,
     (8, 11, 12, 35, 49, 50, 53, 56, 57, 58, 62, 72, 77, 82)),
    (34, "W3", 0, -686,
     (5, 11, 46, 56, 57, 58, 60, 62, 63, 64, 65, 70, 71, 79)),
    (35, "W3", 0, -688,
     (10, 11, 13, 14, 52, 54, 60, 64, 70, 71, 72, 76, 77, 80)),
    (36, "W3", 0, -690,
     (5, 9, 45, 49, 56, 57, 61, 62, 63, 64, 67, 70, 75, 81)),
    (37, "W3", 0, -692,
     (2, 6, 8, 9, 44, 45, 48, 56, 66, 68, 75, 77, 80, 81)),
    (38, "W3", 0, -694,
     (4, 8, 10, 42, 44, 54, 58, 60, 63, 65, 68, 77, 79, 80)),
    (39, "W3", 0, -696,
     (3, 9, 43, 44, 49, 50, 51, 52, 55, 61, 65, 71, 75, 81)),
    (40, "W3", 0, -698,
     (6, 7, 13, 42, 44, 49, 50, 52, 54, 55, 57, 63, 72, 74)),
    (41, "W3", 0, -700,
     (2, 4, 8, 13, 45, 46, 49, 51, 58, 65, 66, 73, 74, 80)),
    (42, "W3", 0, -706,
     (3, 9, 12, 45, 54, 55, 59, 64, 66, 72, 74, 75, 78, 80)),
    (43, "W3", 0, -708,
     (2, 4, 9, 10, 45, 55, 56, 57, 60, 64, 67, 69, 72, 74)),
    (44, "W3", 0, -710,
     (4, 9, 11, 40, 45, 46, 55, 57, 63, 64, 65, 71, 72, 74)),
    (45, "W3", 0, -712,
     (3, 44, 45, 46, 57, 60, 61, 62, 63, 70, 71, 74, 75, 77)),
    (46, "W3", 0, -716,
     (7, 40, 44, 45, 52, 53, 55, 56, 67, 68, 71, 76, 79, 81)),
    (47, "W3", 0, -718,
     (3, 5, 9, 12, 42, 45, 47, 51, 53, 55, 60, 64, 68, 75)),
    (48, "W3", 0, -720,
     (6, 39, 44, 45, 54, 60, 62, 64, 65, 75, 77, 78, 79, 81)),
    (49, "W3", 0, -724,
     (2, 5, 9, 43, 60, 61, 62, 64, 68, 71, 74, 76, 80, 81)),
    (50, "W3", 0, -728,
     (3, 7, 9, 13, 43, 46, 48, 49, 50, 52, 58, 60, 63, 81)),
)
