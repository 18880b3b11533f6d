"""Shared test helpers: small named codes and random self-dual codes."""

import random

import pytest

from sdcodes.gf2core import BitVector, LinearCode


def pairs_code(n: int) -> LinearCode:
    """The self-dual code with generators 11 00 ... 00, 00 11 00 ... (n even)."""
    assert n % 2 == 0
    rows = [BitVector(n, 0b11 << (2 * i)) for i in range(n // 2)]
    return LinearCode.from_rows(n, rows)


def e8_code() -> LinearCode:
    """The [8,4,4] doubly even self-dual code."""
    return LinearCode.from_rows(8, ["10000111", "01001011", "00101101", "00011110"])


def _neighbor_step(code: LinearCode, x: BitVector) -> LinearCode:
    """<(C intersect x-perp), x> for even-weight x; equals C when x in C."""
    ortho = [r for r in code.generators if r.dot(x) == 0]
    rest = [r for r in code.generators if r.dot(x) == 1]
    if not rest:
        return code
    anchor = rest[0]
    rows = ortho + [anchor ^ r for r in rest[1:]] + [x]
    return LinearCode.from_rows(code.length, rows)


# JSON code files that load_code must refuse with a ParseError
MALFORMED_JSON = {
    "wrong-length-row": '{"length": 4, "rows": ["110"]}',
    "float-row": '{"length": 4, "rows": [1.5]}',
    "string-length": '{"length": "x", "rows": []}',
    "not-json": "{",
}


def random_self_dual(n: int, rng: random.Random, steps: int | None = None) -> LinearCode:
    """A random self-dual code of even length n, via a neighbor random walk."""
    code = pairs_code(n)
    for _ in range(steps if steps is not None else 2 * n):
        bits = rng.getrandbits(n)
        if bin(bits).count("1") % 2:
            bits ^= 1
        code = _neighbor_step(code, BitVector(n, bits))
    return code


def random_singly_even(n: int, rng: random.Random) -> LinearCode:
    """A random singly even self-dual code (retries the walk if needed)."""
    from sdcodes.gf2core import ParityClass, parity_class

    for _ in range(64):
        code = random_self_dual(n, rng)
        if parity_class(code) is ParityClass.SINGLY_EVEN:
            return code
    raise AssertionError("random walk failed to produce a singly even code")


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0DE)
