"""Frozen reference values for the reproduction commands and the test suite.

Coefficient displays are stored as literal data: a polynomial prefix maps
exponent -> (constant, {param: coeff}), with "p/q" strings for the few
non-integer entries.  ``form_of`` and ``check_prefix`` turn these into
exact comparisons against computed ParamPoly values.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .wefsym import LinearForm, ParamPoly

# -- Gleason coefficients, n = 82, minimum weight 14 ------------------------

GLEASON_A82 = (1, -41, 615, -4182, 13161, -18040, 9512)

# -- family display prefixes ------------------------------------------------

# n=82, d(S)=1: fully determined family
W82_1_C = {0: 1, 14: 560, 16: 60724, 18: 233545}
W82_1_S = {1: 1, 13: 560, 17: 294269, 21: 33367568}

# n=82, d(S)=5: parameters alpha, beta
W82_2_C = {
    0: 1,
    14: (3280, {"beta": 2}),
    16: (36244, {"alpha": 128, "beta": -2}),
    18: (506153, {"alpha": -896, "beta": -26}),
}
W82_2_S = {
    5: 1,
    9: (-18, {"alpha": 1}),
    13: (153, {"alpha": -16, "beta": -1}),
    17: (303568, {"alpha": 120, "beta": 14}),
}

# n=82, d(S)>=9: parameters alpha, beta
W82_3_C = {
    0: 1,
    14: (3280, {"beta": 2}),
    16: (36244, {"alpha": 128, "beta": -2}),
    18: (514345, {"alpha": -896, "beta": -26}),
}
W82_3_S = {
    9: (0, {"alpha": 1}),
    13: (0, {"alpha": -16, "beta": -1}),
    17: (304384, {"alpha": 120, "beta": 14}),
    21: (33293312, {"alpha": -560, "beta": -91}),
}

# n=82, d(S)>=5 uniform three-parameter family (parameters a, b, c)
W82_G_C = {
    0: 1,
    14: (3280, {"c": 2}),
    16: (36244, {"b": 128, "c": -2}),
    18: (514345, {"a": -8192, "b": -896, "c": -26}),
}
W82_G_S = {
    5: (0, {"a": 1}),
    9: (0, {"a": -18, "b": 1}),
    13: (0, {"a": 153, "b": -16, "c": -1}),
    17: (304384, {"a": -816, "b": 120, "c": 14}),
}

# n=58 (parameters beta, gamma)
W58_C = {
    0: 1,
    10: (319, {"beta": -24, "gamma": -2}),
    12: (3132, {"beta": 152, "gamma": 2}),
}
W58_S = {
    5: (0, {"beta": 1}),
    9: (0, {"gamma": 1}),
    13: (24128, {"beta": -54, "gamma": -10}),
    17: (1469952, {"beta": 320, "gamma": 45}),
}

# n=106 (parameters a, b, c, d)
W106_C = {
    0: 1,
    18: (35245, {"d": 2}),
    20: (416262, {"c": 128, "d": -2}),
    22: (6586310, {"b": 8192, "c": -896, "d": -34}),
    24: (86626645, {"a": 524288, "b": -106496, "c": 1024, "d": 34}),
}
W106_S = {
    5: (0, {"a": 1}),
    9: (0, {"a": -24, "b": -1}),
    13: (0, {"a": 276, "b": 22, "c": 1}),
    17: (0, {"a": -2024, "b": -231, "c": -20, "d": -1}),
}

# n=130 (parameters a, b, c, d, e)
W130_C = {
    0: 1,
    22: (388700, {"e": 2}),
    24: (4791150, {"d": 128, "e": -2}),
    26: (81082890, {"c": 8192, "d": -896, "e": -42}),
    28: (1200197180, {"b": 524288, "c": -106496, "d": 512, "e": 42}),
    30: (
        14196225992,
        {"a": -33554432, "b": -9961472, "c": 532480, "d": 10752, "e": 420},
    ),
}
W130_S = {
    5: (0, {"a": 1}),
    9: (0, {"a": -30, "b": 1}),
    13: (0, {"a": 435, "b": -28, "c": -1}),
    17: (0, {"a": -4060, "b": 378, "c": 26, "d": 1}),
    21: (0, {"a": 27405, "b": -3276, "c": -325, "d": -24, "e": -1}),
}

# family registry: id -> (n, dmin, case, W_C prefix, W_S prefix)
FAMILIES = {
    "W82_1": (82, 14, "wt1", W82_1_C, W82_1_S),
    "W82_2": (82, 14, "min5", W82_2_C, W82_2_S),
    "W82_3": (82, 14, "min9", W82_3_C, W82_3_S),
    "W82_G": (82, 14, "ge5", W82_G_C, W82_G_S),
    "W58": (58, 10, "min5", W58_C, W58_S),
    "W106": (106, 18, "min5", W106_C, W106_S),
    "W130": (130, 22, "min5", W130_C, W130_S),
}

# -- W(1) - W(3) basis display rows -----------------------------------------

C1_DISPLAY = {
    2: {
        1: {"b0": 1},
        5: {"b0": 36, "b1": 1},
        9: {"b0": -415, "b1": -10},
        13: {"b0": -39056, "b1": -724},
        17: {"b0": -742131, "b1": -3694},
    },
    3: {
        1: {"b0": 1},
        5: {"b0": 78, "b1": 1},
        9: {"b0": 1688, "b1": 32, "b2": 1},
        13: {"b0": -32382, "b1": -553, "b2": -14},
        17: {"b0": -2525349, "b1": -37184, "b2": -678},
    },
    4: {
        1: {"b0": 1},
        5: {"b0": 120, "b1": 1},
        9: {"b0": 5555, "b1": 74, "b2": 1},
        13: {"b0": 87440, "b1": 1382, "b2": 28, "b3": 1},
        17: {"b0": -2666610, "b1": -38670, "b2": -675, "b3": -18},
    },
    5: {
        1: {"b0": 1},
        5: {"b0": 162, "b1": 1},
        9: {"b0": 11186, "b1": 116, "b2": 1},
        13: {"b0": 394498, "b1": 5081, "b2": 70, "b3": 1},
        17: {"b0": 4628826, "b1": 65936, "b2": 1092, "b3": 24, "b4": 1},
        21: {"b0": -226397710, "b1": -2983519, "b2": -43758, "b3": -781, "b4": -22},
    },
}

W1_DISPLAY = {
    2: {
        5: (0, {"b1": "1/2", "beta": "1/2"}),
        9: (0, {"b1": -5, "gamma": "1/2"}),
        13: (12064, {"b1": -362, "beta": -27, "gamma": -5}),
        17: (734976, {"b1": -1847, "beta": 160, "gamma": "45/2"}),
    },
    3: {
        5: (0, {"a": "1/2", "b1": "1/2"}),
        9: (0, {"a": -9, "b1": 16, "b2": "1/2", "b": "1/2"}),
        13: (0, {"a": "153/2", "b1": "-553/2", "b2": -7, "b": -8, "c": "-1/2"}),
        17: (152192, {"a": -408, "b1": -18592, "b2": -339, "b": 60, "c": 7}),
    },
    4: {
        5: (0, {"a": "1/2", "b1": "1/2"}),
        9: (0, {"a": -12, "b1": 37, "b2": "1/2", "b": "-1/2"}),
        13: (0, {"a": 138, "b1": 691, "b2": 14, "b3": "1/2", "b": 11, "c": "1/2"}),
        17: (
            0,
            {
                "a": -1012,
                "b1": -19335,
                "b2": "-675/2",
                "b3": -9,
                "b": "-231/2",
                "c": -10,
                "d": "-1/2",
            },
        ),
    },
    5: {
        5: (0, {"a": "1/2", "b1": "1/2"}),
        9: (0, {"a": -15, "b1": 58, "b2": "1/2", "b": "1/2"}),
        13: (
            0,
            {"a": "435/2", "b1": "5081/2", "b2": 35, "b3": "1/2", "b": -14, "c": "-1/2"},
        ),
        17: (
            0,
            {
                "a": -2030,
                "b1": 32968,
                "b2": 546,
                "b3": 12,
                "b4": "1/2",
                "b": 189,
                "c": 13,
                "d": "1/2",
            },
        ),
        21: (
            0,
            {
                "a": "27405/2",
                "b1": "-2983519/2",
                "b2": -21879,
                "b3": "-781/2",
                "b4": -11,
                "b": -1638,
                "c": "-325/2",
                "d": -12,
                "e": "-1/2",
            },
        ),
    },
}

# parity congruences: k -> the parameter that must be even
PARITY_PARAM = {2: "gamma", 3: "c", 4: "d", 5: "e"}

# -- corrected shadow enumerator of the DGH code ----------------------------

DGH_CASE = "min9"
DGH_POINT = {"alpha": 0, "beta": -656}
DGH_SHADOW_PREFIX = {13: 656, 17: 295200, 21: 33353008}

# -- construction certificates ----------------------------------------------

B80_MIN_WEIGHT = 16
C82_MIN_WEIGHT = 14
C82_SHADOW_MIN = 1
C82_A14 = 560
C82_B13 = 560


def form_of(spec) -> LinearForm:
    """Builds a LinearForm from a display entry.

    Accepts an int (constant), a {param: coeff} dict, or a (const, terms)
    pair; coefficients may be "p/q" strings.
    """
    if isinstance(spec, tuple):
        const, terms = spec
    elif isinstance(spec, dict):
        const, terms = 0, spec
    else:
        const, terms = spec, {}
    return LinearForm.make(
        Fraction(const), {k: Fraction(v) for k, v in terms.items()}
    )


def check_prefix(poly: ParamPoly, prefix: Mapping[int, object]) -> list[str]:
    """Compares a computed polynomial against a display prefix.

    Returns a list of human-readable mismatch descriptions (empty = pass).
    """
    problems = []
    for e in sorted(prefix):
        want = form_of(prefix[e])
        got = poly.coeff(e)
        if got != want:
            problems.append(f"y^{e}: expected {want}, computed {got}")
    return problems
