"""The package namespace: every public name stays importable from sdcodes,
and importing it, building codes and running the exact algebra leave numpy
unloaded until the first enumeration."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sdcodes

PUBLIC_NAMES = """
BitVector CosetSplit LinearCode ParityClass ParseError ShadowCoset
code_from_json code_to_json concat coset_split doubly_even_subcode dual
dumps_code load_code loads_code parity_class rains_bound save_code shadow
SearchBudget WeightDistribution brute_force_coset_wef brute_force_wef
coset_min_weight count_coset_upto count_words_upto min_weight
CongruenceSystem Constraint Family GleasonCoeffs InconsistentConstraints
InfeasibleCase LinearForm ParamPoly SHADOW_CASES apply_shadow_case c1_basis
derive_parity display_cutoffs family_for family_to_json feasible_range
gleason_expand shadow_transform w1_family B80_FIRST_ROW CirculantSpec
FAMILY_CASES NeighborSpec X80_SUPPORT bordered_double_circulant build_b80
build_c82 neighbor neighbor_parameters table1 tsai_extend
""".split()


def test_public_names_are_attributes():
    assert len(PUBLIC_NAMES) == 58
    assert [nm for nm in PUBLIC_NAMES if not hasattr(sdcodes, nm)] == []


def test_version():
    assert isinstance(sdcodes.__version__, str) and sdcodes.__version__


# -- numpy is loaded by the first enumeration, not by the import ------------


def _run_fresh(script: str) -> str:
    """Runs ``script`` in a new interpreter that imports this sdcodes."""
    src = str(Path(sdcodes.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_construction_algebra_and_cli_never_load_numpy():
    script = """
import sys
import sdcodes
from sdcodes import cli

c82 = sdcodes.build_c82()
sdcodes.table1()[0].build(c82)
sdcodes.family_for(82, 14, "min9")
assert cli.main(["reproduce", "families", "--json"]) == 0
assert cli.main(["wef", "possible", "--n", "82", "--dmin", "12", "--json"]) == 0
loaded = {"numpy", "multiprocessing"} & set(sys.modules)
assert not loaded, loaded
"""
    _run_fresh(script)


_GOLAY = """
import sys
from sdcodes.constructions import CirculantSpec, bordered_double_circulant
from sdcodes.gf2core import BitVector
from sdcodes.minweight import (
    brute_force_coset_wef,
    brute_force_wef,
    coset_min_weight,
    count_coset_upto,
    count_words_upto,
    min_weight,
)

golay = bordered_double_circulant(
    CirculantSpec(first_row=BitVector.from01("10100011101"))
)
x = BitVector.from_support(24, (1, 2, 3))
"""


@pytest.mark.parametrize(
    "call",
    [
        "min_weight(golay)",
        "coset_min_weight(golay, x)",
        "count_words_upto(golay, 12)",
        "count_words_upto(golay, 12, workers=2)",
        "count_coset_upto(golay, x, 9)",
        "brute_force_wef(golay)",
        "brute_force_coset_wef(golay, x)",
    ],
)
def test_first_numpy_user_matches_in_process(call):
    script = _GOLAY + f"""
assert "numpy" not in sys.modules
print(repr({call}))
"""
    ns: dict = {}
    exec(_GOLAY, ns)
    assert _run_fresh(script) == repr(eval(call, ns)) + "\n"
