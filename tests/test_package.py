"""The package namespace: every public name stays importable from sdcodes."""

import sdcodes

PUBLIC_NAMES = """
BitMatrix BitVector CosetSplit LinearCode ParityClass ParseError ShadowCoset
code_from_json code_to_json concat coset_split doubly_even_subcode dual
dumps_code load_code loads_code parity_class rains_bound save_code shadow
SearchBudget WeightDistribution brute_force_coset_wef brute_force_wef
coset_min_weight count_coset_upto count_words_upto min_weight
CongruenceSystem Constraint Family GleasonCoeffs InconsistentConstraints
InfeasibleCase LinearForm ParamPoly SHADOW_CASES apply_shadow_case c1_basis
derive_parity display_cutoffs family_for family_to_json feasible_range
gleason_expand shadow_transform w1_family B80_FIRST_ROW CirculantSpec
FAMILY_CASES NeighborSpec X80_SUPPORT bordered_double_circulant build_b80
build_c82 neighbor neighbor_counts neighbor_parameters table1 tsai_extend
""".split()


def test_public_names_are_attributes():
    assert len(PUBLIC_NAMES) == 60
    assert [nm for nm in PUBLIC_NAMES if not hasattr(sdcodes, nm)] == []


def test_version():
    assert isinstance(sdcodes.__version__, str) and sdcodes.__version__
