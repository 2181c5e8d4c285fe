import litt43

# Adding or removing an export is a visible change to this list.
PUBLIC_NAMES = {
    "Litt43Error", "InadmissibleExponentsError", "CapacityError",
    "UndefinedRatioError", "SerializationError", "InputParseError",
    "Exponent", "INFINITY", "ExponentPair", "RegionLabel", "ConstantReport",
    "TWO_OVER_SQRT_PI", "conjugate", "admissible", "classify_region",
    "real_constant", "complex_constant_bounds",
    "BilinearForm", "MixedNormValue", "mixed_norm", "transpose", "witness_a0",
    "random_form", "form_to_json", "form_from_json", "save_form", "load_form",
    "TorusNormBounds", "real_sup_norm", "complex_norm_discrete", "r_m",
    "complex_norm_bounds",
    "CoefficientVector", "AverageResult", "BleiBoundReport", "lr_norm",
    "rademacher_average", "khinchin_ratio", "e_m_average", "steinhaus_expectation",
    "blei_bound_check", "ceiling",
    "SearchConfig", "SearchResult", "maximize_ratio", "maximize_khinchin_ratio",
    "evaluate_witness", "checkpoint_save", "checkpoint_load",
    "__version__",
}


def test_public_surface_is_pinned():
    assert len(litt43.__all__) == len(set(litt43.__all__))
    assert set(litt43.__all__) == PUBLIC_NAMES
    for name in litt43.__all__:
        assert getattr(litt43, name) is not None
