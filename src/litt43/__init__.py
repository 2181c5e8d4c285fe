"""litt43: sharp constants of the anisotropic Littlewood 4/3 inequality.

Desk-scale certification toolkit: exact mixed l_b(l_a) norms and operator
norms of finite bilinear forms, Khinchin/Steinhaus-type averages with
their sharp comparison constants, certified complex norm intervals from
roots-of-unity discretization, and stochastic extremal search against the
proved ceilings.
"""

from .errors import (CapacityError, InadmissibleExponentsError, InputParseError,
                     Litt43Error, SerializationError, UndefinedRatioError)
from .exponents import (INFINITY, ConstantReport, Exponent, ExponentPair,
                        RegionLabel, TWO_OVER_SQRT_PI, admissible,
                        classify_region, complex_constant_bounds, conjugate,
                        real_constant)
from .forms import (BilinearForm, MixedNormValue, form_from_json, form_to_json,
                    load_form, mixed_norm, random_form, save_form, transpose,
                    witness_a0)
from .khinchin import (AverageResult, BleiBoundReport, CoefficientVector,
                       blei_bound_check, ceiling, e_m_average, khinchin_ratio, lr_norm,
                       rademacher_average, steinhaus_expectation)
from .opnorm import (TorusNormBounds, complex_norm_bounds, complex_norm_discrete, r_m,
                     real_sup_norm)
from .search import (SearchConfig, SearchResult, checkpoint_load,
                     checkpoint_save, evaluate_witness, maximize_khinchin_ratio,
                     maximize_ratio)

__version__ = "0.1.0"

__all__ = [
    "Litt43Error", "InadmissibleExponentsError", "CapacityError",
    "UndefinedRatioError", "SerializationError", "InputParseError",
    "Exponent", "INFINITY", "ExponentPair", "RegionLabel", "ConstantReport",
    "TWO_OVER_SQRT_PI", "conjugate", "admissible", "classify_region",
    "real_constant", "complex_constant_bounds",
    "BilinearForm", "MixedNormValue", "mixed_norm", "transpose", "witness_a0",
    "random_form", "form_to_json", "form_from_json", "save_form", "load_form",
    "TorusNormBounds", "real_sup_norm",
    "complex_norm_discrete", "r_m", "complex_norm_bounds",
    "CoefficientVector", "AverageResult", "BleiBoundReport", "lr_norm",
    "rademacher_average", "khinchin_ratio", "e_m_average",
    "steinhaus_expectation", "blei_bound_check", "ceiling",
    "SearchConfig", "SearchResult", "maximize_ratio", "maximize_khinchin_ratio",
    "evaluate_witness", "checkpoint_save", "checkpoint_load",
    "__version__",
]
