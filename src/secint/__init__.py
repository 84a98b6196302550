"""Exact symbolic integration of rational expressions in sin and cos.

The integrands live in the field of rational functions of cos(x) and
sin(x) with rational coefficients.  Four substitutions, each a rational
parametrization of a conic, turn such an integrand into an ordinary
rational function of one parameter; partial fractions finish the job and
back-substitution returns an antiderivative in x.  Companion modules
cover the arithmetic of rational points on the circle and hyperbola
(including Pythagorean triples) and the Mercator map ordinate, which is
the classic application of the secant integral.
"""

from fractions import Fraction as Rational

from .conics import (
    ConicParameter,
    ParameterKind,
    PythagoreanTriple,
    RationalPoint,
    circle_from_B,
    circle_from_D,
    enumerate_primitive_triples,
    hyperbola_from_Pplus,
    param_convert,
    parameter_from_triple,
    projection_coincidence_residual,
    triple_from_parameter,
)
from .engine import (
    IntegrationReport,
    VerificationDomain,
    constant_difference_check,
    diff_check,
    integrate_trig,
)
from .errors import (
    DegenerateParameter,
    DenominatorVanishesIdentically,
    DenominatorVanishesOnCircle,
    IrrationalAtanScale,
    LatitudeOutOfRange,
    NotApplicable,
    PoleInConversion,
    SecintError,
    SingularPoint,
    ToleranceNotMet,
    TrigParseError,
    UnsupportedDenominator,
    ZeroParameter,
)
from .integrate import (
    Antiderivative,
    AtanTerm,
    LogTerm,
    RatTerm,
    eval_antiderivative,
    hermite_reduce,
    integrate_rational,
    make_antiderivative,
    partial_fractions,
    symbolic_derivative,
)
from .mercator import (
    GeoPoint,
    MapPoint,
    conformality_ratio,
    mercator_y,
    mercator_y_numeric,
    project,
)
from .parse import parse_trig
from .ratfunc import Polynomial, RationalFunction, rational_sqrt
from .render import (
    format_antiderivative,
    format_polynomial,
    format_rational_function,
    format_trig_rational,
)
from .substitution import (
    Substitution,
    SubstitutionName,
    SubstitutionResult,
    apply_substitution,
    back_substitute,
    builtin_substitutions,
    get_substitution,
)
from .trig import (
    TrigPolynomial,
    TrigRational,
    eval_trig,
    is_odd_in_cos,
    verify_log_derivative,
)

__all__ = [
    "Antiderivative",
    "AtanTerm",
    "ConicParameter",
    "DegenerateParameter",
    "DenominatorVanishesIdentically",
    "DenominatorVanishesOnCircle",
    "GeoPoint",
    "IntegrationReport",
    "IrrationalAtanScale",
    "LatitudeOutOfRange",
    "LogTerm",
    "MapPoint",
    "NotApplicable",
    "ParameterKind",
    "PoleInConversion",
    "Polynomial",
    "PythagoreanTriple",
    "RatTerm",
    "Rational",
    "RationalFunction",
    "RationalPoint",
    "SecintError",
    "SingularPoint",
    "Substitution",
    "SubstitutionName",
    "SubstitutionResult",
    "ToleranceNotMet",
    "TrigParseError",
    "TrigPolynomial",
    "TrigRational",
    "UnsupportedDenominator",
    "VerificationDomain",
    "ZeroParameter",
    "apply_substitution",
    "back_substitute",
    "builtin_substitutions",
    "circle_from_B",
    "circle_from_D",
    "conformality_ratio",
    "constant_difference_check",
    "diff_check",
    "enumerate_primitive_triples",
    "eval_antiderivative",
    "eval_trig",
    "format_antiderivative",
    "format_polynomial",
    "format_rational_function",
    "format_trig_rational",
    "get_substitution",
    "hermite_reduce",
    "hyperbola_from_Pplus",
    "integrate_rational",
    "integrate_trig",
    "is_odd_in_cos",
    "make_antiderivative",
    "mercator_y",
    "mercator_y_numeric",
    "param_convert",
    "parameter_from_triple",
    "parse_trig",
    "partial_fractions",
    "project",
    "projection_coincidence_residual",
    "rational_sqrt",
    "symbolic_derivative",
    "triple_from_parameter",
    "verify_log_derivative",
]
