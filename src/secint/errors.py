"""Exception types shared across the package."""


class SecintError(Exception):
    """Base class for all domain errors raised by secint."""


class TrigParseError(SecintError):
    """Input text does not conform to the expression grammar.

    Carries the character offset where parsing failed.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DenominatorVanishesOnCircle(SecintError):
    """A denominator reduces to zero modulo sin^2 + cos^2 = 1."""


class DenominatorVanishesIdentically(SecintError):
    """A substitution produced an identically-zero denominator."""


class SingularPoint(SecintError):
    """A numeric evaluation landed too close to a pole."""


class NotApplicable(SecintError):
    """The requested substitution does not apply to this integrand."""


class UnsupportedDenominator(SecintError):
    """A squarefree denominator cofactor cannot be split into rational
    linear factors and a single quadratic.

    ``cofactor`` is the polynomial left once the rational roots are divided
    out, of degree three or more; the message is formatted from it, so a
    cofactor moved to another parameter (see
    :func:`secint.substitution.moved_cofactor`) names itself in that
    parameter.
    """

    def __init__(self, cofactor):
        super().__init__(
            f"denominator factor {cofactor} of degree {cofactor.degree} has no rational root"
        )
        self.cofactor = cofactor

    def __reduce__(self):
        # rebuilt from the cofactor, not the message, so it copies and pickles
        return type(self), (self.cofactor,)


class IrrationalAtanScale(SecintError):
    """An arctangent term would need an irrational scale factor; the
    coefficient field stays rational, so the integral is refused."""


class ZeroParameter(SecintError):
    """The hyperbola projection parameter must be nonzero."""


class DegenerateParameter(SecintError):
    """Triple parameters with a = 0 or |a| = |b| give degenerate triples."""


class PoleInConversion(SecintError):
    """The requested parameter conversion has a pole at this value."""


class LatitudeOutOfRange(SecintError):
    """Latitude magnitude too close to a pole of the map projection."""


class ToleranceNotMet(SecintError):
    """A result failed its check: adaptive quadrature exhausted its panel
    budget, or an antiderivative's exact derivative differs from the
    integrand."""
