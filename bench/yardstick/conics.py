"""Rational points on the unit circle and hyperbola, and Pythagorean triples.

Projecting the circle x^2 + y^2 = 1 from the point B = (-1, 0) onto the
y-axis sends a rational slope t to a rational point; projecting from
D = (0, 1) gives a second parametrization with parameter s; projecting the
hyperbola x^2 - y^2 = 1 from its point at infinity along y = -x gives a
third with parameter u.  The parameters are linked: s = u, v = u/2, and
s = (1+t)/(1-t).

Clearing denominators in the circle parametrization turns a reduced
fraction a/b into a Pythagorean triple, and the slope construction
t = Y/(X+Z) inverts it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DegenerateParameter,
    PoleInConversion,
    SingularPoint,
    ZeroParameter,
)


@dataclass(frozen=True)
class RationalPoint:
    x: Fraction
    y: Fraction

    @staticmethod
    def on_circle(x: Fraction, y: Fraction) -> RationalPoint:
        if x * x + y * y != 1:
            raise ValueError(f"({x}, {y}) is not on the unit circle")
        return RationalPoint(x, y)

    @staticmethod
    def on_hyperbola(x: Fraction, y: Fraction) -> RationalPoint:
        if x * x - y * y != 1:
            raise ValueError(f"({x}, {y}) is not on the unit hyperbola")
        return RationalPoint(x, y)


@dataclass(frozen=True)
class PythagoreanTriple:
    """Primitive triple with legs ascending: X <= Y, X^2 + Y^2 = Z^2."""

    X: int
    Y: int
    Z: int

    def __post_init__(self):
        if self.X <= 0 or self.Y <= 0 or self.Z <= 0:
            raise ValueError("triple entries must be positive")
        if self.X > self.Y:
            raise ValueError("triple legs must be sorted ascending")
        if self.X * self.X + self.Y * self.Y != self.Z * self.Z:
            raise ValueError(f"({self.X}, {self.Y}, {self.Z}) is not a right triangle")
        if math.gcd(self.X, self.Y, self.Z) != 1:
            raise ValueError("triple must be primitive")

    @staticmethod
    def normalized(x: int, y: int, z: int) -> PythagoreanTriple:
        """Absolute values, divide by the gcd, sort the legs."""
        x, y, z = abs(x), abs(y), abs(z)
        g = math.gcd(x, y, z)
        if g == 0:
            raise ValueError("zero triple")
        x, y, z = x // g, y // g, z // g
        if x > y:
            x, y = y, x
        return PythagoreanTriple(x, y, z)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.X, self.Y, self.Z)


class ParameterKind(str, enum.Enum):
    T = "t"
    S = "s"
    U = "u"
    V = "v"


@dataclass(frozen=True)
class ConicParameter:
    kind: ParameterKind
    value: Fraction


def circle_from_B(t: Fraction) -> RationalPoint:
    """Circle point for slope t of the line through B = (-1, 0).

    ((1-t^2)/(1+t^2), 2t/(1+t^2)); the center B itself is never produced.
    """
    t = Fraction(t)
    den = 1 + t * t
    return RationalPoint((1 - t * t) / den, 2 * t / den)


def circle_from_D(s: Fraction) -> RationalPoint:
    """Circle point for the projection from D = (0, 1):
    (2s/(s^2+1), (s^2-1)/(s^2+1)); D itself is never produced."""
    s = Fraction(s)
    den = s * s + 1
    return RationalPoint(2 * s / den, (s * s - 1) / den)


def hyperbola_from_Pplus(u: Fraction) -> RationalPoint:
    """Right-branch hyperbola point ((u^2+1)/(2u), (u^2-1)/(2u)) from the
    projection centered at the point at infinity along y = -x."""
    u = Fraction(u)
    if u == 0:
        raise ZeroParameter("hyperbola projection is undefined at u = 0")
    return RationalPoint((u * u + 1) / (2 * u), (u * u - 1) / (2 * u))


def triple_from_parameter(a: int, b: int) -> PythagoreanTriple:
    """Clear denominators of the circle point at t = a/b.

    Raw triple (b^2 - a^2, 2ab, a^2 + b^2), then normalized to primitive
    sorted form.  Degenerate when a = 0, b = 0, or |a| = |b| (the raw
    triple collapses onto an axis).
    """
    if a == 0 or b == 0 or abs(a) == abs(b):
        raise DegenerateParameter(
            f"t = {a}/{b} lands on an axis point and gives no triangle"
        )
    return PythagoreanTriple.normalized(b * b - a * a, 2 * a * b, a * a + b * b)


def parameter_from_triple(
    tr: PythagoreanTriple, legs: tuple[int, int]
) -> Fraction:
    """Slope t = Y/(X+Z) of the line from B = (-1, 0) to the circle point
    (X/Z, Y/Z).  The caller picks which leg plays X: (3, 4) and (4, 3) give
    different, equally valid parameters."""
    x, y = legs
    if sorted((x, y)) != [tr.X, tr.Y]:
        raise ValueError(f"legs {legs} are not the legs of {tr.as_tuple()}")
    return Fraction(y, x + tr.Z)


def enumerate_primitive_triples(max_z: int) -> list[PythagoreanTriple]:
    """All primitive triples with hypotenuse at most max_z.

    Sweeps coprime, opposite-parity pairs 0 < a < b with a^2 + b^2 <= max_z;
    each pair yields a distinct primitive triple.  Sorted by hypotenuse,
    then smaller leg.
    """
    if max_z < 1:
        raise ValueError("hypotenuse bound must be at least 1")
    out: list[PythagoreanTriple] = []
    a = 1
    while 2 * a * a < max_z:
        b = a + 1
        while a * a + b * b <= max_z:
            if (a + b) % 2 == 1 and math.gcd(a, b) == 1:
                out.append(triple_from_parameter(a, b))
            b += 1
        a += 1
    out.sort(key=lambda tr: (tr.Z, tr.X))
    return out


# conversions through the common hub s = u
_TO_S = {
    ParameterKind.S: lambda v: v,
    ParameterKind.U: lambda v: v,
    ParameterKind.V: lambda v: 2 * v,
    ParameterKind.T: None,  # handled separately: pole at t = 1
}


def param_convert(p: ConicParameter, target: ParameterKind | str) -> ConicParameter:
    """Convert between the four parameters (s = u, v = u/2, s = (1+t)/(1-t)).

    Raises :class:`PoleInConversion` where the map has no finite value:
    t = 1 going anywhere else, and s = -1 (equivalently u = -1, v = -1/2)
    going to t.
    """
    target = ParameterKind(target)
    if p.kind is target:
        return ConicParameter(target, Fraction(p.value))
    value = Fraction(p.value)
    if p.kind is ParameterKind.T:
        if value == 1:
            raise PoleInConversion("t = 1 corresponds to the projection pole")
        s_value = (1 + value) / (1 - value)
    else:
        s_value = _TO_S[p.kind](value)
    if target is ParameterKind.T:
        if s_value == -1:
            raise PoleInConversion("s = -1 has no finite half-angle parameter")
        return ConicParameter(target, (s_value - 1) / (s_value + 1))
    if target is ParameterKind.S or target is ParameterKind.U:
        return ConicParameter(target, s_value)
    return ConicParameter(target, s_value / 2)


def projection_coincidence_residual(theta: float) -> float:
    """|tan(theta/2 + pi/4) - (sec theta + tan theta)| in double precision.

    The two sides come from unrelated-looking projections (circle from D,
    hyperbola from infinity) and agree identically; the residual measures
    only floating-point noise.
    """
    shifted = theta / 2 + math.pi / 4
    c_theta = math.cos(theta)
    c_shifted = math.cos(shifted)
    if abs(c_theta) < 1e-12 or abs(c_shifted) < 1e-12:
        raise SingularPoint(f"both projections blow up near theta = {theta!r}")
    lhs = math.tan(shifted)
    rhs = 1 / c_theta + math.tan(theta)
    return abs(lhs - rhs)
