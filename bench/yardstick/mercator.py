"""Mercator map ordinate, by closed form and by quadrature of the secant.

On a Mercator chart the ordinate of latitude phi is the integral of sec
from 0 to phi, which evaluates to ln|sec(phi) + tan(phi)|.  Both routes
are provided so they can be checked against each other: the closed form
(computed here as asinh(tan(phi)), the same value in a form that is
exactly odd in floating point) and an adaptive Simpson quadrature.

The earth radius cancels between dy = ds/(r cos phi) and ds = r dphi, so
map units are dimensionless; a uniform scale may be applied at projection
time only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import LatitudeOutOfRange, ToleranceNotMet

_CLOSED_FORM_GUARD = math.pi / 2 - 1e-9
_QUADRATURE_GUARD = math.pi / 2 - 1e-6
_PANEL_CAP = 10**6


@dataclass(frozen=True)
class GeoPoint:
    """Longitude and latitude, both in radians.

    Longitude is unrestricted (wrap it mod 2*pi for display if you like);
    latitude is validated at projection time, not construction time.
    """

    lon: float
    lat: float


@dataclass(frozen=True)
class MapPoint:
    x: float
    y: float


def mercator_y(phi: float) -> float:
    """Closed-form ordinate ln|sec(phi) + tan(phi)|, odd in phi."""
    if not abs(phi) < _CLOSED_FORM_GUARD:
        raise LatitudeOutOfRange(
            f"latitude {phi!r} is inside the guard band around the pole"
        )
    return math.asinh(math.tan(phi))


def _sec(x: float) -> float:
    return 1.0 / math.cos(x)


def mercator_y_numeric(phi: float, tol: float = 1e-10) -> float:
    """Adaptive Simpson quadrature of sec over [0, phi].

    Splits an interval while the interval-halving estimate (S2 - S1)/15
    exceeds its share of the absolute error target.  Raises
    :class:`ToleranceNotMet` if more than 10^6 panels would be needed,
    which in practice means the request is too close to the pole for the
    tolerance asked.
    """
    if not 1e-13 <= tol <= 1e-3:
        raise ValueError(f"tolerance {tol!r} outside [1e-13, 1e-3]")
    if not abs(phi) < _QUADRATURE_GUARD:
        raise LatitudeOutOfRange(
            f"latitude {phi!r} is inside the quadrature guard band"
        )
    if phi == 0:
        return 0.0
    a, b = 0.0, phi
    fa, fb = _sec(a), _sec(b)
    mid = 0.5 * (a + b)
    fmid = _sec(mid)
    whole = (b - a) / 6 * (fa + 4 * fmid + fb)
    stack = [(a, b, fa, fmid, fb, whole, tol)]
    total = 0.0
    panels = 1
    while stack:
        a, b, fa, fmid, fb, coarse, share = stack.pop()
        mid = 0.5 * (a + b)
        lm = 0.5 * (a + mid)
        rm = 0.5 * (mid + b)
        flm = _sec(lm)
        frm = _sec(rm)
        left = (mid - a) / 6 * (fa + 4 * flm + fmid)
        right = (b - mid) / 6 * (fmid + 4 * frm + fb)
        refined = left + right
        if abs(refined - coarse) <= 15 * share:
            total += refined + (refined - coarse) / 15
        else:
            panels += 1
            if panels > _PANEL_CAP:
                raise ToleranceNotMet(
                    f"secant quadrature needs more than {_PANEL_CAP} panels "
                    f"for tol={tol!r} at phi={phi!r}"
                )
            stack.append((a, mid, fa, flm, fmid, left, share / 2))
            stack.append((mid, b, fmid, frm, fb, right, share / 2))
    return total


def project(g: GeoPoint, scale: float = 1.0) -> MapPoint:
    """Map a geographic point to chart coordinates (lon, mercator_y(lat))."""
    return MapPoint(g.lon * scale, mercator_y(g.lat) * scale)


def conformality_ratio(phi: float, h: float = 1e-4) -> float:
    """Central difference of the ordinate divided by sec(phi).

    A value near 1 confirms the defining property of the chart: the
    vertical stretch at latitude phi matches the horizontal stretch
    sec(phi), so infinitesimal squares stay square.
    """
    if not 1e-8 <= h <= 1e-2:
        raise ValueError(f"step {h!r} outside [1e-8, 1e-2]")
    if not abs(phi) + h < _QUADRATURE_GUARD:
        raise LatitudeOutOfRange(
            f"stencil around {phi!r} with step {h!r} reaches the guard band"
        )
    derivative = (mercator_y(phi + h) - mercator_y(phi - h)) / (2 * h)
    return derivative * math.cos(phi)
