"""Piecewise-linear interface reconstruction on a single square cell.

The liquid region inside a cell is the half-plane {n1*x + n2*y <= d} in
cell-local coordinates, x and y in [0, dx].  The normal (n1, n2) is unit
length and points out of the liquid.  Everything here is closed form: the
wetted area of a half-plane clipped to a rectangle (a donor slab is one)
is piecewise quadratic in d, so the area and its inverse have explicit
branches.
"""

from __future__ import annotations

import math
from typing import NamedTuple

_EPS_NORMAL = 1e-14


def youngs_normal(alpha3x3, dx: float) -> tuple[float, float]:
    """Unit interface normal from a 3x3 fraction stencil (1-2-1 weights).

    ``alpha3x3[i][j]`` is the fraction of the cell at x-offset i-1 and
    y-offset j-1 from the centre.  Returns the outward (gas-pointing)
    normal, i.e. minus the fraction gradient, normalised.
    """
    a = alpha3x3
    gx = (a[2][0] + 2.0 * a[2][1] + a[2][2]
          - a[0][0] - 2.0 * a[0][1] - a[0][2]) / (8.0 * dx)
    gy = (a[0][2] + 2.0 * a[1][2] + a[2][2]
          - a[0][0] - 2.0 * a[1][0] - a[2][0]) / (8.0 * dx)
    norm = math.hypot(gx, gy)
    if norm < _EPS_NORMAL:
        # degenerate stencil (uniform fractions): fall back to liquid-below
        return (0.0, 1.0)
    return (-gx / norm, -gy / norm)


# The clamps below are conditionals: ``b if b > a else a`` picks what
# max(a, b) picks, NaN and signed zeros included, at a fraction of the
# cost of a builtin call; the PLIC donors run them on every step.

def _area_pos(n1: float, n2: float, d: float, dx: float, dy: float) -> float:
    # both normal components >= 0 here
    if n1 <= _EPS_NORMAL and n2 <= _EPS_NORMAL:
        return dx * dy if d >= 0.0 else 0.0
    if n1 <= _EPS_NORMAL:
        h = d / n2
        h = 0.0 if 0.0 > h else h
        return dx * (dy if dy < h else h)
    if n2 <= _EPS_NORMAL:
        w = d / n1
        w = 0.0 if 0.0 > w else w
        return (dx if dx < w else w) * dy
    dmax = n1 * dx + n2 * dy
    dc = 0.0 if 0.0 > d else d
    dc = dmax if dmax < dc else dc
    t1 = dc - n1 * dx
    t1 = 0.0 if 0.0 > t1 else t1
    t2 = dc - n2 * dy
    t2 = 0.0 if 0.0 > t2 else t2
    return (dc * dc - t1 * t1 - t2 * t2) / (2.0 * n1 * n2)


def _offset_pos(n1: float, n2: float, area: float, dx: float) -> float:
    if n1 <= _EPS_NORMAL:
        return n2 * (area / dx)
    if n2 <= _EPS_NORMAL:
        return n1 * (area / dx)
    cell = dx * dx
    span_x, span_y = n1 * dx, n2 * dx
    d_lo = span_y if span_y < span_x else span_x
    a_corner = d_lo * d_lo / (2.0 * n1 * n2)
    if area <= a_corner:
        return math.sqrt(2.0 * n1 * n2 * area)
    if area >= cell - a_corner:
        return span_x + span_y - math.sqrt(2.0 * n1 * n2 * (cell - area))
    # mid branch: the cut is a trapezoid, area linear in d
    if span_x <= span_y:
        return 0.5 * (2.0 * n2 * area / dx + span_x)
    return 0.5 * (2.0 * n1 * area / dx + span_y)


def _offset(normal, area: float, dx: float) -> float:
    n1, n2 = normal
    d = _offset_pos(abs(n1), abs(n2), area, dx)
    # undo the reflections applied by slab_area
    if n1 < 0.0:
        d = d + n1 * dx
    if n2 < 0.0:
        d = d + n2 * dx
    return d


class PlicPlane(NamedTuple):
    """Reconstructed interface in one cell: liquid is {n . x <= d}."""

    normal: tuple[float, float]
    offset: float

    def slab_area(self, x0: float, x1: float, y0: float, y1: float) -> float:
        """Liquid area inside the sub-rectangle [x0,x1]x[y0,y1]."""
        if x1 <= x0 or y1 <= y0:
            return 0.0
        (n1, n2), d = self
        d = d - n1 * x0 - n2 * y0
        w, h = x1 - x0, y1 - y0
        # reflect to the positive-normal octant; d shifts by the flipped span
        if n1 < 0.0:
            d = d - n1 * w
            n1 = -n1
        if n2 < 0.0:
            d = d - n2 * h
            n2 = -n2
        return _area_pos(n1, n2, d, w, h)


def plic_reconstruct(alpha3x3, dx: float) -> PlicPlane:
    """Plane matching the centre fraction with a Youngs stencil normal."""
    ac = alpha3x3[1][1]
    if not 0.0 < ac < 1.0:
        raise ValueError(f"centre fraction {ac} is not a mixed cell")
    n = youngs_normal(alpha3x3, dx)
    # ac < 1 keeps ac*dx*dx <= dx*dx: no range check or clamp needed
    plane = (n, _offset(n, ac * dx * dx, dx))
    # tuple.__new__ skips the NamedTuple constructor's Python frame
    return tuple.__new__(PlicPlane, plane)
