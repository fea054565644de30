"""Grid layout, simulation state, and exact interface initialisation.

Half-gap configuration: x in [0, R] with the symmetry plane at x = 0 and
the wall at x = R, y in [0, 8 R].  Square cells.  The domain height is the
grid's, not the case's: a Geometry states only the channel and its fill.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..core import Geometry
from ..errors import ArcExceedsDomain, MultiValuedColumn

# the fewest cells across a half gap that the stencils support, and the
# most, whose pressure band is 135 MB (see Grid)
MIN_NX = 4
MAX_NX = 128

# domain height in half gap widths
DOMAIN_RADII = 8

# fractions closer than this to 0 or 1 count as pure cells
ALPHA_EPS = 1e-9
_PURE_LIQUID = 1.0 - ALPHA_EPS

# below this cos(theta) the meniscus arc is treated as flat
_FLAT_COS = 1e-12


@dataclass(frozen=True)
class Grid:
    """Staggered MAC grid on the half gap: nx square cells across [0, R]
    and DOMAIN_RADII * nx up.  nx must be an integer from MIN_NX to MAX_NX,
    checked before anything is allocated: the pressure band holds
    64 (nx + 1) nx^2 bytes, 17 MB at nx 64, 135 MB at 128 and 1.08 GB at
    256.  ny and dx are derived once, as plain attributes."""

    nx: int
    R: float
    ny: int = field(init=False)
    dx: float = field(init=False)

    def __post_init__(self):
        if not isinstance(self.nx, (int, np.integer)) or self.nx < MIN_NX:
            raise ValueError(f"the half gap needs an integer nx >= {MIN_NX} "
                             f"cells, got {self.nx!r}")
        object.__setattr__(self, "nx", int(self.nx))
        if self.nx > MAX_NX:
            raise ValueError(f"the half gap takes at most nx = {MAX_NX} "
                             f"cells, got {self.nx}")
        object.__setattr__(self, "ny", DOMAIN_RADII * self.nx)
        object.__setattr__(self, "dx", self.R / self.nx)
        if not self.dx > 0.0:  # NaN fails too
            raise ValueError("cell size must be positive")


@dataclass
class SimState:
    """Mutable fields on the staggered grid, at rest when built: alpha is
    copied as float, u, v and p are zero, and t is 0.

    alpha and p live at cell centres (nx, ny); u at vertical faces
    (nx+1, ny); v at horizontal faces (nx, ny+1).
    """

    grid: Grid
    alpha: np.ndarray
    u: np.ndarray = field(init=False)
    v: np.ndarray = field(init=False)
    p: np.ndarray = field(init=False)
    t: float = field(default=0.0, init=False)

    def __post_init__(self):
        g = self.grid
        if self.alpha.shape != (g.nx, g.ny):
            raise ValueError("alpha shape does not match grid")
        self.alpha = np.array(self.alpha, dtype=float)
        self.u = np.zeros((g.nx + 1, g.ny))
        self.v = np.zeros((g.nx, g.ny + 1))
        self.p = np.zeros((g.nx, g.ny))

    def liquid_area(self) -> float:
        return float(self.alpha.sum()) * self.grid.dx * self.grid.dx


def _arc_antiderivative(x: float, r: float, yc: float) -> float:
    # integral of yc - sqrt(r^2 - x^2)
    x = min(max(x, -r), r)
    return yc * x - 0.5 * (x * math.sqrt(max(r * r - x * x, 0.0))
                           + r * r * math.asin(x / r))


def arc_column_fractions(geom: Geometry, grid_half: Grid) -> np.ndarray:
    """Exact cell fractions for the initial circular-arc interface.

    The interface is a circular arc of radius R/cos(theta) meeting the
    symmetry plane at height h0 (apex) and the wall at the equilibrium
    contact angle.  Liquid fills everything below it.  Fractions are
    exact integrals of the arc over each cell, computed per half-gap
    column (column 0 at the symmetry plane).  A contact line at or above
    the grid's top raises ArcExceedsDomain.
    """
    nx, ny, dx = grid_half.nx, grid_half.ny, grid_half.dx
    R, theta, h0 = geom.R, geom.theta_e, geom.h0
    alpha = np.zeros((nx, ny))

    cos_t = math.cos(theta)
    flat = cos_t < _FLAT_COS
    contact_h = h0 if flat else h0 + R * (1.0 - math.sin(theta)) / cos_t
    if contact_h >= ny * dx:
        raise ArcExceedsDomain(
            f"contact line at {contact_h} exceeds domain height {ny * dx}")
    if flat:
        # 90 degree contact angle: flat interface at y = h0
        for j in range(ny):
            alpha[:, j] = min(max((h0 - j * dx) / dx, 0.0), 1.0)
        return alpha

    r = R / cos_t
    yc = h0 + r

    def y_if(x: float) -> float:
        return yc - math.sqrt(max(r * r - x * x, 0.0))

    def x_at(y: float) -> float:
        # inverse of y_if on the rising branch
        dyc = yc - y
        return math.sqrt(max(r * r - dyc * dyc, 0.0))

    cell = dx * dx
    for i in range(nx):
        xa, xb = i * dx, (i + 1) * dx
        ya, yb = y_if(xa), y_if(xb)
        for j in range(ny):
            y_lo, y_hi = j * dx, (j + 1) * dx
            if yb <= y_lo:
                alpha[i, j] = 0.0
                continue
            if ya >= y_hi:
                alpha[i, j] = 1.0
                continue
            # partial cell: integrate clamp(y_if - y_lo, 0, dx) over x
            x_lo = x_at(y_lo) if ya < y_lo else xa
            x_hi = x_at(y_hi) if yb > y_hi else xb
            x_lo = min(max(x_lo, xa), xb)
            x_hi = min(max(x_hi, xa), xb)
            area = (_arc_antiderivative(x_hi, r, yc)
                    - _arc_antiderivative(x_lo, r, yc)
                    - y_lo * (x_hi - x_lo))
            area += (xb - x_hi) * dx
            alpha[i, j] = min(max(area / cell, 0.0), 1.0)
    return alpha


def arc_total_area(geom: Geometry) -> float:
    """Analytic liquid area below the initial arc over the half gap."""
    cos_t = math.cos(geom.theta_e)
    if cos_t < _FLAT_COS:
        return geom.R * geom.h0
    r = geom.R / cos_t
    yc = geom.h0 + r
    return _arc_antiderivative(geom.R, r, yc) - _arc_antiderivative(0.0, r, yc)


def init_case(geom: Geometry, nx: int) -> SimState:
    """State at rest with the exact arc fractions on a fresh half-gap grid."""
    grid = Grid(nx, geom.R)
    return SimState(grid, arc_column_fractions(geom, grid))


def apex_height(state: SimState) -> float:
    """Integrated liquid height of the symmetry-plane column.

    Sums alpha * dx down column 0.  The column must be single valued:
    full cells below a contiguous band of partial cells below empty
    cells.
    """
    col = state.alpha[0, :]
    _check_single_valued(col)
    return float(col.sum()) * state.grid.dx


def _check_single_valued(col: np.ndarray) -> None:
    # plain floats: on a column of 8 nx cells numpy's per-call cost
    # outweighs the work
    vals = col.tolist()
    partial = [j for j, a in enumerate(vals) if ALPHA_EPS < a < _PURE_LIQUID]
    if partial:
        lo, hi = partial[0], partial[-1]
        if hi - lo + 1 != len(partial):
            raise MultiValuedColumn("partial cells are not contiguous")
        # a < 1 - eps and a > eps, which a NaN fails, as in numpy
        if any(map(_PURE_LIQUID.__gt__, vals[:lo])):
            raise MultiValuedColumn("gas below the interface band")
        if any(map(ALPHA_EPS.__lt__, vals[hi + 1:])):
            raise MultiValuedColumn("liquid above the interface band")
        return
    # pure column: must be full up to some row then empty
    full = [a > 0.5 for a in vals]
    if True in full:
        top = len(full) - 1 - full[::-1].index(True)
        if False in full[:top + 1]:
            raise MultiValuedColumn("detached liquid in column")
