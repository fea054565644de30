"""Height-function curvature with a ghost-cell contact angle.

Each column's liquid height is the fraction sum over a vertical window
centred on its interface cell.  Ghost columns extend the height field:
mirrored across the symmetry plane, offset by dx/tan(theta) across a
wall so the reconstructed interface meets it at the contact angle.

Sign convention: kappa > 0 for the wetting meniscus (interface concave
toward the gas), so the Laplace jump is p_gas - p_liq = sigma * kappa.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import StencilInvalid
from .geometry import ALPHA_EPS


def contact_angle_ghost(h_wall: float, dx: float, theta: float) -> float:
    """Ghost column height enforcing slope 1/tan(theta) at the wall."""
    return h_wall + dx / math.tan(theta)


def interface_cell(col: np.ndarray) -> int:
    """Topmost cell with fraction >= 1/2, scanning a single column."""
    idx = np.where(col >= 0.5)[0]
    if idx.size == 0:
        raise StencilInvalid("column holds no interface cell")
    return int(idx[-1])


def column_height(col: np.ndarray, j_center: int, dy: float,
                  half: int) -> float:
    """Liquid height from a fraction window around the interface cell.

    The window [j_center - half, j_center + half] must sit inside the
    column and bracket the interface: bottom cell full, top cell empty.
    Cells below the window count as full.
    """
    j_lo = j_center - half
    j_hi = j_center + half
    if j_lo < 0 or j_hi >= col.size:
        raise StencilInvalid("height window leaves the domain")
    if col[j_lo] < 1.0 - ALPHA_EPS:
        raise StencilInvalid("window bottom is not pure liquid")
    if col[j_hi] > ALPHA_EPS:
        raise StencilInvalid("window top is not pure gas")
    return (j_lo + float(col[j_lo:j_hi + 1].sum())) * dy


def _height_with_widening(col: np.ndarray, dy: float) -> float:
    jc = interface_cell(col)
    try:
        return column_height(col, jc, dy, half=3)
    except StencilInvalid:
        return column_height(col, jc, dy, half=4)


def curvature_height_function(alpha: np.ndarray, dx: float, dy: float,
                              theta: float, *,
                              wall_left: bool = False,
                              wall_right: bool = True) -> np.ndarray:
    """Per-column interface curvature over the whole width.

    alpha is the (nx, ny) fraction field.  Returns kappa (nx,).  The
    boundary treatment on each side is either a wall (contact-angle
    ghost) or the symmetry plane (mirror ghost).
    """
    nx = alpha.shape[0]
    h = np.empty(nx + 2)
    for i in range(nx):
        h[i + 1] = _height_with_widening(alpha[i, :], dy)
    if wall_left:
        h[0] = contact_angle_ghost(h[1], dx, theta)
    else:
        h[0] = h[1]
    if wall_right:
        h[nx + 1] = contact_angle_ghost(h[nx], dx, theta)
    else:
        h[nx + 1] = h[nx]
    hp = (h[2:] - h[:-2]) / (2.0 * dx)
    hpp = (h[2:] - 2.0 * h[1:-1] + h[:-2]) / (dx * dx)
    return hpp / (1.0 + hp * hp) ** 1.5
