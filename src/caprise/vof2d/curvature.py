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


def _topmost_half_full(alpha: np.ndarray) -> list:
    """Per column of alpha, the topmost cell with fraction >= 1/2, found
    for every column by one argmax; ny - 1 for a column with none."""
    return (alpha.shape[1] - 1
            - (alpha[:, ::-1] >= 0.5).argmax(axis=1)).tolist()


def column_height(col: np.ndarray, j_center: int, dx: float,
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
    if col.item(j_lo) < 1.0 - ALPHA_EPS:
        raise StencilInvalid("window bottom is not pure liquid")
    if col.item(j_hi) > ALPHA_EPS:
        raise StencilInvalid("window top is not pure gas")
    return (j_lo + float(col[j_lo:j_hi + 1].sum())) * dx


def _height_with_widening(col: np.ndarray, jc: int, dx: float) -> float:
    # jc from _topmost_half_full, the interface cell once col[jc] >= 1/2
    if not col.item(jc) >= 0.5:
        raise StencilInvalid("column holds no interface cell")
    try:
        return column_height(col, jc, dx, half=3)
    except StencilInvalid:
        return column_height(col, jc, dx, half=4)


def curvature_height_function(alpha: np.ndarray, dx: float,
                              theta: float) -> np.ndarray:
    """Per-column interface curvature over the half gap.

    alpha is the (nx, ny) fraction field on square cells of side dx.
    Returns kappa (nx,), zero for a single-phase field.  The ghost column
    left of column 0 mirrors it across the symmetry plane; the one right
    of the last column is the wall's contact-angle ghost.
    """
    if float(alpha.max() - alpha.min()) < 1e-12:
        return np.zeros(alpha.shape[0])
    h = [_height_with_widening(col, j, dx)
         for col, j in zip(alpha, _topmost_half_full(alpha))]
    h.insert(0, h[0])
    h.append(contact_angle_ghost(h[-1], dx, theta))
    # the slope and second difference in plain floats, numpy's operations
    # one column at a time; the power stays numpy's
    hpp, q = [], []
    for h0, h1, h2 in zip(h, h[1:], h[2:]):
        hp = (h2 - h0) / (2.0 * dx)
        hpp.append((h2 - 2.0 * h1 + h0) / (dx * dx))
        q.append(1.0 + hp * hp)
    return np.array(hpp) / np.array(q) ** 1.5
