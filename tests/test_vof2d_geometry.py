"""PLIC cell geometry and the exact arc initialisation."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from caprise.core import Geometry
from caprise.errors import ArcExceedsDomain, MultiValuedColumn
from caprise.vof2d.geometry import (Grid, SimState, apex_height,
                                    arc_column_fractions, arc_total_area,
                                    init_case)
from caprise.vof2d.plic import (PlicPlane, _offset, plic_reconstruct,
                                youngs_normal)

GEOM = Geometry(R=0.005, theta_e=math.radians(30.0), h0=0.01)


def clip_polygon_area(n1, n2, d, dx, dy):
    """Half-plane area oracle: Sutherland-Hodgman clip of the cell."""
    poly = [(0.0, 0.0), (dx, 0.0), (dx, dy), (0.0, dy)]
    out = []
    for k in range(len(poly)):
        ax, ay = poly[k]
        bx, by = poly[(k + 1) % len(poly)]
        fa = n1 * ax + n2 * ay - d
        fb = n1 * bx + n2 * by - d
        if fa <= 0.0:
            out.append((ax, ay))
        if fa * fb < 0.0:
            t = fa / (fa - fb)
            out.append((ax + t * (bx - ax), ay + t * (by - ay)))
    area = 0.0
    for k in range(len(out)):
        ax, ay = out[k]
        bx, by = out[(k + 1) % len(out)]
        area += ax * by - bx * ay
    return 0.5 * abs(area)


def cell_area(n, d, dx, dy):
    """Liquid area of {n . x <= d} in the whole cell, the slab that is
    the cell itself."""
    return PlicPlane(n, d).slab_area(0.0, dx, 0.0, dy)


class TestLiquidArea:
    def test_matches_polygon_clipping_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            phi = rng.uniform(0.0, 2.0 * math.pi)
            n = (math.cos(phi), math.sin(phi))
            dx = rng.uniform(0.5, 2.0)
            dy = rng.uniform(0.5, 2.0)
            corners = [0.0, n[0] * dx, n[1] * dy, n[0] * dx + n[1] * dy]
            span = max(corners) - min(corners)
            d = rng.uniform(min(corners) - 0.1 * span,
                            max(corners) + 0.1 * span)
            got = cell_area(n, d, dx, dy)
            want = clip_polygon_area(n[0], n[1], d, dx, dy)
            assert got == pytest.approx(want, abs=1e-12 * dx * dy)

    def test_empty_and_full_limits(self):
        n = (math.cos(1.0), math.sin(1.0))
        assert cell_area(n, -5.0, 1.0, 1.0) == 0.0
        assert cell_area(n, 5.0, 1.0, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_axis_aligned_normals(self):
        assert cell_area((0.0, 1.0), 0.3, 1.0, 1.0) == pytest.approx(0.3)
        assert cell_area((0.0, -1.0), -0.3, 1.0, 1.0) == pytest.approx(0.7)
        assert cell_area((1.0, 0.0), 0.25, 1.0, 2.0) == pytest.approx(0.5)


class TestOffsetForArea:
    """plic_reconstruct's offset: the inverse of the cell area in d."""

    def test_roundtrip_random(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            phi = rng.uniform(0.0, 2.0 * math.pi)
            n = (math.cos(phi), math.sin(phi))
            dx = rng.uniform(0.5, 2.0)
            target = rng.uniform(0.0, 1.0) * dx * dx
            d = _offset(n, target, dx)
            assert cell_area(n, d, dx, dx) == pytest.approx(
                target, abs=1e-12 * dx * dx)

    def test_roundtrip_axis_aligned(self):
        for n in ((0.0, 1.0), (0.0, -1.0), (1.0, 0.0), (-1.0, 0.0)):
            d = _offset(n, 0.4, 1.0)
            assert cell_area(n, d, 1.0, 1.0) == pytest.approx(0.4, abs=1e-14)


class TestReconstruction:
    def test_youngs_normal_on_linear_interfaces(self):
        # build exact fraction stencils from a global half-plane
        rng = np.random.default_rng(3)
        checked = 0
        for _ in range(300):
            phi = rng.uniform(0.0, 2.0 * math.pi)
            n = (math.cos(phi), math.sin(phi))
            corners = [0.0, n[0], n[1], n[0] + n[1]]
            lo, hi = min(corners), max(corners)
            d0 = lo + rng.uniform(0.05, 0.95) * (hi - lo)
            sten = [[cell_area(n, d0 - n[0] * (i - 1) - n[1] * (j - 1),
                               1.0, 1.0)
                     for j in range(3)] for i in range(3)]
            if not 0.02 < sten[1][1] < 0.98:
                continue
            ne = youngs_normal(sten, 1.0)
            assert ne[0] * n[0] + ne[1] * n[1] > 0.997
            checked += 1
        assert checked > 200

    def test_youngs_uniform_stencil_falls_back(self):
        sten = [[0.5] * 3 for _ in range(3)]
        assert youngs_normal(sten, 1.0) == (0.0, 1.0)

    def test_reconstruct_conserves_centre_fraction(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            sten = rng.uniform(0.0, 1.0, size=(3, 3))
            sten[1, 1] = rng.uniform(1e-6, 1.0 - 1e-6)
            plane = plic_reconstruct(sten.tolist(), 1.0)
            assert cell_area(*plane, 1.0, 1.0) == pytest.approx(sten[1, 1], abs=1e-12)

    def test_reconstruct_rejects_pure_cell(self):
        sten = [[1.0] * 3 for _ in range(3)]
        with pytest.raises(ValueError):
            plic_reconstruct(sten, 1.0)

    def test_slab_areas_partition_the_cell(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            phi = rng.uniform(0.0, 2.0 * math.pi)
            n = (math.cos(phi), math.sin(phi))
            d = rng.uniform(-0.5, 2.0)
            plane = PlicPlane(n, d)
            xi = rng.uniform(0.1, 0.9)
            both = (plane.slab_area(0.0, xi, 0.0, 1.0)
                    + plane.slab_area(xi, 1.0, 0.0, 1.0))
            assert both == pytest.approx(cell_area(n, d, 1.0, 1.0), abs=1e-13)
            eta = rng.uniform(0.1, 0.9)
            both = (plane.slab_area(0.0, 1.0, 0.0, eta)
                    + plane.slab_area(0.0, 1.0, eta, 1.0))
            assert both == pytest.approx(cell_area(n, d, 1.0, 1.0), abs=1e-13)


class TestGrid:
    def test_half_gap_shape(self):
        g = Grid(8, 0.005)
        assert (g.nx, g.ny) == (8, 64)
        assert g.dx == pytest.approx(0.005 / 8)

    def test_too_coarse_rejected(self):
        with pytest.raises(ValueError, match=r"integer nx >= 4 cells, got 3$"):
            Grid(3, 0.005)

    def test_finest_mesh_is_max_nx(self):
        assert Grid(128, 0.005).ny == 1024
        with pytest.raises(ValueError, match=r"at most nx = 128 cells, got 129$"):
            Grid(129, 0.005)

    @pytest.mark.parametrize("nx", [8.5, 8.0])
    def test_cell_count_must_be_an_integer(self, nx):
        with pytest.raises(ValueError, match=rf"integer nx >= 4 cells, got {nx}$"):
            Grid(nx, 0.005)

    @pytest.mark.parametrize("R", [math.nan, 0.0])
    def test_cell_size_must_be_positive(self, R):
        with pytest.raises(ValueError, match="cell size must be positive"):
            Grid(8, R)

    def test_numpy_integer_gives_the_same_grid(self):
        g = Grid(np.int64(8), 0.005)
        assert g == Grid(8, 0.005)
        assert type(g.nx) is int and type(g.dx) is float
        assert g.dx.hex() == Grid(8, 0.005).dx.hex() == (0.005 / 8).hex()


class TestSimState:
    def test_wrong_alpha_shape_rejected(self):
        grid = Grid(4, 0.005)
        with pytest.raises(ValueError, match="alpha shape"):
            SimState(grid, np.zeros((grid.ny, grid.nx)))

    def test_starts_at_rest_with_its_own_alpha(self):
        grid = Grid(4, 0.005)
        alpha = np.ones((grid.nx, grid.ny), dtype=np.float32)
        state = SimState(grid, alpha)
        assert state.t == 0.0
        for name, shape in (("u", (5, 32)), ("v", (4, 33)), ("p", (4, 32))):
            arr = getattr(state, name)
            assert arr.shape == shape and not arr.any()
        assert state.alpha.dtype == float
        assert not np.shares_memory(state.alpha, alpha)
        alpha64 = np.ones((grid.nx, grid.ny))
        assert not np.shares_memory(SimState(grid, alpha64).alpha, alpha64)


class TestArcInit:
    def test_total_volume_matches_analytic(self):
        for nx in (4, 8, 16):
            for deg in (30.0, 60.0, 90.0):
                geom = Geometry(R=0.005, theta_e=math.radians(deg),
                                h0=0.01)
                grid = Grid(nx, geom.R)
                a = arc_column_fractions(geom, grid)
                total = a.sum() * grid.dx * grid.dx
                assert total == pytest.approx(arc_total_area(geom),
                                              rel=1e-12)

    def test_cell_fractions_match_quadrature(self):
        grid = Grid(8, GEOM.R)
        a = arc_column_fractions(GEOM, grid)
        r = GEOM.R / math.cos(GEOM.theta_e)
        yc = GEOM.h0 + r

        def y_if(x):
            return yc - math.sqrt(max(r * r - x * x, 0.0))

        def x_at(y):
            return math.sqrt(max(r * r - (yc - y) ** 2, 0.0))

        cell = grid.dx * grid.dx
        for i in (0, 3, 5, 7):
            for j in range(14, 22):
                y_lo = j * grid.dx
                xa, xb = i * grid.dx, (i + 1) * grid.dx
                # give quad the clamp kinks, and tolerances well below
                # the tiny absolute size of a single-cell integral
                kinks = [x for x in (x_at(y_lo), x_at(y_lo + grid.dx))
                         if xa < x < xb]
                val, _ = quad(
                    lambda x: min(max(y_if(x) - y_lo, 0.0), grid.dx),
                    xa, xb, points=kinks or None, limit=200,
                    epsabs=1e-18, epsrel=1e-13)
                assert a[i, j] == pytest.approx(val / cell, abs=1e-10)

    def test_columns_single_valued_and_rising_to_wall(self):
        grid = Grid(16, GEOM.R)
        a = arc_column_fractions(GEOM, grid)
        heights = a.sum(axis=1) * grid.dx
        assert np.all(np.diff(heights) > 0.0)
        state = SimState(grid, a)
        apex_height(state)  # raises if any apex-column structure is bad

    def test_flat_interface_at_ninety_degrees(self):
        geom = Geometry(R=0.005, theta_e=math.pi / 2, h0=0.01)
        grid = Grid(8, geom.R)
        a = arc_column_fractions(geom, grid)
        # h0 = 16 dx exactly: 16 full rows, empty above
        assert np.all(a[:, :16] == 1.0)
        assert np.all(a[:, 16:] == 0.0)

    def test_arc_exceeding_domain_raises(self):
        geom = Geometry(R=0.005, theta_e=math.radians(30.0),
                        h0=0.0375)
        grid = Grid(8, geom.R)
        with pytest.raises(ArcExceedsDomain):
            arc_column_fractions(geom, grid)

    @pytest.mark.parametrize("deg", [30.0, 90.0])
    def test_init_case_refuses_apex_above_grid(self, deg):
        # the grid is 8 R tall: an apex at 9 R would fill it with liquid
        geom = Geometry(R=0.005, theta_e=math.radians(deg), h0=9 * 0.005)
        with pytest.raises(ArcExceedsDomain):
            init_case(geom, 8)

    def test_init_case_apex_near_h0(self):
        state = init_case(GEOM, 8)
        apex = apex_height(state)
        assert GEOM.h0 <= apex <= GEOM.h0 + state.grid.dx
        # frozen: exact arc integral over the apex column
        assert apex == pytest.approx(0.010011296277628659, rel=1e-12)


class TestApexHeight:
    def _state_with_column(self, col):
        grid = Grid(4, 0.005)
        a = np.zeros((grid.nx, grid.ny))
        a[:, :len(col)] = np.asarray(col)[None, :]
        return SimState(grid, a)

    def test_simple_column(self):
        state = self._state_with_column([1.0, 1.0, 0.5])
        assert apex_height(state) == pytest.approx(2.5 * state.grid.dx)

    def test_detached_partial_raises(self):
        state = self._state_with_column([1.0, 1.0, 0.5, 1.0, 0.3])
        with pytest.raises(MultiValuedColumn):
            apex_height(state)

    def test_gas_pocket_raises(self):
        state = self._state_with_column([1.0, 0.0, 1.0])
        with pytest.raises(MultiValuedColumn):
            apex_height(state)

    def test_floating_liquid_raises(self):
        state = self._state_with_column([1.0, 0.4, 0.0, 0.6])
        with pytest.raises(MultiValuedColumn):
            apex_height(state)

    def test_empty_column_is_zero(self):
        state = self._state_with_column([0.0])
        assert apex_height(state) == 0.0
