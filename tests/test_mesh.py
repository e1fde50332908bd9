"""Staggered grid, curls, adjointness, inner products, field algebra."""

import math

import numpy as np
import pytest

from colecole.mesh import (
    GridSpec,
    ScalarField,
    VecField,
    combine_theta,
    curl_e,
    curl_h,
    inner_e,
    inner_h,
    norm_e,
)


def random_fields(grid, rng, pec=True):
    e = VecField(
        rng.standard_normal((grid.nx, grid.ny + 1)),
        rng.standard_normal((grid.nx + 1, grid.ny)),
    )
    if pec:
        e.enforce_pec()
    h = ScalarField(rng.standard_normal((grid.nx, grid.ny)))
    return e, h


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(1, 4)
    with pytest.raises(ValueError):
        GridSpec(4, 4, lx=-1.0)
    for bad in (math.nan, math.inf, -math.inf):
        for name in ("lx", "ly"):
            with pytest.raises(ValueError, match=name):
                GridSpec(4, 4, **{name: bad})
    g = GridSpec(8, 10, 2.0, 1.0)
    assert g.dx == 0.25 and g.dy == 0.1


def test_coords_shapes_and_boundaries():
    g = GridSpec(6, 4)
    xs, ys = g.ex_coords()
    assert xs.shape == (6, 5)
    assert ys[0, 0] == 0.0 and ys[0, -1] == 1.0
    xs, ys = g.ey_coords()
    assert xs.shape == (7, 4)
    assert xs[0, 0] == 0.0 and xs[-1, 0] == 1.0
    xs, ys = g.h_coords()
    assert xs.shape == (6, 4)


def test_curl_h_of_constant_is_zero():
    g = GridSpec(5, 7)
    out = curl_h(ScalarField(3.14 * np.ones((5, 7))), g)
    assert not np.any(out.ex) and not np.any(out.ey)
    assert out.is_pec_compliant()


def test_curl_h_linear_fields_exact():
    # dyadic spacing makes the centered differences of linear data exact
    g = GridSpec(8, 8)
    xs, ys = g.h_coords()
    out = curl_h(ScalarField(ys.copy()), g)  # H = y -> (1, 0)
    assert np.all(out.ex[:, 1:-1] == 1.0)
    assert not np.any(out.ey)
    out = curl_h(ScalarField(xs.copy()), g)  # H = x -> (0, -1)
    assert np.all(out.ey[1:-1, :] == -1.0)
    assert not np.any(out.ex)


def test_curl_e_examples():
    g = GridSpec(8, 8)
    assert not np.any(curl_e(VecField.zeros(g), g).h)
    # E = (y, 0) -> curl = -1 exactly on dyadic spacing
    _, ys = g.ex_coords()
    e = VecField(ys.copy(), np.zeros((9, 8)))
    assert np.all(curl_e(e, g).h == -1.0)


def test_shape_mismatch_errors():
    g = GridSpec(4, 4)
    with pytest.raises(ValueError):
        curl_e(VecField.zeros(GridSpec(5, 4)), g)
    with pytest.raises(ValueError):
        curl_h(ScalarField.zeros(GridSpec(4, 5)), g)
    with pytest.raises(ValueError):
        inner_e(VecField.zeros(g), VecField.zeros(GridSpec(5, 5)), g)


@pytest.mark.parametrize("nx,ny", [(8, 8), (16, 24), (60, 60)])
def test_summation_by_parts_adjointness(nx, ny):
    g = GridSpec(nx, ny)
    rng = np.random.default_rng(nx * 1000 + ny)
    for _ in range(20):
        e, h = random_fields(g, rng)
        lhs = inner_e(curl_h(h, g), e, g)
        rhs = inner_h(h, curl_e(e, g), g)
        scale = abs(lhs) + abs(rhs) + 1e-30
        assert abs(lhs - rhs) <= 1e-12 * scale


def test_curl_composition_spsd():
    g = GridSpec(10, 6)
    rng = np.random.default_rng(7)
    for _ in range(10):
        p = ScalarField(rng.standard_normal((10, 6)))
        q = ScalarField(rng.standard_normal((10, 6)))
        op = lambda s: curl_e(curl_h(s, g), g)
        sym = inner_h(op(p), q, g) - inner_h(p, op(q), g)
        assert abs(sym) <= 1e-12 * (abs(inner_h(op(p), q, g)) + 1e-30)
        assert inner_h(op(p), p, g) >= -1e-14


def test_pec_preservation():
    g = GridSpec(9, 5)
    rng = np.random.default_rng(1)
    out = curl_h(ScalarField(rng.standard_normal((9, 5))), g)
    assert out.is_pec_compliant()
    e, _ = random_fields(g, rng)
    assert (2.0 * e).is_pec_compliant() and (e + e).is_pec_compliant()
    p, _ = random_fields(g, rng, pec=False)  # unconstrained field
    assert not (e + p).is_pec_compliant()


def test_inner_products():
    g = GridSpec(2, 2)
    ones = ScalarField(np.ones((2, 2)))
    assert inner_h(ones, ones, g) == pytest.approx(1.0, rel=1e-15)
    assert inner_e(VecField.zeros(g), VecField.zeros(g), g) == 0.0
    rng = np.random.default_rng(3)
    g = GridSpec(12, 9)
    for _ in range(20):
        u, _ = random_fields(g, rng, pec=False)
        v, _ = random_fields(g, rng, pec=False)
        assert abs(inner_e(u, v, g)) <= norm_e(u, g) * norm_e(v, g) * (1.0 + 1e-12)


def test_field_algebra():
    g = GridSpec(6, 6)
    rng = np.random.default_rng(5)
    u, _ = random_fields(g, rng)
    v, _ = random_fields(g, rng)
    w = combine_theta(u, u, 0.37)
    np.testing.assert_allclose(w.ex, u.ex, rtol=1e-15)
    w = combine_theta(u, v, 0.0)
    np.testing.assert_allclose(w.ex, u.ex, atol=0)
    w = combine_theta(u, v, 0.5)
    np.testing.assert_allclose(w.ey, 0.5 * (u.ey + v.ey), rtol=1e-15)
    assert w.is_pec_compliant()
    d = u - v
    np.testing.assert_allclose(d.ey, u.ey - v.ey, atol=0)
    s = ScalarField(np.ones((6, 6)))
    np.testing.assert_allclose(combine_theta(s, 3.0 * s, 0.25).h, 1.5 * np.ones((6, 6)), rtol=1e-15)
