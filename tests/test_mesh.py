"""Staggered grid, the curl stencils of the test oracles (adjointness, inner
products, field algebra), and the eigenbasis in which the library applies
the curls; the einsum binding the step path calls."""

import math

import numpy as np
import pytest

from colecole.mesh import (
    CurlCurlBasis, GridSpec, VecField, einsum, norm_sq, sample_scalar, sample_vec
)

from oracles import (
    combine_theta, curl_e, curl_h, fmap, inner_e, inner_h, norm_e, operator_diagonal, zero_edges
)


def random_fields(grid, rng, pec=True):
    e = VecField(
        rng.standard_normal((grid.nx, grid.ny + 1)),
        rng.standard_normal((grid.nx + 1, grid.ny)),
    )
    if pec:
        e.enforce_pec()
    h = rng.standard_normal((grid.nx, grid.ny))
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
    # the cell counts are integers: floats and bools are refused, numpy integers kept as int
    for bad in (4.0, 4.5, True, np.float64(4.0), np.bool_(True)):
        for name, args in (("nx", (bad, 4)), ("ny", (4, bad))):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                GridSpec(*args)
    g = GridSpec(np.int64(4), np.int32(6))
    assert type(g.nx) is int and type(g.ny) is int and g == GridSpec(4, 6)


def test_sample_scalar_gives_a_float_cell_array():
    g = GridSpec(3, 5)
    h = sample_scalar(lambda x, y: (10 * x).astype(int) + 0 * y, g)
    assert h.dtype == float and h.shape == (3, 5)
    assert np.array_equal(h, np.floor(10 * g.h_coords()[0]))
    # a profile that does not give one value per cell is refused
    for f in (lambda x, y: 1.0, lambda x, y: x.ravel(), lambda x, y: x[:, :, None]):
        with pytest.raises(ValueError, match="cell field"):
            sample_scalar(f, g)


def test_sample_vec_checks_its_component_shapes():
    g = GridSpec(4, 4)
    e = sample_vec((lambda x, y: x, lambda x, y: y), g)
    assert e.ex.shape == (4, 5) and e.ey.shape == (5, 4)
    # a component sampled off its own dofs is refused, either one
    for f in (
        (lambda x, y: x[:, :-1], lambda x, y: y),
        (lambda x, y: x, lambda x, y: y[:-1, :]),
        (lambda x, y: x, lambda x, y: y.T),
    ):
        with pytest.raises(ValueError, match="edge fields"):
            sample_vec(f, g)


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
    out = curl_h(3.14 * np.ones((5, 7)), g)
    assert not np.any(out.ex) and not np.any(out.ey)
    assert out.is_pec_compliant()


def test_curl_h_linear_fields_exact():
    # dyadic spacing makes the centered differences of linear data exact
    g = GridSpec(8, 8)
    xs, ys = g.h_coords()
    out = curl_h(ys.copy(), g)  # H = y -> (1, 0)
    assert np.all(out.ex[:, 1:-1] == 1.0)
    assert not np.any(out.ey)
    out = curl_h(xs.copy(), g)  # H = x -> (0, -1)
    assert np.all(out.ey[1:-1, :] == -1.0)
    assert not np.any(out.ex)


def test_curl_e_examples():
    g = GridSpec(8, 8)
    assert not np.any(curl_e(zero_edges(g), g))
    # E = (y, 0) -> curl = -1 exactly on dyadic spacing
    _, ys = g.ex_coords()
    e = VecField(ys.copy(), np.zeros((9, 8)))
    assert np.all(curl_e(e, g) == -1.0)


def test_shape_mismatch_errors():
    g = GridSpec(4, 4)
    with pytest.raises(ValueError):
        curl_e(zero_edges(GridSpec(5, 4)), g)
    with pytest.raises(ValueError):
        curl_h(np.zeros((4, 5)), g)
    with pytest.raises(ValueError):
        inner_e(zero_edges(g), zero_edges(GridSpec(5, 5)), g)
    with pytest.raises(ValueError, match="2-D"):
        VecField(np.zeros(4), np.zeros((5, 4)))


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


def test_kernels_give_the_bits_of_the_expression_forms():
    # curl_h, curl_e and inner_e run on in-place kernels; each must equal,
    # bit for bit, its plain whole-array expression.
    grid = GridSpec(64, 48, lx=1.3, ly=0.7)
    rng = np.random.default_rng(11)
    e, h = random_fields(grid, rng, pec=False)
    u, _ = random_fields(grid, rng, pec=False)
    want_ex = np.zeros((64, 49))
    want_ex[:, 1:-1] = (h[:, 1:] - h[:, :-1]) / grid.dy
    want_ey = np.zeros((65, 48))
    want_ey[1:-1, :] = -(h[1:, :] - h[:-1, :]) / grid.dx
    got = curl_h(h, grid)
    assert np.array_equal(got.ex, want_ex) and np.array_equal(got.ey, want_ey)
    want = (e.ey[1:, :] - e.ey[:-1, :]) / grid.dx - (e.ex[:, 1:] - e.ex[:, :-1]) / grid.dy
    assert np.array_equal(curl_e(e, grid), want)
    want = grid.dx * grid.dy * (float(np.sum(e.ex * u.ex)) + float(np.sum(e.ey * u.ey)))
    assert inner_e(e, u, grid) == want


TRANSFORM_GRIDS = [GridSpec(2, 2), GridSpec(3, 5), GridSpec(17, 9, 1.3, 0.7), GridSpec(64, 40)]


@pytest.mark.parametrize("grid", TRANSFORM_GRIDS, ids=lambda g: f"{g.nx}x{g.ny}")
def test_curl_curl_basis_round_trip_and_parseval(grid):
    basis = CurlCurlBasis(grid)
    u, _ = random_fields(grid, np.random.default_rng(grid.nx), pec=True)
    coef = basis.forward(u.ex, u.ey)
    assert coef.shape == (2, grid.nx, grid.ny)
    assert norm_sq(coef, grid) == pytest.approx(inner_e(u, u, grid), rel=1e-14)
    back = VecField(*basis.inverse(coef))
    assert norm_e(fmap(np.subtract, back, u), grid) <= 1e-14 * norm_e(u, grid)
    # forward reads the interior only
    noisy, _ = random_fields(grid, np.random.default_rng(grid.ny), pec=False)
    noisy.ex[:, 1:-1], noisy.ey[1:-1, :] = u.ex[:, 1:-1], u.ey[1:-1, :]
    assert np.array_equal(basis.forward(noisy.ex, noisy.ey), basis.forward(u.ex, u.ey))


@pytest.mark.parametrize("grid", TRANSFORM_GRIDS, ids=lambda g: f"{g.nx}x{g.ny}")
def test_curl_curl_inverse_leaves_its_argument(grid):
    # a caller may pass a run's own coefficients, such as state.e
    basis = CurlCurlBasis(grid)
    coef = np.random.default_rng(grid.nx).standard_normal((2, grid.nx, grid.ny))
    before = coef.tobytes()
    ex, ey = basis.inverse(coef)
    assert coef.tobytes() == before
    # so a second call on the same array gives the same fields
    again = basis.inverse(coef)
    assert np.array_equal(again[0], ex) and np.array_equal(again[1], ey)


@pytest.mark.parametrize("grid", TRANSFORM_GRIDS, ids=lambda g: f"{g.nx}x{g.ny}")
def test_curl_curl_basis_diagonalises_the_step_operator(grid):
    basis = CurlCurlBasis(grid)
    diag, curl_scale = 3.7, 0.02
    # the tangential component's eigenvalues; the normal one's, diag, is their (0, 0) entry
    lam = basis.eigenvalues(diag, curl_scale)
    assert lam.shape == (grid.nx, grid.ny) and lam[0, 0] == diag
    for seed in range(3):
        u, _ = random_fields(grid, np.random.default_rng(seed), pec=True)
        want = fmap(lambda a, b: diag * a + curl_scale * b, u, curl_h(curl_e(u, grid), grid))
        coef = basis.forward(u.ex, u.ey) * operator_diagonal(lam)
        got = VecField(*basis.inverse(coef))
        assert norm_e(fmap(np.subtract, got, want), grid) <= 1e-13 * norm_e(want, grid)
        # the inverse writes exact zeros on the tangential boundary
        assert got.is_pec_compliant()


@pytest.mark.parametrize("grid", TRANSFORM_GRIDS, ids=lambda g: f"{g.nx}x{g.ny}")
def test_cell_basis_round_trip_and_parseval(grid):
    basis = CurlCurlBasis(grid)
    h = np.random.default_rng(grid.nx).standard_normal((grid.nx, grid.ny))
    coef = basis.forward_cell(h)
    assert coef.shape == (grid.nx, grid.ny)
    assert norm_sq(coef, grid) == pytest.approx(inner_h(h, h, grid), rel=1e-14)
    back = basis.inverse_cell(coef)
    assert np.abs(back - h).max() <= 1e-14 * np.abs(h).max()
    # the constant field is mode (0, 0) alone
    ones = basis.forward_cell(np.ones((grid.nx, grid.ny)))
    assert ones[0, 0] == pytest.approx(math.sqrt(grid.nx * grid.ny), rel=1e-14)
    assert np.abs(ones).sum() - ones[0, 0] <= 1e-13 * ones[0, 0]


@pytest.mark.parametrize("grid", TRANSFORM_GRIDS, ids=lambda g: f"{g.nx}x{g.ny}")
def test_curls_are_diagonal_in_the_basis(grid):
    # the stencils against the per-mode factors the step uses: curl_e (a, b)
    # = -|v| b and curl_h c = (0, -|v| c), to 1e-13 of the largest coefficient
    basis = CurlCurlBasis(grid)
    v = basis.curl_modulus()
    assert v[0, 0] == 0.0 and np.all(v.ravel()[1:] > 0.0)
    rng = np.random.default_rng(grid.nx * 31 + grid.ny)
    for _ in range(3):
        e, h = random_fields(grid, rng)
        coef, cell = basis.forward(e.ex, e.ey), basis.forward_cell(h)
        got = basis.forward_cell(curl_e(e, grid))
        assert np.abs(got + v * coef[1]).max() <= 1e-13 * np.abs(got).max()
        ch = curl_h(h, grid)
        got = basis.forward(ch.ex, ch.ey)
        scale = np.abs(got).max()
        assert np.abs(got[0]).max() <= 1e-13 * scale
        assert np.abs(got[1] + v * cell).max() <= 1e-13 * scale


def test_curl_composition_spsd():
    g = GridSpec(10, 6)
    rng = np.random.default_rng(7)
    for _ in range(10):
        p = rng.standard_normal((10, 6))
        q = rng.standard_normal((10, 6))
        op = lambda s: curl_e(curl_h(s, g), g)
        sym = inner_h(op(p), q, g) - inner_h(p, op(q), g)
        assert abs(sym) <= 1e-12 * (abs(inner_h(op(p), q, g)) + 1e-30)
        assert inner_h(op(p), p, g) >= -1e-14


def test_pec_preservation():
    g = GridSpec(9, 5)
    rng = np.random.default_rng(1)
    out = curl_h(rng.standard_normal((9, 5)), g)
    assert out.is_pec_compliant()
    e, _ = random_fields(g, rng)
    assert fmap(lambda a: 2.0 * a, e).is_pec_compliant() and fmap(np.add, e, e).is_pec_compliant()
    p, _ = random_fields(g, rng, pec=False)  # unconstrained field
    assert not fmap(np.add, e, p).is_pec_compliant()
    # the inverse transform writes exact zeros on the tangential boundary
    basis = CurlCurlBasis(g)
    assert VecField(*basis.inverse(basis.forward(p.ex, p.ey))).is_pec_compliant()


def test_inner_products():
    g = GridSpec(2, 2)
    ones = np.ones((2, 2))
    assert inner_h(ones, ones, g) == pytest.approx(1.0, rel=1e-15)
    assert inner_e(zero_edges(g), zero_edges(g), g) == 0.0
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
    d = fmap(np.subtract, u, v)
    np.testing.assert_allclose(d.ey, u.ey - v.ey, atol=0)
    s = np.ones((6, 6))
    s3 = 3.0 * s
    np.testing.assert_allclose(combine_theta(s, s3, 0.25), 1.5 * np.ones((6, 6)), rtol=1e-15)


def test_einsum_binding_is_numpys_c_einsum():
    # numpy 2 exposes the function np.einsum forwards to; older numpy gets np.einsum
    if int(np.__version__.split(".")[0]) >= 2:
        from numpy._core.multiarray import c_einsum

        assert einsum is c_einsum


@pytest.mark.parametrize("subscripts, shapes", [
    ("i,i->", [(1143,), (1143,)]),  # the E-solve's dot products, norm_sq
    ("i,ij->j", [(26 + 53,), (26 + 53, 1 + 64 * 64)]),  # the history sum
    ("b,bj->j", [(16,), (16, 1 + 64 * 64)]),  # the fold
    ("ij,j->i", [(3, 48 * 48), (48 * 48,)]),  # Span.pack
    ("i,ij->j", [(3,), (3, 48 * 48)]),  # Span.unpack, into out=
])
def test_einsum_binding_gives_numpys_bits(subscripts, shapes):
    # the same result as np.einsum, bit for bit, on every subscript the
    # package contracts with, returned or written into out=
    rng = np.random.default_rng(3)
    a, b = (rng.standard_normal(shape) for shape in shapes)
    expected = np.einsum(subscripts, a, b)
    assert np.asarray(einsum(subscripts, a, b)).tobytes() == np.asarray(expected).tobytes()
    out = np.empty_like(expected)
    assert einsum(subscripts, a, b, out=out) is out
    assert out.tobytes() == np.einsum(subscripts, a, b, out=np.empty_like(expected)).tobytes()
