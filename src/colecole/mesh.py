"""Staggered transverse-electric grid and the eigenbasis of its curl pair.

Layout on an nx-by-ny cell grid over (0, lx) x (0, ly):

* ``ex``  shape (nx, ny+1), dof at (x_{i+1/2}, y_j)    -- E1/P1 component
* ``ey``  shape (nx+1, ny), dof at (x_i, y_{j+1/2})    -- E2/P2 component
* ``h``   shape (nx, ny),   dof at cell centers        -- H

The discrete curls are ``curl_h`` (cell values to edge components,
(dH/dy, -dH/dx), with the perfect-electric-conductor rows and columns zero)
and ``curl_e`` (edge components to cell values, dE2/dx - dE1/dy).  Under the
uniform dof inner products they are exact adjoints, which is what carries the
semi-discrete energy-decay argument over to the fully discrete system.

The integrator never applies them as stencils.  :class:`CurlCurlBasis` is an
orthonormal basis of the tangential-zero edge fields and of the cell fields in
which both curls are diagonal: on mode (k, l), ``curl_e`` maps the edge
coefficients (a, b) to the cell coefficient -|v| b, and ``curl_h`` maps the
cell coefficient c to the edge coefficients (0, -|v| c).  A run keeps E, P and
H as these coefficients (see :mod:`colecole.stepper`); a :class:`VecField`
(E, P) and an (nx, ny) array (H) are the dof arrays that go in and come out.
The stencils themselves live in the test suite, as the independent
physical-space check.

Component 0 of the edge coefficients, the curl-free half, has |v| = 0 on
every mode.  A run holds it as coordinates in an orthonormal basis of the
span of its initial values and its sources' profiles, which it never leaves
(:class:`Span`, :func:`curl_free_span`).

Every contraction on a run's step path calls :data:`einsum`, numpy's C
einsum bound once here: the function ``np.einsum`` forwards to when it is not
asked to optimize, so its results are the same bit for bit, without the
array-function dispatch and argument handling, about 0.9 us a call, that
``np.einsum`` adds in front of it.  A conjugate-gradient iteration of the
E-solve is two such dot products and five ufuncs over a few thousand values,
so that overhead was about a quarter of its cost.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

try:
    from numpy._core.multiarray import c_einsum as einsum
except ImportError:  # numpy < 2: the same kernel behind its dispatch
    einsum = np.einsum

Profile = Callable[[np.ndarray, np.ndarray], np.ndarray]


def as_count(name: str, value) -> int:
    """value as an int by ``operator.index``; ValueError for a float or a bool."""
    if isinstance(value, (bool, np.bool_)) or not hasattr(value, "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


@dataclass(frozen=True)
class GridSpec:
    nx: int
    ny: int
    lx: float = 1.0
    ly: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "nx", as_count("nx", self.nx))
        object.__setattr__(self, "ny", as_count("ny", self.ny))
        if self.nx < 2 or self.ny < 2:
            raise ValueError(f"grid must be at least 2x2, got {self.nx}x{self.ny}")
        for name in ("lx", "ly"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value}")

    @property
    def dx(self) -> float:
        return self.lx / self.nx

    @property
    def dy(self) -> float:
        return self.ly / self.ny

    def ex_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid (x, y) of the ex dofs, shape (nx, ny+1).

        Edge-aligned axes use linspace so boundary dofs sit exactly on the
        domain boundary.
        """
        x = (np.arange(self.nx) + 0.5) * self.dx
        y = np.linspace(0.0, self.ly, self.ny + 1)
        return np.meshgrid(x, y, indexing="ij")

    def ey_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid (x, y) of the ey dofs, shape (nx+1, ny)."""
        x = np.linspace(0.0, self.lx, self.nx + 1)
        y = (np.arange(self.ny) + 0.5) * self.dy
        return np.meshgrid(x, y, indexing="ij")

    def h_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid (x, y) of the cell centers, shape (nx, ny)."""
        x = (np.arange(self.nx) + 0.5) * self.dx
        y = (np.arange(self.ny) + 0.5) * self.dy
        return np.meshgrid(x, y, indexing="ij")


@dataclass
class VecField:
    """Edge-component pair (ex, ey)."""

    ex: np.ndarray
    ey: np.ndarray

    def __post_init__(self) -> None:
        self.ex = np.asarray(self.ex, dtype=float)
        self.ey = np.asarray(self.ey, dtype=float)
        if self.ex.ndim != 2 or self.ey.ndim != 2:
            raise ValueError("ex and ey must be 2-D arrays")

    def enforce_pec(self) -> "VecField":
        """Zero the tangential boundary dofs in place."""
        self.ex[:, [0, -1]] = 0.0
        self.ey[[0, -1], :] = 0.0
        return self

    def is_pec_compliant(self) -> bool:
        return not (np.any(self.ex[:, [0, -1]]) or np.any(self.ey[[0, -1], :]))


def sample_vec(f: tuple[Profile, Profile], grid: GridSpec) -> VecField:
    """The x component of f at the ex dofs and the y component at the ey dofs,
    of shapes (nx, ny+1) and (nx+1, ny)."""
    e = VecField(f[0](*grid.ex_coords()), f[1](*grid.ey_coords()))
    if e.ex.shape != (grid.nx, grid.ny + 1) or e.ey.shape != (grid.nx + 1, grid.ny):
        raise ValueError(
            f"edge fields of shapes {e.ex.shape}, {e.ey.shape} on a {grid.nx}x{grid.ny} grid"
        )
    return e


def sample_scalar(f: Profile, grid: GridSpec) -> np.ndarray:
    """f at the cell centres, an (nx, ny) float array."""
    h = np.asarray(f(*grid.h_coords()), dtype=float)
    if h.shape != (grid.nx, grid.ny):
        raise ValueError(f"cell field of shape {h.shape} on a {grid.nx}x{grid.ny} grid")
    return h


def _along(axis: int, start: int, stop: int) -> tuple[slice, slice]:
    """Index of entries start..stop-1 along ``axis`` of a 2-D array."""
    return (slice(start, stop), slice(None)) if axis == 0 else (slice(None), slice(start, stop))


def _dct(u: np.ndarray, axis: int, phase: np.ndarray, out: np.ndarray) -> None:
    """Orthonormal DCT-II of u along ``axis`` (n entries) into ``out``:
    C_k = Re(F_k phase_k), F the rfft of u zero-padded to 2n and
    phase_k = s_k e^{-i pi k/2n} with s_k the orthonormal scale."""
    n = u.shape[axis]
    f = np.fft.rfft(u, 2 * n, axis=axis)[_along(axis, 0, n)]
    f *= phase
    np.copyto(out, f.real)


def _idct(c: np.ndarray, axis: int, phase: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_dct` along ``axis``: the first n entries (a view) of
    the irfft of length 2n of the coefficients times ``phase``."""
    n = c.shape[axis]
    shape = list(c.shape)
    shape[axis] = n + 1
    z = np.zeros(shape, dtype=complex)
    np.multiply(c, phase, out=z[_along(axis, 0, n)])
    return np.fft.irfft(z, 2 * n, axis=axis)[_along(axis, 0, n)]


def _dst(u: np.ndarray, axis: int, phase: np.ndarray, out: np.ndarray) -> None:
    """Orthonormal DST-I of u along ``axis`` into ``out``; its own inverse.

    u holds the m - 1 interior nodes of m cells, node j at entry j - 1.  With
    F the rfft of u zero-padded to 2m, S_k = Re(F_k phase_k) for k = 1..m-1,
    phase_k = sqrt(2/m) i e^{-i pi k/m}.
    """
    m = u.shape[axis] + 1
    f = np.fft.rfft(u, 2 * m, axis=axis)[_along(axis, 1, m)]
    f *= phase
    np.copyto(out, f.real)


def _axis_factors(n: int, h: float) -> tuple[np.ndarray, ...]:
    """1-D factors of an axis with n cells of width h: s(k) = (2/h) sin(pi k/2n)
    and the phases of :func:`_dct`, :func:`_idct` and :func:`_dst`."""
    half = np.pi * np.arange(n) / (2 * n)
    turn = np.exp(-1j * half)
    scale = np.full(n, math.sqrt(2.0 / n))
    scale[0] = math.sqrt(1.0 / n)
    # irfft halves the k = 0 entry and divides by 2n
    inv_scale = n * scale
    inv_scale[0] *= 2.0
    return (
        (2.0 / h) * np.sin(half),
        scale * turn,
        inv_scale * turn.conj(),
        (1j * math.sqrt(2.0 / n)) * (turn * turn)[1:],
    )


class CurlCurlBasis:
    """Orthonormal eigenbasis of ``curl_h curl_e`` on the tangential-zero edge
    fields, and the cell basis in which ``curl_e`` and ``curl_h`` are diagonal.

    The interior of ``ex`` is expanded in DCT-II modes in x times DST-I modes
    in y, and the interior of ``ey`` in DST-I in x times DCT-II in y.  Both
    are zero-padded to (nx, ny) coefficient arrays (a, b): ``ex`` has no
    l = 0 mode and ``ey`` no k = 0 mode.  On mode (k, l), ``curl_h curl_e``
    is the rank-one matrix v v^T with v = (-s_y(l), s_x(k)),
    s_x(k) = (2/dx) sin(pi k / 2nx) and s_y(l) = (2/dy) sin(pi l / 2ny).
    Each mode is then reflected onto its component along the normal
    (s_x, s_y) / |v| and its component along -v / |v|, stacked as a
    (2, nx, ny) array: ``diag I + curl_scale curl_h curl_e`` multiplies the
    first by diag and the second by diag + curl_scale |v|^2, the (nx, ny)
    array of :meth:`eigenvalues`.  Mode (0, 0) and the normal component of
    the modes with k = 0 or l = 0 are always zero.

    Cell fields are expanded in DCT-II modes in both directions
    (:meth:`forward_cell`).  With c the cell coefficients, ``curl_e`` of the
    edge coefficients (a, b) is -|v| b and ``curl_h`` of c is (0, -|v| c),
    mode by mode (:meth:`curl_modulus`).

    The transforms are orthogonal: sums of squares of the interior dofs and
    of the coefficients agree, so a dof inner product is the coefficients'
    times dx dy (:func:`norm_sq`).  All transforms are numpy.fft rffts of
    zero-padded data.  The object holds O(nx + ny) 1-D factors; the 2-D
    factors are built in each call.
    """

    def __init__(self, grid: GridSpec) -> None:
        fx, fy = _axis_factors(grid.nx, grid.dx), _axis_factors(grid.ny, grid.dy)
        self.shape = (grid.nx, grid.ny)
        self.s_x, self._dct_x, self._idct_x, self._dst_x = (f[:, None] for f in fx)
        self.s_y, self._dct_y, self._idct_y, self._dst_y = (f[None, :] for f in fy)

    def eigenvalues(self, diag: float, curl_scale: float) -> np.ndarray:
        """The (nx, ny) eigenvalues diag + curl_scale |v|^2 of
        ``diag I + curl_scale curl_h curl_e`` on the tangential component of
        the coefficients, with |v|^2 summed first so that mirrored modes
        (k, l) and (l, k) of a square grid get bit-identical eigenvalues.  On
        the normal component the eigenvalue is diag on every mode: exactly
        this array's entry at mode (0, 0), where |v| = 0."""
        return diag + curl_scale * (self.s_x**2 + self.s_y**2)

    def curl_modulus(self) -> np.ndarray:
        """|v| of every mode, an (nx, ny) array: the factor by which the curls
        scale a mode (see the class docstring); 0 at mode (0, 0)."""
        return np.sqrt(self.s_x**2 + self.s_y**2)

    def _reflect(self, coef: np.ndarray) -> None:
        """Map each mode's (a, b) to ((s_x a + s_y b), (s_y a - s_x b)) / |v| in
        place.  The map is its own inverse.  Mode (0, 0), where v = 0, holds
        zeros and keeps them."""
        a, b = coef
        sy_a = a * self.s_y
        a *= self.s_x
        a += b * self.s_y
        b *= self.s_x
        np.subtract(sy_a, b, out=b)
        norm = self.s_x**2 + self.s_y**2
        norm[0, 0] = 1.0
        coef /= np.sqrt(norm, out=norm)

    def forward(self, ex: np.ndarray, ey: np.ndarray) -> np.ndarray:
        """(2, nx, ny) coefficients of the interior of the edge arrays (ex, ey);
        the boundary rows and columns are not read."""
        nx, ny = self.shape
        coef = np.zeros((2, nx, ny))
        work = np.empty((nx, ny - 1))
        _dst(ex[:, 1:-1], 1, self._dst_y, out=work)
        _dct(work, 0, self._dct_x, out=coef[0, :, 1:])
        work = np.empty((nx - 1, ny))
        _dct(ey[1:-1, :], 1, self._dct_y, out=work)
        _dst(work, 0, self._dst_x, out=coef[1, 1:, :])
        self._reflect(coef)
        return coef

    def inverse(self, coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Edge arrays (ex, ey) with coefficients ``coef`` and zero boundary rows
        and columns; ``coef`` is left as it is."""
        nx, ny = self.shape
        coef = coef.copy()
        self._reflect(coef)
        ex = np.zeros((nx, ny + 1))
        _dst(_idct(coef[0, :, 1:], 0, self._idct_x), 1, self._dst_y, out=ex[:, 1:-1])
        work = np.empty((nx - 1, ny))
        _dst(coef[1, 1:, :], 0, self._dst_x, out=work)
        ey = np.zeros((nx + 1, ny))
        ey[1:-1, :] = _idct(work, 1, self._idct_y)
        return ex, ey

    def forward_cell(self, h: np.ndarray) -> np.ndarray:
        """(nx, ny) orthonormal DCT-II x DCT-II coefficients of the cell array h."""
        work, coef = np.empty(self.shape), np.empty(self.shape)
        _dct(h, 1, self._dct_y, out=work)
        _dct(work, 0, self._dct_x, out=coef)
        return coef

    def inverse_cell(self, coef: np.ndarray) -> np.ndarray:
        """The cell array with coefficients ``coef``; inverse of :meth:`forward_cell`."""
        return np.ascontiguousarray(_idct(_idct(coef, 0, self._idct_x), 1, self._idct_y))


@dataclass(frozen=True, eq=False)
class Span:
    """The layout of a run's edge coefficients (see :class:`CurlCurlBasis`):
    k coordinates of component 0, its inner products with the orthonormal
    rows of the (k, nx ny) ``basis`` (:func:`curl_free_span`), then the nx ny
    tangential coefficients.  ``shape`` is (nx, ny)."""

    shape: tuple[int, int]
    basis: np.ndarray

    @property
    def k(self) -> int:
        return len(self.basis)

    def pack(self, coef: np.ndarray) -> np.ndarray:
        """The layout vector of (2, nx, ny) edge coefficients."""
        lead = einsum("ij,j->i", self.basis, coef[0].reshape(-1))
        return np.concatenate((lead, coef[1].reshape(-1)))

    def unpack(self, x: np.ndarray) -> np.ndarray:
        """The (2, nx, ny) edge coefficients of a layout vector: :meth:`pack` inverted."""
        coef = np.empty((2, *self.shape))
        einsum("i,ij->j", x[: self.k], self.basis, out=coef[0].reshape(-1))
        coef[1] = x[self.k :].reshape(self.shape)
        return coef


def curl_free_span(*leads: np.ndarray) -> Span:
    """The :class:`Span` of finite (nx, ny) arrays of component-0
    coefficients.  Each array in turn is scaled exactly by a power of two,
    its largest entry into [1/2, 1), so that no square underflows or
    overflows; modified Gram-Schmidt takes its projections on the rows so far
    off it twice (Giraud, Langou & Rozloznik, Comput. Math. Appl. 2005), and
    the residual over its norm is the next row.  It adds none if the second
    pass took more than half the residual's norm off: only round-off of an
    array in the span loses that much ("twice is enough", Parlett 1980).  Nor
    does it if the twice-projected residual is itself within round-off of
    the scaled array, 64 eps sqrt(n) of its norm for n entries, since a
    first pass can leave round-off that the second takes little off.  So
    one array gives k = 1 (0 if it is zero), its row the array over its
    unscaled norm bit for bit where that norm neither underflows nor overflows."""
    basis = np.array(leads, dtype=float).reshape(len(leads), -1)
    floor = (64.0 * np.finfo(float).eps) ** 2 * basis.shape[1]
    k = 0
    for row in basis:
        np.ldexp(row, -np.frexp(max(row.max(), -row.min()))[1], out=row)
        squares = [einsum("i,i->", row, row)]
        for _ in range(2):
            for done in basis[:k]:
                row -= einsum("i,i->", done, row) * done
            squares.append(einsum("i,i->", row, row))
        if squares[2] > 0.25 * squares[1] and squares[2] > floor * squares[0]:
            row *= 1.0 / math.sqrt(squares[2])
            basis[k] = row
            k += 1
    return Span(leads[0].shape, basis if k == len(basis) else basis[:k].copy())


def norm_sq(coef: np.ndarray, grid: GridSpec) -> float:
    """dx dy times the sum of squares of a coefficient array: the squared
    discrete L2 norm of the field it holds.  An einsum, which runs on the
    calling thread; ``@`` or ``np.dot`` would start BLAS threads that keep
    spinning through the rest of the step."""
    flat = coef.reshape(-1)
    return grid.dx * grid.dy * float(einsum("i,i->", flat, flat))
