"""Staggered transverse-electric grid with adjoint discrete curl operators.

Layout on an nx-by-ny cell grid over (0, lx) x (0, ly):

* ``ex``  shape (nx, ny+1), dof at (x_{i+1/2}, y_j)    -- E1/P1 component
* ``ey``  shape (nx+1, ny), dof at (x_i, y_{j+1/2})    -- E2/P2 component
* ``h``   shape (nx, ny),   dof at cell centers        -- H

``curl_h`` maps cell values to edge components ((dH/dy, -dH/dx)) and
``curl_e`` maps edge components to cell values (dE2/dx - dE1/dy).  With the
perfect-electric-conductor rows/columns of ``curl_h`` output forced to zero
the pair is an exact adjoint under the uniform dof inner products, which is
what carries the semi-discrete energy-decay argument over to the fully
discrete system.

The stencils and the inner product live once, in private kernels that write
into arrays the caller passes; ``curl_h``, ``curl_e`` and ``inner_e`` allocate
and call them, and the conjugate-gradient solve of :mod:`colecole.stepper`
calls them on its work arrays.

:class:`CurlCurlBasis` is the orthonormal eigenbasis of ``curl_h curl_e`` on
the tangential-zero edge fields, with numpy.fft transforms to and from it;
the solve finishes its long iterations there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

Profile = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class GridSpec:
    nx: int
    ny: int
    lx: float = 1.0
    ly: float = 1.0

    def __post_init__(self) -> None:
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

    @classmethod
    def zeros(cls, grid: GridSpec) -> "VecField":
        return cls(np.zeros((grid.nx, grid.ny + 1)), np.zeros((grid.nx + 1, grid.ny)))

    def copy(self) -> "VecField":
        return VecField(self.ex.copy(), self.ey.copy())

    def enforce_pec(self) -> "VecField":
        """Zero the tangential boundary dofs in place."""
        self.ex[:, 0] = 0.0
        self.ex[:, -1] = 0.0
        self.ey[0, :] = 0.0
        self.ey[-1, :] = 0.0
        return self

    def is_pec_compliant(self) -> bool:
        return (
            not np.any(self.ex[:, 0])
            and not np.any(self.ex[:, -1])
            and not np.any(self.ey[0, :])
            and not np.any(self.ey[-1, :])
        )

    def _check_like(self, other: "VecField") -> None:
        if self.ex.shape != other.ex.shape or self.ey.shape != other.ey.shape:
            raise ValueError(
                f"field shape mismatch: {self.ex.shape}/{self.ey.shape} vs "
                f"{other.ex.shape}/{other.ey.shape}"
            )

    def __add__(self, other: "VecField") -> "VecField":
        self._check_like(other)
        return VecField(self.ex + other.ex, self.ey + other.ey)

    def __sub__(self, other: "VecField") -> "VecField":
        self._check_like(other)
        return VecField(self.ex - other.ex, self.ey - other.ey)

    def __mul__(self, c: float) -> "VecField":
        return VecField(c * self.ex, c * self.ey)

    __rmul__ = __mul__


@dataclass
class ScalarField:
    """Cell-center values."""

    h: np.ndarray

    def __post_init__(self) -> None:
        self.h = np.asarray(self.h, dtype=float)
        if self.h.ndim != 2:
            raise ValueError("h must be a 2-D array")

    @classmethod
    def zeros(cls, grid: GridSpec) -> "ScalarField":
        return cls(np.zeros((grid.nx, grid.ny)))

    def copy(self) -> "ScalarField":
        return ScalarField(self.h.copy())

    def _check_like(self, other: "ScalarField") -> None:
        if self.h.shape != other.h.shape:
            raise ValueError(f"field shape mismatch: {self.h.shape} vs {other.h.shape}")

    def __add__(self, other: "ScalarField") -> "ScalarField":
        self._check_like(other)
        return ScalarField(self.h + other.h)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        self._check_like(other)
        return ScalarField(self.h - other.h)

    def __mul__(self, c: float) -> "ScalarField":
        return ScalarField(c * self.h)

    __rmul__ = __mul__


def sample_vec(f: tuple[Profile, Profile], grid: GridSpec) -> VecField:
    """The x component of f at the ex dofs and the y component at the ey dofs."""
    return VecField(f[0](*grid.ex_coords()), f[1](*grid.ey_coords()))


def sample_scalar(f: Profile, grid: GridSpec) -> ScalarField:
    """f at the cell centres."""
    return ScalarField(f(*grid.h_coords()))


def _check_vec(e: VecField, grid: GridSpec) -> None:
    if e.ex.shape != (grid.nx, grid.ny + 1) or e.ey.shape != (grid.nx + 1, grid.ny):
        raise ValueError(
            f"vector field shapes {e.ex.shape}/{e.ey.shape} do not match "
            f"{grid.nx}x{grid.ny} grid"
        )


def _check_scalar(s: ScalarField, grid: GridSpec) -> None:
    if s.h.shape != (grid.nx, grid.ny):
        raise ValueError(f"scalar field shape {s.h.shape} does not match {grid.nx}x{grid.ny} grid")


def _curl_h_into(h: np.ndarray, dx: float, dy: float, ex: np.ndarray, ey: np.ndarray) -> None:
    """Write the discrete (dH/dy, -dH/dx) of cell values h into the edge arrays
    (ex, ey), boundary rows/columns included (zero)."""
    inner = ex[:, 1:-1]
    np.subtract(h[:, 1:], h[:, :-1], out=inner)
    inner /= dy
    ex[:, 0] = 0.0
    ex[:, -1] = 0.0
    inner = ey[1:-1, :]
    np.subtract(h[1:, :], h[:-1, :], out=inner)
    np.negative(inner, out=inner)
    inner /= dx
    ey[0, :] = 0.0
    ey[-1, :] = 0.0


def _curl_e_into(
    ex: np.ndarray, ey: np.ndarray, dx: float, dy: float, out: np.ndarray, work: np.ndarray
) -> None:
    """Write the discrete dE2/dx - dE1/dy of edge arrays (ex, ey) into the cell
    array ``out``; ``work`` is a cell-sized scratch array."""
    np.subtract(ey[1:, :], ey[:-1, :], out=out)
    out /= dx
    np.subtract(ex[:, 1:], ex[:, :-1], out=work)
    work /= dy
    out -= work


def _inner_into(u: tuple, v: tuple, cell_area: float, prod: tuple) -> float:
    """cell_area * (sum u_x v_x + sum u_y v_y) of (ex, ey) array pairs, the
    products formed in the pair ``prod`` and each sum a pairwise reduction."""
    for uc, vc, pc in zip(u, v, prod):
        np.multiply(uc, vc, out=pc)
    return cell_area * (
        float(np.add.reduce(prod[0], axis=None)) + float(np.add.reduce(prod[1], axis=None))
    )


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
    """Orthonormal eigenbasis of ``curl_h curl_e`` on the tangential-zero edge fields.

    The interior of ``ex`` is expanded in DCT-II modes in x times DST-I modes
    in y, and the interior of ``ey`` in DST-I in x times DCT-II in y.  Both
    are zero-padded to (nx, ny) coefficient arrays (a, b): ``ex`` has no
    l = 0 mode and ``ey`` no k = 0 mode.  On mode (k, l), ``curl_h curl_e``
    is the rank-one matrix v v^T with v = (-s_y(l), s_x(k)),
    s_x(k) = (2/dx) sin(pi k / 2nx) and s_y(l) = (2/dy) sin(pi l / 2ny).
    Each mode is then reflected onto its component along the normal
    (s_x, s_y) / |v| and its component along -v / |v|, stacked as a
    (2, nx, ny) array: ``diag I + curl_scale curl_h curl_e`` multiplies the
    first by diag and the second by diag + curl_scale |v|^2
    (:meth:`eigenvalues`).  The transforms are orthogonal: sums of squares of
    the interior dofs and of the coefficients agree, so the dof inner product
    is the coefficients' times dx dy.

    All transforms are numpy.fft rffts of zero-padded data.  The object holds
    O(nx + ny) 1-D factors; the 2-D reflection factor is built in each call.
    """

    def __init__(self, grid: GridSpec) -> None:
        fx, fy = _axis_factors(grid.nx, grid.dx), _axis_factors(grid.ny, grid.dy)
        self.shape = (grid.nx, grid.ny)
        self.s_x, self._dct_x, self._idct_x, self._dst_x = (f[:, None] for f in fx)
        self.s_y, self._dct_y, self._idct_y, self._dst_y = (f[None, :] for f in fy)

    def eigenvalues(self, diag: float, curl_scale: float) -> np.ndarray:
        """The (2, nx, ny) eigenvalues of ``diag I + curl_scale curl_h curl_e``
        on the coefficients: diag, and diag + curl_scale |v|^2."""
        lam = np.empty((2,) + self.shape)
        lam[0] = diag
        np.add(diag + curl_scale * self.s_x**2, curl_scale * self.s_y**2, out=lam[1])
        return lam

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
        and columns; ``coef`` is overwritten."""
        nx, ny = self.shape
        self._reflect(coef)
        ex = np.zeros((nx, ny + 1))
        _dst(_idct(coef[0, :, 1:], 0, self._idct_x), 1, self._dst_y, out=ex[:, 1:-1])
        work = np.empty((nx - 1, ny))
        _dst(coef[1, 1:, :], 0, self._dst_x, out=work)
        ey = np.zeros((nx + 1, ny))
        ey[1:-1, :] = _idct(work, 1, self._idct_y)
        return ex, ey


def curl_h(s: ScalarField, grid: GridSpec) -> VecField:
    """Discrete (dH/dy, -dH/dx) on edge dofs; boundary rows/columns are zero."""
    _check_scalar(s, grid)
    out = VecField(np.empty((grid.nx, grid.ny + 1)), np.empty((grid.nx + 1, grid.ny)))
    _curl_h_into(s.h, grid.dx, grid.dy, out.ex, out.ey)
    return out


def curl_e(e: VecField, grid: GridSpec) -> ScalarField:
    """Discrete dE2/dx - dE1/dy at cell centers."""
    _check_vec(e, grid)
    out = np.empty((grid.nx, grid.ny))
    _curl_e_into(e.ex, e.ey, grid.dx, grid.dy, out, np.empty_like(out))
    return ScalarField(out)


def inner_e(u: VecField, v: VecField, grid: GridSpec) -> float:
    """Uniformly weighted dof inner product dx*dy*(sum ex ex' + sum ey ey')."""
    _check_vec(u, grid)
    u._check_like(v)
    prod = (np.empty_like(u.ex), np.empty_like(u.ey))
    return _inner_into((u.ex, u.ey), (v.ex, v.ey), grid.dx * grid.dy, prod)


def inner_h(p: ScalarField, q: ScalarField, grid: GridSpec) -> float:
    _check_scalar(p, grid)
    p._check_like(q)
    return grid.dx * grid.dy * float(np.sum(p.h * q.h))


def norm_e(u: VecField, grid: GridSpec) -> float:
    return np.sqrt(inner_e(u, u, grid))


def norm_h(p: ScalarField, grid: GridSpec) -> float:
    return np.sqrt(inner_h(p, p, grid))


def combine_theta(u_new, u_old, theta: float):
    """Theta average (1-theta)*u_new + theta*u_old of two like fields."""
    return (1.0 - theta) * u_new + theta * u_old
