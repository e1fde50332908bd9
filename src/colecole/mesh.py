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
