"""Uniform tensor-lattice functions with axis roles.

A GridFunction stores cell-centered values over a box.  Axis roles are 't',
'x' or 'v'; solvers and measurement routines use the roles to find the time
axis and the velocity block without positional conventions.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["Axis", "GridFunction"]


@dataclass(frozen=True)
class Axis:
    role: str      # 't' | 'x' | 'v'
    lo: float
    hi: float
    n: int

    def __post_init__(self):
        if self.role not in ("t", "x", "v"):
            raise ValueError(f"unknown axis role {self.role!r}")
        if not (self.hi > self.lo):
            raise ValueError("axis bounds must satisfy lo < hi")
        if int(self.n) < 1:
            raise ValueError("axis needs at least one cell")
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        object.__setattr__(self, "n", int(self.n))

    @property
    def h(self):
        return (self.hi - self.lo) / self.n

    def centers(self):
        return self.lo + (np.arange(self.n) + 0.5) * self.h


def _stencil(axis, c):
    """Linear interpolation stencil of `axis` at coordinates c.

    Returns the two cell indices (i0, i1), the weight f of cell i1 (cell i0
    gets 1 - f) and whether c lies in the closed box [lo, hi].  Inside the
    half-cell boundary layer the stencil is clamped to the lattice, which
    extrapolates the outermost cell value as a constant.
    """
    u = (c - axis.lo) / axis.h - 0.5
    inside = (c >= axis.lo) & (c <= axis.hi)
    i0 = np.floor(u).astype(int)
    f = u - i0
    f = np.where(i0 < 0, 0.0, f)
    f = np.where(i0 > axis.n - 2, 1.0, f)
    i0 = np.clip(i0, 0, max(axis.n - 2, 0))
    return i0, np.minimum(i0 + 1, axis.n - 1), f, inside


class GridFunction:
    """Values on a uniform cell-centered lattice over a box."""

    def __init__(self, axes, values=None):
        self.axes = tuple(axes)
        shape = tuple(a.n for a in self.axes)
        if values is None:
            values = np.zeros(shape)
        values = np.asarray(values, dtype=float)
        if values.shape != shape:
            raise ValueError(f"value shape {values.shape} != lattice shape {shape}")
        self.values = values

    @property
    def shape(self):
        return self.values.shape

    @property
    def cell_volume(self):
        vol = 1.0
        for a in self.axes:
            vol *= a.h
        return vol

    def roles(self):
        return tuple(a.role for a in self.axes)

    def centers(self):
        """Per-axis cell-center coordinate arrays."""
        return [a.centers() for a in self.axes]

    def meshgrid(self):
        return np.meshgrid(*self.centers(), indexing="ij")

    def copy_with(self, values):
        return GridFunction(self.axes, values)

    # ---- calculus ----------------------------------------------------------

    def norm_lp(self, p):
        v = self.values
        if np.isinf(p):
            return float(np.abs(v).max()) if v.size else 0.0
        return float((np.abs(v) ** p).sum() * self.cell_volume) ** (1.0 / p)

    def sample(self, points):
        """Multilinear interpolation at points of shape (..., ndim).

        Points outside the box evaluate to 0; the fraction of queried points
        that fell outside is returned alongside the values.
        """
        pts = np.asarray(points, dtype=float)
        flat = pts.reshape(-1, len(self.axes))
        inside = np.ones(flat.shape[0], dtype=bool)
        stencils = []
        for k, a in enumerate(self.axes):
            i0, i1, f, inside_k = _stencil(a, flat[:, k])
            inside &= inside_k
            stencils.append((i0, i1, f))
        out = np.zeros(flat.shape[0])
        for corner in range(2 ** len(self.axes)):
            w = np.ones(flat.shape[0])
            loc = []
            for k, (i0, i1, f) in enumerate(stencils):
                bit = (corner >> k) & 1
                w = w * (f if bit else 1.0 - f)
                loc.append(i1 if bit else i0)
            out += w * self.values[tuple(loc)]
        out[~inside] = 0.0
        outside_fraction = float((~inside).mean()) if flat.size else 0.0
        return out.reshape(pts.shape[:-1]), outside_fraction
