"""Point lattices in 2 and 3 dimensions with exact integer arithmetic.

A lattice is the set of integer combinations of a generator basis, stored
as integer column vectors relative to the ambient grid.  All membership and
decomposition tests are exact (integer / rational), never floating point.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property


class LatticeError(ValueError):
    """Raised for degenerate bases or points outside the lattice."""


def int_det(columns) -> int:
    """Exact determinant of a 2x2 or 3x3 integer matrix given by columns."""
    n = len(columns)
    if any(len(c) != n for c in columns) or n not in (2, 3):
        raise LatticeError("determinant needs a 2x2 or 3x3 matrix")
    if n == 2:
        (a, c), (b, d) = columns
        return a * d - b * c
    (a, d, g), (b, e, h), (c, f, i) = columns
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def adjugate(columns):
    """Adjugate (transposed cofactor matrix) of a 2x2 or 3x3 integer matrix.

    Returned as rows, so that ``adjugate(M) @ p = det(M) * M^-1 @ p``.
    """
    if len(columns) == 2:  # columns (a, c), (b, d): rows (d, -b), (-c, a)
        (a, c), (b, d) = columns
        return ((d, -b), (-c, a))
    # rows b x c, c x a, a x b for columns a, b, c
    return tuple(
        (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
         u[0] * v[1] - u[1] * v[0])
        for u, v in ((columns[1], columns[2]), (columns[2], columns[0]),
                     (columns[0], columns[1])))


def batch_adjugate(rows):
    """Adjugates and determinants of a stack of 2x2 or 3x3 integer
    matrices given by rows, shape (T, n, n), in exact int64 arithmetic.

    Returns (adj, det) with ``rows[t] @ adj[t] == det[t] * I``, so the
    solution of ``rows[t] @ x = b`` is ``adj[t] @ b / det[t]``.
    """
    import numpy as np

    A = np.asarray(rows, dtype=np.int64)
    if A.shape[1:] == (2, 2):
        a, b = A[:, 0], A[:, 1]
        cols = np.stack([np.stack([b[:, 1], -b[:, 0]], axis=1),
                         np.stack([-a[:, 1], a[:, 0]], axis=1)], axis=1)
    elif A.shape[1:] == (3, 3):
        # Rows and columns cycled to (0, 1, 2, 0, 1): slices 1:4 and 2:5
        # are the rows (b, c, a) and (c, a, b), whose cross products are
        # the columns b x c, c x a, a x b, in three array operations.
        u = A[:, [0, 1, 2, 0, 1]][:, :, [0, 1, 2, 0, 1]]
        cols = (u[:, 1:4, 1:4] * u[:, 2:5, 2:5]
                - u[:, 1:4, 2:5] * u[:, 2:5, 1:4])
    else:
        raise LatticeError("batch_adjugate supports 2x2 and 3x3 matrices")
    return cols.transpose(0, 2, 1), np.einsum("ti,ti->t", A[:, 0],
                                              cols[:, 0])


@dataclass(frozen=True)
class Lattice:
    """An integer point lattice with per-axis grid spacing.

    ``generators`` are integer column vectors; a point belongs to the
    lattice iff it is an integer combination of them.  ``spacing`` gives
    the physical length of one grid step along each ambient axis and only
    affects Euclidean measurements, never membership.
    """

    name: str
    generators: tuple
    spacing: tuple

    def __post_init__(self):
        n = self.dim
        if n not in (2, 3):
            raise LatticeError(f"lattices are 2- or 3-dimensional, not {n}")
        if len(self.spacing) != n:
            raise LatticeError("spacing length must match dimension")
        if not all(0 < s < math.inf for s in self.spacing):
            raise LatticeError("spacing must be finite and positive")
        if min(self.spacing) < math.ldexp(max(self.spacing), -511):
            raise LatticeError("spacing ratios below 2**-511 underflow "
                               "when squared")
        if int_det(self.generators) == 0:
            raise LatticeError("lattice generators are linearly dependent")

    @property
    def dim(self) -> int:
        return len(self.generators[0])

    @cached_property
    def covolume(self) -> int:
        """Index of the lattice in the ambient integer grid (|det| of basis)."""
        return abs(int_det(self.generators))

    @cached_property
    def _adjugate(self):
        return adjugate(self.generators)

    def member(self, point) -> bool:
        """Exact membership test via divisibility of Cramer numerators."""
        m = self.covolume
        for row in self._adjugate:
            if sum(map(operator.mul, row, point)) % m:
                return False
        return True

    def member_grid(self, origin, dims):
        """Boolean membership array (C order) for the axis-aligned box of
        shape ``dims`` anchored at integer ``origin`` (vectorized, exact).

        Each distinct adjugate row gives one congruence adj . p = 0 (mod
        covolume).  Its left side is a sum of per-axis residues, evaluated
        on one period, the first min(covolume, d) slots of each axis
        (covolume * e_i lies in the lattice), which is then copied out
        along each axis, last first, doubling the filled part each time."""
        import numpy as np

        dims = tuple(int(d) for d in dims)
        m = self.covolume
        out = np.ones(dims, dtype=bool)
        if m == 1:
            return out
        period = tuple(slice(0, min(m, d)) for d in dims)
        axes = np.ogrid[tuple(slice(o, o + p.stop)
                              for o, p in zip(origin, period))]
        # A sum of n residues below m fits this (usually one-byte) type.
        small = np.min_scalar_type(self.dim * (m - 1))
        rows = {tuple(c % m for c in row) for row in self._adjugate}
        for row in sorted(rows - {(0,) * self.dim}):
            acc = sum((c * x % m).astype(small) for c, x in zip(row, axes))
            out[period] &= acc % m == 0
        for i in reversed(range(self.dim)):
            line = np.moveaxis(out[period[:i]], i, 0)  # later axes are done
            done = period[i].stop
            while done < dims[i]:  # done is a multiple of m here
                k = min(done, dims[i] - done)
                line[done:done + k] = line[:k]
                done += k
        return out

    @cached_property
    def unit(self) -> float:
        """The power of two at or below the largest spacing.  Lengths in this
        unit square within the float range, and rescaling by it is exact."""
        return math.ldexp(1.0, math.frexp(max(self.spacing))[1] - 1)

    def euclidean_norm(self, v) -> float:
        u = self.unit
        return u * math.sqrt(sum((s / u * c) ** 2
                                 for s, c in zip(self.spacing, v)))


def square_lattice(spacing=(1.0, 1.0)) -> Lattice:
    """Z^2: every integer grid point."""
    return Lattice("Z2", ((1, 0), (0, 1)), tuple(float(s) for s in spacing))


def cubic_lattice(spacing=(1.0, 1.0, 1.0)) -> Lattice:
    """Z^3: every integer grid point."""
    return Lattice("Z3", ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                   tuple(float(s) for s in spacing))


def bcc_lattice(spacing=(1.0, 1.0, 1.0)) -> Lattice:
    """Body-centered cubic: points with x = y = z (mod 2). Covolume 4."""
    return Lattice("BCC", ((2, 0, 0), (0, 2, 0), (1, 1, 1)),
                   tuple(float(s) for s in spacing))


def fcc_lattice(spacing=(1.0, 1.0, 1.0)) -> Lattice:
    """Face-centered cubic: points with even coordinate sum. Covolume 2."""
    return Lattice("FCC", ((1, 1, 0), (1, 0, 1), (0, 1, 1)),
                   tuple(float(s) for s in spacing))


def custom_lattice(name, generators, spacing=None) -> Lattice:
    gens = tuple(tuple(int(c) for c in g) for g in generators)
    if spacing is None:
        spacing = (1.0,) * len(gens[0])
    return Lattice(name, gens, tuple(float(s) for s in spacing))


_BUILTINS = {
    "Z2": square_lattice,
    "Z3": cubic_lattice,
    "BCC": bcc_lattice,
    "FCC": fcc_lattice,
}


def lattice_by_name(name, spacing=None) -> Lattice:
    key = name.upper()
    if key not in _BUILTINS:
        raise LatticeError(f"unknown lattice {name!r}; expected one of "
                           f"{sorted(_BUILTINS)}")
    factory = _BUILTINS[key]
    return factory(spacing) if spacing is not None else factory()


def signed_permutation_orbit(v):
    """All distinct images of ``v`` under coordinate permutations and sign
    flips, sorted.  Convenience for authoring symmetric masks."""
    out = set()
    for perm in itertools.permutations(v):
        for signs in itertools.product((1, -1), repeat=len(v)):
            out.add(tuple(s * c for s, c in zip(signs, perm)))
    return sorted(out)
