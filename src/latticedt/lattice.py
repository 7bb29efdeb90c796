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
from fractions import Fraction
from functools import cached_property


class LatticeError(ValueError):
    """Raised for degenerate bases or points outside the lattice."""


def int_det(columns) -> int:
    """Exact determinant of a small square integer matrix given by columns."""
    n = len(columns)
    if any(len(c) != n for c in columns):
        raise LatticeError("determinant needs a square matrix")
    if n == 1:
        return columns[0][0]
    if n == 2:
        (a, c), (b, d) = columns
        return a * d - b * c
    if n == 3:
        (a, d, g), (b, e, h), (c, f, i) = columns
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    # Cofactor expansion along the first row for larger sizes.
    total = 0
    for j in range(n):
        minor = [
            tuple(columns[k][i] for i in range(1, n))
            for k in range(n)
            if k != j
        ]
        total += (-1) ** j * columns[j][0] * int_det(minor)
    return total


def cramer_coefficients(basis, point):
    """Coordinates of ``point`` in ``basis`` as exact Fractions.

    ``basis`` is a sequence of n integer n-vectors (columns).  Raises
    LatticeError if the basis is singular.
    """
    d0 = int_det(basis)
    if d0 == 0:
        raise LatticeError("singular basis")
    coeffs = []
    for k in range(len(basis)):
        replaced = list(basis)
        replaced[k] = tuple(point)
        coeffs.append(Fraction(int_det(replaced), d0))
    return tuple(coeffs)


def adjugate(columns):
    """Adjugate (transposed cofactor matrix) of a small integer matrix.

    Returned as rows, so that ``adjugate(M) @ p = det(M) * M^-1 @ p``.
    """
    n = len(columns)
    if n == 3:  # rows b x c, c x a, a x b for columns a, b, c
        return tuple(
            (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
             u[0] * v[1] - u[1] * v[0])
            for u, v in ((columns[1], columns[2]), (columns[2], columns[0]),
                         (columns[0], columns[1])))
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            # adj[i][j] is the (j, i) cofactor: minor deletes row j, col i.
            minor = [
                tuple(columns[c][r] for r in range(n) if r != j)
                for c in range(n)
                if c != i
            ]
            row.append((-1) ** (i + j) * (int_det(minor) if minor else 1))
        rows.append(tuple(row))
    return tuple(rows)


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
        cols = [np.stack([b[:, 1], -b[:, 0]], axis=1),
                np.stack([-a[:, 1], a[:, 0]], axis=1)]
    elif A.shape[1:] == (3, 3):
        a, b, c = A[:, 0], A[:, 1], A[:, 2]
        i, j = [1, 2, 0], [2, 0, 1]  # x_i y_j - x_j y_i, without np.cross
        cols = [u[:, i] * v[:, j] - u[:, j] * v[:, i]
                for u, v in ((b, c), (c, a), (a, b))]
    else:
        raise LatticeError("batch_adjugate supports 2x2 and 3x3 matrices")
    det = np.einsum("ti,ti->t", A[:, 0], cols[0])
    return np.stack(cols, axis=2), det


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
        if len(self.spacing) != n:
            raise LatticeError("spacing length must match dimension")
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
        """Boolean membership array for the axis-aligned box of shape ``dims``
        anchored at integer ``origin`` (vectorized, exact).

        Each distinct adjugate row gives one congruence adj . p = 0 (mod
        covolume).  Its left side is a sum of per-axis residues, broadcast
        over the box from one short vector per axis."""
        import numpy as np

        dims = tuple(int(d) for d in dims)
        m = self.covolume
        ok = np.ones(dims, dtype=bool)
        if m == 1:
            return ok
        axes = np.ogrid[tuple(slice(o, o + d) for o, d in zip(origin, dims))]
        # A sum of n residues below m fits this (usually one-byte) type.
        small = np.min_scalar_type(self.dim * (m - 1))
        rows = {tuple(c % m for c in row) for row in self._adjugate}
        for row in sorted(rows - {(0,) * self.dim}):
            acc = sum((c * x % m).astype(small) for c, x in zip(row, axes))
            ok &= acc % m == 0
        return ok

    def decompose(self, point):
        """Integer coordinates of ``point`` in the generator basis,
        or None if the point is not a lattice member."""
        coeffs = cramer_coefficients(self.generators, point)
        if any(c.denominator != 1 for c in coeffs):
            return None
        return tuple(int(c) for c in coeffs)

    def is_basis(self, family) -> bool:
        """True iff ``family`` (n lattice vectors) generates the full lattice,
        i.e. |det(family)| equals the covolume."""
        if len(family) != self.dim:
            return False
        if any(not self.member(v) for v in family):
            return False
        return abs(int_det(family)) == self.covolume

    def euclidean_norm(self, v) -> float:
        return math.sqrt(sum((s * c) ** 2 for s, c in zip(self.spacing, v)))


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
