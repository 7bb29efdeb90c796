"""Approximation error of chamfer masks and weight optimization.

The quality measure is the spread of the ratio d(p) / |p| between the
chamfer distance and the Euclidean distance.  Over a wedge the distance is
the linear form l with l . v_k = w_k, so the ratio extremes are

  rho_min = min over mask vectors of  w / |v|        (attained at a vertex)
  rho_max = max over wedges of  max_{p in cone} (l . p) / |p|

and after rescaling by the optimal factor eps = 2 / (rho_min + rho_max)
the worst relative deviation from Euclidean distance is

  error = (rho_max - rho_min) / (rho_max + rho_min).

The wedge formula is the true distance only on a convex fan.  When the
mask induces a norm (WedgeDecomposition.is_norm) the distance is the gauge
of the convex hull of {v / w}, and rho_max is the largest |l_F| over its
facet forms, whatever the fan.  A mask that is not a norm is scored on
its wedge fan.

The fan's rho_max is scored face by face (_fan_rho2).  The maximum of
l . p / |p| over a cone is |l'|, l' the projection of l onto the cone,
which lies in the relative interior of some face S (a subset of the
generators).  Since l . u = w_u for u in S, the projection onto span(S)
has coordinates t = G_S^-1 w_S and squared length w_S^T G_S^-1 w_S, with
G_S the Gram matrix of S: both depend on the face and its weights alone,
not on the wedge.  So

  rho_max^2 = max over distinct faces S with t >= 0 of  w_S^T G_S^-1 w_S.

All lengths are physical: grid coordinates scaled per-axis by the lattice
spacing.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .chamfer_mask import (
    ChamferMask,
    WedgeDecomposition,
    build_wedges,
    cone_is_linear,
    polar_candidates,
)
from .lattice import Lattice


@dataclass(frozen=True)
class ErrorStats:
    rho_min: float
    rho_max: float

    @property
    def error(self) -> float:
        """Worst relative deviation from Euclidean distance after optimal
        rescaling (as a fraction, not percent)."""
        return (self.rho_max - self.rho_min) / (self.rho_max + self.rho_min)

    @property
    def scale(self) -> float:
        """Optimal multiplicative factor applied to distance values so the
        ratio band is centered on 1."""
        return 2.0 / (self.rho_max + self.rho_min)


def max_relative_error(decomp: WedgeDecomposition) -> ErrorStats:
    """Ratio range of the mask's distance against Euclidean distance,
    measured with the spacing of the mask's lattice.

    A norm (see WedgeDecomposition.is_norm) is scored on its true
    distance, the max of the linear forms l = row / denom that
    WedgeDecomposition._gauge picks (the wedge forms on a convex fan, the
    hull facet forms otherwise): rho_max = max |l|.  A mask that is not a
    norm, or has non-integer weights, is scored on the wedge fan's formula
    (_fan_rho2, with the distinct weights as classes).
    """
    mask = decomp.mask
    lattice = mask.lattice
    u = lattice.unit
    rho_min = min(w / lattice.euclidean_norm(v)
                  for v, w in zip(mask.vectors, mask.weights))
    if decomp.is_norm:
        forms, denom, _, _ = decomp._gauge
        rho_max = max(math.sqrt(sum((c / (denom * s / u)) ** 2
                                    for c, s in zip(row, lattice.spacing)))
                      for row in forms.tolist())
    else:
        levels = sorted(set(mask.weights))
        class_of = {v: levels.index(w)
                    for v, w in zip(mask.vectors, mask.weights)}
        rho_max = math.sqrt(_fan_rho2(
            decomp, class_of, np.array(levels, dtype=float)[:, None])[0])
    return ErrorStats(rho_min, rho_max / u)


def _row_ids(x):
    """(ids, first) for the rows of the 2D array x: ids equal exactly where
    rows are equal, numbered in sorted row order, and the index of the
    first row of each id."""
    order = np.lexsort(x.T[::-1])
    xs = x[order]
    new = np.r_[True, (xs[1:] != xs[:-1]).any(axis=1)]
    ids = np.empty(len(x), dtype=np.intp)
    ids[order] = np.cumsum(new) - 1
    return ids, order[new]


def _fan_rho2(decomp: WedgeDecomposition, class_of, W, wanted=True):
    """Squared fan rho_max, with lengths in the lattice's ``unit``, of each
    weight column of W (C, rows) where ``wanted``, 0 elsewhere;
    ``class_of`` maps each mask vector to its row of W (the fan depends on
    the vectors only).

    Each distinct face S (a generator subset of some wedge, as a vector
    set) gives, for its one-hot class rows P, the matrices R = G_S^-1 P
    and Q = P^T R: its coordinates are R w and its squared length w^T Q w
    (see the module docstring), one batched solve per face size.  Faces
    with equal Q and equal rows of R are scored once, and each distinct
    coordinate row is tested once over all columns, as column products,
    against a tolerance relative to the column's largest weight.
    """
    sp = np.divide(decomp.mask.lattice.spacing, decomp.mask.lattice.unit)
    wedges = [sorted(wd.vectors) for wd in decomp.wedges]
    V = np.array(wedges, dtype=np.int64)                        # (K, n, n)
    cls = np.array([[class_of[v] for v in w] for w in wedges])  # (K, n)
    n, C = len(sp), len(W)
    Qs, Rs = [], []
    for r in range(1, n + 1):
        sub = list(itertools.combinations(range(n), r))
        faces = V[:, sub].reshape(-1, r * n)
        first = _row_ids(faces)[1]                   # distinct vector sets
        U = faces[first].reshape(-1, r, n) * sp
        P = np.eye(C)[cls[:, sub].reshape(-1, r)[first]]        # (F, r, C)
        R = np.linalg.solve(U @ U.transpose(0, 2, 1), P)
        Qs.append(P.transpose(0, 2, 1) @ R)
        Rs.append(np.pad(R, ((0, 0), (0, n - r), (0, 0))))  # 0 . w >= tol
    Q, R = np.concatenate(Qs), np.concatenate(Rs).reshape(-1, C)
    row_of, first = _row_ids(R)
    ids = np.sort(row_of.reshape(len(Q), n), axis=1)
    keep = _row_ids(np.hstack([Q.reshape(len(Q), -1).view(np.int64), ids]))[1]
    Wc = W.astype(float)
    tol = -1e-9 * Wc.max(axis=0)          # relative: R (s w) = s (R w)
    ok = [sum(c * w for c, w in zip(row, Wc) if c) >= tol
          for row in R[first]]
    Wf = np.ascontiguousarray(Wc.T)
    rho2 = np.zeros(W.shape[1])
    for q, face in zip(Q[keep], ids[keep].tolist()):
        rows = np.flatnonzero(functools.reduce(
            operator.and_, [ok[k] for k in face], wanted))
        if len(rows):
            Wr = Wf[rows]
            rho2[rows] = np.maximum(rho2[rows],
                                    np.einsum("mc,cd,md->m", Wr, q, Wr))
    return rho2


# ---------------------------------------------------------------------------
# Mask geometries: the vector layout of a mask with weights still open,
# grouped into symmetry classes that share one weight.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MaskGeometry:
    """Mask vectors grouped into weight classes (full symmetric orbits).

    ``classes`` is a tuple of vector tuples; all vectors in one class get
    the same weight.  Class order matters for the integer search: classes
    are expected in construction order (shortest first).
    """

    lattice: Lattice
    classes: tuple

    @property
    def dim(self) -> int:
        return self.lattice.dim

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def class_of(self):
        return {v: c for c, orbit in enumerate(self.classes) for v in orbit}

    def mask_with(self, weights) -> ChamferMask:
        entries = [(v, w) for orbit, w in zip(self.classes, weights)
                   for v in orbit]
        return ChamferMask.build(self.lattice, entries)

    def reference_decomposition(self) -> WedgeDecomposition:
        """Wedge fan of the geometry (independent of the weights used)."""
        return build_wedges(self.mask_with(tuple(range(1, len(self.classes) + 1))))

    def class_norms(self):
        return tuple(self.lattice.euclidean_norm(orbit[0])
                     for orbit in self.classes)


@dataclass(frozen=True)
class RealWeightOptimum:
    weights: tuple
    rho_star: float

    @property
    def error(self) -> float:
        return (self.rho_star - 1.0) / (self.rho_star + 1.0)

    @property
    def scale(self) -> float:
        return 1.0


def optimize_real_weights(geometry: MaskGeometry) -> RealWeightOptimum:
    """Best real weights for a mask geometry.

    With weights equal to the Euclidean vector lengths every vertex ratio
    is exactly 1 and the worst wedge ratio rho* >= 1 is the only excess;
    scaling all weights by 2 / (1 + rho*) centers the ratio band on 1,
    which is optimal for this geometry.  Returns one weight per class.
    """
    norms = geometry.class_norms()
    rho_star = math.sqrt(_fan_rho2(
        geometry.reference_decomposition(), geometry.class_of(),
        np.array(norms)[:, None] / geometry.lattice.unit)[0])
    factor = 2.0 / (1.0 + rho_star)
    return RealWeightOptimum(tuple(factor * n for n in norms), rho_star)


# ---------------------------------------------------------------------------
# Integer weight search.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightRow:
    weights: tuple
    scale: float
    error: float

    @property
    def max_weight(self) -> int:
        return max(self.weights)


def _class_intervals(geometry: MaskGeometry, decomp: WedgeDecomposition):
    """Per-class weight bounds from the mediant split relations.

    A vector created as a mediant of earlier-class vectors must cost at
    least as much as each summand and no more than their total, otherwise
    it is either useless or breaks monotonicity of the induced distance.
    Only relations whose parents all come from strictly earlier classes
    are kept.  Returns, per class c >= 1, a list of (lower_classes,
    upper_terms) constraints with class indices.
    """
    cls = geometry.class_of()
    constraints = {c: [] for c in range(1, geometry.num_classes)}
    for child, parents in decomp.splits:
        c = cls.get(child)
        if c is None or c == 0:
            continue
        pcls = [(cls.get(pv), coeff) for pv, coeff in parents]
        if any(pc is None or pc >= c for pc, _ in pcls):
            continue
        constraints[c].append(tuple(pcls))
    return constraints


def _pattern_ids(bits):
    """Integers that are equal exactly where the columns of the (K, m) bool
    array are."""
    ids = np.zeros(bits.shape[1], dtype=np.int64)
    for k, row in enumerate(bits):
        if k % 32 == 31:                      # keep ids below 2**63
            ids = np.unique(ids, return_inverse=True)[1].ravel()
        ids = 2 * ids + row
    # np.unique sorts 16-bit ids by radix, several times faster.
    return ids.astype(np.uint16) if len(bits) <= 16 else ids


def _hull_scores(geometry: MaskGeometry, W):
    """Per weight column of W (C, rows): (is the mask a norm, squared hull
    rho_max with lengths in the lattice's ``unit``).

    Each basis of polar_candidates is a candidate vertex l = M w / det.
    A row is scored on the feasible candidates; its norm test needs the
    tight mask vectors of each, which the pattern of tight constraints
    determines, so each (candidate, pattern) is checked exactly once on
    one representative row.
    """
    H, R, group, subsets, adj, det = polar_candidates(geometry.lattice,
                                                      geometry.classes)
    perms = dict.fromkeys(map(tuple, group[0].tolist()))
    sp = np.divide(geometry.lattice.spacing, geometry.lattice.unit)
    cls = geometry.class_of()
    vecs = [v for orbit in geometry.classes for v in orbit]
    V = np.array(vecs)
    vcls = np.array([cls[v] for v in vecs])
    linear = {}
    rho2 = np.zeros(W.shape[1])
    norm = np.ones(W.shape[1], dtype=bool)
    for sub, a, d in zip(subsets, adj, det.tolist()):
        M = a @ R[sub]                        # l * d = M w
        G = H @ M - d * R                     # feasible iff G w <= 0
        G = G[np.any(G != 0, axis=1)]         # the rest are always tight
        feas = np.ones(W.shape[1], dtype=bool)
        for g in G:
            feas &= g @ W <= 0
        rows = np.flatnonzero(feas)
        if not len(rows):
            continue
        Wr = W[:, rows]
        L = M @ Wr
        # |l / spacing|^2 of every image of l under the permutations,
        # each summed in coordinate order; equal spacings share terms.
        squares = {s: [(Lj / (d * s)) ** 2 for Lj in L]
                   for s in set(sp.tolist())}
        terms = [squares[s] for s in sp.tolist()]
        r2 = functools.reduce(np.maximum, (
            functools.reduce(operator.add, (terms[i][j]
                                            for i, j in enumerate(p)))
            for p in perms))
        rho2[rows] = np.maximum(rho2[rows], r2)
        _, first, inv = np.unique(_pattern_ids(G @ Wr == 0),
                                  return_index=True, return_inverse=True)
        for k, i in enumerate(first):
            lw = L[:, i]
            wr = Wr[:, i]
            tight = tuple(vecs[j] for j in np.flatnonzero(
                V @ lw == d * wr[vcls]))
            if tight not in linear:
                linear[tight] = cone_is_linear(
                    geometry.lattice, tight, tuple(int(x) for x in lw))
            if not linear[tight]:
                norm[rows[inv.ravel() == k]] = False
    return norm, rho2


def _candidates(geometry: MaskGeometry, decomp: WedgeDecomposition,
                max_weight: int):
    """Primitive weight tuples within the mediant bounds, as a (C, rows)
    int64 array built class by class."""
    cols = [np.arange(1, max_weight + 1, dtype=np.int64)]
    constraints = _class_intervals(geometry, decomp)
    for c in range(1, geometry.num_classes):
        lo = np.ones(len(cols[0]), dtype=np.int64)
        hi = np.full(len(cols[0]), max_weight, dtype=np.int64)
        for rel in constraints[c]:
            lo = functools.reduce(np.maximum, [cols[pc] for pc, _ in rel], lo)
            hi = np.minimum(hi, sum(coeff * cols[pc] for pc, coeff in rel))
        counts = np.maximum(hi - lo + 1, 0)
        src = np.repeat(np.arange(len(counts)), counts)
        # Row k of the group of source row i takes weight lo[i] + k.
        start = np.cumsum(counts) - counts
        cols = [col[src] for col in cols] + [
            np.arange(len(src)) + (lo - start)[src]]
    return np.array(cols)[:, functools.reduce(np.gcd, cols) == 1]


def _search_table(geometry: MaskGeometry, max_weight: int):
    """The scored search as sorted columns: weights (C, rows) int64,
    scale and error; see search_integer_weights."""
    decomp = geometry.reference_decomposition()
    W = _candidates(geometry, decomp, max_weight)
    # Smallest vertex ratio per tuple: within a class the ratio is smallest
    # on the longest orbit member (they differ under anisotropic spacing).
    max_norms = [max(map(geometry.lattice.euclidean_norm, orbit))
                 for orbit in geometry.classes]
    rho_min = functools.reduce(np.minimum, [w / m for w, m
                                            in zip(W, max_norms)])

    norm, hull_rho2 = _hull_scores(geometry, W)
    fan_rho2 = _fan_rho2(decomp, geometry.class_of(), W, ~norm)
    rho_max = np.sqrt(np.where(norm, hull_rho2, fan_rho2)) / \
        geometry.lattice.unit

    error = (rho_max - rho_min) / (rho_max + rho_min)
    scale = 2.0 / (rho_max + rho_min)
    # Errors equal to 12 decimals (the margin of _pareto_index) are ties,
    # ordered by weights rather than by float noise.
    order = np.lexsort((*W[::-1], np.round(error, 12), W.max(axis=0)))
    return W[:, order], scale[order], error[order]


def search_integer_weights(geometry: MaskGeometry, max_weight: int):
    """Enumerate integer weight assignments up to ``max_weight`` and score
    each by optimal scale and relative error.

    Candidate tuples are constrained by the mediant relations of the wedge
    fan (each derived vector costs between the max and the sum of its
    summands) and reduced to primitive tuples (gcd 1), since scalar
    multiples have identical error.  Each tuple is scored as
    max_relative_error scores its mask: on the hull of {v / w} when the
    mask induces a norm (whether or not the fan is convex for it), on the
    wedge fan otherwise.  Every scoring pass runs over whole weight
    columns.  Returns WeightRow objects sorted by (max weight, error to 12
    decimals, weights).
    """
    W, scale, error = _search_table(geometry, max_weight)
    return list(map(WeightRow, zip(*W.tolist()), scale.tolist(),
                    error.tolist()))


def _pareto_index(error):
    """Indices of pareto_front's rows, from their error column."""
    keep = []
    best = math.inf
    for i, e in enumerate(error):
        if e < best - 1e-12:
            keep.append(i)
            best = e
    return keep


def pareto_front(rows):
    """Rows whose error strictly improves on every cheaper (smaller max
    weight) row.  Input must be sorted as returned by search_integer_weights."""
    return [rows[i] for i in _pareto_index([r.error for r in rows])]
