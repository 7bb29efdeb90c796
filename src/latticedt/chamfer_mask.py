"""Chamfer masks and their wedge decompositions.

A chamfer mask is a centrally symmetric finite set of lattice vectors with
positive weights.  A wedge is a cone spanned by n mask vectors that form a
lattice basis and whose interior contains no other mask vector; over a
wedge the fan formula is ``d(p) = sum_k alpha_k * w_k`` with integer
coefficients ``alpha``, a linear form of p.  The chamfer distance of a
norm is the max of finitely many integer linear forms divided by one
common denominator: the wedge forms on a convex fan, the facet forms of
the hull of {v / w} otherwise (the gauge of that polytope).  Those forms
are the vertices of the polar P* = {l : l . v <= w_v}; one enumeration
(polar_candidates) serves the hull and the integer weight search.  The
exact geometry (containment while refining the fan, the convexity test
and the closed form) is int64 array arithmetic on these forms.
"""

from __future__ import annotations

import heapq
import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .lattice import Lattice, adjugate, batch_adjugate, int_det


class MaskError(ValueError):
    """Raised for malformed masks or impossible wedge decompositions."""


def central_closure(entries):
    """Close a (vector, weight) list under v -> -v and deduplicate.

    Conflicting duplicate weights raise MaskError.
    """
    table = {}
    for v, w in entries:
        v = tuple(int(c) for c in v)
        for u in (v, tuple(-c for c in v)):
            if u in table and table[u] != w:
                raise MaskError(f"conflicting weights for vector {u}")
            table[u] = w
    if any(all(c == 0 for c in v) for v in table):
        raise MaskError("zero vector is not allowed in a mask")
    return dict(sorted(table.items()))


@dataclass(frozen=True)
class ChamferMask:
    """A weighted, centrally symmetric mask over a lattice.

    ``vectors``/``weights`` are parallel tuples covering the full symmetric
    closure: a mask whose vectors are not closed under v -> -v with equal
    weights raises MaskError, since the engines step along +v in some
    places and -v in others.  Weights may be ints (exact arithmetic
    throughout) or floats; build turns integral floats into ints.
    """

    lattice: Lattice
    vectors: tuple
    weights: tuple

    def __post_init__(self):
        table = dict(zip(self.vectors, self.weights))
        if any(table.get(tuple(-c for c in v)) != w for v, w in table.items()):
            raise MaskError("mask vectors must be closed under v -> -v with "
                            "equal weights")

    @classmethod
    def build(cls, lattice, entries) -> "ChamferMask":
        entries = list(entries)
        # Before the closure, where a NaN would read as a conflict.
        if not all(0 < w < math.inf for _, w in entries):
            raise MaskError("weights must be finite and positive")
        table = central_closure(entries)
        for v in table:
            if len(v) != lattice.dim:
                raise MaskError(f"vector {v} has wrong dimension")
            if not lattice.member(v):
                raise MaskError(f"vector {v} is not a lattice point")
        # An integral weight spelled as a float (5.0) is the integer, so
        # the mask takes the exact path whichever way it was written.
        weights = tuple(int(w) if isinstance(w, numbers.Real)
                        and w == int(w) else w for w in table.values())
        return cls(lattice, tuple(table), weights)

    @property
    def dim(self) -> int:
        return self.lattice.dim


@dataclass(frozen=True)
class Wedge:
    """A simplicial cone spanned by ``vectors`` (a lattice basis), carrying
    the mask weights of its generators."""

    vectors: tuple
    weights: tuple


@dataclass(frozen=True)
class WedgeDecomposition:
    """A complete fan of wedges covering space, plus the split relations
    recorded while refining (child vector expressed over parent generators)."""

    mask: ChamferMask
    wedges: tuple
    splits: tuple  # ((child_vector, ((parent_vector, coeff), ...)), ...)

    @cached_property
    def wedge_forms(self):
        """The wedges' linear forms times the covolume, one row per wedge:
        row . v_k = covolume * w_k on the wedge's generators v_k (every
        wedge has |det| = covolume).  int64 for integer weights, float
        otherwise."""
        adj, det = batch_adjugate([wd.vectors for wd in self.wedges])
        weights = np.array([wd.weights for wd in self.wedges], dtype=(
            np.int64 if _integer_weights(self.mask) else np.float64))
        return (np.einsum("kij,kj->ki", adj, weights)
                * np.sign(det)[:, None])

    @cached_property
    def _outside(self):
        """(lhs, side): lhs[k, j] = covolume * l_k . v_j for wedge k and
        mask vector j; side[k, j] is 1, 0 or -1 as the vertex v_j / w_j
        lies strictly outside, on or strictly inside the plane of wedge k
        (relative slack 1e-12 for float weights)."""
        lhs = self.wedge_forms @ np.array(self.mask.vectors).T
        rhs = self.mask.lattice.covolume * np.array(self.mask.weights)
        slack = (1e-12 * np.maximum(np.abs(lhs), rhs)
                 if lhs.dtype.kind == "f" else 0)
        return lhs, (lhs > rhs + slack).astype(np.int8) - (lhs < rhs - slack)

    @cached_property
    def fan_convex(self) -> bool:
        """True iff no mask vertex lies outside a wedge facet plane, i.e.
        the fan's piecewise-linear formula is the chamfer distance."""
        return not (self._outside[1] > 0).any()

    @cached_property
    def hull(self) -> tuple:
        """Facets of the convex hull of {v / w} (see polar_vertices)."""
        return polar_vertices(self.mask)

    @cached_property
    def is_norm(self) -> bool:
        """True iff the induced distance is a norm: integer weights and
        every hull facet linear, so the distance is the hull's gauge.  A
        convex fan needs no hull: its hull facets are unions of its
        unimodular wedges, so they are all linear."""
        return _integer_weights(self.mask) and (
            self.fan_convex or all(f.linear for f in self.hull))

    @cached_property
    def _module_distance(self):
        return _ModuleDistance(self.mask)

    @cached_property
    def _gauge(self):
        """(forms, denom, facets, limit): denom * d(p) = max(forms @ p) on
        a norm.  On a convex fan the rows are the wedge forms over the
        covolume (l_W . p <= l_W' . p for p in wedge W' is exactly the
        convexity test); otherwise they are the hull facet forms over a
        common denominator, and ``facets`` are the hull facets row by row
        when some of them are not linear (None on a norm).  |p|_inf <=
        limit keeps forms @ p inside int64."""
        if self.fan_convex:
            forms, denom, facets = (self.wedge_forms,
                                    self.mask.lattice.covolume, None)
        else:
            facets = self.hull
            denom = math.lcm(*(f.denom for f in facets))
            forms = np.array([[c * (denom // f.denom) for c in f.form]
                              for f in facets], dtype=np.int64)
            if self.is_norm:
                facets = None
        l1 = float(np.abs(forms).sum(axis=1).max())
        return forms, denom, facets, int(2**62 // max(l1, 1.0))

    def closed_form_distance(self, points):
        """Exact chamfer distance from the origin to lattice points: one
        point (an int, or a float for float weights) or an (N, n) integer
        array (int64 or float64 values).

        On a norm this is the max of integer linear forms over one
        denominator (see _gauge).  On a non-norm the largest facet form
        picks the hull facet, and on a non-linear facet the module formula
        adds its excess (see _ModuleDistance).  Raises MaskError on a
        nonconvex fan with non-integer weights or with a hull facet whose
        vectors do not generate the lattice points of their cone in the
        sub-module they span, and for points off the lattice or beyond the
        int64 range of the forms.
        """
        P = np.asarray(points)
        n = self.mask.dim
        if P.dtype.kind != "i" or P.ndim not in (1, 2) or P.shape[-1] != n:
            raise MaskError(f"closed form needs integer {n}-vectors, one "
                            "point or an (N, n) array")
        forms, denom, facets, limit = self._gauge
        if P.ndim == 2:
            num = self._numerators(P)
        else:
            p = P.tolist()
            if max(map(abs, p)) > limit or not self.mask.lattice.member(p):
                raise MaskError(f"closed form needs lattice points within "
                                f"+-{limit}, not {tuple(p)}")
            scores = forms @ P
            k = int(scores.argmax())
            num = scores[k].item() + self._excess(p, k)
        return num // denom if forms.dtype.kind == "i" else num / denom

    def _numerators(self, P):
        """denom * d(p) for each row p of P (see _gauge)."""
        forms, denom, facets, limit = self._gauge
        lattice = self.mask.lattice  # adj . p = 0 (mod covolume) on L
        if P.size and (np.abs(P).max() > limit or (
                P @ np.array(lattice._adjugate).T % lattice.covolume).any()):
            raise MaskError(f"closed form needs lattice points within "
                            f"+-{limit}")
        scores = P @ forms.T
        pick = scores.argmax(axis=1)
        num = np.take_along_axis(scores, pick[:, None], axis=1)[:, 0]
        if facets is not None:
            curved = ~np.array([f.linear for f in facets])
            for i in np.flatnonzero(curved[pick]).tolist():
                num[i] += self._excess(P[i].tolist(), pick[i])
        return num

    def _excess(self, p, k):
        """What the module formula adds to denom * l . p when row k of the
        gauge is the largest at the lattice point p (see _ModuleDistance)."""
        _, denom, facets, _ = self._gauge
        if facets is None or facets[k].linear or not any(p):
            return 0
        f = facets[k]
        return self._module_distance.excess(tuple(p), f) * (denom // f.denom)


@dataclass(frozen=True)
class HullFacet:
    """A facet of the convex hull of the normalized vertices {v / w}.

    Its linear form is l = form / denom (integer ``form``): l . v <= w_v for
    every mask vector, with equality exactly on ``vectors``.  ``linear``
    says that every lattice point of the facet's cone is a nonnegative
    integer combination of ``vectors``, so the distance is l . p on the
    whole cone.
    """

    form: tuple
    denom: int
    vectors: tuple
    linear: bool


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _integer_weights(mask: ChamferMask) -> bool:
    return all(isinstance(w, (int, numbers.Integral)) for w in mask.weights)


def polar_candidates(lattice: Lattice, classes):
    """(H, R, (perm, signs), subsets, adj, det) for P* = {l : l . v <= w_v}
    over class weights w: constraints H l <= R w (see polar_vertices), the
    signed permutations x -> (signs[g, i] * x[perm[g, i]]) that move their
    vertices, and the n-subsets of rows that are bases, tight at l = adj @
    b / det with det > 0."""
    n, C = lattice.dim, len(classes)
    perm, signs = map(np.array, zip(*itertools.product(
        itertools.permutations(range(n)), itertools.product((1, -1),
                                                            repeat=n))))
    gens = np.array(lattice.generators)[:, perm] * signs
    if not (gens @ np.array(lattice._adjugate).T % lattice.covolume).any() \
            and all(set(c) == set(map(tuple, (np.array(c[0])[perm]
                                              * signs).tolist()))
                    for c in classes):
        walls = np.eye(n, k=1, dtype=np.int64) - np.eye(n, dtype=np.int64)
        H = np.vstack([walls, [sorted(map(abs, c[0]), reverse=True)
                               for c in classes]])
        R = np.eye(n + C, C, k=-n, dtype=np.int64)
    else:
        H = np.array([v for c in classes for v in c], dtype=np.int64)
        R = np.repeat(np.eye(C, dtype=np.int64), list(map(len, classes)),
                      axis=0)
        perm, signs = perm[:1], signs[:1]
    subsets = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations(range(len(H)), n)), np.intp).reshape(-1, n)
    adj, det = batch_adjugate(H[subsets])
    adj *= np.sign(det)[:, None, None]
    keep = det != 0
    return H, R, (perm, signs), subsets[keep], adj[keep], np.abs(det[keep])


def polar_vertices(mask: ChamferMask) -> tuple:
    """Facets of the convex hull of {v / w} for an integer-weight mask: the
    vertices l of P* = {l : l . v <= w_v}, one HullFacet each.

    When the vectors, grouped by orbit and weight, are full signed-
    permutation orbits and the permutations preserve the lattice, P* is
    symmetric and the chamber l_1 >= ... >= l_n >= 0 holds one image of
    each vertex.  There an orbit's largest l . u is at its sorted absolute
    representative (rearrangement inequality), so the vertices of P* n
    chamber are the n-subsets of the walls and representatives that meet
    every constraint (exact int64 arithmetic).  Such a vertex is one of
    P* iff its tight mask vectors have rank n (the others lie on a wall
    and are dropped), and the images of those under the permutations are
    all the vertices of P*; each orbit's linearity is proved once.
    Otherwise every mask vector is its own constraint.
    """
    if not _integer_weights(mask):
        raise MaskError("the convex hull of {v / w} needs integer weights")
    classes = {}
    for v, w in zip(mask.vectors, mask.weights):
        classes.setdefault((tuple(sorted(map(abs, v))), w), []).append(v)
    H, R, (perm, signs), subsets, adj, det = polar_candidates(
        mask.lattice, list(map(tuple, classes.values())))
    b = R @ np.array([w for _, w in classes], dtype=np.int64)
    num = np.einsum("tij,tj->ti", adj, b[subsets])
    for h, bh in zip(H, b.tolist()):  # one row at a time: T x len(H)
        feasible = num @ h <= det * bh  # is large for fallback masks
        num, det = num[feasible], det[feasible]
    V = np.array(mask.vectors, dtype=np.int64)
    w = np.array(mask.weights, dtype=np.int64)
    tight = (num @ V.T == det[:, None] * w).astype(np.int64)
    gram = np.einsum("tj,ji,jk->tik", tight, V, V)  # det 0 iff rank < n
    lw = np.column_stack([num, det])[batch_adjugate(gram)[1] != 0]
    facets = []
    for *form, denom in dict.fromkeys(map(tuple, (lw // np.gcd.reduce(
            lw, axis=1)[:, None]).tolist())):
        images = np.array(list(dict.fromkeys(
            map(tuple, (np.array(form)[perm] * signs).tolist()))))
        on = [tuple(mask.vectors[j] for j in np.flatnonzero(row))
              for row in images @ V.T == denom * w]
        flat = cone_is_linear(mask.lattice, on[0], form)  # the chamber
        facets += [HullFacet(l, denom, vecs, flat)
                   for l, vecs in zip(map(tuple, images.tolist()), on)]
    return tuple(facets)


def _reachable(start, gens, step):
    """Everything reached from ``start`` by repeated ``step(x, g)`` over
    ``gens``; ``step`` returns None where a branch stops."""
    found, frontier = {start}, [start]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = step(x, g)
            if y is not None and y not in found:
                found.add(y)
                frontier.append(y)
    return found


def _parallelepiped_points(lattice: Lattice, basis):
    """Lattice points sum t_k b_k with 0 <= t_k < 1 over independent
    ``basis`` vectors; there are |det(basis)| / covolume of them.  They
    represent the group L / (basis Z^n), so they are reached from 0 by
    adding lattice generators and reducing into the parallelepiped."""
    adj, det = adjugate(basis), int_det(basis)  # adj . x = det * coords

    def step(x, g):
        y = [a + b for a, b in zip(x, g)]
        floor = [_dot(row, y) // det for row in adj]
        return tuple(c - _dot(floor, col) for c, col in zip(y, zip(*basis)))
    return _reachable((0,) * len(basis), lattice.generators, step)


def _monoid_ball(generators, form, bound):
    """Nonnegative integer combinations s of ``generators`` with
    form . s <= bound (``form`` positive on every generator)."""
    def step(s, g):
        t = tuple(a + b for a, b in zip(s, g))
        return t if _dot(form, t) <= bound else None
    return _reachable((0,) * len(form), generators, step)


def cone_is_linear(lattice: Lattice, vectors, form) -> bool:
    """True iff every lattice point of the cone spanned by ``vectors`` is a
    nonnegative integer combination of them.

    The cone is the union of the cones of its independent n-subsets
    (Caratheodory), and each lattice point of such a simplicial cone is a
    combination of its generators plus a point of their half-open
    parallelepiped, so it suffices that every parallelepiped point is
    generated.  ``form`` is an integer linear form positive on ``vectors``
    that bounds the search.
    """
    n = lattice.dim
    targets = set()
    for basis in itertools.combinations(vectors, n):
        if abs(int_det(basis)) > lattice.covolume:
            targets.update(_parallelepiped_points(lattice, basis))
    targets.discard((0,) * n)
    if not targets:
        return True
    bound = max(_dot(form, t) for t in targets)
    return targets <= _monoid_ball(vectors, form, bound)


class _ModuleDistance:
    """Exact chamfer distance on the convex hull of {v / w}.

    For p in the cone of a facet with form l, every path to p costs l . p
    plus the total excess e(u) = w_u - l . u >= 0 of its steps; the
    facet's own vectors are exactly the steps of zero excess.  On a linear
    facet d(p) = l . p.  Otherwise the facet's vectors span a sub-module M
    of index k > 1, and their combinations are the points of cone n M
    (checked; a facet where they are not has no closed form here).  Steps
    along them are free, which gives the module formula

        d(p) = l . p + min { E(r) : p - r in cone n M },

    where E(r) is the least excess of a path to r over the other mask
    vectors, all of positive excess.  The representatives r are bounded:
    every p in the cone is q + r0 with q a combination of facet vectors
    and r0 a parallelepiped point of some n of them, so the optimum never
    exceeds U = max over r0 of min { E(r) : r0 - r in cone n M }, and a
    path of excess <= U only passes through points of excess <= U.  A
    Dijkstra run in order of excess therefore finds every representative
    needed: stop once every r0 is covered and the excess passes U.
    """

    def __init__(self, mask: ChamferMask):
        self.mask = mask
        self.tables = {}

    def excess(self, p, f):
        """min { E(r) : p - r in cone n M } for the non-linear facet ``f``
        whose cone holds the lattice point ``p``, in units of 1 / f.denom."""
        if f not in self.tables:
            self.tables[f] = self._coset_table(f)
        in_module_cone, table = self.tables[f]
        excess = next((e for e, r in table if in_module_cone(_sub(p, r))),
                      None)
        if excess is None:
            raise MaskError(f"no coset representative covers {p}")
        return excess

    def _coset_table(self, f):
        """(membership test for cone n M, ((E, r), ...) by ascending E),
        with E in units of 1 / f.denom."""
        mask = self.mask
        n = mask.dim
        zero = (0,) * n
        bases = [(adjugate(b), int_det(b), b)
                 for b in itertools.combinations(f.vectors, n)
                 if int_det(b) != 0]
        adj0, det0, _ = bases[0]

        def residue(x):  # class of x in L / M0, M0 spanned by bases[0]
            return tuple(_dot(row, x) % det0 for row in adj0)

        # M / M0 is the subgroup generated by the facet vectors' classes.
        classes = _reachable(residue(zero), f.vectors, lambda c, v: tuple(
            (a + b) % det0 for a, b in zip(c, residue(v))))

        def in_module_cone(x):
            return residue(x) in classes and any(
                all(_dot(row, x) * det >= 0 for row in adj)
                for adj, det, _ in bases)

        offsets = set()
        for _, _, b in bases:
            offsets.update(_parallelepiped_points(mask.lattice, b))
        in_m = [x for x in offsets if x != zero and residue(x) in classes]
        if in_m and not set(in_m) <= _monoid_ball(
                f.vectors, f.form, max(_dot(f.form, x) for x in in_m)):
            raise MaskError(f"hull facet {f.vectors} does not generate the "
                            "lattice points of its cone; no closed form")

        paid = [(f.denom * w - _dot(f.form, u), u)
                for u, w in zip(mask.vectors, mask.weights)
                if u not in f.vectors]
        best = {zero: 0}
        heap = [(0, zero)]
        settled = []
        bound = None
        while heap:
            e, r = heapq.heappop(heap)
            if e > best[r]:
                continue
            if bound is not None and e > bound:
                break
            settled.append((e, r))
            if bound is None:
                offsets = {x for x in offsets
                           if not in_module_cone(_sub(x, r))}
                if not offsets:
                    bound = e
            for eu, u in paid:
                q = tuple(a + b for a, b in zip(r, u))
                if e + eu < best.get(q, e + eu + 1):
                    best[q] = e + eu
                    heapq.heappush(heap, (e + eu, q))
        # Keep r only if no cheaper-or-equal kept r2 has r - r2 in cone n M:
        # whenever r would serve p, r2 serves it at no more excess.
        table = []
        for e, r in settled:
            if not any(in_module_cone(_sub(r, r2)) for _, r2 in table):
                table.append((e, r))
        return in_module_cone, tuple(table)


def build_wedges(mask: ChamferMask) -> WedgeDecomposition:
    """Decompose space into wedges over the mask's vectors.

    2D: sort directions by angle and pair neighbours.  3D: start from the
    2^n sign copies of a shortest basis among the mask vectors and refine
    any wedge that still contains another mask vector, splitting along the
    contained vector (mediant refinement one generation at a time; split
    relations in depth-first order).  Every wedge is a lattice basis.
    """
    if mask.dim == 2:
        return _build_wedges_2d(mask)
    if mask.dim == 3:
        return _build_wedges_nd(mask)
    raise MaskError("wedge decomposition supports 2 and 3 dimensions")


def _build_wedges_2d(mask):
    covol = mask.lattice.covolume
    weight = dict(zip(mask.vectors, mask.weights))
    dirs = sorted(mask.vectors, key=lambda v: math.atan2(v[1], v[0]))
    for a, b in zip(dirs, dirs[1:] + dirs[:1]):
        if a[0] * b[1] - a[1] * b[0] == 0:
            raise MaskError(f"mask vectors {a} and {b} are collinear")
    wedges = []
    for a, b in zip(dirs, dirs[1:] + dirs[:1]):
        d = int_det((a, b))
        if abs(d) != covol:
            raise MaskError(
                f"adjacent mask vectors {a}, {b} span determinant {d}, "
                f"not a lattice basis (covolume {covol})")
        wedges.append(Wedge((a, b), (weight[a], weight[b])))
    return WedgeDecomposition(mask, tuple(wedges), ())


def _build_wedges_nd(mask):
    covol = mask.lattice.covolume
    vectors = mask.vectors
    n, N = mask.dim, len(vectors)
    V = np.array(vectors, dtype=np.int64).reshape(N, n)
    order = np.lexsort((*V.T[::-1], (V * V).sum(axis=1)))  # (|v|^2, v)
    seed = next((comb for comb in itertools.combinations(order.tolist(), n)
                 if abs(int_det([vectors[j] for j in comb])) == covol), None)
    if seed is None:
        raise MaskError("no subset of mask vectors forms a lattice basis")

    # Refine one generation of wedges (rows of sorted vector indices) per
    # pass.  A wedge's outcome depends only on its vector set: (-1, _) when
    # final, else (vector, parent flags): the picked vector and the
    # generators it splits, or with no flag set the first contained vector,
    # when none of them splits the wedge into lattice bases.
    rank = np.argsort(order)
    big, eye = 2 ** 63 - 1, np.eye(n, dtype=bool)
    # The 2^n sign copies of the seed, +v before -v in each place.
    starts = list(itertools.product(*(
        (j, vectors.index(tuple(-c for c in vectors[j]))) for j in seed)))
    front = np.sort(starts, axis=1)
    outcome = {}
    while len(front):
        # co[k, g, j]: coordinate k of mask vector j in wedge g's basis,
        # times |det| (= covolume: unit-coefficient splits keep the det).
        adj, det = batch_adjugate(V[front])
        co = adj.transpose(2, 0, 1) @ V.T * np.sign(det)[:, None]
        inside = (co.min(axis=0) >= 0) & ((co > 0).sum(axis=0) >= 2)
        # Contained vectors ordered by (coefficient total, |v|^2, v).
        key = np.where(inside, co.sum(axis=0) * N + rank, big)
        unit = np.where(((co == 0) | (co == covol)).all(axis=0), key, big)
        first, pick = key.argmin(axis=1), unit.argmin(axis=1)
        rows = np.arange(len(front))
        cut = unit[rows, pick] < big
        up = (co[:, rows, pick] > 0).T & cut[:, None]
        vec = np.where(cut, pick, np.where(key[rows, first] < big, first, -1))
        outcome.update(zip(map(tuple, front.tolist()),
                           zip(vec.tolist(), up.tolist())))
        # Each split's children: the wedge with one parent swapped for p.
        kids = np.where(eye, pick[:, None, None], front[:, None, :])[up]
        front = np.array(list(dict.fromkeys(
            k for k in map(tuple, np.sort(kids, axis=1).tolist())
            if k not in outcome)), dtype=np.int64).reshape(-1, n)

    # Split relations and the first refusal in the order of the
    # depth-first walk that pops the most recently queued wedge.
    stack, done, splits = starts, set(), []
    while stack:
        w = stack.pop()
        key = tuple(sorted(w))
        if key in done:
            continue
        done.add(key)
        p, up = outcome[key]
        if p < 0:
            continue
        parents = {j for j, u in zip(key, up) if u}
        if not parents:
            raise MaskError(
                f"mask vector {vectors[p]} cannot split wedge "
                f"{tuple(vectors[j] for j in w)} into lattice bases")
        splits.append((vectors[p], tuple(sorted(
            (vectors[j], 1) for j in parents))))
        stack.extend(w[:k] + (p,) + w[k + 1:] for k in range(n)
                     if w[k] in parents)
    weight = dict(zip(vectors, mask.weights))
    wedges = sorted(tuple(sorted(map(vectors.__getitem__, key)))
                    for key, (p, _) in outcome.items() if p < 0)
    # Split relations, deduplicated on (child, parent multiset).
    return WedgeDecomposition(
        mask, tuple(Wedge(w, tuple(map(weight.get, w))) for w in wedges),
        tuple(dict.fromkeys(splits)))


def convexity_report(decomp: WedgeDecomposition):
    """Check that the normalized polytope {v/w} has all mask vertices on or
    inside every wedge facet plane, and that no mask vector is redundant.

    Returns (verdict, offenders).  Verdict 'nonconvex' means some vertex
    lies strictly outside a facet plane (the fan formula is then not the
    true path distance); offenders are (vector, wedge_index, lhs, rhs)
    tuples with lhs = l_W . v against rhs = w_v, lhs an exact rational for
    integer weights, ordered by wedge and then by mask vector.  They come
    from the same array of wedge forms as WedgeDecomposition.fan_convex.
    Verdict 'degenerate' means no violation but some mask vector is
    redundant: the other vectors already reach it at no more than its
    weight (offender wedge_index is None, lhs is that path cost; +-v pairs
    in mask-vector order).  Otherwise 'strict'.  Coplanarity of adjacent
    facets is not flagged; it does not affect distances.
    """
    mask = decomp.mask
    covol = mask.lattice.covolume
    exact = _integer_weights(mask)
    lhs, side = decomp._outside
    offenders = [(mask.vectors[j], k,
                  Fraction(int(lhs[k, j]), covol) if exact
                  else float(lhs[k, j]) / covol, mask.weights[j])
                 for k, j in np.argwhere(side > 0).tolist()]
    if offenders:
        return "nonconvex", offenders
    redundant = _redundant_vectors(decomp)
    if redundant:
        return "degenerate", redundant
    return "strict", []


def _redundant_vectors(decomp: WedgeDecomposition):
    """Mask vectors that the other vectors reach at no more than their
    weight, with that cost, read off a convex fan.

    On a convex fan d(v) = max_k l_k . v, and v's own step costs w_v >=
    d(v).  If d(v) < w_v, a path that avoids +-v is cheaper.  If d(v) =
    l_k . v = w_v, every path to v costs at least l_k . v, with equality
    exactly when every step u is tight on row k (l_k . u = w_u), so v is
    redundant iff it is a nonnegative integer combination of the other
    vectors tight on row k.
    """
    mask = decomp.mask
    covol = mask.lattice.covolume
    exact = _integer_weights(mask)
    lhs, side = decomp._outside
    out = []
    seen = set()
    for j, (v, wv) in enumerate(zip(mask.vectors, mask.weights)):
        if v in seen:
            continue
        neg = tuple(-c for c in v)
        seen.update((v, neg))
        k = int(lhs[:, j].argmax())
        if side[k, j] == 0:
            tight = [u for u, s in zip(mask.vectors, side[k]) if s == 0
                     and u != v]
            bound = covol * wv if exact else covol * wv * (1 + 1e-12)
            if v not in _monoid_ball(tight, decomp.wedge_forms[k].tolist(),
                                     bound):
                continue
        cost = (int(lhs[k, j]) // covol if exact
                else float(lhs[k, j]) / covol)
        out.append((v, None, cost, wv))
        out.append((neg, None, cost, wv))
    return out
