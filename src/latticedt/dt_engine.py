"""Distance transforms: the two-scan chamfer algorithm plus two oracles.

Images are binary (foreground = 1, background = 0) over the lattice points
of an axis-aligned box, optionally carved down by extra half-space
constraints.  The transform assigns every foreground point the minimum
total weight of a mask-vector path to a background point, with all path
points inside the image support.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .chamfer_mask import (
    ChamferMask,
    WedgeDecomposition,
    _integer_weights,
    build_wedges,
)
from .lattice import Lattice


class EngineError(RuntimeError):
    """Raised when a transform is refused (invalid image) or misused."""


class Verdict(Enum):
    BORDER_BACKGROUND = "border-background"
    WEDGE_PRESERVING = "wedge-preserving"
    INVALID = "invalid"


@dataclass(frozen=True)
class ValidationResult:
    verdict: Verdict
    reason: str = ""


@dataclass
class GridImage:
    """Binary image on the lattice points of a box anchored at ``origin``.

    ``values`` holds 1 (foreground), 0 (background) or -1 (outside the
    support) per box slot; non-lattice slots must be -1.  ``carve`` lists
    extra half-space constraints (normal, lo, hi) that were applied to cut
    the support out of the box; box faces are implied and need not be
    listed.
    """

    lattice: Lattice
    origin: tuple
    values: np.ndarray
    carve: tuple = ()

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.int8)
        self.origin = tuple(int(o) for o in self.origin)
        member = self.lattice.member_grid(self.origin, self.values.shape)
        if np.any((self.values >= 0) & ~member):
            raise EngineError("image stores values at non-lattice slots")

    @property
    def dims(self):
        return self.values.shape

    @property
    def support(self):
        return self.values >= 0

    def coordinate_grids(self):
        axes = [np.arange(o, o + d, dtype=np.int64)
                for o, d in zip(self.origin, self.dims)]
        return np.meshgrid(*axes, indexing="ij")

    @classmethod
    def from_foreground(cls, lattice, origin, foreground) -> "GridImage":
        """Support = every lattice point in the box; ``foreground`` is a
        boolean array over the box."""
        fg = np.asarray(foreground, dtype=bool)
        member = lattice.member_grid(origin, fg.shape)
        values = np.where(member, fg.astype(np.int8), np.int8(-1))
        return cls(lattice, tuple(origin), values)

    def carved(self, halfspaces) -> "GridImage":
        """Copy with support restricted to lo <= a . p <= hi for each
        (a, lo, hi) in ``halfspaces``."""
        grids = self.coordinate_grids()
        values = self.values.copy()
        keep = np.ones(self.dims, dtype=bool)
        for a, lo, hi in halfspaces:
            dot = sum(int(c) * g for c, g in zip(a, grids))
            keep &= (dot >= lo) & (dot <= hi)
        values[~keep] = -1
        return GridImage(self.lattice, self.origin, values,
                         self.carve + tuple((tuple(a), int(lo), int(hi))
                                            for a, lo, hi in halfspaces))


@dataclass
class DistanceMap:
    """Per-point path distance to the background; same layout as the image.

    ``values`` is int64 with ``infinity`` marking unreached or
    out-of-support slots.  ``scale`` is the recommended multiplier toward
    Euclidean distances (1.0 unless set by the caller)."""

    lattice: Lattice
    origin: tuple
    values: np.ndarray
    infinity: int
    scale: float = 1.0

    @property
    def dims(self):
        return self.values.shape


def _mask_reach(mask: ChamferMask) -> tuple:
    """Per axis, the largest |v_i| over the mask vectors: how far one step
    reaches, and so the margin a padded box needs."""
    return tuple(max(abs(v[i]) for v in mask.vectors)
                 for i in range(mask.dim))


def distance_bound(image: GridImage, mask: ChamferMask) -> int:
    """Strict upper bound for any achievable in-image path cost."""
    npts = int(np.count_nonzero(image.support))
    maxw = max(mask.weights)
    return int(maxw) * (npts + 1) + 1


@dataclass(frozen=True)
class ScanPlan:
    """Hyperplane normal plus the two scanning half-masks."""

    normal: tuple
    half1: tuple  # (vector, weight) with normal . v < 0, for the forward pass
    half2: tuple  # (vector, weight) with normal . v > 0, for the backward pass


def make_scan_plan(mask: ChamferMask) -> ScanPlan:
    """Deterministic normal a = (N^{n-1}, ..., N, 1) with a . v != 0 for
    every mask vector, using the smallest N >= 1 that works, and the mask
    split into the halves on either side of that hyperplane."""
    n = mask.dim
    limit = 10 * (1 + max(_mask_reach(mask)))
    for N in range(1, limit + 1):
        a = tuple(N ** (n - 1 - i) for i in range(n))
        side = [sum(ai * vi for ai, vi in zip(a, v)) for v in mask.vectors]
        if 0 not in side:
            entries = list(zip(side, mask.vectors, mask.weights))
            return ScanPlan(a, tuple((v, w) for s, v, w in entries if s < 0),
                            tuple((v, w) for s, v, w in entries if s > 0))
    raise EngineError("could not find a separating hyperplane")


def scan_order(image: GridImage, a):
    """Indices of support points sorted by ascending a . p, ties broken by
    lexicographic coordinate order.  Returns (flat_indices, sigma).

    The support is listed in C order, which is lexicographic, so a stable
    sort on sigma alone keeps that tie-break."""
    axes = np.ogrid[tuple(slice(o, o + d)
                          for o, d in zip(image.origin, image.dims))]
    sup = image.support
    sigma = sum(int(ai) * x for ai, x in zip(a, axes))[sup]
    order = np.argsort(sigma, kind="stable")
    flat = np.flatnonzero(sup)[order]
    return flat, sigma[order]


def order_supported_by(image: GridImage, flat_order, half):
    """Check the defining property of a supported scanning order: every
    half-mask neighbor of each point is earlier in the order or outside
    the support.  Intended for tests and diagnostics (quadratic-ish)."""
    pos = {int(f): i for i, f in enumerate(flat_order)}
    dims = image.dims
    coords = np.array(np.unravel_index(flat_order, dims)).T
    origin = np.array(image.origin)
    sup = image.support
    for i, c in enumerate(coords):
        for v, _w in half:
            q = c + np.array(v)
            if np.any(q < 0) or np.any(q >= dims):
                continue
            if not sup[tuple(q)]:
                continue
            j = pos[int(np.ravel_multi_index(tuple(q), dims))]
            if j >= i:
                return False
    return True


def validate_image(mask: ChamferMask, image: GridImage,
                   decomposition: WedgeDecomposition | None = None
                   ) -> ValidationResult:
    """Sufficient conditions for two-scan exactness.

    BORDER_BACKGROUND: every support point with a mask neighbor outside
    the support is background.  WEDGE_PRESERVING: the support is exactly
    the lattice points of the box cut by the declared half-spaces, and no
    bounding half-space normal strictly separates the generators of any
    wedge.  Otherwise INVALID.
    """
    sup = image.support
    fg = image.values == 1
    dims = image.dims
    pad = _mask_reach(mask)
    padded = np.zeros(tuple(d + 2 * p for d, p in zip(dims, pad)), dtype=bool)
    inner = tuple(slice(p, p + d) for p, d in zip(pad, dims))
    padded[inner] = sup
    border = np.zeros(dims, dtype=bool)
    for v in mask.vectors:
        shifted = padded[tuple(slice(p + c, p + c + d)
                               for p, c, d in zip(pad, v, dims))]
        border |= sup & ~shifted
    offenders = border & fg
    if not offenders.any():
        return ValidationResult(Verdict.BORDER_BACKGROUND)

    # Wedge-preserving test on the bounding half-spaces of the support.
    # Without carving these are the box faces; a carved image is judged by
    # its declared half-spaces alone, which must reproduce the support
    # exactly (including an empty margin ring around the box, so the
    # declaration really bounds it).
    if decomposition is None:
        decomposition = build_wedges(mask)
    n = len(dims)
    if image.carve:
        normals = [tuple(a) for a, _lo, _hi in image.carve]
        # The margin ring is as wide as the padding of ``padded``.
        ext_origin = tuple(o - p for o, p in zip(image.origin, pad))
        predicted = image.lattice.member_grid(ext_origin, padded.shape)
        axes = np.ogrid[tuple(slice(o, o + d)
                              for o, d in zip(ext_origin, padded.shape))]
        for a, lo, hi in image.carve:
            dot = sum(int(c) * x for c, x in zip(a, axes))
            predicted &= (dot >= lo) & (dot <= hi)
        described = np.array_equal(predicted, padded)
    else:
        normals = [tuple(1 if j == i else 0 for j in range(n))
                   for i in range(n)]
        member = image.lattice.member_grid(image.origin, dims)
        described = np.array_equal(member, sup)
    if described:
        bad = None
        for a in normals:
            for wd in decomposition.wedges:
                dots = [sum(ai * vi for ai, vi in zip(a, v))
                        for v in wd.vectors]
                if any(d > 0 for d in dots) and any(d < 0 for d in dots):
                    bad = (a, wd.vectors)
                    break
            if bad:
                break
        if bad is None:
            return ValidationResult(Verdict.WEDGE_PRESERVING)
        reason = (f"half-space normal {bad[0]} splits wedge {bad[1]}; "
                  f"{int(offenders.sum())} foreground border point(s)")
    else:
        reason = (f"{int(offenders.sum())} foreground border point(s) and "
                  "support is not the declared half-space intersection")
    return ValidationResult(Verdict.INVALID, reason)


def _require_integer_weights(mask: ChamferMask):
    """Distances are exact int64 sums of weights, so other weights are
    refused rather than truncated."""
    if not _integer_weights(mask):
        raise EngineError("distance transforms need integer weights, got "
                          f"{sorted(set(mask.weights))}")


def _padded_setup(image: GridImage, mask: ChamferMask):
    dims = image.dims
    n = len(dims)
    pad = _mask_reach(mask)
    pdims = tuple(d + 2 * p for d, p in zip(dims, pad))
    inf = distance_bound(image, mask)
    dist = np.full(pdims, inf, dtype=np.int64)
    inner = tuple(slice(p, p + d) for p, d in zip(pad, dims))
    vals = image.values
    dist_inner = np.full(dims, inf, dtype=np.int64)
    dist_inner[vals == 0] = 0
    dist[inner] = dist_inner
    strides = np.array([int(np.prod(pdims[i + 1:])) for i in range(n)],
                       dtype=np.int64)
    return pad, pdims, inner, inf, dist, strides


def _level_slices(sigma):
    """Start/end index pairs of equal-sigma runs in a sorted sigma array."""
    if len(sigma) == 0:
        return []
    change = np.flatnonzero(np.diff(sigma)) + 1
    starts = np.concatenate([[0], change])
    ends = np.concatenate([change, [len(sigma)]])
    return list(zip(starts, ends))


def chamfer_two_scan(image: GridImage, mask: ChamferMask,
                     plan: ScanPlan | None = None, unsafe: bool = False,
                     decomposition: WedgeDecomposition | None = None
                     ) -> DistanceMap:
    """Two raster passes over the support, forward with the half-mask that
    looks back along the scan and backward with its mirror.

    Exact whenever validate_image does not return INVALID; on INVALID
    images it refuses.  ``unsafe`` skips validation altogether (its only
    effect is that refusal), so an invalid image is then transformed and
    the result is merely an upper bound.
    """
    _require_integer_weights(mask)
    if not unsafe:
        check = validate_image(mask, image, decomposition)
        if check.verdict is Verdict.INVALID:
            raise EngineError(
                f"image fails the validity check: {check.reason}")
    if plan is None:
        plan = make_scan_plan(mask)

    pad, pdims, inner, inf, dist, strides = _padded_setup(image, mask)
    flat, sigma = scan_order(image, plan.normal)
    # Re-express support indices in the padded array.
    coords = np.array(np.unravel_index(flat, image.dims)).T + np.array(pad)
    pflat = coords @ strides
    levels = _level_slices(sigma)

    d = dist.ravel()
    for half, ordered in ((plan.half1, levels), (plan.half2, reversed(levels))):
        # All half-mask neighbours of a level in one stacked gather; points
        # of one level never read each other since a . v != 0.
        offs = np.array([int(np.dot(strides, v)) for v, _w in half],
                        dtype=np.int64)[:, None]
        wts = np.array([w for _v, w in half])[:, None]
        for s, e in ordered:
            idx = pflat[s:e]
            cur = d[idx]
            np.minimum(cur, (d[idx + offs] + wts).min(0), out=cur)
            d[idx] = cur

    out = np.full(image.dims, inf, dtype=np.int64)
    out_flat = out.ravel()
    out_flat[flat] = d[pflat]
    # np.ndarray.ravel copies here only if non-contiguous; out is contiguous.
    out = out_flat.reshape(image.dims)
    return DistanceMap(image.lattice, image.origin, out, inf)


def dijkstra_oracle(image: GridImage, mask: ChamferMask) -> DistanceMap:
    """Exact in-image path distance, label-setting from all background
    points.  Works on any image and in no scan order; reference semantics.

    Weights are positive integers, so this is Dial's bucket queue: bucket
    k holds the points last improved to distance k.  The smallest
    non-empty bucket is settled at once, and every mask vector is relaxed
    from it in one stacked (vectors, points) gather, stepping from u to
    u + v; each improved target goes into bucket k + w.  Empty distances
    are skipped, so the cost is one round of numpy calls per distinct
    distance value plus O(|mask|) work per support point, whatever the
    size of the weights.

    The support sits in a margin as wide as the mask, so a neighbour's
    flat index needs no bounds check; non-support slots hold -1 while the
    buckets run, which no candidate distance improves on."""
    _require_integer_weights(mask)
    pad, pdims, inner, inf, dist, strides = _padded_setup(image, mask)
    sup = np.zeros(pdims, dtype=bool)
    sup[inner] = image.support
    dist[~sup] = -1
    d = dist.ravel()
    # Vectors sorted by weight, so that each weight is one run of rows.
    weights = np.array(mask.weights, dtype=np.int64)
    order = np.argsort(weights, kind="stable")
    offs = (np.array(mask.vectors, dtype=np.int64) @ strides)[order, None]
    wts = weights[order, None]
    runs = [(int(wts[s, 0]), s, e) for s, e in _level_slices(wts[:, 0])]
    # slot[i] keeps one position of i in the candidate list, so duplicates
    # drop out without a sort.
    slot = np.empty(d.size, dtype=np.intp)
    buckets = {0: [np.flatnonzero(d == 0)]}
    while buckets:
        k = min(buckets)
        cand = np.concatenate(buckets.pop(k))
        # Entries improved again after their push are stale.  d only falls
        # and k only grows, so d == k also means not settled before.
        cand = cand[d[cand] == k]
        slot[cand] = np.arange(cand.size)
        settled = cand[slot[cand] == np.arange(cand.size)]
        targets = settled + offs
        better = k + wts < d[targets]
        if not better.any():
            continue
        # Heaviest weight first, so a target improved by several weights
        # ends on the lightest; the heavier pushes go stale.
        for w, s, e in reversed(runs):
            improved = targets[s:e][better[s:e]]
            if improved.size:
                d[improved] = k + w
                buckets.setdefault(k + w, []).append(improved)
    out = np.where(sup[inner], dist[inner], inf)
    return DistanceMap(image.lattice, image.origin, out, inf)


def parallel_iterative_oracle(image: GridImage, mask: ChamferMask
                              ) -> DistanceMap:
    """Synchronous full-mask min-update sweeps until fixpoint.  A shortest
    path visits each support point at most once, so more sweeps than
    support points mean a fault, which raises EngineError."""
    _require_integer_weights(mask)
    pad, pdims, inner, inf, dist, strides = _padded_setup(image, mask)
    sup = image.support
    dims = image.dims
    sweeps = 0
    limit = int(np.count_nonzero(sup)) + 1
    while True:
        prev = dist[inner].copy()
        best = prev.copy()
        for v, w in zip(mask.vectors, mask.weights):
            shifted = dist[tuple(slice(p + c, p + c + d)
                                 for p, c, d in zip(pad, v, dims))]
            np.minimum(best, shifted + int(w), out=best)
        new = np.where(sup, best, inf)
        if np.array_equal(new, prev):
            break
        dist[inner] = new
        sweeps += 1
        if sweeps > limit:
            raise EngineError("iterative oracle failed to stabilize")
    out = np.where(sup, dist[inner], inf)
    return DistanceMap(image.lattice, image.origin, out, inf)


def generate_ball(mask: ChamferMask, radius,
                  decomposition: WedgeDecomposition | None = None):
    """Points p with chamfer distance d(O, p) <= radius, via a
    single-background-point transform on a sufficient box.

    Box extent per axis: radius/w stretches a mask vector at most
    radius/w times, so |p_i| <= radius * max_k |v_k^i| / w_k; one extra
    step of margin keeps every shortest path inside the box.
    """
    if radius < 0:
        raise EngineError("radius must be nonnegative")
    ext = []
    for i, margin in enumerate(_mask_reach(mask)):
        bound = max(abs(v[i]) / w for v, w in zip(mask.vectors, mask.weights))
        ext.append(int(np.ceil(radius * bound)) + margin)
    dims = tuple(2 * e + 1 for e in ext)
    origin = tuple(-e for e in ext)
    fg = np.ones(dims, dtype=bool)
    fg[tuple(e for e in ext)] = False  # origin is the single background point
    image = GridImage.from_foreground(mask.lattice, origin, fg)
    dmap = chamfer_two_scan(image, mask, unsafe=True,
                            decomposition=decomposition)
    inside = (dmap.values <= radius) & image.support
    grids = image.coordinate_grids()
    pts = np.stack([g[inside] for g in grids], axis=1)
    points = sorted(map(tuple, pts.tolist()))
    return points, dmap
