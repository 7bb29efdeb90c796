"""Distance transforms: the two-scan chamfer algorithm plus two oracles.

Images are binary (foreground = 1, background = 0) over the lattice points
of an axis-aligned box, optionally carved down by extra half-space
constraints.  The transform assigns every foreground point the minimum
total weight of a mask-vector path to a background point, with all path
points inside the image support.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

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
        values = (fg & member).view(np.int8) - (~member).view(np.int8)
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
    """The lexicographic split: half1 holds the mask vectors whose first
    nonzero coordinate is negative, half2 their mirrors.

    The normal a = (N^{n-1}, ..., N, 1) with N = reach + 1 orders every
    mask vector the same way, since the coordinates after the first
    nonzero one add up to less than N^k in size: a . v < 0 exactly on
    half1."""
    n = mask.dim
    N = 1 + max(_mask_reach(mask))
    zero = (0,) * n
    entries = tuple(zip(mask.vectors, mask.weights))
    return ScanPlan(tuple(N ** (n - 1 - i) for i in range(n)),
                    tuple(e for e in entries if e[0] < zero),
                    tuple(e for e in entries if e[0] > zero))


def scan_order(image: GridImage, a):
    """Indices of support points sorted by ascending a . p, ties broken by
    lexicographic coordinate order.  Returns (flat_indices, sigma).

    A raster order that supports the half-masks of the plan with normal
    ``a``; the two-scan itself walks rows instead (see chamfer_two_scan).
    The support is listed in C order, which is lexicographic, so a stable
    sort on sigma alone keeps that tie-break."""
    axes = np.ogrid[tuple(slice(o, o + d)
                          for o, d in zip(image.origin, image.dims))]
    sup = image.support
    sigma = sum(int(ai) * x for ai, x in zip(a, axes))[sup]
    order = np.argsort(sigma, kind="stable")
    flat = np.flatnonzero(sup)[order]
    return flat, sigma[order]


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
    # Foreground points whose every mask neighbor lies in the support.
    inside = fg.copy()
    for v in mask.vectors:
        inside &= padded[tuple(slice(p + c, p + c + d)
                               for p, c, d in zip(pad, v, dims))]
    offenders = fg & ~inside
    if not offenders.any():
        return ValidationResult(Verdict.BORDER_BACKGROUND)

    # Wedge-preserving test on the bounding half-spaces of the support.
    # Without carving these are the box faces; a carved image is judged by
    # its declared half-spaces alone, which must reproduce the support
    # exactly (including an empty margin ring around the box, so the
    # declaration really bounds it).
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
        if decomposition is None:
            decomposition = build_wedges(mask)
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


def _padded_setup(image: GridImage, mask: ChamferMask, pad=None):
    """Distances in a margin of ``pad`` slots per side (the mask reach by
    default): 0 on background points, ``inf`` everywhere else."""
    dims = image.dims
    if pad is None:
        pad = _mask_reach(mask)
    pdims = tuple(d + 2 * p for d, p in zip(dims, pad))
    inf = distance_bound(image, mask)
    dist = np.full(pdims, inf, dtype=np.int64)
    inner = tuple(slice(p, p + d) for p, d in zip(pad, dims))
    dist[inner][image.values == 0] = 0
    strides = np.array(dist.strides, dtype=np.int64) // dist.itemsize
    return pad, pdims, inner, inf, dist, strides


def _level_slices(sigma):
    """Start/end index pairs of equal-sigma runs in a sorted sigma array."""
    if len(sigma) == 0:
        return []
    change = np.flatnonzero(np.diff(sigma)) + 1
    starts = np.concatenate([[0], change])
    ends = np.concatenate([change, [len(sigma)]])
    return list(zip(starts, ends))


# Bytes of weights a pass may hold in a contiguous copy per view shape.
# Numpy adds contiguous operands several times faster than a slice of
# the widest view's weights while they stay in cache, and no faster once
# they do not.
_WEIGHT_BYTES = 8 << 20

# What one more stacked read per wavefront step costs, in slots.  Its
# numpy calls cost about this much on 68^3 to 108^3 boxes and more on
# small ones; with it z3-3, bcc2 and fcc2 take one read, bcc3 two and fcc3
# three, the fastest groupings measured on 18^3 to 108^3 boxes.
_VIEW_COST = 8


class _Wavefront(NamedTuple):
    """How one pass walks a lattice, in 3D coordinates (a 2D lattice gets
    a leading coordinate 0).

    Rows are the lines along the last axis.  Row (x, y) belongs to
    wavefront t = skew * x + y, and the rows of one t that lie
    ``row_step`` apart along (1, -skew, 0) form one strided view.  The
    lattice points of row (x, y) are z = phase[x % m, y % m] (mod
    ``period``), m the covolume, or none where that is -1.  ``inrow`` lists the in-row
    steps (k, w), the vectors (0, 0, -k * period).  ``reads`` holds the
    stacked cross-row reads (basis, lo, weights): the slots
    (lo + k) @ basis for k over the box ``weights.shape``, with weight -1
    where a slot is not in the half-mask.  ``reach`` is, per axis, the
    farthest any slot reads."""

    skew: int
    row_step: int
    period: int
    phase: np.ndarray
    inrow: tuple
    reads: tuple
    reach: tuple


def _best_box(lattice_basis, vectors, span):
    """Smallest box of lattice coordinates holding ``vectors``, over the
    lower-triangular bases (h0, Y, Z), (0, h1, Z2), (0, 0, p) of the
    lattice with |Y|, |Z|, |Z2| <= span.  Returns (slots, basis, lo, k)
    with k the coordinates of each vector relative to lo."""
    (h0, y1, z1), (h1, z2), p = lattice_basis
    shears = [(Y, Z, Z2)
              for i in range(-span // h1 - 1, span // h1 + 2)
              for Y in (y1 + i * h1,) if abs(Y) <= span
              for Z in range(-span, span + 1)
              if (Z - z1 - i * z2) % p == 0
              for Z2 in range(-span, span + 1) if (Z2 - z2) % p == 0]
    Y, Z, Z2 = (np.array(c, dtype=np.int64)[:, None] for c in zip(*shears))
    dx, dy, dz = np.array(vectors, dtype=np.int64).T
    k1 = np.broadcast_to(dx // h0, Y.shape[:1] + dx.shape)
    k2 = (dy - k1 * Y) // h1
    k3 = (dz - k1 * Z - k2 * Z2) // p
    ks = (k1, k2, k3)
    size = np.prod([k.max(1) - k.min(1) + 1 for k in ks], axis=0)
    best = int(np.argmin(size))
    basis = ((h0, int(Y[best, 0]), int(Z[best, 0])),
             (0, h1, int(Z2[best, 0])), (0, 0, p))
    lo = tuple(int(k[best].min()) for k in ks)
    rel = np.stack([k[best] - l for k, l in zip(ks, lo)], axis=1)
    return int(size[best]), basis, lo, rel


def _wavefront(lattice: Lattice, half: tuple) -> _Wavefront:
    """The walk of a pass with the lexicographically negative ``half``.

    The cross-row reads are grouped by runs of x offsets, one stacked view
    each, choosing the grouping with the fewest slots plus _VIEW_COST per
    extra view.  The point itself joins the run at x offset 0 as a slot of
    weight 0."""
    lift = (0,) * (3 - lattice.dim)

    def member(q):
        return lattice.member(q[len(lift):])

    m = lattice.covolume
    vecs = [(lift + tuple(v), int(w)) for v, w in half]
    period = next(k for k in range(1, m + 1) if member((0, 0, k)))
    inrow = tuple(sorted((-v[2] // period, w) for v, w in vecs
                         if v[:2] == (0, 0)))
    cross = [(v, w) for v, w in vecs if v[:2] != (0, 0)] + [((0, 0, 0), 0)]
    phase = np.array([[next((z for z in range(period) if member((x, y, z))),
                            -1) for y in range(m)] for x in range(m)])
    phase.flags.writeable = False

    def row_step(s):
        return next(a for a in range(1, m + 1) if member((a, -s * a, 0)))

    def one_phase(s):
        a = row_step(s)
        return all(sum(phase[c % m, (t - s * c) % m] >= 0
                       for c in range(a)) <= 1 for t in range(m))

    # s * dx + dy < 0 for every cross-row vector, so that a row reads only
    # rows of earlier wavefronts; among the next few skews, prefer one
    # whose wavefronts hold a single z phase, so one view per step.
    least = max([0] + [dy // -dx + 1 for (dx, dy, _z), _w in cross if dx < 0])
    skew = next((s for s in range(least, least + m) if one_phase(s)), least)

    basis = (next((x, y, z) for x in range(1, m + 1) for y in range(m)
                  for z in range(m) if member((x, y, z))),
             next((y, z) for y in range(1, m + 1) for z in range(m)
                  if member((0, y, z))),
             period)
    span = 2 * max((abs(c) for v, _w in vecs for c in v), default=0) + m
    xs = sorted({v[0] for v, _w in cross})
    runs = {}
    for i in range(len(xs)):
        for j in range(i, len(xs)):
            group = [(v, w) for v, w in cross if xs[i] <= v[0] <= xs[j]]
            runs[i, j] = _best_box(basis, [v for v, _w in group], span), group
    best = None
    for cuts in itertools.product((False, True), repeat=len(xs) - 1):
        bounds = [0] + [k + 1 for k, c in enumerate(cuts) if c] + [len(xs)]
        parts = [runs[a, b - 1] for a, b in zip(bounds, bounds[1:])]
        cost = sum(r[0][0] for r in parts) + _VIEW_COST * (len(parts) - 1)
        if best is None or cost < best[0]:
            best = (cost, parts)
    reads, reach = [], [0, 0, 0]
    for (_size, B, lo, rel), group in best[1]:
        weights = np.full(tuple(rel.max(0) + 1), -1, dtype=np.int64)
        weights[tuple(rel.T)] = [w for _v, w in group]
        weights.flags.writeable = False
        corners = np.array(list(itertools.product(
            *((l, l + n - 1) for l, n in zip(lo, weights.shape)))))
        reach = np.maximum(reach, np.abs(corners @ np.array(B)).max(0))
        reads.append((B, lo, weights))
    return _Wavefront(skew, row_step(skew), period, phase, inrow,
                      tuple(reads), tuple(int(r) for r in reach))


@functools.lru_cache(maxsize=64)
def _passes(lattice: Lattice, plan: ScanPlan) -> tuple:
    """The walks of the forward pass (half1) and of the backward pass,
    which is the forward walk of the mirrored half2 over the reversed
    array.  Refuses a plan that is not the lexicographic split."""
    zero = (0,) * lattice.dim
    if not (all(tuple(v) < zero for v, _w in plan.half1)
            and all(tuple(v) > zero for v, _w in plan.half2)):
        raise EngineError("the two-scan needs the lexicographic split of "
                          "make_scan_plan: half1 vectors lead with a "
                          "negative coordinate, half2 vectors with a "
                          "positive one")
    return (_wavefront(lattice, plan.half1),
            _wavefront(lattice, tuple((tuple(-c for c in v), w)
                                      for v, w in plan.half2)))


def _rows(wave: _Wavefront, corner, lo, hi, base, strides):
    """The views of one pass in wavefront order, as [offset, rows, points
    per row]: the element of the view's first lattice point in a flat
    buffer whose padded index i sits at base + i @ strides, and the
    view's shape.  Index 0 of the padded array sits at the point
    ``corner``; the views cover the index box [lo, hi)."""
    s, a, p = wave.skew, wave.row_step, wave.period
    m = len(wave.phase)
    t = np.arange(s * lo[0] + lo[1], s * (hi[0] - 1) + hi[1])
    if s:
        x0 = np.maximum(lo[0], -((hi[1] - 1 - t) // s))
        x1 = np.minimum(hi[0] - 1, (t - lo[1]) // s)
    else:
        x0, x1 = np.full_like(t, lo[0]), np.full_like(t, hi[0] - 1)
    # One candidate view per class of x mod a in each wavefront.
    x = (x0[:, None] + np.arange(a)).ravel()
    x1 = np.repeat(x1, a)
    y = np.repeat(t, a) - s * x
    phase = wave.phase[(corner[0] + x) % m, (corner[1] + y) % m]
    z = lo[2] + (phase - corner[2] - lo[2]) % p
    keep = (x <= x1) & (phase >= 0) & (z < hi[2])
    views = np.stack([base + x * strides[0] + y * strides[1]
                      + z * strides[2], (x1 - x) // a + 1,
                      (hi[2] - z + p - 1) // p], axis=1)
    return views[keep].tolist()


def _sweep(buf, strides, views, wave: _Wavefront, inf, support):
    """One pass over the flat distances ``buf`` (``strides`` per padded
    index).

    Every view of a wavefront reads its cross-row neighbours (and itself)
    from earlier wavefronts, one stacked read per run of x offsets, then
    takes the in-row steps as a running minimum along each row: with the
    ramp r(j) = w * (j // k) folded into the slot weights,
    d(j) = min(c(j), d(j - k) + w) is r(j) + cummin(c - r)(j).
    ``support`` (flat bool, or None when every lattice point of the box
    is in the support) switches to a point-by-point in-row step that
    stops at points outside the support."""
    item = buf.itemsize
    rs = wave.row_step * (strides[0] - wave.skew * strides[1]) * item
    zs = wave.period * strides[2] * item
    rmax = max((v[1] for v in views), default=0)
    zmax = max((v[2] for v in views), default=0)
    j = np.arange(zmax, dtype=np.int64)
    ramps = [w * (j // k) for k, w in wave.inrow] or [0 * j]
    reads, slots = [], 0
    for B, lo, weights in wave.reads:
        steps = [sum(map(operator.mul, b, strides)) for b in B]
        reads.append((sum(map(operator.mul, lo, steps)), weights.shape,
                      tuple(st * item for st in steps) + (rs, zs),
                      slice(slots, slots + weights.size)))
        slots += weights.size
    # The point itself is the slot of weight 0, in the last read.
    here = tuple(int(i[0]) for i in np.nonzero(wave.reads[-1][2] == 0))
    # All slots of all reads land in one scratch block, slot-major, so a
    # single reduction takes their minimum.  The weights, ramp folded in,
    # are laid out the same way: for the widest view per row length, and
    # copied contiguous per view shape while _WEIGHT_BYTES lasts.
    wts = np.concatenate([w.ravel() for _B, _lo, w in wave.reads])
    wts[wts < 0] = inf
    scratch = np.empty(slots * rmax * zmax, dtype=np.int64)
    keys = np.empty(rmax * zmax, dtype=np.int64)
    W, shaped, budget = {}, {}, _WEIGHT_BYTES
    for off, R, nz in views:
        if nz not in W:
            W[nz] = np.ascontiguousarray(np.broadcast_to(
                wts[:, None, None] - ramps[0][:nz], (slots, rmax, nz)))
        if (R, nz) not in shaped:
            block = scratch[:slots * R * nz].reshape(slots, R, nz)
            w = W[nz][:, :R]
            if w.nbytes <= budget:
                w = w.copy()
                budget -= w.nbytes
            shaped[R, nz] = (block, keys[:R * nz].reshape(R, nz),
                             w, [r[:nz] for r in ramps],
                             [(block[part].reshape(shape + (R, nz)),
                               (off_start, shape + (R, nz), bstr))
                              for off_start, shape, bstr, part in reads])
        block, key, w, ramp, parts = shaped[R, nz]
        for dest, (start, shape, bstr) in parts:
            stack = np.ndarray(shape, np.int64, buf, (off + start) * item,
                               bstr)
            np.copyto(dest, stack)
        view = stack[here]
        np.add(block, w, out=block)
        np.minimum.reduce(block, axis=0, out=key)
        if support is None:
            for i, (k, _w) in enumerate(wave.inrow):
                if i:
                    key += ramp[i - 1] - ramp[i]
                if k == 1:
                    np.minimum.accumulate(key, axis=1, out=key)
                    continue
                for r in range(k):
                    run = key[:, r::k]
                    np.minimum.accumulate(run, axis=1, out=run)
            np.add(key, ramp[-1], out=view)
            continue
        key += ramp[0]
        inside = np.ndarray((R, nz), np.bool_, support, off,
                            (rs // item, zs // item))
        barrier = np.where(inside, 0, inf)
        for zi in range(nz):
            col = key[:, zi]
            for k, w in wave.inrow:
                if zi >= k:
                    np.minimum(col, key[:, zi - k] + w, out=col)
            np.maximum(col, barrier[:, zi], out=col)
        view[...] = key


def chamfer_two_scan(image: GridImage, mask: ChamferMask,
                     plan: ScanPlan | None = None, unsafe: bool = False,
                     decomposition: WedgeDecomposition | None = None
                     ) -> DistanceMap:
    """Two passes over the support, forward with the half-mask that looks
    back along the scan and backward with its mirror.

    Exact whenever validate_image does not return INVALID; on INVALID
    images it refuses.  ``unsafe`` skips validation altogether (its only
    effect is that refusal), so an invalid image is then transformed and
    the result is merely an upper bound.

    The passes take the plan's lexicographic split (any other plan is
    refused) and walk the rows along the last axis as a skewed
    wavefront: row (x, y) goes to step t = s * x + y, where s makes every
    forward cross-row vector (dx, dy, dz) have s * dx + dy < 0.  Each row
    reads only rows of earlier steps and, through the in-row step
    (0, ..., -k), earlier points of itself, so the steps in order are a
    scan order that supports the half-mask, and the pass is the exact
    sequential recursion d(p) = min(d(p), d(p + v) + w).  The rows of a
    step are independent and form strided views of the padded array; the
    backward pass is the forward one on the array reversed along every
    axis, with the mirrored half-mask.
    """
    _require_integer_weights(mask)
    if not unsafe:
        check = validate_image(mask, image, decomposition)
        if check.verdict is Verdict.INVALID:
            raise EngineError(
                f"image fails the validity check: {check.reason}")
    lattice = image.lattice
    lift = 3 - lattice.dim
    forward, backward = _passes(lattice, plan or make_scan_plan(mask))
    pad = tuple(max(f, b) for f, b in zip(forward.reach[lift:],
                                          backward.reach[lift:]))
    pad, pdims, inner, inf, dist, strides = _padded_setup(image, mask, pad)
    buf = dist.reshape(-1)
    lo = (0,) * lift + pad
    hi = tuple(p + d for p, d in zip(lo, (1,) * lift + image.dims))
    origin = (0,) * lift + image.origin
    first = [o - p for o, p in zip(origin, lo)]
    last = [-(o + h - l - 1) - l for o, l, h in zip(origin, lo, hi)]
    s3 = (0,) * lift + tuple(int(s) for s in strides)
    flip = tuple(-s for s in s3)
    down = _rows(forward, first, lo, hi, 0, s3)
    up = _rows(backward, last, lo, hi, buf.size - 1, flip)
    support = None
    if sum(v[1] * v[2] for v in down) != np.count_nonzero(image.support):
        sup = np.zeros(pdims, dtype=bool)
        sup[inner] = image.support
        support = sup.reshape(-1)
    _sweep(buf, s3, down, forward, inf, support)
    _sweep(buf, flip, up, backward, inf, support)
    return DistanceMap(image.lattice, image.origin, dist[inner].copy(), inf)


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
