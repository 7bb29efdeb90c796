"""The two-scan as one stacked gather per level of sigma = a . p over the
``scan_order`` of the plan's normal, plus the check that an order supports
a half-mask.  Tests compare ``chamfer_two_scan`` with this bit for bit."""

import numpy as np

from latticedt.dt_engine import (
    DistanceMap,
    _level_slices,
    _padded_setup,
    scan_order,
)


def level_loop_two_scan(image, mask, plan):
    """Forward over the levels of ascending sigma with plan.half1, then
    backward with plan.half2; points of one level never read each other,
    since a . v != 0 for every mask vector."""
    pad, pdims, inner, inf, dist, strides = _padded_setup(image, mask)
    flat, sigma = scan_order(image, plan.normal)
    coords = np.array(np.unravel_index(flat, image.dims)).T + np.array(pad)
    pflat = coords @ strides
    levels = _level_slices(sigma)
    d = dist.ravel()
    for half, ordered in ((plan.half1, levels),
                          (plan.half2, reversed(levels))):
        offs = np.array([int(np.dot(strides, v)) for v, _w in half],
                        dtype=np.int64)[:, None]
        wts = np.array([w for _v, w in half], dtype=np.int64)[:, None]
        for s, e in ordered:
            idx = pflat[s:e]
            cur = d[idx]
            np.minimum(cur, (d[idx + offs] + wts).min(0), out=cur)
            d[idx] = cur
    out = np.full(image.dims, inf, dtype=np.int64)
    out.ravel()[flat] = d[pflat]
    return DistanceMap(image.lattice, image.origin, out, inf)


def order_supported_by(image, flat_order, half):
    """Every half-mask neighbour of each point is earlier in the order or
    outside the support (quadratic-ish; for small images)."""
    pos = {int(f): i for i, f in enumerate(flat_order)}
    dims = image.dims
    coords = np.array(np.unravel_index(flat_order, dims)).T
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
