"""The convex hull of {v / w} by trying every n-subset of the mask vectors,
with cone_is_linear run on every facet.  Tests compare
``chamfer_mask.polar_vertices`` with this, facet for facet."""

import itertools
import math

import numpy as np

from latticedt.chamfer_mask import (
    ChamferMask,
    HullFacet,
    MaskError,
    _integer_weights,
    cone_is_linear,
)
from latticedt.lattice import batch_adjugate


def hull_facets(mask: ChamferMask) -> tuple:
    """Facets of the convex hull of {v / w} for an integer-weight mask.

    A facet plane l . x = 1 passes through n independent vertices v / w
    and has l . v <= w_v for every mask vector.  The n-subsets of the
    vectors are tried in blocks in exact int64 arithmetic (l * |det| is an
    integer vector); subsets with the same tight set give the same facet.
    """
    if not _integer_weights(mask):
        raise MaskError("the convex hull of {v / w} needs integer weights")
    n = mask.dim
    V = np.array(mask.vectors, dtype=np.int64)
    w = np.array(mask.weights, dtype=np.int64)
    # The vertices v / w farthest out reject most subsets: test them first.
    probe = np.argsort(-(V * V).sum(axis=1) / w / w, kind="stable")[:4 * n]
    combos = itertools.combinations(range(len(V)), n)
    facets = {}
    while True:
        subsets = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(combos, 8192)),
            dtype=np.intp).reshape(-1, n)
        if len(subsets) == 0:
            break
        adj, det = batch_adjugate(V[subsets])
        keep = det != 0
        subsets, adj, det = subsets[keep], adj[keep], det[keep]
        num = np.einsum("tij,tj->ti", adj, w[subsets]) * np.sign(det)[:, None]
        det = np.abs(det)
        ok = np.all(num @ V[probe].T <= det[:, None] * w[probe], axis=1)
        num, det = num[ok], det[ok]
        lhs = num @ V.T
        rhs = det[:, None] * w[None, :]
        for t in np.flatnonzero(np.all(lhs <= rhs, axis=1)).tolist():
            tight = tuple(np.flatnonzero(lhs[t] == rhs[t]).tolist())
            if tight in facets:
                continue
            g = math.gcd(*num[t].tolist(), int(det[t]))
            form = tuple(x // g for x in num[t].tolist())
            vecs = tuple(mask.vectors[i] for i in tight)
            facets[tight] = HullFacet(form, int(det[t]) // g, vecs,
                                      cone_is_linear(mask.lattice, vecs,
                                                     form))
    return tuple(facets.values())
