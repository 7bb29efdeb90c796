"""Per-wedge references for the wedge fan, kept for the tests to compare
against: exact Cramer coordinates in a wedge's basis, the wedge containing
a point, the fan's rho_max as a float loop over each wedge's faces
(the library scores each distinct face once, in weight_opt._fan_rho2), and
the 3D fan built one queued wedge at a time (the library refines a whole
generation of wedges per numpy pass, in chamfer_mask._build_wedges_nd)."""

import itertools
import math
from fractions import Fraction

import numpy as np

from latticedt.chamfer_mask import MaskError, Wedge, WedgeDecomposition
from latticedt.lattice import LatticeError, adjugate, int_det


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


def locate(decomp, point):
    """Lowest-index wedge whose closed cone contains ``point``, with the
    exact coefficients.  Raises MaskError if none matches (impossible for
    a complete fan and a lattice point)."""
    for idx, w in enumerate(decomp.wedges):
        co = cramer_coefficients(w.vectors, point)
        if all(c >= 0 for c in co):
            return idx, w, co
    raise MaskError(f"no wedge contains {point}")


def linear_form(wedge, spacing=None):
    """The vector l with l . v_k = w_k for every generator (as floats, in
    physical coordinates if ``spacing`` is given)."""
    # M^T l = w for M with the generators as columns: l = adj(M)^T w / det.
    adj, det = adjugate(wedge.vectors), int_det(wedge.vectors)
    form = [sum(row[i] * w for row, w in zip(adj, wedge.weights)) / det
            for i in range(len(wedge.vectors))]
    if spacing is not None:
        form = [f / s for f, s in zip(form, spacing)]
    return tuple(float(f) for f in form)


def cone_projection_max(l_phys, gens_phys, eps=1e-12):
    """Maximum of (l . p) / |p| over the cone spanned by ``gens_phys``.

    Equals the norm of the projection of l onto the cone: enumerate faces
    (generator subsets), project l onto each span, keep projections whose
    cone coordinates are nonnegative.
    """
    n = len(gens_phys)
    best = 0.0
    for r in range(1, n + 1):
        for subset in itertools.combinations(range(n), r):
            U = np.array([gens_phys[k] for k in subset], dtype=float)
            G = U @ U.T
            b = U @ np.asarray(l_phys, dtype=float)
            t = np.linalg.solve(G, b)
            if np.all(t >= -eps):
                best = max(best, float(t @ b))
    return math.sqrt(best)


def wedge_ratio_max(wedge, spacing):
    """Maximum chamfer/Euclidean ratio over one wedge's cone."""
    gens = [tuple(s * c for s, c in zip(spacing, v)) for v in wedge.vectors]
    return cone_projection_max(linear_form(wedge, spacing), gens)


def fan_rho_max(decomp):
    """The fan's rho_max, one wedge at a time."""
    spacing = decomp.mask.lattice.spacing
    return max(wedge_ratio_max(w, spacing) for w in decomp.wedges)


def build_wedges_nd(mask):
    """The 3D wedge fan by depth-first mediant refinement, one popped wedge
    per round of numpy calls: wedges, split relations (in the order the
    walk records them) and refusals as chamfer_mask.build_wedges gives."""
    covol = mask.lattice.covolume
    weight = dict(zip(mask.vectors, mask.weights))
    n = mask.dim
    vecs = sorted(mask.vectors,
                  key=lambda v: (sum(c * c for c in v), v))
    seed = None
    for comb in itertools.combinations(vecs, n):
        if abs(int_det(comb)) == covol:
            seed = comb
            break
    if seed is None:
        raise MaskError("no subset of mask vectors forms a lattice basis")

    V = np.array(mask.vectors, dtype=np.int64)
    norm2 = (V * V).sum(axis=1).tolist()
    queue = [tuple(tuple(s * c for c in v) for s, v in zip(signs, seed))
             for signs in itertools.product((1, -1), repeat=n)]
    done = set()
    final = []
    splits = []
    while queue:
        w = queue.pop()
        key = tuple(sorted(w))
        if key in done:
            continue
        done.add(key)
        # Coordinates of every mask vector in the basis w, times |det(w)|
        # (= covolume: unit-coefficient splits keep the determinant).
        co = V @ np.array(adjugate(w)).T * np.sign(int_det(w))
        inside = np.flatnonzero((co >= 0).all(axis=1)
                                & ((co > 0).sum(axis=1) >= 2))
        if not len(inside):
            final.append(w)
            continue
        total = co.sum(axis=1).tolist()
        contained = sorted(inside.tolist(), key=lambda j: (
            total[j], norm2[j], mask.vectors[j]))
        unit = ((co == 0) | (co == covol)).all(axis=1)
        picked = next((j for j in contained if unit[j]), None)
        if picked is None:
            u = mask.vectors[contained[0]]
            raise MaskError(
                f"mask vector {u} cannot split wedge {w} into lattice bases")
        u = mask.vectors[picked]
        parents = [k for k in range(n) if co[picked, k] > 0]
        splits.append((u, tuple(sorted((w[k], 1) for k in parents))))
        for k in parents:
            child = list(w)
            child[k] = u
            queue.append(tuple(child))

    wedges = sorted(set(tuple(sorted(w)) for w in final))
    out = []
    for w in wedges:
        d = int_det(w)
        if abs(d) != covol:  # cannot happen with unit-coefficient splits
            raise MaskError(f"wedge {w} is not a lattice basis")
        out.append(Wedge(w, tuple(weight[v] for v in w)))
    # Split relations, deduplicated on (child, parent multiset).
    return WedgeDecomposition(mask, tuple(out), tuple(dict.fromkeys(splits)))
