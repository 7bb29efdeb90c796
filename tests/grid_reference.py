"""The full-box forms of two grid passes that ``latticedt`` now computes
with less work.  Tests compare the library with these bit for bit.

``full_box_member_grid`` evaluates every congruence of the lattice over
the whole box, where ``Lattice.member_grid`` evaluates them on one period
and tiles it.  ``border_union_offenders`` unions, per mask vector, the
support points whose neighbor leaves the support, where ``validate_image``
intersects the foreground with every shifted support."""

import numpy as np

from latticedt.dt_engine import _mask_reach


def full_box_member_grid(lattice, origin, dims):
    """Membership of every slot of the box: adj . p = 0 (mod covolume) for
    each distinct adjugate row, as a sum of per-axis residues."""
    dims = tuple(int(d) for d in dims)
    m = lattice.covolume
    ok = np.ones(dims, dtype=bool)
    if m == 1:
        return ok
    axes = np.ogrid[tuple(slice(o, o + d) for o, d in zip(origin, dims))]
    small = np.min_scalar_type(lattice.dim * (m - 1))
    rows = {tuple(c % m for c in row) for row in lattice._adjugate}
    for row in sorted(rows - {(0,) * lattice.dim}):
        acc = sum((c * x % m).astype(small) for c, x in zip(row, axes))
        ok &= acc % m == 0
    return ok


def border_union_offenders(mask, image):
    """Foreground points with a mask neighbor outside the support, as the
    union over the mask vectors of sup & ~shifted support."""
    sup = image.support
    fg = image.values == 1
    dims = image.dims
    pad = _mask_reach(mask)
    padded = np.zeros(tuple(d + 2 * p for d, p in zip(dims, pad)), dtype=bool)
    padded[tuple(slice(p, p + d) for p, d in zip(pad, dims))] = sup
    border = np.zeros(dims, dtype=bool)
    for v in mask.vectors:
        shifted = padded[tuple(slice(p + c, p + c + d)
                               for p, c, d in zip(pad, v, dims))]
        border |= sup & ~shifted
    return border & fg
