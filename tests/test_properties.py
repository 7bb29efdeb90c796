"""Cross-cutting properties: norm axioms of convex masks, containment of
shortest paths in well-shaped images, and search-table consistency."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import orbit_mask
from fan_reference import locate
from latticedt.chamfer_mask import ChamferMask, build_wedges
from latticedt.dt_engine import GridImage, dijkstra_oracle, validate_image, Verdict
from latticedt.lattice import square_lattice
from latticedt.presets import preset_geometry, preset_mask
from latticedt.weight_opt import search_integer_weights

coord = st.integers(-40, 40)

DECOMP = build_wedges(preset_mask("bcc3", (13, 15, 22)))


@given(st.tuples(coord, coord, coord), st.tuples(coord, coord, coord))
@settings(max_examples=200, deadline=None)
def test_triangle_inequality_closed_form(p, q):
    decomp = DECOMP
    lat = decomp.mask.lattice
    if not (lat.member(p) and lat.member(q)):
        return
    s = tuple(a + b for a, b in zip(p, q))
    dp = decomp.closed_form_distance(p)
    dq = decomp.closed_form_distance(q)
    ds = decomp.closed_form_distance(s)
    assert ds <= dp + dq


@given(st.tuples(coord, coord, coord), st.integers(1, 5))
@settings(max_examples=200, deadline=None)
def test_homogeneity_closed_form(p, lam):
    decomp = DECOMP
    if not decomp.mask.lattice.member(p):
        return
    assert decomp.closed_form_distance(tuple(lam * c for c in p)) == \
        lam * decomp.closed_form_distance(p)


@given(st.tuples(coord, coord, coord))
@settings(max_examples=200, deadline=None)
def test_locate_reconstructs_point(p):
    decomp = DECOMP
    lat = decomp.mask.lattice
    if not lat.member(p):
        return
    _idx, wedge, co = locate(decomp, p)
    assert all(c >= 0 for c in co)
    assert all(c.denominator == 1 for c in co)
    for i in range(3):
        assert sum(c * v[i] for c, v in zip(co, wedge.vectors)) == p[i]


def test_paths_stay_inside_wedge_preserving_support(diagonal_mask):
    """On a wedge-preserving image the in-image distance equals the
    distance computed on an enlarged canvas (shortest paths never need to
    leave the support)."""
    lat = square_lattice()
    box = GridImage.from_foreground(lat, (0, 0), np.ones((13, 6), bool))
    img = box.carved([((1, 1), 5, 12), ((0, 1), 0, 5)])
    vals = img.values.copy()
    vals[5, 1] = 0
    vals[6, 4] = 0
    img = GridImage(lat, (0, 0), vals, img.carve)
    assert validate_image(diagonal_mask, img).verdict is \
        Verdict.WEDGE_PRESERVING
    restricted = dijkstra_oracle(img, diagonal_mask)

    # Enlarged canvas: same support values, but foreground everywhere else.
    big = np.ones((23, 16), dtype=np.int8)
    big[5:5 + 13, 5:5 + 6] = np.where(img.values < 0, 1, img.values)
    wide = GridImage(lat, (-5, -5), big)
    unrestricted = dijkstra_oracle(wide, diagonal_mask)
    sup = img.support
    assert np.array_equal(restricted.values[sup],
                          unrestricted.values[5:18, 5:11][sup])


@given(st.integers(2, 14))
@settings(max_examples=12, deadline=None)
def test_search_rows_scale_consistency(max_weight):
    rows = search_integer_weights(preset_geometry("fcc2"), max_weight)
    for r in rows:
        assert 0 < r.scale
        assert 0 <= r.error < 1
        w1, w2 = r.weights
        assert w1 <= w2 <= 2 * w1
        assert np.gcd(w1, w2) == 1


def test_adding_redundant_vector_keeps_oracle_distances():
    lat = square_lattice()
    base = orbit_mask(lat, [((1, 0), 3), ((1, 1), 4)])
    # (2, 1) at weight 8 is strictly inside the normalized polytope
    # (the two-step path (1,0)+(1,1) already costs 7).
    extended = orbit_mask(lat, [((1, 0), 3), ((1, 1), 4), ((2, 1), 8)])
    fg = np.ones((15, 15), dtype=bool)
    fg[7, 7] = False
    img = GridImage.from_foreground(lat, (0, 0), fg)
    a = dijkstra_oracle(img, base).values
    b = dijkstra_oracle(img, extended).values
    assert np.array_equal(a, b)
