import hashlib
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import orbit_mask
from test_acceptance import WEIGHT_TABLES
from latticedt.chamfer_mask import (
    ChamferMask,
    MaskError,
    build_wedges,
    central_closure,
    convexity_report,
    farey_split,
    normalized_polytope,
)
from latticedt.dt_engine import GridImage, chamfer_two_scan
from latticedt.lattice import cramer_coefficients, int_det, square_lattice
from latticedt.presets import PRESET_NAMES, preset_geometry, preset_mask


def test_central_closure_adds_negations():
    table = central_closure([((1, 0), 3), ((1, 1), 4)])
    assert table == {(-1, -1): 4, (-1, 0): 3, (1, 0): 3, (1, 1): 4}


def test_central_closure_conflicts():
    with pytest.raises(MaskError):
        central_closure([((1, 0), 3), ((-1, 0), 4)])
    with pytest.raises(MaskError):
        central_closure([((0, 0), 1)])


def test_mask_requires_lattice_membership():
    from latticedt.lattice import fcc_lattice
    with pytest.raises(MaskError):
        ChamferMask.build(fcc_lattice(), [((1, 0, 0), 1)])


def test_mask_rejects_nonpositive_weights():
    with pytest.raises(MaskError):
        ChamferMask.build(square_lattice(), [((1, 0), 0)])


WEDGE_COUNTS = {
    "bcc1": 12, "bcc2": 24, "bcc3": 48, "bcc4": 96,
    "fcc1": 20, "fcc2": 32, "fcc3": 80, "fcc4": 96,
    "z2-1": 4, "z2-2": 8, "z3-3": 48,
}


@pytest.mark.parametrize("name,count", sorted(WEDGE_COUNTS.items()))
def test_wedge_counts(name, count):
    decomp = preset_geometry(name).reference_decomposition()
    assert len(decomp.wedges) == count


@pytest.mark.parametrize("name", ["bcc2", "fcc2", "fcc4", "z3-2"])
def test_wedges_are_lattice_bases(name):
    geom = preset_geometry(name)
    decomp = geom.reference_decomposition()
    covol = geom.lattice.covolume
    for w in decomp.wedges:
        assert abs(int_det(w.vectors)) == covol
    # No wedge strictly contains another mask vector.
    for w in decomp.wedges:
        for v in decomp.mask.vectors:
            if v in w.vectors:
                continue
            co = w.coefficients(v)
            assert not (all(c >= 0 for c in co)
                        and sum(1 for c in co if c > 0) >= 2)


def test_locate_and_closed_form_bcc():
    mask = preset_mask("bcc2", (13, 15))
    decomp = build_wedges(mask)
    idx, wedge, co = decomp.locate((2, 2, 0))
    # (2,2,0) = (1,1,1) + (1,1,-1): two corner steps.
    assert decomp.closed_form_distance((2, 2, 0)) == 26
    assert decomp.closed_form_distance((2, 0, 0)) == 15
    assert decomp.closed_form_distance((4, 2, 2)) == 41  # 2 corners + 1 axis
    assert decomp.closed_form_distance((0, 0, 0)) == 0
    assert decomp.closed_form_distance((-2, -2, 0)) == 26  # symmetry


def test_closed_form_z2():
    mask = orbit_mask(square_lattice(), [((1, 0), 3), ((1, 1), 4)])
    decomp = build_wedges(mask)
    assert decomp.closed_form_distance((5, 0)) == 15
    assert decomp.closed_form_distance((5, 3)) == 3 * 4 + 2 * 3
    assert decomp.closed_form_distance((-5, 3)) == 3 * 4 + 2 * 3


def test_linear_form_interpolates_weights():
    mask = preset_mask("bcc2", (13, 15))
    decomp = build_wedges(mask)
    for wedge in decomp.wedges:
        form = wedge.linear_form()
        for v, w in zip(wedge.vectors, wedge.weights):
            assert sum(f * c for f, c in zip(form, v)) == pytest.approx(w)


def test_farey_split():
    mask = orbit_mask(square_lattice(), [((1, 0), 3), ((1, 1), 4)])
    decomp = build_wedges(mask)
    wedge = next(w for w in decomp.wedges
                 if set(w.vectors) == {(1, 0), (1, 1)})
    a, b = farey_split(wedge, 0, 1)
    mediant = (2, 1)
    assert mediant in a.vectors and mediant in b.vectors
    assert a.weights[a.vectors.index(mediant)] == 7
    assert abs(a.det) == abs(b.det) == 1


def test_collinear_mask_rejected():
    with pytest.raises(MaskError):
        build_wedges(ChamferMask.build(square_lattice(),
                                       [((1, 0), 1), ((2, 0), 3)]))


def test_non_basis_neighbors_rejected_2d():
    # Adjacent directions (1, 1) and (1, -1) span determinant -2 on Z2.
    with pytest.raises(MaskError):
        build_wedges(ChamferMask.build(square_lattice(),
                                       [((1, 1), 1), ((1, -1), 1)]))


@pytest.mark.parametrize("name,weights", [
    ("z2-2", (3, 4)),
    ("z3-3", (3, 4, 5)),
    ("bcc2", (13, 15)),
    ("bcc3", (13, 15, 22)),
    ("bcc4", (15, 17, 24, 29)),
    ("fcc2", (2, 3)),
    ("fcc4", (12, 17, 21, 30)),
])
def test_convex_masks_pass_strict_check(name, weights):
    decomp = build_wedges(preset_mask(name, weights))
    verdict, offenders = convexity_report(decomp)
    assert verdict == "strict"
    assert offenders == []


def test_vertex_beyond_facet_detected():
    # On FCC with three weight classes, weight 19 on the (2,1,1) class
    # costs more than the two-step path (1,1,0)+(1,0,1) of cost 22 allows
    # it to be a polytope vertex only if 19 < 22 -- here the vertex
    # (2,1,1)/19 pokes outside facets spanned by shorter vectors.
    decomp = build_wedges(preset_mask("fcc3", (11, 16, 19)))
    verdict, offenders = convexity_report(decomp)
    assert verdict == "nonconvex"
    assert any(tuple(sorted(abs(c) for c in v)) == (1, 1, 2)
               for v, *_ in offenders)


def test_closed_form_exact_on_nonconvex_mask():
    # Not a norm: d(0, 2) = 4 < 2 d(0, 1).  The fan formula overestimates;
    # the hull formula with coset representatives matches the transform.
    import numpy as np
    from latticedt.dt_engine import GridImage, dijkstra_oracle

    lat = square_lattice()
    mask = ChamferMask.build(lat, [((1, 0), 3), ((1, 1), 2),
                                   ((0, 1), 3), ((-1, 1), 2)])
    decomp = build_wedges(mask)
    assert not decomp.fan_convex and not decomp.is_norm
    fg = np.ones((41, 41), dtype=bool)
    fg[20, 20] = False
    dist = dijkstra_oracle(GridImage.from_foreground(lat, (-20, -20), fg),
                           mask).values
    for x in range(-10, 11):
        for y in range(-10, 11):
            assert decomp.closed_form_distance((x, y)) == dist[x + 20, y + 20]


def test_degenerate_coplanar_vertex_flagged():
    # Weight 2 on (1,1) makes its vertex land exactly on the segment
    # between (1,0)/1 and (0,1)/1.
    decomp = build_wedges(orbit_mask(square_lattice(),
                                     [((1, 0), 1), ((1, 1), 2)]))
    verdict, offenders = convexity_report(decomp)
    assert verdict == "degenerate"
    assert offenders


def test_normalized_polytope_vertices():
    decomp = build_wedges(preset_mask("bcc2", (13, 15)))
    verts = normalized_polytope(decomp)
    assert verts[(1, 1, 1)] == (Fraction(1, 13),) * 3
    assert verts[(2, 0, 0)] == (Fraction(2, 15), 0, 0)


@given(st.tuples(st.integers(-30, 30), st.integers(-30, 30),
                 st.integers(-30, 30)))
@settings(max_examples=150)
def test_closed_form_symmetric_and_homogeneous(p):
    decomp = build_wedges(preset_mask("bcc3", (13, 15, 22)))
    if not decomp.mask.lattice.member(p):
        return
    d = decomp.closed_form_distance(p)
    assert decomp.closed_form_distance(tuple(-c for c in p)) == d
    assert decomp.closed_form_distance(tuple(3 * c for c in p)) == 3 * d


# sha256 prefixes of repr((wedges, splits)) over each 3D preset's fans at
# the weights of _fan_weights, taken from the Fraction/Cramer
# implementation of build_wedges: wedge order and split relations are pinned.
FAN_DIGESTS = {
    "bcc1": "0dc95ad88e22b216",
    "bcc2": "342909dc937dd84b",
    "bcc3": "6fcd30b9ccb6b4cb",
    "bcc4": "e007589ef918c46c",
    "fcc1": "2108f6e2e45a4810",
    "fcc2": "d6cee10d9a1949ff",
    "fcc3": "5cf6bba8d00cef14",
    "fcc4": "b63abaa07a3b0620",
    "z3-1": "2406b5f98188aea9",
    "z3-2": "23c319c57ecb742a",
    "z3-3": "900e389d9607799a",
}


def _fan_weights(preset):
    """Two weight vectors, then every published row of the preset."""
    k = preset_geometry(preset).num_classes
    return ([tuple(3 + 2 * i for i in range(k)),
             tuple(10 + 3 * i + i * i for i in range(k))]
            + [w for w, _, _ in WEIGHT_TABLES.get(preset, (0, []))[1]])


def test_fan_digests_cover_every_3d_preset():
    assert sorted(FAN_DIGESTS) == [p for p in PRESET_NAMES
                                   if not p.startswith("z2")]


@pytest.mark.parametrize("preset", sorted(FAN_DIGESTS))
def test_build_wedges_output_pinned(preset):
    h = hashlib.sha256()
    for weights in _fan_weights(preset):
        d = build_wedges(preset_mask(preset, weights))
        h.update(repr((tuple((w.vectors, w.weights) for w in d.wedges),
                       d.splits)).encode())
    assert h.hexdigest()[:16] == FAN_DIGESTS[preset]


ARRAY_CLOSED_FORM = [
    ("z3-3", (3, 4, 5)),
    ("bcc3", (13, 15, 22)),
    ("bcc4", (5, 6, 8, 10)),
    ("fcc3", (2, 3, 4)),
    ("fcc4", (3, 4, 5, 7)),
    ("fcc4", (2, 3, 4, 5)),    # nonconvex fan, a norm
    ("fcc3", (11, 16, 19)),    # nonconvex fan, not a norm
]


@pytest.mark.parametrize("preset,weights", ARRAY_CLOSED_FORM,
                         ids=[f"{p}-{'_'.join(map(str, w))}"
                              for p, w in ARRAY_CLOSED_FORM])
def test_closed_form_array_matches_scalar_and_transform(preset, weights):
    mask = preset_mask(preset, weights)
    decomp = build_wedges(mask)
    fg = np.ones((17, 17, 17), dtype=bool)
    fg[8, 8, 8] = False
    img = GridImage.from_foreground(mask.lattice, (-8, -8, -8), fg)
    grids = img.coordinate_grids()
    sup = img.support
    pts = np.stack([g[sup] for g in grids], axis=1)
    got = decomp.closed_form_distance(pts)
    assert got.dtype == np.int64
    scalar = [decomp.closed_form_distance(p) for p in map(tuple, pts.tolist())]
    assert all(type(v) is int for v in scalar)
    assert got.tolist() == scalar
    dmap = chamfer_two_scan(img, mask, unsafe=True)
    assert np.array_equal(got, dmap.values[sup])


def test_closed_form_refuses_points_it_cannot_answer():
    decomp = build_wedges(preset_mask("fcc3", (2, 3, 4)))
    assert decomp.closed_form_distance(np.zeros((0, 3), dtype=int)).size == 0
    for bad in [(1, 0, 0), np.array([[2, 0, 0], [1, 0, 0]]), (2 ** 61, 0, 0),
                (1.0, 1.0, 0.0), (1, 1), np.zeros((2, 2, 3), dtype=int)]:
        with pytest.raises(MaskError):
            decomp.closed_form_distance(bad)


def _reference_offenders(decomp):
    """Vertices outside a wedge plane, one Cramer solve per (wedge,
    vector) pair."""
    mask = decomp.mask
    out = []
    for idx, wd in enumerate(decomp.wedges):
        for v, wv in zip(mask.vectors, mask.weights):
            if v in wd.vectors:
                continue
            co = cramer_coefficients(wd.vectors, v)
            lhs = sum(c * w for c, w in zip(co, wd.weights))
            if lhs > wv:
                out.append((v, idx, lhs, wv))
    return out


@pytest.mark.parametrize("mask", [
    preset_mask("fcc3", (11, 16, 19)),
    ChamferMask.build(square_lattice(), [((1, 0), 3), ((1, 1), 2),
                                         ((0, 1), 3), ((-1, 1), 2)]),
    ChamferMask.build(square_lattice(),
                      [((1, 0), 2), ((2, 1), 5), ((1, 1), 1)]),
], ids=["fcc3", "z2-a", "z2-b"])
def test_offenders_match_cramer_reference(mask):
    decomp = build_wedges(mask)
    reference = _reference_offenders(decomp)
    assert reference
    verdict, offenders = convexity_report(decomp)
    assert verdict == "nonconvex"
    assert offenders == reference
    assert all(isinstance(lhs, Fraction) for _, _, lhs, _ in offenders)


def test_float_weights_closed_form_on_convex_fan():
    decomp = build_wedges(preset_mask("z2-2", (0.955, 1.369)))
    assert decomp.fan_convex
    pts = [p for p in itertools.product(range(-12, 13), repeat=2)]
    got = decomp.closed_form_distance(np.array(pts))
    for p, value in zip(pts, got.tolist()):
        _, wedge, co = decomp.locate(p)
        want = sum(c * w for c, w in zip(co, wedge.weights))
        assert value == pytest.approx(want, rel=1e-12, abs=0)
        assert decomp.closed_form_distance(p) == pytest.approx(
            want, rel=1e-12, abs=0)


def test_float_weights_nonconvex_closed_form_refused():
    decomp = build_wedges(ChamferMask.build(
        square_lattice(),
        [((1, 0), 3.0), ((1, 1), 2.0), ((0, 1), 3.0), ((-1, 1), 2.0)]))
    assert not decomp.fan_convex
    with pytest.raises(MaskError):
        decomp.closed_form_distance((0, 2))
