import hashlib
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import orbit_mask
from fan_reference import build_wedges_nd, cramer_coefficients, locate
from test_acceptance import WEIGHT_TABLES
from latticedt.chamfer_mask import (
    ChamferMask,
    MaskError,
    build_wedges,
    central_closure,
    convexity_report,
)
from latticedt.dt_engine import GridImage, chamfer_two_scan
from latticedt.lattice import (
    bcc_lattice,
    cubic_lattice,
    custom_lattice,
    fcc_lattice,
    int_det,
    signed_permutation_orbit,
    square_lattice,
)
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


@pytest.mark.parametrize("weight", [float("inf"), float("nan")])
def test_mask_rejects_nonfinite_weights(weight):
    # Refused before the closure, where a NaN would read as a conflict.
    with pytest.raises(MaskError, match="finite and positive"):
        ChamferMask.build(square_lattice(), [((1, 0), 3), ((1, 1), weight)])


def test_mask_keeps_integer_weights_beyond_float_range():
    mask = ChamferMask.build(square_lattice(), [((1, 0), 10 ** 400)])
    assert mask.weights == (10 ** 400,) * 2


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
            co = cramer_coefficients(w.vectors, v)
            assert not (all(c >= 0 for c in co)
                        and sum(1 for c in co if c > 0) >= 2)


def test_locate_and_closed_form_bcc():
    mask = preset_mask("bcc2", (13, 15))
    decomp = build_wedges(mask)
    idx, wedge, co = locate(decomp, (2, 2, 0))
    # (2,2,0) = (1,1,1) + (1,1,-1): two corner steps.
    assert sorted(co) == [0, 1, 1]
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
    covol = mask.lattice.covolume
    for form, wedge in zip(decomp.wedge_forms.tolist(), decomp.wedges):
        for v, w in zip(wedge.vectors, wedge.weights):
            assert sum(f * c for f, c in zip(form, v)) == covol * w


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


def _fan_or_refusal(build, mask):
    try:
        d = build(mask)
    except MaskError as e:
        return "refused", str(e)
    return "fan", d.wedges, d.splits


def test_build_wedges_matches_the_depth_first_reference():
    # Random symmetric masks from [-3, 3]^3: two in three keep most of the
    # lattice's short vectors (fans with up to ~20 splits, or a vector that
    # cannot split a wedge), one in three draws any few vectors (often no
    # basis at all).  Fans, split order and refusal texts must agree.
    lattices = [cubic_lattice(), bcc_lattice(), fcc_lattice(),
                custom_lattice("det3", ((1, -1, 0), (0, 1, -1), (1, 1, 1)))]
    rng = np.random.default_rng(26)
    seen = {"fan": 0, "no subset": 0, "cannot split": 0}
    for i in range(600):
        lattice = lattices[i % 4]
        half = [p for p in itertools.product(range(-3, 4), repeat=3)
                if p > (0, 0, 0) and lattice.member(p)]
        norm2 = [sum(c * c for c in p) for p in half]
        if i % 3:
            keep = [p for p, r in zip(half, norm2)
                    if r <= 2 * min(norm2) and rng.random() < 0.8]
            extra = rng.choice(len(half), rng.integers(0, 7), replace=False)
        else:
            keep = []
            extra = rng.choice(len(half), rng.integers(2, 9), replace=False)
        vectors = dict.fromkeys(keep + [half[j] for j in extra])
        mask = ChamferMask.build(lattice, [(v, int(rng.integers(1, 10)))
                                           for v in vectors])
        got = _fan_or_refusal(build_wedges, mask)
        assert got == _fan_or_refusal(build_wedges_nd, mask), mask
        kind = got[0] if got[0] == "fan" else got[1]
        seen[next(k for k in seen if k in kind)] += 1
    assert min(seen.values()) >= 50, seen


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
        _, wedge, co = locate(decomp, p)
        want = sum(c * w for c, w in zip(co, wedge.weights))
        assert value == pytest.approx(want, rel=1e-12, abs=0)
        assert decomp.closed_form_distance(p) == pytest.approx(
            want, rel=1e-12, abs=0)


def test_float_weights_nonconvex_closed_form_refused():
    # The weights 3, 2 scaled by 1.25, so that no weight is integral.
    decomp = build_wedges(ChamferMask.build(
        square_lattice(),
        [((1, 0), 3.75), ((1, 1), 2.5), ((0, 1), 3.75), ((-1, 1), 2.5)]))
    assert not decomp.fan_convex
    with pytest.raises(MaskError):
        decomp.closed_form_distance((0, 2))


def test_integral_float_weights_take_the_exact_closed_form():
    entries = [((1, 0), 3), ((1, 1), 2), ((0, 1), 3), ((-1, 1), 2)]
    exact = build_wedges(ChamferMask.build(square_lattice(), entries))
    spelled = build_wedges(ChamferMask.build(
        square_lattice(), [(v, float(w)) for v, w in entries]))
    assert all(type(w) is int for w in spelled.mask.weights)
    assert spelled.closed_form_distance((0, 2)) == \
        exact.closed_form_distance((0, 2)) == 4


def _submask_redundancy(mask):
    """Reference redundancy test: rebuild the mask without each +-v pair
    and evaluate the rebuilt mask's closed form at v.  Returns (offenders,
    vectors whose sub-mask has no wedge fan or closed form)."""
    out, unbuilt = [], []
    seen = set()
    for v, wv in zip(mask.vectors, mask.weights):
        if v in seen:
            continue
        neg = tuple(-c for c in v)
        seen.update((v, neg))
        remaining = [(u, wu) for u, wu in zip(mask.vectors, mask.weights)
                     if u not in (v, neg)]
        if len(remaining) < 2 * mask.dim:
            continue
        try:
            sub = build_wedges(ChamferMask.build(mask.lattice, remaining))
            cost = sub.closed_form_distance(v)
        except MaskError:
            unbuilt += [v, neg]
            continue
        if cost <= wv:
            out += [(v, None, cost, wv), (neg, None, cost, wv)]
    return out, unbuilt


def _assert_matches_submask_reference(mask):
    decomp = build_wedges(mask)
    verdict, offenders = convexity_report(decomp)
    if verdict == "nonconvex":
        return
    reference, unbuilt = _submask_redundancy(mask)
    assert verdict == ("degenerate" if offenders else "strict")
    kept = [o for o in offenders if o[0] not in unbuilt]
    assert kept == reference
    assert [type(o[2]) for o in kept] == [type(o[2]) for o in reference]


@pytest.mark.parametrize("preset", sorted(WEIGHT_TABLES))
def test_redundancy_matches_submask_reference_on_published_rows(preset):
    for weights, _, _ in WEIGHT_TABLES[preset][1]:
        _assert_matches_submask_reference(preset_mask(preset, weights))


def test_published_verdicts():
    verdicts = [convexity_report(build_wedges(preset_mask(p, w)))[0]
                for p, (_, rows) in WEIGHT_TABLES.items() for w, _, _ in rows]
    assert {v: verdicts.count(v) for v in set(verdicts)} == {
        "strict": 29, "degenerate": 9, "nonconvex": 9}


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_redundancy_matches_submask_reference_on_random_weights(preset):
    # Weights near Euclidean lengths at small scales, where ties (and so
    # degenerate masks) are common.
    rng = np.random.default_rng(sorted(PRESET_NAMES).index(preset))
    norms = preset_geometry(preset).class_norms()
    for _ in range(6):
        scale = rng.choice([1, 1.5, 2, 3, 5, 8])
        weights = tuple(max(1, round(scale * x * rng.uniform(0.85, 1.2)))
                        for x in norms)
        try:
            mask = preset_mask(preset, weights)
            build_wedges(mask)
        except MaskError:
            continue
        _assert_matches_submask_reference(mask)


@pytest.mark.parametrize("preset,weights,gained,cost", [
    # (2,0,0) = (1,1,1) + (1,-1,-1) at cost 2, its weight.
    ("bcc4", (1, 2, 2, 3), (2, 0, 0), 2),
    # (1,1) = (1,0) + (0,1) at cost 2, its weight.
    ("z2-3", (1, 2, 3), (1, 1), 2),
])
def test_redundant_where_the_submask_has_no_fan(preset, weights, gained,
                                                cost):
    mask = preset_mask(preset, weights)
    verdict, offenders = convexity_report(build_wedges(mask))
    reference, unbuilt = _submask_redundancy(mask)
    assert verdict == "degenerate"
    orbit = set(signed_permutation_orbit(gained))
    assert orbit <= set(unbuilt)
    gained = [o for o in offenders if o not in reference]
    assert sorted(gained) == sorted((v, None, cost, cost) for v in orbit)
    assert [o for o in offenders if o in reference] == reference
    # +-v pairs, in the order of their first vector in the mask.
    assert [o[0] for o in offenders[1::2]] == [
        tuple(-c for c in o[0]) for o in offenders[::2]]
    firsts = [mask.vectors.index(o[0]) for o in offenders[::2]]
    assert firsts == sorted(firsts)


def test_redundancy_of_float_weights_uses_the_vertex_slack():
    # z3-3 at (1, 2, 3) scaled by 0.7: in exact arithmetic the same
    # vectors are redundant, although 0.7 + 0.7 != 1.4 in floats.
    exact = convexity_report(build_wedges(preset_mask("z3-3", (1, 2, 3))))
    scaled = convexity_report(build_wedges(preset_mask("z3-3",
                                                       (0.7, 1.4, 2.1))))
    assert exact[0] == scaled[0] == "degenerate"
    assert [o[0] for o in scaled[1]] == [o[0] for o in exact[1]]
    assert [o[2] for o in scaled[1]] == pytest.approx(
        [0.7 * o[2] for o in exact[1]], rel=1e-12)


def test_redundancy_reads_the_fan_only(monkeypatch):
    import latticedt.chamfer_mask as cm
    decomp = build_wedges(preset_mask("bcc4", (1, 2, 2, 3)))

    def refuse(*args, **kwargs):
        raise AssertionError("redundancy rebuilt a mask, fan or hull")
    for name in ("build_wedges", "polar_vertices", "_build_wedges_2d",
                 "_build_wedges_nd"):
        monkeypatch.setattr(cm, name, refuse)
    monkeypatch.setattr(cm.ChamferMask, "build", refuse)
    monkeypatch.setattr(cm.WedgeDecomposition, "closed_form_distance",
                        refuse)
    verdict, offenders = convexity_report(decomp)
    assert verdict == "degenerate" and len(offenders) == 42
