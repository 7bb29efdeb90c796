import numpy as np
import pytest

from conftest import fixture_path, orbit_mask
from fan_reference import locate
from scan_reference import order_supported_by
from latticedt.chamfer_mask import ChamferMask, MaskError, build_wedges
from latticedt.dt_engine import (
    EngineError,
    GridImage,
    Verdict,
    chamfer_two_scan,
    dijkstra_oracle,
    generate_ball,
    make_scan_plan,
    parallel_iterative_oracle,
    scan_order,
    validate_image,
)
from latticedt.image_io import read_image, random_image, single_point_image
from latticedt.lattice import (
    bcc_lattice,
    cubic_lattice,
    fcc_lattice,
    square_lattice,
)
from latticedt.presets import preset_mask
from latticedt.weight_opt import max_relative_error


def border_depth(mask):
    return max(abs(c) for v in mask.vectors for c in v)


def test_choose_hyperplane_city_block():
    mask = orbit_mask(square_lattice(), [((1, 0), 1)])
    plan = make_scan_plan(mask)
    a = plan.normal
    assert all(sum(ai * vi for ai, vi in zip(a, v)) != 0
               for v in mask.vectors)
    # the lexicographic split: half1 leads with a negative coordinate
    assert sorted(v for v, _ in plan.half1) == [(-1, 0), (0, -1)]
    assert sorted(v for v, _ in plan.half2) == [(0, 1), (1, 0)]


def test_choose_hyperplane_one_dim_like():
    # N = reach + 1 = 2 orders (1, -1) with the vectors that lead with 1.
    mask = orbit_mask(square_lattice(), [((1, 0), 3), ((1, 1), 4)])
    assert make_scan_plan(mask).normal == (2, 1)


def test_split_mask_halves_mirror(diagonal_mask):
    plan = make_scan_plan(diagonal_mask)
    assert sorted(v for v, _ in plan.half1) == [(-1, 0), (-1, 1)]
    assert sorted(v for v, _ in plan.half2) == [(1, -1), (1, 0)]
    h1 = {v for v, _ in plan.half1}
    h2 = {tuple(-c for c in v) for v, _ in plan.half2}
    assert h1 == h2


def test_split_mask_equal_sizes():
    for name, w in [("bcc2", (13, 15)), ("fcc2", (2, 3))]:
        mask = preset_mask(name, w)
        plan = make_scan_plan(mask)
        assert len(plan.half1) == len(plan.half2) == len(mask.vectors) // 2


def test_scan_order_supports_half_masks():
    rng = np.random.default_rng(0)
    for name, w in [("bcc2", (13, 15)), ("fcc2", (2, 3))]:
        mask = preset_mask(name, w)
        plan = make_scan_plan(mask)
        dims = tuple(int(rng.integers(6, 10)) for _ in range(3))
        img = random_image(mask.lattice, dims, 0.5, seed=1,
                           border_depth=border_depth(mask))
        flat, sigma = scan_order(img, plan.normal)
        assert np.all(np.diff(sigma) >= 0)
        assert order_supported_by(img, flat, plan.half1)
        assert order_supported_by(img, flat[::-1], plan.half2)


def test_validate_verdicts(diagonal_mask):
    lat = square_lattice()
    fg = np.ones((8, 8), dtype=bool)
    fg[:2] = fg[-2:] = fg[:, :2] = fg[:, -2:] = False
    ok = GridImage.from_foreground(lat, (0, 0), fg)
    assert validate_image(diagonal_mask, ok).verdict is \
        Verdict.BORDER_BACKGROUND

    bad = GridImage.from_foreground(lat, (0, 0), np.ones((8, 8), bool))
    res = validate_image(diagonal_mask, bad)
    assert res.verdict is Verdict.INVALID
    assert "splits wedge" in res.reason

    box = GridImage.from_foreground(lat, (0, 0), np.ones((13, 6), bool))
    wp = box.carved([((1, 1), 5, 12), ((0, 1), 0, 5)])
    assert validate_image(diagonal_mask, wp).verdict is \
        Verdict.WEDGE_PRESERVING


def test_underdeclared_carve_is_invalid(diagonal_mask):
    # The declared half-spaces do not bound the support on their own, so
    # the wedge-preserving certificate must be refused.
    lat = square_lattice()
    box = GridImage.from_foreground(lat, (0, 0), np.ones((14, 6), bool))
    img = box.carved([((1, 1), 4, 12), ((0, 1), 0, 5)])
    assert validate_image(diagonal_mask, img).verdict is Verdict.INVALID


def test_undescribed_support_is_judged_without_the_fan():
    # Collinear vectors: the mask has no wedge fan.  An undescribed
    # support is invalid whatever the fan; a described one needs it.
    mask = ChamferMask.build(square_lattice(), [((0, 1), 1), ((0, 3), 2)])
    with pytest.raises(MaskError):
        build_wedges(mask)
    box = GridImage.from_foreground(square_lattice(), (0, 0),
                                    np.ones((14, 6), bool))
    # The declared x-slab does not bound y, where the mask reaches.
    res = validate_image(mask, box.carved([((1, 0), 2, 10)]))
    assert res.verdict is Verdict.INVALID
    assert res.reason.endswith(
        "support is not the declared half-space intersection")
    with pytest.raises(MaskError):
        validate_image(mask, box)


def test_two_scan_refuses_invalid(diagonal_mask):
    img = GridImage.from_foreground(square_lattice(), (0, 0),
                                    np.ones((6, 6), bool))
    with pytest.raises(EngineError):
        chamfer_two_scan(img, diagonal_mask)
    # unsafe override computes something
    dmap = chamfer_two_scan(img, diagonal_mask, unsafe=True)
    assert dmap.values.shape == (6, 6)


def test_all_background_is_all_zero(z2_mask):
    img = GridImage.from_foreground(square_lattice(), (0, 0),
                                    np.zeros((7, 5), bool))
    dmap = chamfer_two_scan(img, z2_mask)
    assert np.all(dmap.values == 0)


def test_manhattan_distances():
    mask = orbit_mask(square_lattice(), [((1, 0), 1)])
    img = single_point_image(square_lattice(), (11, 11))
    dmap = chamfer_two_scan(img, mask, unsafe=True)
    x, y = np.meshgrid(np.arange(11), np.arange(11), indexing="ij")
    assert np.array_equal(dmap.values, np.abs(x - 5) + np.abs(y - 5))


@pytest.mark.parametrize("name,w", [
    ("z2-2", (3, 4)), ("z3-3", (3, 4, 5)),
    ("bcc2", (13, 15)), ("fcc2", (2, 3)),
])
def test_oracle_equivalence_seeded(name, w):
    mask = preset_mask(name, w)
    lat = mask.lattice
    rng = np.random.default_rng(123)
    depth = border_depth(mask)
    for trial in range(8):
        dims = tuple(int(rng.integers(2 * depth + 3, 16))
                     for _ in range(lat.dim))
        img = random_image(lat, dims, float(rng.uniform(0.3, 0.9)),
                           seed=trial, border_depth=depth)
        a = chamfer_two_scan(img, mask).values
        b = dijkstra_oracle(img, mask).values
        c = parallel_iterative_oracle(img, mask).values
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)


def _carved_z3(_diag):
    mask = preset_mask("z3-3", (3, 4, 5))
    rng = np.random.default_rng(7)
    img = GridImage.from_foreground(cubic_lattice(), (-3, 0, 2),
                                    rng.random((11, 9, 12)) < 0.8)
    return img.carved([((1, -1, 1), -4, 9), ((0, 1, 1), 4, 16)]), mask


def _no_background(_diag):
    img = GridImage.from_foreground(bcc_lattice(), (0, 0, 0),
                                    np.ones((9, 8, 7), bool))
    return img, preset_mask("bcc2", (13, 15))


def _huge_weights(_diag):
    # Distances step by 10^9 or more: a bucket loop that walked every
    # integer up to the largest distance would not finish.
    img = random_image(square_lattice(), (30, 30), 0.7, seed=11)
    return img, preset_mask("z2-2", (10**9, 1414213562))


ORACLE_ONLY_CASES = {
    # INVALID for the diagonal mask: the forced two-scan is wrong here.
    "invalid-fixture": lambda diag: (
        read_image(fixture_path("invalid_image.ldt")), diag),
    "carved": _carved_z3,
    "no-background": _no_background,
    "huge-weights": _huge_weights,
}


@pytest.mark.parametrize("case", sorted(ORACLE_ONLY_CASES))
def test_oracle_equivalence_beyond_two_scan(case, diagonal_mask):
    # Cases outside the two-scan comparison: supports it does not
    # certify, no background at all, and weights far above the number of
    # distinct distances.  The two oracles must agree point for point.
    img, mask = ORACLE_ONLY_CASES[case](diagonal_mask)
    exact = dijkstra_oracle(img, mask)
    assert np.array_equal(exact.values,
                          parallel_iterative_oracle(img, mask).values)
    finite = exact.values < exact.infinity
    if case == "no-background":
        assert not finite.any()
    else:
        assert np.any(finite & (img.values == 1))


def test_one_sided_mask_is_refused():
    # dijkstra_oracle steps from u to u + v while the two-scan and the
    # iterative oracle read p + v; they agree only on symmetric masks.
    with pytest.raises(MaskError, match="closed under v -> -v"):
        ChamferMask(square_lattice(), ((1, 0),), (2,))
    with pytest.raises(MaskError, match="equal weights"):
        ChamferMask(square_lattice(), ((-1, 0), (1, 0)), (2, 3))
    ChamferMask(square_lattice(), ((-1, 0), (1, 0)), (2, 2))


def test_unreachable_points_stay_infinite(z2_mask):
    # Foreground islands separated from any background by the support cut.
    lat = square_lattice()
    vals = np.full((7, 7), -1, dtype=np.int8)
    vals[1:3, 1:3] = 1  # island with no background at all
    vals[5, 5] = 0
    img = GridImage(lat, (0, 0), vals)
    dmap = dijkstra_oracle(img, z2_mask)
    assert np.all(dmap.values[1:3, 1:3] >= dmap.infinity)
    two = chamfer_two_scan(img, z2_mask, unsafe=True)
    assert np.all(two.values[1:3, 1:3] >= two.infinity)


def test_path_prefix_property():
    # On a single-background-point image, every prefix of the wedge path
    # to p already carries its exact formula value in the map.
    mask = preset_mask("bcc2", (13, 15))
    decomp = build_wedges(mask)
    img = single_point_image(bcc_lattice(), (17, 17, 17))
    center = np.array([8, 8, 8])
    dmap = chamfer_two_scan(img, mask, unsafe=True)
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = center + rng.integers(-4, 5, size=3) * 2  # stay on lattice
        q = tuple(int(c) for c in (p - center))
        if not mask.lattice.member(q):
            continue
        _, wedge, co = locate(decomp, q)
        alphas = [int(c) for c in co]
        partial = np.zeros(3, dtype=int)
        cost = 0
        for v, w, a in zip(wedge.vectors, wedge.weights, alphas):
            for _step in range(a):
                partial += v
                cost += w
                pt = tuple(center + partial)
                assert dmap.values[pt] == cost


def test_update_counts_are_linear(z2_mask):
    # Two passes touch each support point once per half-mask entry.
    img = random_image(square_lattice(), (20, 20), 0.5, seed=9,
                       border_depth=border_depth(z2_mask))
    plan = make_scan_plan(z2_mask)
    m = int(np.count_nonzero(img.support))
    assert len(plan.half1) == len(z2_mask.vectors) // 2
    # the engine performs 2 * M * |half| relaxations by construction;
    # assert the bookkeeping quantities agree
    flat, _ = scan_order(img, plan.normal)
    assert len(flat) == m


def test_generate_ball_radius_zero():
    mask = preset_mask("bcc1", (1,))
    points, _ = generate_ball(mask, 0)
    assert points == [(0, 0, 0)]


def test_generate_ball_negative_radius():
    with pytest.raises(EngineError):
        generate_ball(preset_mask("bcc1", (1,)), -1)


def test_ball_octahedral_one_weight():
    # One-weight BCC ball: |x|,|y),|z| all <= r and equal parity.
    mask = preset_mask("bcc1", (1,))
    points, _ = generate_ball(mask, 5)
    pts = set(points)
    assert (5, 5, 5) in pts and (6, 6, 6) not in pts
    for p in pts:
        assert max(abs(c) for c in p) <= 5
        assert mask.lattice.member(p)
    # Chebyshev-like: corners of the cube scaled by r are reached
    assert (5, -5, 5) in pts


def test_ball_matches_closed_form():
    mask = preset_mask("fcc2", (2, 3))
    decomp = build_wedges(mask)
    points, _ = generate_ball(mask, 12, decomposition=decomp)
    pts = set(points)
    for p in list(pts)[:200]:
        assert decomp.closed_form_distance(p) <= 12
    # boundary: one step beyond the extremal axis point exceeds the radius
    assert (8, 0, 0) in pts   # 4 axis steps * 3
    assert (10, 0, 0) not in pts


def test_iterative_oracle_sweep_bound(z2_mask):
    img = random_image(square_lattice(), (15, 15), 0.6, seed=2,
                       border_depth=border_depth(z2_mask))
    # must stabilize well within the point-count bound
    dmap = parallel_iterative_oracle(img, z2_mask)
    assert dmap.values.max() >= 0


def test_two_scan_on_anisotropic_lattice_is_combinatorial():
    # Spacing scales measurements, never the integer transform.
    mask_iso = preset_mask("fcc2", (2, 3))
    mask_an = preset_mask("fcc2", (2, 3), spacing=(1.0, 2.0, 0.5))
    img_iso = random_image(fcc_lattice(), (12, 12, 12), 0.5, seed=4,
                           border_depth=2)
    img_an = random_image(fcc_lattice((1.0, 2.0, 0.5)), (12, 12, 12), 0.5,
                          seed=4, border_depth=2)
    a = chamfer_two_scan(img_iso, mask_iso).values
    b = chamfer_two_scan(img_an, mask_an).values
    assert np.array_equal(a, b)


def test_scan_order_is_sigma_then_lexicographic():
    mask = preset_mask("bcc2", (13, 15))
    a = make_scan_plan(mask).normal
    img = GridImage.from_foreground(bcc_lattice(), (-3, -2, -5),
                                    np.ones((7, 6, 5), bool))
    flat, sigma = scan_order(img, a)

    def point(f):
        return tuple(int(c) + o for c, o in
                     zip(np.unravel_index(f, img.dims), img.origin))

    expected = sorted(map(point, np.flatnonzero(img.support)),
                      key=lambda p: (np.dot(a, p), p))
    assert [point(f) for f in flat] == expected
    assert sigma.tolist() == [int(np.dot(a, p)) for p in expected]


def test_float_weights_refused_by_engine():
    mask = preset_mask("z2-2", (0.955, 1.369))
    img = random_image(square_lattice(), (20, 20), density=0.6, seed=3)
    for transform in (chamfer_two_scan, dijkstra_oracle,
                      parallel_iterative_oracle):
        with pytest.raises(EngineError, match="integer weights"):
            transform(img, mask)
    with pytest.raises(EngineError, match="integer weights"):
        chamfer_two_scan(img, mask, unsafe=True)
    # the mask itself and its error analysis still take real weights
    assert max_relative_error(build_wedges(mask)).error > 0
