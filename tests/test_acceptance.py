"""Acceptance gate: published weight tables, real optima, engine
equivalence, closed-form agreement, norm axioms, redundancy invariance,
scan runtime scaling, and frozen reference images.

Tolerances are pinned: scale within 1e-3, error percentage within 1e-2.
Known-irreproducible table cells are left to fail rather than being
special-cased; the accompanying analysis lives outside the package.
"""

import math
import time
from functools import lru_cache

import numpy as np
import pytest

from conftest import fixture_path, orbit_mask
from latticedt.chamfer_mask import ChamferMask, build_wedges, convexity_report
from latticedt.cli import _VERIFY_MASKS, _verify_case
from latticedt.dt_engine import (
    GridImage,
    Verdict,
    chamfer_two_scan,
    dijkstra_oracle,
    generate_ball,
    validate_image,
)
from latticedt.image_io import read_distance_map, read_image
from latticedt.lattice import (
    bcc_lattice,
    cubic_lattice,
    signed_permutation_orbit,
    square_lattice,
)
from latticedt.presets import preset_geometry, preset_mask
from latticedt.weight_opt import optimize_real_weights, search_integer_weights

SCALE_TOL = 1e-3
ERR_TOL = 1e-2  # percentage points


# ---------------------------------------------------------------------------
# 1. Integer weight tables
# ---------------------------------------------------------------------------

# preset -> (search bound, [(weights, scale, error %)])
WEIGHT_TABLES = {
    "bcc1": (1, [
        ((1,), 1.268, 26.79),
    ]),
    "bcc2": (22, [
        ((1, 2), 1.268, 26.79),
        ((2, 3), 0.731, 15.59),
        ((3, 4), 0.504, 12.70),
        ((4, 5), 0.383, 11.60),
        ((5, 6), 0.308, 11.07),
        # Printed as 0.256, a misprint: rho_min = min(6/sqrt(3), 7/2) =
        # 6/sqrt(3), so scale = (1 - 0.1078) / (6/sqrt(3)) = 0.2576.
        ((6, 7), 0.2576, 10.78),
        ((13, 15), 0.119, 10.72),
        ((19, 22), 0.081, 10.71),
    ]),
    "bcc3": (54, [
        ((1, 2, 2), 1.268, 26.79),
        ((2, 2, 3), 0.899, 10.10),
        ((4, 5, 7), 0.396, 8.50),
        ((5, 6, 8), 0.325, 7.94),
        ((6, 7, 10), 0.270, 6.39),
        ((13, 15, 22), 0.125, 6.34),
        ((19, 22, 31), 0.0857, 6.12),
        ((26, 30, 43), 0.0626, 6.12),
        ((33, 38, 54), 0.0494, 6.11),
    ]),
    "bcc4": (50, [
        ((1, 2, 2, 3), 1.268, 26.79),
        ((2, 2, 3, 4), 0.899, 10.10),
        ((4, 4, 6, 7), 0.460, 7.94),
        ((5, 6, 8, 10), 0.334, 5.57),
        ((6, 7, 10, 12), 0.275, 4.73),
        ((9, 10, 14, 17), 0.194, 4.21),
        ((15, 17, 24, 29), 0.113, 4.00),
        ((26, 29, 41, 50), 0.0662, 3.99),
    ]),
    "fcc1": (1, [
        ((1,), 1.172, 17.16),
    ]),
    "fcc2": (3, [
        ((1, 1), 1.464, 26.79),
        ((1, 2), 1.172, 17.16),
        ((2, 3), 0.636, 10.10),
    ]),
    "fcc3": (26, [
        ((1, 1, 2), 1.464, 26.79),
        ((1, 2, 2), 1.172, 17.16),
        ((2, 3, 3), 0.694, 15.04),
        ((2, 3, 4), 0.636, 10.10),
        ((4, 6, 7), 0.325, 7.94),
        ((6, 9, 10), 0.226, 7.76),
        ((7, 10, 12), 0.191, 6.19),
        ((11, 16, 19), 0.121, 6.16),
        ((15, 22, 26), 0.0887, 5.95),
    ]),
    "fcc4": (30, [
        ((1, 2, 2, 2), 1.268, 26.79),
        ((1, 2, 2, 3), 1.172, 17.16),
        ((2, 3, 4, 5), 0.651, 7.94),
        ((3, 4, 5, 7), 0.472, 5.57),
        ((5, 7, 9, 12), 0.274, 5.15),
        ((5, 7, 9, 13), 0.272, 4.64),
        ((9, 13, 16, 23), 0.150, 4.63),
        ((12, 17, 21, 30), 0.113, 4.07),
    ]),
}


@lru_cache(maxsize=None)
def _table_rows(preset):
    bound = WEIGHT_TABLES[preset][0]
    t0 = time.monotonic()
    rows = search_integer_weights(preset_geometry(preset), bound)
    elapsed = time.monotonic() - t0
    assert elapsed < 300, f"{preset} search took {elapsed:.1f}s"
    return {r.weights: r for r in rows}


TABLE_CASES = [(preset, w, s, e)
               for preset, (_, rows) in WEIGHT_TABLES.items()
               for (w, s, e) in rows]


@pytest.mark.parametrize(
    "preset,weights,scale,err_pct", TABLE_CASES,
    ids=[f"{p}-{'_'.join(map(str, w))}" for p, w, _, _ in TABLE_CASES])
def test_weight_table_row(preset, weights, scale, err_pct):
    rows = _table_rows(preset)
    assert weights in rows, f"{weights} not produced by the search"
    row = rows[weights]
    assert row.scale == pytest.approx(scale, abs=SCALE_TOL)
    assert 100 * row.error == pytest.approx(err_pct, abs=ERR_TOL)


def test_weight_tables_are_self_consistent():
    """scale = 2 / (rho_max + rho_min) and error = (rho_max - rho_min) /
    (rho_max + rho_min) give scale * rho_min = 1 - error, so a table cell
    that breaks this identity is misprinted, whatever the program says."""
    bad = []
    for preset, (_, rows) in WEIGHT_TABLES.items():
        classes = preset_geometry(preset).classes
        for weights, scale, err_pct in rows:
            rho_min = min(w / math.sqrt(sum(c * c for c in orbit[0]))
                          for w, orbit in zip(weights, classes))
            slack = SCALE_TOL * rho_min + ERR_TOL / 100
            if abs(scale * rho_min - (1 - err_pct / 100)) > slack:
                bad.append((preset, weights))
    assert not bad, f"inconsistent table cells: {bad}"


# ---------------------------------------------------------------------------
# 2. Real-valued optima
# ---------------------------------------------------------------------------

REAL_ERRORS = {
    "bcc1": 26.79, "bcc2": 10.69, "bcc3": 6.02, "bcc4": 3.96,
    "fcc1": 17.16, "fcc2": 10.10, "fcc3": 5.93, "fcc4": 3.98,
}


@pytest.mark.parametrize("preset,err_pct", sorted(REAL_ERRORS.items()))
def test_real_optimum_error(preset, err_pct):
    opt = optimize_real_weights(preset_geometry(preset))
    assert 100 * opt.error == pytest.approx(err_pct, abs=ERR_TOL)


@pytest.mark.parametrize("preset,weights", [
    ("bcc2", (1.547, 1.786)),
    ("fcc2", (1.271, 1.798)),
])
def test_real_optimum_weights(preset, weights):
    opt = optimize_real_weights(preset_geometry(preset))
    assert opt.weights == pytest.approx(weights, abs=SCALE_TOL)


# ---------------------------------------------------------------------------
# 3. Engine equivalence on random images
# ---------------------------------------------------------------------------

_VERIFY_ELAPSED = {}


@pytest.mark.parametrize("lattice_name", sorted(_VERIFY_MASKS))
def test_two_scan_matches_oracles_randomized(lattice_name):
    preset, weights = _VERIFY_MASKS[lattice_name]
    mask = preset_mask(preset, weights)
    t0 = time.monotonic()
    for seed in range(100):
        mismatch = _verify_case(mask, 32, seed)
        assert mismatch is None, f"seed {seed} mismatched: {mismatch}"
    _VERIFY_ELAPSED[lattice_name] = time.monotonic() - t0


def test_two_scan_oracle_equivalence_total_runtime():
    assert set(_VERIFY_ELAPSED) == set(_VERIFY_MASKS), \
        "equivalence tests did not all run"
    assert sum(_VERIFY_ELAPSED.values()) < 120


# ---------------------------------------------------------------------------
# 4. Closed form equals the transform
# ---------------------------------------------------------------------------

CLOSED_FORM_MASKS = [
    ("z2-2", (3, 4)),
    ("z3-3", (3, 4, 5)),
    ("bcc3", (13, 15, 22)),
    ("fcc3", (11, 16, 19)),
]


@pytest.mark.parametrize("preset,weights", CLOSED_FORM_MASKS,
                         ids=[p for p, _ in CLOSED_FORM_MASKS])
def test_closed_form_equals_transform(preset, weights):
    mask = preset_mask(preset, weights)
    decomp = build_wedges(mask)
    n = mask.dim
    fg = np.ones((21,) * n, dtype=bool)
    fg[(10,) * n] = False
    img = GridImage.from_foreground(mask.lattice, (-10,) * n, fg)
    dmap = chamfer_two_scan(img, mask, unsafe=True)
    grids = img.coordinate_grids()
    sup = img.support & fg
    pts = np.stack([g[sup] for g in grids], axis=1)
    vals = dmap.values[sup]
    bad = []
    for p, got in zip(map(tuple, pts.tolist()), vals.tolist()):
        want = decomp.closed_form_distance(p)
        if want != got:
            bad.append((p, got, want))
    assert not bad, (f"{len(bad)} points disagree, e.g. "
                     f"{bad[0][0]}: transform {bad[0][1]}, "
                     f"formula {bad[0][2]}")


# ---------------------------------------------------------------------------
# 5. Norm axioms and rejection of non-norm masks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("preset,weights", [
    ("z3-3", (3, 4, 5)),
    ("bcc2", (13, 15)),
])
def test_norm_axioms_sampled(preset, weights):
    mask = preset_mask(preset, weights)
    decomp = build_wedges(mask)
    lat = mask.lattice
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 10_000:
        p, q = (tuple(int(c) for c in rng.integers(-30, 31, size=3))
                for _ in range(2))
        if not (lat.member(p) and lat.member(q)):
            continue
        dp = decomp.closed_form_distance(p)
        dq = decomp.closed_form_distance(q)
        s = tuple(a + b for a, b in zip(p, q))
        assert decomp.closed_form_distance(s) <= dp + dq
        assert decomp.closed_form_distance(tuple(-c for c in p)) == dp
        assert (dp == 0) == all(c == 0 for c in p)
        lam = int(rng.integers(1, 6))
        assert decomp.closed_form_distance(
            tuple(lam * c for c in p)) == lam * dp
        checked += 1


def test_non_norm_mask_detected_and_rejected():
    lat = square_lattice()
    mask = ChamferMask.build(lat, [((1, 0), 3), ((1, 1), 2),
                                   ((0, 1), 3), ((-1, 1), 2)])
    # The induced distance is not positively homogeneous ...
    fg = np.ones((11, 11), dtype=bool)
    fg[5, 5] = False
    img = GridImage.from_foreground(lat, (-5, -5), fg)
    d = dijkstra_oracle(img, mask).values
    assert d[5, 6] == 3      # (0, 1)
    assert d[5, 7] == 4      # (0, 2): cheaper than 2 * d(0, 1)
    # ... and the convexity check rejects the mask.
    verdict, offenders = convexity_report(build_wedges(mask))
    assert verdict == "nonconvex"
    assert offenders


def test_second_non_norm_mask_rejected():
    mask = ChamferMask.build(square_lattice(),
                             [((1, 0), 2), ((2, 1), 5), ((1, 1), 1)])
    verdict, _ = convexity_report(build_wedges(mask))
    assert verdict == "nonconvex"


# ---------------------------------------------------------------------------
# 6. Redundant vectors change nothing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lattice,base,extra", [
    (square_lattice(), [((1, 0), 3), ((1, 1), 4)], ((2, 1), 8)),
    (bcc_lattice(), [((1, 1, 1), 13), ((2, 0, 0), 15)], ((3, 1, 1), 29)),
], ids=["z2", "bcc"])
def test_redundant_vector_is_inert(lattice, base, extra):
    mask = orbit_mask(lattice, base)
    extended = orbit_mask(lattice, base + [extra])
    # The extra vector's weight exceeds the closed-form distance it spans.
    assert build_wedges(mask).closed_form_distance(extra[0]) < extra[1]
    n = lattice.dim
    fg = np.ones((21,) * n, dtype=bool)
    fg[(10,) * n] = False
    img = GridImage.from_foreground(lattice, (-10,) * n, fg)
    a = dijkstra_oracle(img, mask)
    b = dijkstra_oracle(img, extended)
    assert np.array_equal(_finite(a), _finite(b))


# ---------------------------------------------------------------------------
# 7. Two-scan is linear in the number of points
# ---------------------------------------------------------------------------

def test_two_scan_runtime_scaling():
    mask = preset_mask("z3-3", (3, 4, 5))

    def best_time(size):
        fg = np.ones((size,) * 3, dtype=bool)
        fg[(size // 2,) * 3] = False
        img = GridImage.from_foreground(cubic_lattice(),
                                        (0, 0, 0), fg)
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            chamfer_two_scan(img, mask, unsafe=True)
            best = min(best, time.perf_counter() - t0)
        return best

    ratio = best_time(64) / best_time(32)
    assert 4.0 <= ratio <= 16.0, f"64^3/32^3 runtime ratio {ratio:.2f}"


# ---------------------------------------------------------------------------
# 8. Frozen reference images and distance balls
# ---------------------------------------------------------------------------

def _finite(dmap):
    return np.where(dmap.values >= dmap.infinity, -1, dmap.values)


def test_invalid_image_two_scan_differs_from_oracle(diagonal_mask):
    img = read_image(fixture_path("invalid_image.ldt"))
    res = validate_image(diagonal_mask, img)
    assert res.verdict is Verdict.INVALID
    forced = chamfer_two_scan(img, diagonal_mask, unsafe=True)
    exact = dijkstra_oracle(img, diagonal_mask)
    assert not np.array_equal(_finite(forced), _finite(exact))


def test_wedge_preserving_support_two_scan_exact(diagonal_mask):
    lat = square_lattice()
    box = GridImage.from_foreground(lat, (0, 0), np.ones((13, 6), bool))
    img = box.carved([((1, 1), 5, 12), ((0, 1), 0, 5)])
    vals = img.values.copy()
    vals[5, 1] = 0
    vals[6, 4] = 0
    img = GridImage(lat, (0, 0), vals, img.carve)
    res = validate_image(diagonal_mask, img)
    assert res.verdict is Verdict.WEDGE_PRESERVING
    dmap = chamfer_two_scan(img, diagonal_mask)
    frozen = read_distance_map(fixture_path("wedge_preserving_map.ldt"))
    assert np.array_equal(_finite(dmap), _finite(frozen))


def test_border_background_two_scan_exact(diagonal_mask):
    img = read_image(fixture_path("border_bg_image.ldt"))
    res = validate_image(diagonal_mask, img)
    assert res.verdict is Verdict.BORDER_BACKGROUND
    dmap = chamfer_two_scan(img, diagonal_mask)
    frozen = read_distance_map(fixture_path("border_bg_map.ldt"))
    assert np.array_equal(_finite(dmap), _finite(frozen))


BALL_MASKS = [
    ("z2-2", (3, 4)),
    ("z3-3", (3, 4, 5)),
    ("bcc2", (13, 15)),
    ("fcc2", (2, 3)),
]


@pytest.mark.parametrize("preset,weights", BALL_MASKS,
                         ids=[p for p, _ in BALL_MASKS])
def test_ball_symmetry_and_extremes(preset, weights):
    radius = 20
    mask = preset_mask(preset, weights)
    points, _ = generate_ball(mask, radius)
    pset = set(points)
    # Invariance under the full signed-permutation group.
    for p in points:
        for q in signed_permutation_orbit(p):
            assert q in pset
    # The farthest reachable multiple of each mask vector is in the ball
    # and the next multiple is not.
    for v, w in zip(mask.vectors, mask.weights):
        k = radius // w
        assert tuple(k * c for c in v) in pset
        assert tuple((k + 1) * c for c in v) not in pset
