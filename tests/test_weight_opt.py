import hashlib
import math

import numpy as np
import pytest

from conftest import orbit_mask
from fan_reference import fan_rho_max, linear_form, wedge_ratio_max
from test_acceptance import WEIGHT_TABLES
from latticedt.chamfer_mask import build_wedges
from latticedt.lattice import square_lattice
from latticedt.presets import PRESET_NAMES, preset_geometry, preset_mask
from latticedt.weight_opt import (
    MaskGeometry,
    WeightRow,
    _fan_rho2,
    _pattern_ids,
    _search_table,
    max_relative_error,
    optimize_real_weights,
    pareto_front,
    search_integer_weights,
)

NO_SYMMETRY = MaskGeometry(square_lattice(), (
    ((1, 0), (-1, 0)), ((0, 1), (0, -1)),
    ((1, 1), (-1, -1)), ((1, -1), (-1, 1))))


def kernel_rho_max(decomp):
    """The fan's rho_max from the library's kernel, with the mask's
    distinct weights as its classes, back in physical lengths."""
    mask = decomp.mask
    levels = sorted(set(mask.weights))
    class_of = {v: levels.index(w) for v, w in zip(mask.vectors, mask.weights)}
    W = np.array(levels, dtype=float)[:, None]
    return math.sqrt(_fan_rho2(decomp, class_of, W)[0]) / mask.lattice.unit


def _sample_wedge(rng, wedge, sp, on_faces=False):
    """Checks the per-wedge reference against brute-force sampling of
    directions inside the wedge (with ``on_faces``, a third of the
    coefficients are zero, so that faces are sampled too) and returns the
    largest ratio found."""
    analytic = wedge_ratio_max(wedge, sp)
    form = np.array(linear_form(wedge, sp))
    gens = np.array([[s * c for s, c in zip(sp, v)]
                     for v in wedge.vectors], dtype=float)
    coeffs = rng.random((20000, len(gens)))
    if on_faces:
        coeffs[rng.random(coeffs.shape) < 1 / 3] = 0
        coeffs = coeffs[coeffs.any(axis=1)]
    pts = coeffs @ gens
    ratios = pts @ form / np.linalg.norm(pts, axis=1)
    sampled = float(ratios.max())
    assert sampled <= analytic + 1e-9
    assert analytic - sampled < 1e-3  # dense sampling gets close
    # Exact agreement with a fine local refinement near the best
    # sampled direction is covered by the 1e-6 check below.
    best = pts[int(ratios.argmax())]
    local = best + rng.normal(scale=1e-3, size=(5000, len(best)))
    co = np.linalg.solve(gens.T, local.T).T
    local = local[np.all(co >= 0, axis=1)]
    if len(local):
        refined = float((local @ form /
                         np.linalg.norm(local, axis=1)).max())
        assert refined <= analytic + 1e-6
    return sampled


def test_wedge_ratio_max_against_dense_sampling():
    """The cone-constrained projection maximum must agree with brute-force
    sampling of directions inside each wedge."""
    rng = np.random.default_rng(42)
    for name, weights in [("z2-2", (3, 4)), ("bcc2", (13, 15)),
                          ("fcc2", (2, 3))]:
        mask = preset_mask(name, weights)
        decomp = build_wedges(mask)
        for wedge in decomp.wedges[:6]:
            _sample_wedge(rng, wedge, mask.lattice.spacing)


@pytest.mark.parametrize("name,weights,spacing", [
    ("z2-3", (2, 3, 5), None), ("fcc3", (11, 16, 19), None),
    ("bcc3", (5.5, 6, 8.25), (1.0, 1.0, 1.3))])
def test_fan_kernel_against_dense_sampling(name, weights, spacing):
    # The kernel's rho_max is the largest ratio sampled over all wedges.
    rng = np.random.default_rng(43)
    mask = preset_mask(name, weights, spacing)
    decomp = build_wedges(mask)
    sampled = max(_sample_wedge(rng, wedge, mask.lattice.spacing, True)
                  for wedge in decomp.wedges)
    kernel = kernel_rho_max(decomp)
    assert sampled <= kernel + 1e-9
    assert kernel - sampled < 1e-4


@pytest.mark.parametrize("name", ["z2-3", "bcc4", "fcc3", "fcc4"])
def test_fan_score_is_scale_free(name):
    # Scaling every weight by s scales the fan's rho_max by s: the face
    # test R w >= 0 must not depend on the size of the weights.
    geometry = preset_geometry(name)
    weights = np.array(geometry.class_norms()) * np.random.default_rng(
        5).uniform(0.8, 1.2, geometry.num_classes)
    base = max_relative_error(build_wedges(geometry.mask_with(weights)))
    for s in (1e-12, 1e-9, 1e9):
        mask = geometry.mask_with(s * weights)
        assert max_relative_error(build_wedges(mask)).rho_max / s == \
            pytest.approx(base.rho_max, rel=1e-12)


def _seeded_weights(geometry, seed, count=4):
    """``count`` integer and ``count`` float weight tuples, (C, 2 count)."""
    rng = np.random.default_rng(seed)
    C = geometry.num_classes
    whole = rng.integers(1, 31, (C, count)).astype(float)
    real = rng.uniform(0.85, 1.15, (C, count)) * np.array(
        geometry.class_norms())[:, None] * rng.uniform(1, 20, count)
    return np.hstack([whole, real])


def test_fan_kernel_matches_reference_on_published_rows():
    for name, (_, rows) in WEIGHT_TABLES.items():
        for weights, _, _ in rows:
            decomp = build_wedges(preset_mask(name, weights))
            assert kernel_rho_max(decomp) == pytest.approx(
                fan_rho_max(decomp), rel=1e-12, abs=0)


@pytest.mark.parametrize("geometry", [
    *(preset_geometry(name) for name in PRESET_NAMES),
    preset_geometry("z2-3", spacing=(1.0, 2.0)),
    preset_geometry("bcc3", spacing=(1.0, 1.0, 1.3)),
    preset_geometry("fcc4", spacing=(1.2, 1.0, 0.8)),
    NO_SYMMETRY,
], ids=[*PRESET_NAMES, "z2-3-aniso", "bcc3-aniso", "fcc4-aniso",
        "z2-no-symmetry"])
def test_fan_kernel_matches_reference(geometry):
    # All columns in one call, as the search scores them, against the
    # per-wedge loop on each column's mask.
    W = _seeded_weights(geometry, seed=geometry.num_classes)
    rho2 = _fan_rho2(geometry.reference_decomposition(),
                     geometry.class_of(), W)
    for weights, got in zip(W.T.tolist(), rho2.tolist()):
        decomp = build_wedges(geometry.mask_with(weights))
        got = math.sqrt(got) / geometry.lattice.unit  # physical lengths
        assert got == pytest.approx(fan_rho_max(decomp), rel=1e-12, abs=0)
        assert kernel_rho_max(decomp) == pytest.approx(got, rel=1e-12,
                                                       abs=0)
    wanted = np.arange(W.shape[1]) % 2 == 0
    assert np.array_equal(_fan_rho2(geometry.reference_decomposition(),
                                    geometry.class_of(), W, wanted),
                          np.where(wanted, rho2, 0))


FROZEN_STATS = [
    # mask, weights, scale, error% (library-stable reference values)
    ("bcc1", (1,), 1.2679, 26.79),
    ("bcc2", (13, 15), 0.1190, 10.72),
    ("bcc3", (13, 15, 22), 0.1249, 6.34),
    ("bcc4", (15, 17, 24, 29), 0.1131, 4.00),
    ("fcc1", (1,), 1.1716, 17.16),
    ("fcc2", (2, 3), 0.6357, 10.10),
    ("fcc4", (12, 17, 21, 30), 0.1131, 4.07),
]


@pytest.mark.parametrize("name,weights,scale,err", FROZEN_STATS)
def test_error_stats_frozen_values(name, weights, scale, err):
    stats = max_relative_error(build_wedges(preset_mask(name, weights)))
    assert stats.scale == pytest.approx(scale, abs=5e-4)
    assert 100 * stats.error == pytest.approx(err, abs=5e-3)


def test_scale_definition():
    decomp = build_wedges(preset_mask("bcc2", (13, 15)))
    stats = max_relative_error(decomp)
    assert stats.scale == pytest.approx(
        2.0 / (stats.rho_min + stats.rho_max))
    # After rescaling, the ratio band is centered on 1.
    lo = stats.scale * stats.rho_min
    hi = stats.scale * stats.rho_max
    assert (1 - lo) == pytest.approx(hi - 1)


def test_optimize_real_weights_vertex_ratios_are_uniform():
    geom = preset_geometry("bcc3")
    opt = optimize_real_weights(geom)
    # All vertex ratios coincide at the optimum (weights proportional to
    # vector lengths), so the only excess is the wedge interior maximum.
    norms = geom.class_norms()
    ratios = [w / n for w, n in zip(opt.weights, norms)]
    assert max(ratios) - min(ratios) < 1e-12
    stats = max_relative_error(build_wedges(geom.mask_with(opt.weights)))
    assert stats.error == pytest.approx(opt.error, abs=1e-12)
    assert stats.scale == pytest.approx(1.0, abs=1e-12)


def test_search_contains_known_good_rows():
    rows = search_integer_weights(preset_geometry("bcc2"), 22)
    table = {r.weights: r for r in rows}
    assert (13, 15) in table
    assert table[(13, 15)].scale == pytest.approx(0.1190, abs=5e-4)
    assert 100 * table[(13, 15)].error == pytest.approx(10.72, abs=5e-3)
    # Non-primitive multiples are filtered.
    assert (26, 30) not in table


def test_search_respects_mediant_bounds():
    rows = search_integer_weights(preset_geometry("bcc2"), 10)
    for r in rows:
        w1, w2 = r.weights
        assert w1 <= w2 <= 2 * w1  # axis step = two corner steps


def test_search_matches_direct_evaluation():
    geom = preset_geometry("fcc2")
    rows = search_integer_weights(geom, 8)
    for r in rows[:25]:
        stats = max_relative_error(build_wedges(geom.mask_with(r.weights)))
        assert r.error == pytest.approx(stats.error, abs=1e-9)
        assert r.scale == pytest.approx(stats.scale, abs=1e-9)


@pytest.mark.parametrize("name,spacing,bound", [
    ("z2-3", (1.0, 2.0), 7), ("bcc3", (1.0, 1.0, 1.3), 9),
    ("fcc4", (1.2, 1.0, 0.8), 5)])
def test_search_matches_direct_evaluation_anisotropic(name, spacing, bound):
    geom = preset_geometry(name, spacing=spacing)
    rows = search_integer_weights(geom, bound)
    assert len(rows) > 20
    for r in rows[::max(1, len(rows) // 15)]:
        stats = max_relative_error(build_wedges(geom.mask_with(r.weights)))
        assert r.error == pytest.approx(stats.error, abs=1e-9)
        assert r.scale == pytest.approx(stats.scale, abs=1e-9)


def test_search_matches_direct_evaluation_without_symmetry():
    # Axis and diagonal classes split by direction: no class is a full
    # signed-permutation orbit, so the search cannot reduce to a chamber.
    geom = NO_SYMMETRY
    rows = search_integer_weights(geom, 5)
    assert rows
    for r in rows:
        stats = max_relative_error(build_wedges(geom.mask_with(r.weights)))
        assert r.error == pytest.approx(stats.error, abs=1e-9)
        assert r.scale == pytest.approx(stats.scale, abs=1e-9)


def test_search_without_symmetry_pinned():
    # The rows of the geometry above at bound 5 (sha256 of one line per
    # row): as a set, as the search gave them before it scored whole weight
    # columns; in order, with ties in error sorted by weights.
    geom = MaskGeometry(square_lattice(), (
        ((1, 0), (-1, 0)), ((0, 1), (0, -1)),
        ((1, 1), (-1, -1)), ((1, -1), (-1, 1))))
    rows = search_integer_weights(geom, 5)
    lines = [",".join(map(str, r.weights))
             + f",{r.scale:.10f},{r.error:.10f}\n" for r in rows]
    assert len(rows) == 607
    assert hashlib.sha256("".join(sorted(lines)).encode()).hexdigest() == (
        "e81a9e2e63c22cfb5ce56e5ac02e0ea8e297e8ed569d673b6e287f4b17df3410")
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == (
        "39b6bc78681340ec15dbd658683299bac5ac9e8a8f863998b8327ef56023366d")


def test_search_rows_are_plain_python_values():
    rows = search_integer_weights(preset_geometry("bcc3"), 12)
    assert all(type(w) is int for r in rows for w in r.weights)
    assert all(type(r.scale) is float and type(r.error) is float
               for r in rows)
    keys = [(r.max_weight, r.error, r.weights) for r in rows]
    assert keys == sorted(keys)


def test_search_ties_come_in_weight_order():
    # fcc4 at 30 has 482 adjacent pairs whose errors differ by float noise
    # (below 1e-12, the pareto margin); all ties sort by weights.
    W, _, error = _search_table(preset_geometry("fcc4"), 30)
    top = W.max(axis=0)
    ties = np.flatnonzero((np.abs(np.diff(error)) < 1e-12)
                          & (top[1:] == top[:-1]))
    assert np.count_nonzero(np.diff(error)[ties]) > 400
    assert all(tuple(W[:, i]) < tuple(W[:, i + 1]) for i in ties.tolist())


def test_search_empty_bound_has_no_rows():
    assert search_integer_weights(preset_geometry("bcc2"), 0) == []
    assert pareto_front([]) == []


def test_pareto_front_applies_the_tolerance_in_order():
    # (2,) improves on (1,) by less than 1e-12, so it is not kept and does
    # not become the bar: (3,) is measured against (1,), the last row kept.
    rows = [WeightRow((1,), 1.0, 0.5), WeightRow((2,), 1.0, 0.5 - 9e-13),
            WeightRow((3,), 1.0, 0.5 - 1.5e-12), WeightRow((4,), 1.0, 0.6)]
    assert [r.weights for r in pareto_front(rows)] == [(1,), (3,)]


def test_pattern_ids_equal_exactly_for_equal_columns():
    # 70 rows pass the point where the ids are renumbered to stay in int64;
    # half the columns differ only in the first rows, whose bits a plain
    # 70-bit code would shift out.
    rng = np.random.default_rng(7)
    base = rng.random((70, 40)) < 0.5
    base[6:, 20:] = base[6:, 20:21]
    bits = base[:, rng.integers(0, 40, 600)]
    ids = _pattern_ids(bits)
    _, inv = np.unique(bits, axis=1, return_inverse=True)
    same_ids = ids[:, None] == ids[None, :]
    same_cols = inv.ravel()[:, None] == inv.ravel()[None, :]
    assert np.array_equal(same_ids, same_cols)


def test_integral_float_weights_take_the_exact_path():
    exact = preset_mask("fcc4", (2, 3, 4, 5))
    spelled = preset_mask("fcc4", (2, 3, 4, 5.0))
    assert spelled == exact
    assert all(type(w) is int for w in spelled.weights)
    assert max_relative_error(build_wedges(spelled)).error == \
        max_relative_error(build_wedges(exact)).error
    assert preset_mask("z2-2", (2.5, 4.0)).weights.count(2.5) == 4


def test_nonconvex_fan_norm_scored_on_hull():
    # fcc4 (2,3,4,5) is nonconvex on its mediant fan but induces a norm;
    # its error is that of the hull gauge, not of the fan formula.
    decomp = build_wedges(preset_mask("fcc4", (2, 3, 4, 5)))
    assert not decomp.fan_convex and decomp.is_norm
    stats = max_relative_error(decomp)
    assert stats.scale == pytest.approx(0.6509, abs=5e-4)
    assert 100 * stats.error == pytest.approx(7.94, abs=5e-3)


def test_pareto_front_is_strictly_improving():
    rows = search_integer_weights(preset_geometry("bcc2"), 22)
    front = pareto_front(rows)
    errs = [r.error for r in front]
    assert errs == sorted(errs, reverse=True)
    assert all(a.max_weight < b.max_weight
               for a, b in zip(front, front[1:]))
    assert (13, 15) in [r.weights for r in front]


def test_search_one_class():
    rows = search_integer_weights(preset_geometry("fcc1"), 1)
    assert len(rows) == 1
    assert rows[0].weights == (1,)
    assert rows[0].scale == pytest.approx(1.1716, abs=5e-4)


@pytest.mark.parametrize("name", ["bcc1", "fcc1", "z2-1", "z3-1"])
def test_search_one_class_is_primitive(name):
    # (2) and (3) are multiples of (1), with the same error.
    rows = search_integer_weights(preset_geometry(name), 3)
    assert [r.weights for r in rows] == [(1,)]


def test_anisotropic_spacing_changes_error():
    geom = preset_geometry("z2-2", spacing=(1.0, 2.0))
    iso = preset_geometry("z2-2")
    r_an = max_relative_error(build_wedges(geom.mask_with((3, 4))))
    r_iso = max_relative_error(build_wedges(iso.mask_with((3, 4))))
    assert abs(r_an.error - r_iso.error) > 1e-3
