"""The row-wavefront two-scan against the level loop of ``scan_reference``
with the same plan, bit for bit, on valid and INVALID images of every
preset and of custom lattices; and against Dijkstra on valid images whose
support has gaps."""

import numpy as np
import pytest

from grid_reference import border_union_offenders
from scan_reference import level_loop_two_scan
from latticedt import dt_engine
from latticedt.chamfer_mask import ChamferMask
from latticedt.dt_engine import (
    EngineError,
    GridImage,
    ScanPlan,
    Verdict,
    _scan_layout,
    chamfer_two_scan,
    dijkstra_oracle,
    distance_bound,
    make_scan_plan,
    validate_image,
)
from latticedt.image_io import random_image
from latticedt.lattice import custom_lattice, square_lattice
from latticedt.presets import PRESET_NAMES, preset_geometry

# Sublattices of Z^2 and Z^3 of covolume 2 to 4; their rows hold lattice
# points every 1 to 4 steps, in phases that change from row to row.
CUSTOM = {
    "Z2": ((1, 0), (0, 1)),
    "2d-det2": ((1, 1), (1, -1)),
    "2d-det3": ((2, 1), (0, 3)),
    "2d-det4": ((1, 2), (2, 0)),
    "3d-det2": ((1, 0, 1), (0, 1, 1), (0, 0, 2)),
    "3d-det3": ((1, 1, 1), (0, 3, 0), (0, 1, 2)),
    "3d-det4": ((2, 0, 1), (0, 1, 1), (0, 0, 2)),
}


def _reach(mask):
    return max(abs(c) for v in mask.vectors for c in v)


def _random_mask(lattice, rng, count):
    """``count`` of the combinations of the generators with coefficients
    -1, 0 and 1 (one of each pair v, -v), with random weights."""
    gens = np.array(lattice.generators)
    combos = {}
    for coef in np.ndindex((3,) * len(gens)):
        v = tuple(int(c) for c in (np.array(coef) - 1) @ gens)
        if any(v) and tuple(-c for c in v) not in combos:
            combos[v] = int(rng.integers(2, 12))
    entries = list(combos.items())
    pick = rng.choice(len(entries), min(count, len(entries)), replace=False)
    return ChamferMask.build(lattice, [entries[i] for i in pick])


def _images(mask, rng, count=3, side=(3, 11)):
    """Random images; a border as deep as the mask gives valid ones, and
    without one, or with points dropped from the support, most are
    INVALID."""
    for i in range(count):
        dims = tuple(int(rng.integers(*side)) for _ in range(mask.dim))
        img = random_image(mask.lattice, dims, float(rng.uniform(0.3, 1.0)),
                           seed=int(rng.integers(1 << 30)),
                           border_depth=_reach(mask) if i % 3 == 1 else 0)
        if i % 3 == 2:
            vals = img.values.copy()
            vals[rng.random(dims) < 0.1] = -1
            img = GridImage(img.lattice, img.origin, vals)
        yield img


def _same_as_level_loop(mask, img):
    plan = make_scan_plan(mask)
    got = chamfer_two_scan(img, mask, plan=plan, unsafe=True).values
    assert np.array_equal(got, level_loop_two_scan(img, mask, plan).values)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_match_level_loop(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    geometry = preset_geometry(name)
    verdicts = set()
    for _ in range(2):
        mask = geometry.mask_with(tuple(
            int(w) for w in rng.integers(1, 30, geometry.num_classes)))
        for img in _images(mask, rng):
            verdicts.add(validate_image(mask, img).verdict)
            _same_as_level_loop(mask, img)
    assert Verdict.INVALID in verdicts and len(verdicts) > 1


@pytest.mark.parametrize("name", sorted(CUSTOM))
def test_custom_lattices_match_level_loop(name):
    lattice = custom_lattice(name, CUSTOM[name])
    rng = np.random.default_rng(sum(map(ord, name)))
    for count in (2, 4, 6):
        mask = _random_mask(lattice, rng, count)
        for img in _images(mask, rng):
            _same_as_level_loop(mask, img)


def _two_in_row_masks():
    yield ChamferMask.build(square_lattice(), [
        ((1, 0), 3), ((0, 1), 3), ((0, 2), 5), ((1, 1), 4)])
    yield ChamferMask.build(custom_lattice("c", CUSTOM["3d-det2"]), [
        ((1, 0, 1), 3), ((0, 1, 1), 3), ((0, 0, 2), 2), ((0, 0, 4), 3),
        ((1, 1, 0), 4)])


def _holes(img, mask, rng, count):
    """Carve ``count`` interior lattice points out of the support and make
    their mask neighbours background, so the image stays border-
    background with gaps inside its rows."""
    vals = img.values.copy()
    reach = _reach(mask)
    inner = np.argwhere(vals[tuple(slice(2 * reach, d - 2 * reach)
                                   for d in vals.shape)] >= 0) + 2 * reach
    for c in inner[rng.choice(len(inner), count, replace=False)]:
        vals[tuple(c)] = -1
        for v in mask.vectors:
            q = tuple(c + v)
            if vals[q] == 1:
                vals[q] = 0
    return GridImage(img.lattice, img.origin, vals)


def _border_background(img, mask):
    """Background wherever a mask step leaves the support."""
    vals = img.values.copy()
    sup = vals >= 0
    for p in np.argwhere(vals == 1):
        for v in mask.vectors:
            q = p + v
            if (np.any(q < 0) or np.any(q >= vals.shape)
                    or not sup[tuple(q)]):
                vals[tuple(p)] = 0
                break
    return GridImage(img.lattice, img.origin, vals)


def test_two_in_row_steps_match_level_loop():
    rng = np.random.default_rng(21)
    for mask in _two_in_row_masks():
        for img in _images(mask, rng, count=4):
            _same_as_level_loop(mask, img)
        plan = make_scan_plan(mask)
        dims = (4 * _reach(mask) + 8,) * mask.dim
        img = _holes(random_image(mask.lattice, dims, 0.9, seed=3,
                                  border_depth=_reach(mask)), mask, rng, 4)
        assert validate_image(mask, img).verdict is not Verdict.INVALID
        got = chamfer_two_scan(img, mask, unsafe=True).values
        assert np.array_equal(got, level_loop_two_scan(img, mask,
                                                       plan).values)
        assert np.array_equal(got, dijkstra_oracle(img, mask).values)


@pytest.mark.parametrize("name,weights", [
    ("z2-2", (3, 4)), ("z3-3", (3, 4, 5)), ("bcc3", (4, 5, 7)),
    ("fcc3", (2, 3, 4)), ("bcc4", (5, 6, 8, 10)),
])
def test_gapped_support_matches_oracle(name, weights):
    # Interior holes and a carved support: the rows have gaps, across
    # which the in-row running minimum must not reach.
    mask = preset_geometry(name).mask_with(weights)
    rng = np.random.default_rng(len(name))
    reach = _reach(mask)
    dims = (4 * reach + 9,) * mask.dim
    img = random_image(mask.lattice, dims, 0.85, seed=5, border_depth=reach)
    cases = [_holes(img, mask, rng, 5)]
    cut = img.carved([((1,) * mask.dim, reach,
                       mask.dim * (dims[0] - 1) - 3 * reach)])
    cases.append(_border_background(cut, mask))
    for case in cases:
        assert validate_image(mask, case).verdict is Verdict.BORDER_BACKGROUND
        got = chamfer_two_scan(case, mask).values
        assert np.array_equal(got, dijkstra_oracle(case, mask).values)


def _margin(img, mask):
    """The two-scan works in int32 exactly when this is at most 2**31 - 1:
    twice the infinity plus the largest in-row ramp over a padded row."""
    layout = _scan_layout(img.lattice, make_scan_plan(mask), img.dims,
                          img.origin)
    return 2 * (distance_bound(img, mask) + layout.ramp)


def _dtype_cases():
    """(mask, image) pairs: full boxes, a carved support (the gapped
    path) and masks with two in-row steps; all border-background."""
    z2 = preset_geometry("z2-2").mask_with((2, 3))
    bcc = preset_geometry("bcc2").mask_with((3, 4))
    two = list(_two_in_row_masks())
    for mask, dims, cut in ((z2, (4, 5), ()), (bcc, (6, 6, 7), ()),
                            (z2, (6, 7), [((1, 1), 2, 9)]),
                            (two[0], (4, 7), ()), (two[1], (4, 4, 9), ())):
        img = random_image(mask.lattice, dims, 0.9, seed=len(dims),
                           border_depth=0)
        yield mask, _border_background(img.carved(cut), mask)


@pytest.mark.parametrize("case", range(5))
def test_int32_boundary_matches_references(case, monkeypatch):
    # Weights scaled so that the int32 test passes by the least margin,
    # then fails by the least: the work moves to int64 and every map stays
    # the level loop's and Dijkstra's, int64 with the same infinity.
    base, img = list(_dtype_cases())[case]
    limit = np.iinfo(np.int32).max
    step = _margin(img, base) - 2
    seen, sweep = [], dt_engine._sweep

    def spy(buf, *args):
        seen.append(buf.dtype)
        sweep(buf, *args)

    monkeypatch.setattr(dt_engine, "_sweep", spy)
    assert validate_image(base, img).verdict is not Verdict.INVALID
    for factor, dtype in (((limit - 2) // step, np.int32),
                          ((limit - 2) // step + 1, np.int64)):
        mask = ChamferMask.build(base.lattice, [
            (v, factor * w) for v, w in zip(base.vectors, base.weights)])
        assert (_margin(img, mask) <= limit) == (dtype is np.int32)
        assert max(mask.weights) > 10 ** 7
        seen.clear()
        dmap = chamfer_two_scan(img, mask, unsafe=True)
        assert seen == [dtype, dtype]
        assert dmap.values.dtype == np.int64
        assert dmap.infinity == distance_bound(img, mask)
        plan = make_scan_plan(mask)
        assert np.array_equal(dmap.values,
                              level_loop_two_scan(img, mask, plan).values)
        assert np.array_equal(dmap.values, dijkstra_oracle(img, mask).values)


def _validation_cases(lattice, rng, reach, count=12):
    """Border-background, full-box, partial-support and carved images at
    random origins."""
    n = lattice.dim
    for i in range(count):
        dims = tuple(int(d) for d in rng.integers(2 * reach + 1, 12, n))
        origin = tuple(int(o) for o in rng.integers(-9, 3, n))
        fg = rng.random(dims) < rng.uniform(0.3, 1.0)
        if i % 4 == 0:
            core = np.zeros(dims, dtype=bool)
            core[tuple(slice(reach, d - reach) for d in dims)] = True
            fg &= core
        img = GridImage.from_foreground(lattice, origin, fg)
        if i % 4 == 2:
            vals = img.values.copy()
            vals[rng.random(dims) < 0.1] = -1
            img = GridImage(lattice, origin, vals)
        elif i % 4 == 3:
            a = tuple(int(c) for c in rng.integers(-1, 2, n))
            a = a if any(a) else (1,) * n
            mid = sum(c * (o + d // 2) for c, o, d in zip(a, origin, dims))
            img = img.carved([(a, mid - int(rng.integers(0, 8)),
                               mid + int(rng.integers(0, 8)))])
        yield img


def _masks_of(name, rng):
    if name in CUSTOM:
        lattice = custom_lattice(name, CUSTOM[name])
        return [_random_mask(lattice, rng, 13) for _ in range(2)]
    geometry = preset_geometry(name)
    return [geometry.mask_with(tuple(
        int(w) for w in rng.integers(1, 30, geometry.num_classes)))
        for _ in range(2)]


@pytest.mark.parametrize("name", PRESET_NAMES + tuple(sorted(CUSTOM)))
def test_border_test_matches_union(name):
    # validate_image finds the foreground points whose mask neighbors all
    # lie in the support; its verdict and the offender count in its reason
    # must be those of the per-vector border union.
    rng = np.random.default_rng(sum(map(ord, name)) + 7)
    verdicts = set()
    for mask in _masks_of(name, rng):
        for img in _validation_cases(mask.lattice, rng, _reach(mask)):
            count = int(border_union_offenders(mask, img).sum())
            res = validate_image(mask, img)
            verdicts.add(res.verdict)
            if not count:
                assert res.verdict is Verdict.BORDER_BACKGROUND
                assert res.reason == ""
            elif res.verdict is Verdict.WEDGE_PRESERVING:
                assert res.reason == ""
            else:
                assert res.verdict is Verdict.INVALID
                tail = f"{count} foreground border point(s)"
                assert res.reason.endswith("; " + tail) or res.reason == (
                    tail + " and support is not the declared half-space "
                    "intersection")
    assert Verdict.INVALID in verdicts and len(verdicts) > 1


def test_hand_made_plan_must_be_lexicographic(z2_mask):
    img = random_image(square_lattice(), (8, 8), 0.5, seed=1,
                       border_depth=1)
    plan = make_scan_plan(z2_mask)
    swapped = ScanPlan(plan.normal, plan.half2, plan.half1)
    with pytest.raises(EngineError, match="lexicographic"):
        chamfer_two_scan(img, z2_mask, plan=swapped)
    # The old normal (1, 1) split for city block: (1, -1) goes forward.
    mixed = ScanPlan((1, 1), (((1, -1), 4), ((-1, 0), 3)), ())
    with pytest.raises(EngineError, match="lexicographic"):
        chamfer_two_scan(img, z2_mask, plan=mixed, unsafe=True)
