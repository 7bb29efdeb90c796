"""``polar_vertices`` (chamber vertices of P* expanded by signed
permutations) against the n-subset enumeration of ``hull_reference``, on
masks that take the chamber path and masks that must fall back; and the
closed form's independence of the facet order."""

import itertools
import math

import numpy as np
import pytest

from hull_reference import hull_facets
from test_acceptance import WEIGHT_TABLES
import latticedt.chamfer_mask as cm
from latticedt.chamfer_mask import (
    ChamferMask,
    MaskError,
    WedgeDecomposition,
    build_wedges,
    convexity_report,
    polar_vertices,
)
from latticedt.dt_engine import GridImage, chamfer_two_scan
from latticedt.lattice import (
    cubic_lattice,
    custom_lattice,
    signed_permutation_orbit,
)
from latticedt.presets import PRESET_NAMES, preset_geometry, preset_mask
from latticedt.weight_opt import max_relative_error

PUBLISHED = [preset_mask(p, w) for p, (_, rows) in WEIGHT_TABLES.items()
             for w, _, _ in rows]


def _random_masks():
    """Three seeded weight tuples near the Euclidean lengths per preset."""
    rng = np.random.default_rng(1207)
    out = []
    for preset in PRESET_NAMES:
        norms = preset_geometry(preset).class_norms()
        for _ in range(3):
            scale = rng.choice([1, 2, 3, 5, 8, 13])
            out.append(preset_mask(preset, tuple(
                max(1, round(scale * x * rng.uniform(0.8, 1.25)))
                for x in norms)))
    return out


def _fallback_masks():
    # Z^3 with the (1,0,0) orbit split over two weights.
    split = ChamferMask.build(cubic_lattice(), [
        ((1, 0, 0), 3), ((0, 1, 0), 3), ((0, 0, 1), 4)]
        + [(v, 4) for v in signed_permutation_orbit((1, 1, 0))]
        + [(v, 5) for v in signed_permutation_orbit((1, 1, 1))])
    # x + y even: full orbits with one weight each, but swapping y and z
    # maps the generator (1, 1, 0) off the lattice.
    skew = ChamferMask.build(
        custom_lattice("det2", ((1, 1, 0), (1, -1, 0), (0, 0, 1))),
        [(v, w) for rep, w in (((2, 0, 0), 5), ((1, 1, 1), 4),
                               ((2, 2, 0), 7))
         for v in signed_permutation_orbit(rep)])
    return [split, skew]


@pytest.fixture
def group_sizes(monkeypatch):
    """The number of signed permutations of each polar_candidates call."""
    sizes = []
    real = cm.polar_candidates

    def spy(*args):
        out = real(*args)
        sizes.append(len(out[2][0]))
        return out
    monkeypatch.setattr(cm, "polar_candidates", spy)
    return sizes


def _assert_matches_reference(mask):
    facets = polar_vertices(mask)
    reference = hull_facets(mask)
    assert len(facets) == len(set(facets)) == len(reference)
    assert set(facets) == set(reference)
    try:
        decomp = build_wedges(mask)
    except MaskError:
        return False
    ref = WedgeDecomposition(mask, decomp.wedges, decomp.splits)
    ref.__dict__["hull"] = reference
    assert decomp.is_norm == ref.is_norm
    assert convexity_report(decomp) == convexity_report(ref)
    assert max_relative_error(decomp) == max_relative_error(ref)
    box = np.array(list(itertools.product(range(-2, 3), repeat=mask.dim)))
    pts = box[[mask.lattice.member(p) for p in box.tolist()]]
    assert np.array_equal(decomp.closed_form_distance(pts),
                          ref.closed_form_distance(pts))
    return True


@pytest.mark.parametrize("group,masks", [
    ("published", PUBLISHED), ("random", _random_masks())])
def test_chamber_path_matches_subset_reference(group, masks, group_sizes):
    for mask in masks:
        assert _assert_matches_reference(mask)
        assert set(group_sizes) == {2 ** mask.dim
                                    * math.factorial(mask.dim)}
        group_sizes.clear()


def test_fallback_masks_match_subset_reference(group_sizes):
    split, skew = _fallback_masks()
    assert _assert_matches_reference(split)
    # Every wedge of the skew mask spans the BCC sublattice, det 4.
    assert not _assert_matches_reference(skew)
    assert set(group_sizes) == {1}


@pytest.mark.parametrize("weights", [(11, 16, 19), (7, 10, 12), (2, 3, 3)])
def test_closed_form_does_not_depend_on_facet_order(weights):
    # Non-norms with nonconvex fans: _gauge's argmax takes the first of
    # tied facets, and the module formula must agree on shared boundaries.
    mask = preset_mask("fcc3", weights)
    r = 6
    fg = np.ones((2 * r + 1,) * 3, dtype=bool)
    fg[r, r, r] = False
    img = GridImage.from_foreground(mask.lattice, (-r,) * 3, fg)
    pts = np.stack([g[img.support] for g in img.coordinate_grids()], axis=1)
    want = chamfer_two_scan(img, mask, unsafe=True).values[img.support]
    for order in (1, -1):
        decomp = build_wedges(mask)
        assert not decomp.fan_convex and not decomp.is_norm
        decomp.__dict__["hull"] = polar_vertices(mask)[::order]
        assert np.array_equal(decomp.closed_form_distance(pts), want)
