import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from fan_reference import cramer_coefficients
from grid_reference import full_box_member_grid

from latticedt.dt_engine import GridImage
from latticedt.lattice import (
    LatticeError,
    adjugate,
    bcc_lattice,
    cubic_lattice,
    custom_lattice,
    fcc_lattice,
    int_det,
    lattice_by_name,
    signed_permutation_orbit,
    square_lattice,
)

ints = st.integers(-9, 9)


def test_int_det_small():
    assert int_det(((1, 0), (0, 1))) == 1
    assert int_det(((2, 0, 0), (0, 2, 0), (1, 1, 1))) == 4
    assert int_det(((1, 1, 0), (1, 0, 1), (0, 1, 1))) == -2
    assert int_det(((1, 2), (2, 4))) == 0


@given(st.one_of(
    st.lists(st.tuples(ints, ints), min_size=2, max_size=2),
    st.lists(st.tuples(ints, ints, ints), min_size=3, max_size=3)))
@settings(max_examples=200)
def test_adjugate_inverts(cols):
    cols = [tuple(c) for c in cols]
    n = len(cols)
    d = int_det(cols)
    adj = adjugate(cols)
    # adj @ M = det * I (columns of M are the input vectors)
    for i in range(n):
        for j in range(n):
            got = sum(adj[i][k] * cols[j][k] for k in range(n))
            assert got == (d if i == j else 0)


def test_only_2x2_and_3x3_matrices():
    for cols in (((2,),), ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                           (0, 0, 0, 1)), ((1, 0, 0), (0, 1, 0))):
        with pytest.raises(LatticeError):
            int_det(cols)


@pytest.mark.parametrize("gens", [
    ((2,),),
    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 2)),
], ids=["1d", "4d"])
def test_lattice_dimension_is_2_or_3(gens):
    with pytest.raises(LatticeError, match="2- or 3-dimensional"):
        custom_lattice("c", gens)


@given(st.tuples(ints, ints, ints))
@settings(max_examples=100)
def test_cramer_reconstructs(p):
    basis = ((2, 0, 0), (0, 2, 0), (1, 1, 1))
    co = cramer_coefficients(basis, p)
    for i in range(3):
        assert sum(c * b[i] for c, b in zip(co, basis)) == Fraction(p[i])


def test_cramer_singular():
    with pytest.raises(LatticeError):
        cramer_coefficients(((1, 0), (2, 0)), (1, 1))


@pytest.mark.parametrize("spacing", [
    (0.0, 1.0), (-1.0, 1.0), (float("nan"), 1.0), (1.0, float("inf"))])
def test_spacing_must_be_finite_and_positive(spacing):
    with pytest.raises(LatticeError, match="finite and positive"):
        square_lattice(spacing)


def test_covolumes():
    assert square_lattice().covolume == 1
    assert cubic_lattice().covolume == 1
    assert bcc_lattice().covolume == 4
    assert fcc_lattice().covolume == 2


@given(st.tuples(ints, ints, ints))
@settings(max_examples=200)
def test_bcc_membership_is_equal_parity(p):
    x, y, z = p
    expected = (x % 2 == y % 2 == z % 2)
    assert bcc_lattice().member(p) == expected


@given(st.tuples(ints, ints, ints))
@settings(max_examples=200)
def test_fcc_membership_is_even_sum(p):
    assert fcc_lattice().member(p) == (sum(p) % 2 == 0)


def test_member_grid_matches_member():
    for lat in (bcc_lattice(), fcc_lattice()):
        grid = lat.member_grid((-3, -2, -1), (6, 5, 4))
        for i in range(6):
            for j in range(5):
                for k in range(4):
                    assert grid[i, j, k] == lat.member((i - 3, j - 2, k - 1))


def test_member_grid_unit_and_custom_covolume():
    assert cubic_lattice().member_grid((-2, 5, 1), (3, 4, 2)).all()
    # covolumes 6 and 307: one-byte and two-byte residue sums
    for gens in (((2, 1), (0, 3)), ((7, 2), (-3, 43))):
        lat = custom_lattice("c", gens)
        grid = lat.member_grid((-5, -4), (11, 13))
        for i in range(11):
            for j in range(13):
                assert grid[i, j] == lat.member((i - 5, j - 4))


PERIOD_LATTICES = [square_lattice(), cubic_lattice(), bcc_lattice(),
                   fcc_lattice()] + [
    custom_lattice(f"c{i}", gens) for i, gens in enumerate((
        ((1, 1), (1, -1)), ((1, 0), (1, 3)), ((1, 2), (2, 0)),
        ((1, 2), (0, 5)), ((2, 1), (0, 3)), ((7, 2), (-3, 43)),
        ((1, 0, 1), (0, 1, 1), (0, 0, 2)),
        ((1, 0, 0), (0, 1, 0), (1, 1, 3)),
        ((2, 0, 1), (0, 1, 1), (0, 0, 2)),
        ((1, 0, 2), (0, 1, 3), (0, 0, 5)),
        ((2, 0, 0), (0, 1, 1), (1, 0, 3)),
        ((1, 0, 0), (0, 1, 0), (5, 11, 307))))]


def test_period_lattices_cover_the_covolumes():
    assert sorted((lat.dim, lat.covolume) for lat in PERIOD_LATTICES) == [
        (2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 307),
        (3, 1), (3, 2), (3, 2), (3, 3), (3, 4), (3, 4), (3, 5), (3, 6),
        (3, 307)]


@st.composite
def _origin_and_dims(draw, m, n):
    """A negative-leaning origin and per-axis sides of 0, 1, below the
    period, whole periods and periods plus a remainder, at most 60000
    slots in all."""
    origin = tuple(draw(st.integers(-3 * m - 2, 2)) for _ in range(n))
    dims, slots = [], 1
    for _ in range(n):
        sides = [0, 1, max(1, m - 1), m, 2 * m, 4 * m + 3,
                 draw(st.integers(1, 5 * m))]
        d = draw(st.sampled_from([s for s in sides if s * slots <= 60000]))
        dims.append(d)
        slots *= max(d, 1)
    return origin, tuple(dims)


@pytest.mark.parametrize("lat", PERIOD_LATTICES,
                         ids=lambda lat: f"{lat.name}-{lat.covolume}")
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_member_grid_tiles_one_period(lat, data):
    origin, dims = data.draw(_origin_and_dims(lat.covolume, lat.dim))
    grid = lat.member_grid(origin, dims)
    assert grid.shape == dims and grid.dtype == np.bool_
    assert grid.flags.c_contiguous
    assert np.array_equal(grid, full_box_member_grid(lat, origin, dims))


@pytest.mark.parametrize("lat", PERIOD_LATTICES,
                         ids=lambda lat: f"{lat.name}-{lat.covolume}")
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_from_foreground_matches_where_form(lat, data):
    # The int8 arithmetic form against the np.where form it replaced, on
    # C- and Fortran-ordered foregrounds.
    origin, dims = data.draw(_origin_and_dims(lat.covolume, lat.dim))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    member = full_box_member_grid(lat, origin, dims)
    for fg in (rng.random(dims) < 0.5, rng.random(dims[::-1]).T < 0.5):
        values = GridImage.from_foreground(lat, origin, fg).values
        assert values.dtype == np.int8 and values.shape == dims
        assert np.array_equal(values, np.where(member, fg.astype(np.int8),
                                               np.int8(-1)))


def test_custom_lattice_membership():
    lat = custom_lattice("hex-ish", ((2, 1), (0, 3)))
    assert lat.covolume == 6
    assert lat.member((2, 1))
    assert lat.member((2, 4))
    assert not lat.member((1, 0))


def test_lattice_by_name():
    assert lattice_by_name("bcc").name == "BCC"
    assert lattice_by_name("Z2", (2.0, 0.5)).spacing == (2.0, 0.5)
    with pytest.raises(LatticeError):
        lattice_by_name("hexagonal")


def test_singular_generators_rejected():
    with pytest.raises(LatticeError):
        custom_lattice("bad", ((1, 2), (2, 4)))


def test_signed_permutation_orbit():
    assert signed_permutation_orbit((1, 0)) == [(-1, 0), (0, -1), (0, 1), (1, 0)]
    assert len(signed_permutation_orbit((1, 1, 1))) == 8
    assert len(signed_permutation_orbit((2, 1, 1))) == 24
    assert len(signed_permutation_orbit((3, 2, 1))) == 48


def test_euclidean_norm_uses_spacing():
    lat = cubic_lattice((1.0, 2.0, 3.0))
    assert lat.euclidean_norm((1, 1, 1)) == pytest.approx(np.sqrt(14))


@pytest.mark.parametrize("s", [1e-300, 1e-200, 3e-9, 1.0, 7.5, 1e200, 1e300])
def test_euclidean_norm_near_the_float_range_ends(s):
    # Squares of the spacing would leave the float range; lengths in the
    # lattice's power-of-two unit do not, and the unit rescales exactly.
    lat = cubic_lattice((s, 2 * s, 3 * s))
    assert 1 <= max(lat.spacing) / lat.unit < 2
    assert lat.euclidean_norm((1, 1, 1)) == pytest.approx(np.sqrt(14) * s,
                                                          rel=1e-15)
    assert cubic_lattice().unit == 1.0


@pytest.mark.parametrize("spacing", [(1e-170, 1.0), (1.0, 2.0 ** -512),
                                     (1e300, 1e-300)])
def test_spacing_ratio_that_squares_to_zero_refused(spacing):
    with pytest.raises(LatticeError, match="2\\*\\*-511"):
        square_lattice(spacing)
    square_lattice((1.0, 2.0 ** -511))  # the smallest ratio that squares
