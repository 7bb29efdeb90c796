import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixture_path, orbit_mask
from text_reference import ascii_payload, csv_text
from latticedt import image_io
from latticedt.chamfer_mask import MaskError
from latticedt.dt_engine import GridImage, chamfer_two_scan
from latticedt.image_io import (
    FormatError,
    distance_map_csv,
    random_image,
    read_distance_map,
    read_image,
    read_mask,
    single_point_image,
    write_distance_map,
    write_image,
)
from latticedt.dt_engine import DistanceMap
from latticedt.image_io import INF32
from latticedt.lattice import (
    LatticeError,
    bcc_lattice,
    cubic_lattice,
    custom_lattice,
    fcc_lattice,
    square_lattice,
)
from latticedt.presets import preset_mask

LATTICES = {"Z2": (square_lattice, (11, 7)),
            "Z3": (cubic_lattice, (5, 4, 3)),
            "BCC": (bcc_lattice, (7, 6, 5)),
            "FCC": (fcc_lattice, (7, 5, 3))}


def test_image_round_trip_ascii(tmp_path):
    img = random_image(bcc_lattice(), (9, 8, 7), 0.6, seed=11)
    p = tmp_path / "a.ldt"
    write_image(img, p)
    back = read_image(p)
    assert np.array_equal(back.values, img.values)
    assert back.lattice.name == "BCC"
    # byte-identical re-serialization
    p2 = tmp_path / "b.ldt"
    write_image(back, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_image_round_trip_binary(tmp_path):
    img = random_image(fcc_lattice(), (10, 9, 8), 0.4, seed=3)
    p = tmp_path / "a.ldt"
    write_image(img, p, encoding="binary")
    back = read_image(p)
    assert np.array_equal(back.values, img.values)


def test_payload_length_matches_member_count(tmp_path):
    img = random_image(bcc_lattice(), (6, 6, 6), 0.5, seed=0)
    p = tmp_path / "a.ldt"
    write_image(img, p)
    text = p.read_text()
    payload = text.split("data ascii\n", 1)[1]
    count = sum(1 for x in range(6) for y in range(6) for z in range(6)
                if x % 2 == y % 2 == z % 2)
    assert len(payload.split()) == count


def test_origin_and_scale_round_trip(tmp_path):
    mask = preset_mask("fcc2", (2, 3))
    img = single_point_image(fcc_lattice(), (9, 9, 9))
    img = GridImage(img.lattice, (-4, -4, -4), img.values)
    dmap = chamfer_two_scan(img, mask, unsafe=True)
    dmap.scale = 0.6357
    p = tmp_path / "m.ldt"
    write_distance_map(dmap, p)
    back = read_distance_map(p)
    assert back.origin == (-4, -4, -4)
    assert back.scale == pytest.approx(0.6357)
    finite = dmap.values < dmap.infinity
    assert np.array_equal(back.values[finite], dmap.values[finite])
    assert np.all(back.values[~finite & img.support] == back.infinity)


def test_malformed_headers(tmp_path):
    p = tmp_path / "bad.ldt"
    p.write_text("LDT0\nlattice Z2\n")
    with pytest.raises(FormatError):
        read_image(p)
    p.write_text("LDT1\nlattice Z2\ndims 3 3\ndata ascii\n0 0 0\n")
    with pytest.raises(FormatError):  # missing spacing
        read_image(p)
    p.write_text("LDT1\nlattice Z2\ndims 3 3\nspacing 1.0 1.0\n"
                 "data ascii\n0 0 0\n")
    with pytest.raises(FormatError):  # payload too short
        read_image(p)
    p.write_text("LDT1\nlattice Z2\ndims 3 3\nspacing 1.0 1.0\n"
                 "data ascii\n0 0 2 0 0 0 0 0 0\n")
    with pytest.raises(FormatError):  # non-binary value
        read_image(p)


def test_custom_lattice_header(tmp_path):
    p = tmp_path / "c.ldt"
    p.write_text("LDT1\nlattice custom\ngenerators 2 1 ; 0 3\n"
                 "dims 4 4\nspacing 1.0 1.0\ndata ascii\n" +
                 " ".join("1" for _ in range(3)) + "\n")
    img = read_image(p)
    assert img.lattice.covolume == 6
    assert int(np.count_nonzero(img.support)) == 3
    # A lattice that takes a built-in name with other generators is
    # written as custom, so its payload length matches its own members.
    lat = custom_lattice("BCC", ((2, 0, 0), (0, 2, 0), (0, 0, 2)))
    img = random_image(lat, (5, 4, 3), 0.5, seed=2)
    write_image(img, p)
    assert "lattice custom\ngenerators 2 0 0 ; 0 2 0 ; 0 0 2\n" in \
        p.read_text()
    back = read_image(p)
    assert back.lattice.generators == lat.generators
    assert np.array_equal(back.values, img.values)


@pytest.mark.parametrize("spacing", ["0 1", "-1 1", "nan 1", "1 inf"])
def test_bad_header_spacing_refused(tmp_path, capsys, spacing):
    from latticedt.cli import main
    p = tmp_path / "s.ldt"
    p.write_text(f"LDT1\nlattice Z2\ndims 2 2\nspacing {spacing}\n"
                 "data ascii\n1 1 1 1\n")
    with pytest.raises(LatticeError, match="finite and positive"):
        read_image(p)
    code = main(["dt", "--in", str(p), "--vectors", "z2-1", "--weights", "1"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: spacing must be")


def test_four_dimensional_header_refused(tmp_path, capsys):
    from latticedt.cli import main
    p = tmp_path / "four.ldt"
    p.write_text("LDT1\nlattice custom\n"
                 "generators 1 0 0 0 ; 0 1 0 0 ; 0 0 1 0 ; 0 0 0 1\n"
                 "dims 2 2 2 2\nspacing 1 1 1 1\ndata ascii\n"
                 + " ".join("1" * 16) + "\n")
    with pytest.raises(LatticeError, match="2- or 3-dimensional"):
        read_image(p)
    code = main(["dt", "--in", str(p), "--vectors", "z3-1", "--weights", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: lattices are 2- or 3-dimensional, not 4\n"


def test_carved_image_has_no_file_form(tmp_path):
    box = GridImage.from_foreground(square_lattice(), (0, 0),
                                    np.ones((6, 6), bool))
    img = box.carved([((1, 1), 2, 8)])
    with pytest.raises(FormatError):
        write_image(img, tmp_path / "x.ldt")


def test_mask_file_round_trip(tmp_path):
    mask = orbit_mask(square_lattice(), [((1, 0), 3), ((1, 1), 4)])
    p = tmp_path / "m.mask"
    p.write_text("".join(" ".join(map(str, v)) + f" : {w}\n"
                         for v, w in zip(mask.vectors, mask.weights)))
    back = read_mask(p, square_lattice())
    assert back.vectors == mask.vectors
    assert back.weights == mask.weights


def test_mask_file_closure_and_comments():
    path = fixture_path("diag_mask.txt")
    mask = read_mask(path, square_lattice())
    assert set(mask.vectors) == {(-1, 0), (-1, 1), (1, -1), (1, 0)}
    assert set(mask.weights) == {1}


def test_mask_file_errors(tmp_path):
    p = tmp_path / "bad.mask"
    p.write_text("1 0\n")
    with pytest.raises(FormatError):
        read_mask(p, square_lattice())
    p.write_text("1 0 0 : 1\n")
    with pytest.raises(FormatError):  # wrong dimension
        read_mask(p, square_lattice())


def test_synth_determinism():
    a = random_image(square_lattice(), (12, 12), 0.5, seed=42)
    b = random_image(square_lattice(), (12, 12), 0.5, seed=42)
    assert np.array_equal(a.values, b.values)
    c = random_image(square_lattice(), (12, 12), 0.5, seed=43)
    assert not np.array_equal(a.values, c.values)


def test_single_point_image():
    img = single_point_image(square_lattice(), (9, 9),
                             border_background=True)
    vals = img.values
    assert vals[4, 4] == 0
    assert np.all(vals[0, :] == 0) and np.all(vals[:, -1] == 0)
    assert int(np.count_nonzero(vals == 0)) == 1 + (81 - 49)
    # on BCC the center snaps to a lattice member
    img = single_point_image(bcc_lattice(), (8, 8, 8))
    zero = np.argwhere(img.values == 0)
    assert len(zero) == 1
    assert bcc_lattice().member(tuple(zero[0]))


def test_csv_export():
    mask = orbit_mask(square_lattice(), [((1, 0), 1)])
    img = single_point_image(square_lattice(), (3, 3))
    dmap = chamfer_two_scan(img, mask, unsafe=True)
    text = distance_map_csv(dmap)
    lines = text.strip().splitlines()
    assert lines[0] == "x,y,value"
    assert "1,1,0" in lines
    assert len(lines) == 10


# ---------------------------------------------------------------------------
# The vectorised codec against a plain per-token reference.
# ---------------------------------------------------------------------------


def reference_payload_order(lattice, origin, dims):
    """Flat indices of the box's lattice members, x fastest, by brute force
    over Lattice.member."""
    order = []
    for rev in np.ndindex(*reversed(dims)):
        p = tuple(reversed(rev))
        if lattice.member(tuple(o + c for o, c in zip(origin, p))):
            order.append(int(np.ravel_multi_index(p, dims)))
    return np.array(order, dtype=np.int64)


def reference_ascii(values, lattice, origin, dims):
    """ASCII payload: dims[0] tokens a line, a short last line."""
    flat = values.ravel()[reference_payload_order(lattice, origin, dims)]
    toks = [str(int(v)) for v in flat]
    lines = [" ".join(toks[i:i + dims[0]])
             for i in range(0, len(toks), dims[0])]
    return ("\n".join(lines) + "\n").encode("ascii")


def reference_csv(dmap):
    """'x,y[,z],value' lines of every finite entry, sorted by coordinate."""
    grids = np.meshgrid(*[np.arange(o, o + d)
                          for o, d in zip(dmap.origin, dmap.dims)],
                        indexing="ij")
    finite = dmap.values < dmap.infinity
    rows = sorted((tuple(int(g[idx]) for g in grids), int(dmap.values[idx]))
                  for idx in zip(*np.nonzero(finite)))
    names = ["x", "y", "z"][:len(dmap.dims)]
    return "".join([",".join(names + ["value"]) + "\n"] +
                   [",".join(str(c) for c in p) + f",{v}\n"
                    for p, v in rows])


def sample_map(name, seed=0):
    """Map over a negative-origin box: lattice members hold 0 .. 2e5 or
    the infinity, non-members the infinity."""
    make, dims = LATTICES[name]
    lattice = make()
    origin = tuple(-3 - i for i in range(len(dims)))
    rng = np.random.default_rng(seed)
    inf = 10 ** 6
    values = rng.integers(0, 200000, dims)
    values[rng.random(dims) < 0.2] = inf
    values[rng.random(dims) < 0.1] = 0
    values[~lattice.member_grid(origin, dims)] = inf
    return DistanceMap(lattice, origin, values, inf, 0.5)


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_map_writers_match_reference(tmp_path, name):
    dmap = sample_map(name)
    order = reference_payload_order(dmap.lattice, dmap.origin, dmap.dims)
    if dmap.lattice.covolume > 1:
        assert len(order) % dmap.dims[0] != 0  # the last line is short
    assert np.any(dmap.values.ravel()[order] == dmap.infinity)
    assert distance_map_csv(dmap) == reference_csv(dmap)
    p = tmp_path / "m.ldt"
    write_distance_map(dmap, p)
    payload = p.read_bytes().split(b"data ascii\n", 1)[1]
    stored = np.where(dmap.values < dmap.infinity, dmap.values, INF32)
    assert payload == reference_ascii(stored, dmap.lattice, dmap.origin,
                                      dmap.dims)
    back = read_distance_map(p)
    assert back.origin == dmap.origin
    assert np.array_equal(back.values, stored)
    write_distance_map(dmap, tmp_path / "b.ldt", encoding="binary")
    back = read_distance_map(tmp_path / "b.ldt")
    assert np.array_equal(back.values, stored)


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_image_writer_matches_reference(tmp_path, name):
    make, dims = LATTICES[name]
    origin = tuple(-1 - 2 * i for i in range(len(dims)))
    fg = np.random.default_rng(5).random(dims) < 0.5
    img = GridImage.from_foreground(make(), origin, fg)
    p = tmp_path / "i.ldt"
    write_image(img, p)
    payload = p.read_bytes().split(b"data ascii\n", 1)[1]
    assert payload == reference_ascii(img.values, img.lattice, origin, dims)
    assert np.array_equal(read_image(p).values, img.values)


@pytest.mark.parametrize("name", ["border_bg_image.ldt", "invalid_image.ldt",
                                  "border_bg_map.ldt",
                                  "wedge_preserving_map.ldt"])
def test_fixtures_rewrite_byte_identical(tmp_path, name):
    src = fixture_path(name)
    p = tmp_path / name
    if name.endswith("_map.ldt"):
        write_distance_map(read_distance_map(src), p)
    else:
        write_image(read_image(src), p)
    assert p.read_bytes() == open(src, "rb").read()


def test_member_count_matches_grid():
    rng = np.random.default_rng(2)
    lattices = [make() for make, _ in LATTICES.values()]
    lattices.append(custom_lattice("c", ((2, 1), (0, 3))))
    for lat in lattices:
        for _ in range(10):
            dims = tuple(int(d) for d in rng.integers(1, 9, lat.dim))
            origin = tuple(int(o) for o in rng.integers(-9, 9, lat.dim))
            assert image_io._member_count(lat, origin, dims) == \
                int(lat.member_grid(origin, dims).sum())


def header(lattice, dims, encoding):
    return (f"LDT1\nlattice {lattice}\ndims {dims}\n"
            f"spacing 1.0 1.0 1.0\ndata {encoding}\n").encode("ascii")


@pytest.mark.parametrize("lattice", ["Z3", "BCC", "FCC"])
def test_huge_dims_refused_before_allocation(tmp_path, lattice):
    p = tmp_path / "huge.ldt"
    for encoding, payload in (("ascii", b"0 1\n"),
                              ("binary", bytes(8))):
        p.write_bytes(header(lattice, "100000 100000 100000", encoding)
                      + payload)
        for reader in (read_image, read_distance_map):
            with pytest.raises(FormatError, match="expected"):
                reader(p)


def test_out_of_range_origin_refused(tmp_path):
    p = tmp_path / "far.ldt"
    p.write_bytes(b"LDT1\nlattice FCC\ndims 2 2 2\nspacing 1.0 1.0 1.0\n"
                  b"origin 0 0 " + str(2 ** 70).encode() +
                  b"\ndata ascii\n0 0 0 0\n")
    with pytest.raises(FormatError, match="2\\*\\*62"):
        read_image(p)


def test_map_values_beyond_32_bits_refused(tmp_path):
    lat = square_lattice()
    for big in (INF32, 2 ** 32 + 5):
        values = np.array([[0, 1], [big, 3]], dtype=np.int64)
        dmap = DistanceMap(lat, (0, 0), values, 2 ** 40)
        for encoding in ("ascii", "binary"):
            with pytest.raises(FormatError):
                write_distance_map(dmap, tmp_path / "m.ldt",
                                   encoding=encoding)
    # the infinity itself is stored as INF32
    dmap = DistanceMap(lat, (0, 0), np.array([[0, 2 ** 40]]), 2 ** 40)
    write_distance_map(dmap, tmp_path / "m.ldt")
    assert read_distance_map(tmp_path / "m.ldt").values.tolist() == \
        [[0, INF32]]


def ascii_map(tmp_path, payload):
    p = tmp_path / "m.ldt"
    p.write_bytes(b"LDT1\nlattice Z2\ndims 2 2\nspacing 1.0 1.0\n"
                  b"data ascii\n" + payload)
    return p


def test_ascii_payload_accepts_unsigned_decimals(tmp_path):
    p = ascii_map(tmp_path, b"  007\t0\r\n 4294967295\x0b\x0c"
                            b"0000000000000000012")
    assert read_distance_map(p).values.tolist() == [[7, INF32], [0, 12]]


@pytest.mark.parametrize("token", [b"+1", b"-0", b"1_0", b"0x1", b"1.0",
                                   b"1e3", b"\xd9\xa1", b"4294967296",
                                   b"99999999999999999999", b"100000000005",
                                   b"1,"])
def test_ascii_payload_refuses_other_tokens(tmp_path, token):
    with pytest.raises(FormatError):
        read_distance_map(ascii_map(tmp_path, b"0 1 2 " + token + b"\n"))


# ---------------------------------------------------------------------------
# The digit-matrix text writers against the template writer they replaced.
# ---------------------------------------------------------------------------


def _payload(path):
    return path.read_bytes().split(b"data ascii\n", 1)[1]


@given(name=st.sampled_from(sorted(LATTICES)), data=st.data(),
       seed=st.integers(0, 2 ** 32 - 1),
       low=st.sampled_from([0, 0, -5000]),
       top=st.sampled_from([0, 1, 9, 10, 99, 12345, INF32 - 1, 2 ** 40]),
       inf_share=st.sampled_from([0.0, 0.3, 1.0]),
       chunk=st.sampled_from(["1", "3", "line-1", "line", "line+1",
                              "default"]))
@settings(max_examples=400, deadline=None)
def test_text_writers_match_reference(tmp_path_factory, name, data, seed,
                                      low, top, inf_share, chunk):
    # 2D and 3D boxes with negative origins and zero-length axes; maps
    # that are empty or all infinite, store INF32 entries in the payload,
    # or hold finite CSV values beyond 32 bits; chunk sizes that change
    # the digit width from chunk to chunk.
    make, _ = LATTICES[name]
    lattice = make()
    n = lattice.dim
    dims = tuple(data.draw(st.integers(0, 12 if n == 2 else 7))
                 for _ in range(n))
    origin = tuple(data.draw(st.integers(-40, 9)) for _ in range(n))
    rng = np.random.default_rng(seed)
    inf = top + 1
    values = rng.integers(low, top + 1, dims)
    values[rng.random(dims) < 0.1] = top
    values[rng.random(dims) < inf_share] = inf
    dmap = DistanceMap(lattice, origin, values, inf)
    img = GridImage.from_foreground(lattice, origin, rng.random(dims) < 0.5)
    member = lattice.member_grid(origin, dims).T
    stored = np.where(values < inf, values, INF32).T[member]
    size = {"1": 1, "3": 3, "line-1": max(1, dims[0] - 1), "line": dims[0],
            "line+1": dims[0] + 1, "default": image_io._CHUNK_VALUES}[chunk]
    p = tmp_path_factory.getbasetemp() / "text.ldt"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(image_io, "_CHUNK_VALUES", max(size, 1))
        assert distance_map_csv(dmap) == csv_text(dmap)
        if low == 0 and top < INF32:
            write_distance_map(dmap, p)
            assert _payload(p) == ascii_payload(stored, dims[0])
        write_image(img, p)
        assert _payload(p) == ascii_payload(img.values.T[member], dims[0])
