import hashlib
import importlib.util
import os
import re

import numpy as np
import pytest

from conftest import fixture_path
from latticedt import cli, dt_engine, image_io
from latticedt.chamfer_mask import build_wedges
from latticedt.cli import main
from latticedt.lattice import (
    bcc_lattice,
    cubic_lattice,
    fcc_lattice,
    square_lattice,
)
from latticedt.presets import preset_geometry, preset_mask
from latticedt.weight_opt import (
    _search_table,
    max_relative_error,
    optimize_real_weights,
)

# The benchmark's checks decode CSV maps without latticedt.
_spec = importlib.util.spec_from_file_location("bench_checks", os.path.join(
    os.path.dirname(__file__), os.pardir, "perfbench", "checks.py"))
bench_checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_checks)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as e:
        main(["weights", "search", "--vectors", "bcc2"])  # missing max-weight
    assert e.value.code == 2


def test_unknown_command_exit_code():
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2


def test_weights_search_golden_row(capsys):
    code, out, _ = run(capsys, "weights", "search", "--lattice", "BCC",
                       "--vectors", "bcc2", "--max-weight", "22")
    assert code == 0
    assert "13 15 0.119 10.72" in out


def test_weights_search_csv(capsys):
    code, out, _ = run(capsys, "weights", "search", "--vectors", "fcc2",
                       "--max-weight", "3", "--format", "csv", "--all")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "w1,w2,scale,error_pct"
    assert any(line.startswith("2,3,0.6357,") for line in lines)


# sha256 of the whole stdout, taken before the search scored whole weight
# columns and printed through one template; the output must not move.  The
# fcc4 digest was retaken when rows whose errors tie to 12 decimals came to
# be sorted by weights: 22 of its lines changed places, none changed.
SEARCH_DIGESTS = [
    (("fcc4", "12", "--all", "--format", "csv"),
     "1b7e231dc37cc1e3e360b1130428e5765a3b7fc3a3d1ab645011b3252e8366ab"),
    (("bcc3", "20", "--all", "--format", "csv"),
     "def4bc96d35d49ec4f1ab72ab3b4696f6b42982bc687dab28f28535261569124"),
    (("bcc2", "22"),
     "efc3691f9c08deeb89f080bfe0c92873986590d8547999f1264c3b385175ae57"),
]


@pytest.mark.parametrize("argv,digest", SEARCH_DIGESTS,
                         ids=lambda a: "_".join(a) if isinstance(a, tuple)
                         else None)
def test_weights_search_output_pinned(capsys, argv, digest):
    preset, bound, *rest = argv
    code, out, _ = run(capsys, "weights", "search", "--vectors", preset,
                       "--max-weight", bound, *rest)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_weights_search_refuses_empty_bound(capsys, bound):
    code, out, err = run(capsys, "weights", "search", "--vectors", "bcc2",
                         "--max-weight", bound)
    assert code == 2
    assert out == ""
    assert f"--max-weight must be 1 or more, got {bound}" in err


def test_integral_float_weights_are_integers(tmp_path, capsys):
    code, out, _ = run(capsys, "mask", "check", "--vectors", "fcc4",
                       "--weights", "2,3,4,5.0")
    assert code == 1
    assert "error: 7.94%" in out
    src = tmp_path / "img.ldt"
    image_io.write_image(
        image_io.random_image(cubic_lattice(), (10, 10, 10), density=0.6,
                              seed=3, border_depth=1), src)
    code, out, err = run(capsys, "dt", "--in", str(src), "--vectors", "z3-3",
                         "--weights", "3,4,5.0")
    assert code == 0, err
    ints = run(capsys, "dt", "--in", str(src), "--vectors", "z3-3",
               "--weights", "3,4,5")
    assert (code, out) == ints[:2]


def test_weights_optimize_golden(capsys):
    code, out, _ = run(capsys, "weights", "optimize", "--vectors", "bcc2")
    assert code == 0
    assert "1.547" in out and "1.786" in out and "10.69%" in out


@pytest.mark.parametrize("argv", [
    ("mask", "check", "--vectors", "z2-2", "--weights", "3,4",
     "--spacing", "0,1"),
    ("weights", "search", "--vectors", "z2-2", "--max-weight", "5",
     "--spacing", "0,1"),
    ("mask", "check", "--vectors", "z2-2", "--weights", "3,4",
     "--spacing", "nan,1"),
    ("mask", "check", "--vectors", "z2-2", "--weights", "3,4",
     "--spacing=-1,1"),
    ("weights", "optimize", "--vectors", "z3-3", "--spacing", "1,inf,1"),
    ("mask", "check", "--vectors", "z2-2", "--weights", "3,inf"),
    ("mask", "check", "--vectors", "z2-2", "--weights", "3,nan"),
], ids=["zero-spacing", "zero-spacing-search", "nan-spacing",
        "negative-spacing", "inf-spacing", "inf-weight", "nan-weight"])
def test_bad_spacing_and_weights_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "must be finite and positive" in err


def _printed_as(text, value):
    """The printed number parses and equals value to its printed digits
    (fixed decimals, or e notation at the ends of the float range)."""
    digits, _, exponent = text.partition("e")
    ulp = 10.0 ** (int(exponent or 0) - len(digits.partition(".")[2]))
    return abs(float(text) - value) <= 0.5000001 * ulp


@pytest.mark.parametrize("s", [1e200, 1e-200])
def test_mask_check_at_the_float_range_ends(capsys, s):
    # Spacing s * (1, 1) gives the spacing-1 report with ratios divided
    # and the scale multiplied by s, in e notation.
    stats = max_relative_error(build_wedges(preset_mask("z2-2", (3, 4))))
    code, out, err = run(capsys, "mask", "check", "--vectors", "z2-2",
                         "--weights", "3,4", "--spacing", f"{s!r},{s!r}")
    assert code == 0 and err == ""
    assert "error: 5.57%" in out and "convexity: strict" in out
    lo, hi = re.search(r"ratio range: \[(\S+), (\S+)\]", out).groups()
    scale = re.search(r"scale: (\S+)", out).group(1)
    assert "e" in lo + hi + scale
    assert _printed_as(lo, stats.rho_min / s)
    assert _printed_as(hi, stats.rho_max / s)
    assert _printed_as(scale, stats.scale * s)


@pytest.mark.parametrize("s", [1e200, 1e-200])
def test_weights_optimize_at_the_float_range_ends(capsys, s):
    weights = optimize_real_weights(
        preset_geometry("z2-2", (s, s))).weights
    code, out, err = run(capsys, "weights", "optimize", "--vectors", "z2-2",
                         "--spacing", f"{s!r},{s!r}")
    assert code == 0 and err == ""
    printed = [line.split()[-1] for line in out.splitlines()[1:-1]]
    assert len(printed) == len(weights) and all(
        "e" in t and _printed_as(t, w) for t, w in zip(printed, weights))


@pytest.mark.parametrize("fmt,sep", [("table", " "), ("csv", ",")])
@pytest.mark.parametrize("s", [1e200, 1e-200])
def test_weights_search_at_the_float_range_ends(capsys, s, fmt, sep):
    # Spacing s * (1, 1) gives the spacing-1 rows with each scale
    # multiplied by s, in e notation.
    argv = ["weights", "search", "--vectors", "z2-2", "--max-weight", "4",
            "--all", "--format", fmt]
    _code, base, _err = run(capsys, *argv)
    code, out, err = run(capsys, *argv, "--spacing", f"{s!r},{s!r}")
    assert code == 0 and err == ""
    _W, scale, _error = _search_table(preset_geometry("z2-2"), 4)
    rows = [line.split(sep) for line in out.splitlines()]
    expect = [line.split(sep) for line in base.splitlines()]
    skip = 1 if fmt == "csv" else 0
    assert len(rows) == len(expect) == len(scale) + skip
    assert rows[:skip] == expect[:skip]
    for row, ref, value in zip(rows[skip:], expect[skip:], scale.tolist()):
        assert row[:2] + row[3:] == ref[:2] + ref[3:]
        assert "e" in row[2] and _printed_as(row[2], value * s)


def test_spacing_ratio_beyond_the_float_range_refused(capsys):
    code, out, err = run(capsys, "weights", "optimize", "--vectors", "z2-2",
                         "--spacing", "1e-170,1")
    assert code == 1 and out == ""
    assert err.startswith("error: spacing ratios below 2**-511")


def test_mask_check_convex(capsys):
    code, out, _ = run(capsys, "mask", "check", "--vectors", "bcc2",
                       "--weights", "13,15")
    assert code == 0
    assert "wedges: 24" in out
    assert "convexity: strict" in out


def test_mask_check_nonconvex_exit_code(capsys):
    code, out, _ = run(capsys, "mask", "check", "--vectors", "fcc3",
                       "--weights", "11,16,19")
    assert code == 1
    assert "convexity: nonconvex\n  vertex (-1, -1, -2): formula value 22 " \
        "exceeds weight 19 (wedge 3)\n" in out


def test_mask_check_degenerate_offenders(capsys):
    code, out, _ = run(capsys, "mask", "check", "--vectors", "fcc3",
                       "--weights", "2,3,4")
    assert code == 0
    assert "convexity: degenerate\n" \
        "  vertex (-2, -1, -1): reached by other vectors at cost 4 " \
        "(weight 4)\n" in out
    assert "  vertex (2, 1, 1): reached by other vectors at cost 4 " \
        "(weight 4)\n" in out
    assert "exceeds" not in out and "(wedge" not in out
    assert out.count("  vertex ") == 10
    _, out, _ = run(capsys, "mask", "check", "--vectors", "z2-2",
                    "--weights", "1000001,2000002")
    assert "  vertex (1, 1): reached by other vectors at cost 2000002 " \
        "(weight 2000002)\n" in out


def test_mask_check_prints_offender_values_exactly(capsys):
    code, out, _ = run(capsys, "mask", "check", "--vectors", "z2-2",
                       "--weights", "1000001,2500002")
    assert code == 1
    assert "  vertex (1, 0): formula value 1500001 exceeds weight 1000001 " \
        "(wedge 4)\n" in out
    assert "e+" not in out


def test_weights_search_one_class_is_primitive(capsys):
    code, out, _ = run(capsys, "weights", "search", "--vectors", "bcc1",
                       "--max-weight", "3", "--all")
    assert (code, out) == (0, "1 1.268 26.79\n")


def test_mask_check_from_file(capsys):
    code, out, _ = run(capsys, "mask", "check", "--lattice", "Z2",
                       "--mask", fixture_path("diag_mask.txt"))
    assert code == 0
    assert "mask vectors: 4" in out


def test_dt_pipeline(tmp_path, capsys):
    img = image_io.random_image(bcc_lattice(), (12, 12, 12), 0.6, seed=1,
                                border_depth=2)
    src = tmp_path / "img.ldt"
    image_io.write_image(img, src)
    dst = tmp_path / "map.ldt"
    code, out, _ = run(capsys, "dt", "--in", str(src), "--vectors", "bcc2",
                       "--weights", "13,15", "--out", str(dst), "--scale")
    assert code == 0
    assert "validation: border-background" in out
    dmap = image_io.read_distance_map(dst)
    assert dmap.scale == pytest.approx(0.1190, abs=5e-4)


def test_dt_all_background(tmp_path, capsys):
    img = image_io.random_image(bcc_lattice(), (8, 8, 8), 0.0, seed=1)
    src = tmp_path / "img.ldt"
    image_io.write_image(img, src)
    code, out, _ = run(capsys, "dt", "--in", str(src), "--vectors", "bcc2",
                       "--weights", "13,15")
    assert code == 0
    assert "max distance: 0" in out


def test_dt_refuses_invalid_without_unsafe(tmp_path, capsys):
    code, out, err = run(capsys, "dt", "--in",
                         fixture_path("invalid_image.ldt"),
                         "--lattice", "Z2",
                         "--mask", fixture_path("diag_mask.txt"))
    assert code == 1
    assert "validation: invalid" in out
    assert "unsafe" in err


def test_dt_unsafe_computes(tmp_path, capsys):
    dst = tmp_path / "map.ldt"
    code, out, _ = run(capsys, "dt", "--in",
                       fixture_path("invalid_image.ldt"),
                       "--lattice", "Z2",
                       "--mask", fixture_path("diag_mask.txt"),
                       "--unsafe", "--out", str(dst))
    assert code == 0
    assert dst.exists()


def test_dt_builds_the_fan_only_for_scale(tmp_path, capsys):
    # (1, 0) and (2, 0) are collinear, so the mask has no wedge fan, yet
    # a border-background image needs none and the two-scan is exact.
    mask_file = tmp_path / "m.txt"
    mask_file.write_text("1 0 : 3\n1 1 : 4\n2 0 : 5\n")
    fg = np.zeros((9, 9), dtype=bool)
    fg[3:6, 3:6] = True
    img = dt_engine.GridImage.from_foreground(square_lattice(), (0, 0), fg)
    src = tmp_path / "img.ldt"
    image_io.write_image(img, src)
    dst = tmp_path / "o.ldt"
    argv = ["dt", "--in", str(src), "--mask", str(mask_file),
            "--lattice", "Z2", "--out", str(dst)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "validation: border-background" in out
    mask = image_io.read_mask(mask_file, square_lattice())
    assert np.array_equal(image_io.read_distance_map(dst).values,
                          dt_engine.dijkstra_oracle(img, mask).values)
    code, _, err = run(capsys, *argv, "--scale")
    assert code == 1
    assert err.startswith("error:") and "collinear" in err


def test_ball_inferred_preset(tmp_path, capsys):
    out_csv = tmp_path / "ball.csv"
    code, out, _ = run(capsys, "ball", "--lattice", "FCC", "--weights",
                       "2,3", "--radius", "8", "--out", str(out_csv))
    assert code == 0
    assert "333 points" in out
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "x,y,z,value"
    assert len(lines) == 334


@pytest.mark.parametrize("make,preset,weights", [
    (square_lattice, "z2-2", "3,4"), (cubic_lattice, "z3-3", "3,4,5"),
    (bcc_lattice, "bcc3", "4,5,7"), (fcc_lattice, "fcc3", "2,3,4")])
def test_dt_csv_decodes_to_the_library_map(tmp_path, capsys, make, preset,
                                           weights):
    lattice = make()
    dims = (13, 11) if lattice.dim == 2 else (9, 8, 7)
    img = image_io.random_image(lattice, dims, 0.7, seed=3, border_depth=2)
    src, dst = tmp_path / "img.ldt", tmp_path / "map.csv"
    image_io.write_image(img, src)
    code, _, _ = run(capsys, "dt", "--in", str(src), "--vectors", preset,
                     "--weights", weights, "--format", "csv",
                     "--out", str(dst))
    assert code == 0
    dmap = dt_engine.chamfer_two_scan(
        img, preset_mask(preset, tuple(map(int, weights.split(",")))))
    want = np.where(dmap.values < dmap.infinity, dmap.values,
                    bench_checks.INF)
    got = bench_checks.decode_csv(dst.read_bytes(), lattice.name, dims)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("lattice,preset,weights", [
    ("Z3", "z3-3", (3, 4, 5)), ("BCC", "bcc2", (13, 15))])
def test_ball_csv_decodes_to_the_library_map(tmp_path, capsys, lattice,
                                             preset, weights):
    dst = tmp_path / "ball.csv"
    code, _, _ = run(capsys, "ball", "--vectors", preset, "--weights",
                     ",".join(map(str, weights)), "--radius", "30",
                     "--out", str(dst))
    assert code == 0
    _, dmap = dt_engine.generate_ball(preset_mask(preset, weights), 30)
    # decode_csv reads boxes at the origin: shift by -origin, a lattice
    # vector here, so membership is kept.
    head, *rows = dst.read_text().splitlines()
    shifted = [",".join(str(int(t) - o) for t, o in
                        zip(row.split(","), dmap.origin + (0,)))
               for row in rows]
    data = "\n".join([head, *shifted, ""]).encode("ascii")
    got = bench_checks.decode_csv(data, lattice, dmap.dims)
    want = np.where(dmap.values <= 30, dmap.values, bench_checks.INF)
    assert np.array_equal(got, want)


def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "--lattice", "BCC", "--count", "3",
                       "--size", "16", "--seed", "1")
    assert code == 0
    assert "BCC: 3/3" in out


def test_verify_names_first_mismatch(capsys, monkeypatch):
    real = cli.chamfer_two_scan
    seen = []

    def perturbed(image, mask):
        dmap = real(image, mask)
        idx = np.unravel_index(int(np.argmax(image.values == 1)),
                               image.dims)
        seen.append((tuple(int(o + i) for o, i in zip(image.origin, idx)),
                     int(dmap.values[idx])))
        dmap.values[idx] += 1
        return dmap

    monkeypatch.setattr(cli, "chamfer_two_scan", perturbed)
    code, out, _ = run(capsys, "verify", "--lattice", "z2", "--count", "2",
                       "--size", "12", "--seed", "5")
    assert code == 1
    assert "Z2: 0/2" in out
    coord, value = seen[0]
    assert (f"Z2: first mismatch at seed 5, point {coord}: two-scan "
            f"{value + 1}, Dijkstra {value}, iterative {value}") in out


@pytest.mark.parametrize("argv,message", [
    (["--count", "0"], "--count must be 1 or more"),
    (["--lattice", "Z3", "--size", "5"], "--size must be 6 or more"),
    (["--lattice", "fcc", "--size", "7"], "--size must be 8 or more"),
    (["--lattice", "Z2", "--size", "33"], "--size must lie in [6, 32]"),
])
def test_verify_refuses_unusable_values(capsys, argv, message):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert message in err and "total:" not in out


def test_verify_refuses_unknown_lattice(capsys):
    with pytest.raises(SystemExit) as e:
        main(["verify", "--lattice", "Z9"])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'Z9'" in err and "'BCC'" in err


def test_missing_file_is_reported(capsys):
    code, _, err = run(capsys, "dt", "--in", "/nonexistent.ldt",
                       "--vectors", "bcc2", "--weights", "13,15")
    assert code == 1
    assert "error:" in err


def test_bad_weight_count(capsys):
    code, _, err = run(capsys, "ball", "--vectors", "bcc2", "--weights",
                       "1,2,3", "--radius", "2")
    assert code == 1
    assert "error:" in err


def test_dt_float_weights_is_a_clean_error(tmp_path, capsys):
    img = image_io.random_image(square_lattice(), (20, 20), density=0.6,
                                seed=3)
    src = tmp_path / "img.ldt"
    image_io.write_image(img, src)
    code, _, err = run(capsys, "dt", "--in", str(src), "--vectors", "z2-2",
                       "--weights", "0.955,1.369")
    assert code == 1
    assert "error:" in err and "integer weights" in err
    code, out, _ = run(capsys, "mask", "check", "--vectors", "z2-2",
                       "--weights", "0.955,1.369")
    assert code == 0
    assert "scale: 1.0021  error: 4.30%" in out


def test_dt_validates_once(capsys, monkeypatch):
    calls = []
    real = dt_engine.validate_image

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(dt_engine, "validate_image", counted)
    monkeypatch.setattr(cli, "validate_image", counted)
    code, out, _ = run(capsys, "dt", "--in",
                       fixture_path("border_bg_image.ldt"),
                       "--vectors", "z2-2", "--weights", "3,4")
    assert code == 0
    assert "validation: border-background" in out
    assert len(calls) == 1
