"""The library calls that ``perfbench/phases.py`` makes, with the same
arguments and keywords, on one tiny image, so that a change to the API
cannot break a traced benchmark run unnoticed."""

import numpy as np

import latticedt
from latticedt import dt_engine, image_io


def test_benchmark_entry_points(tmp_path):
    mask = latticedt.preset_mask("bcc2", (3, 4))
    fg = np.zeros((9, 9, 9), dtype=bool)
    fg[2:-2, 2:-2, 2:-2] = True  # a background border as deep as the mask
    fg[4, 4, 4] = False
    image = latticedt.GridImage.from_foreground(
        latticedt.lattice_by_name("BCC"), (0, 0, 0), fg)
    decomp = latticedt.build_wedges(mask)

    check = latticedt.validate_image(mask, image, decomp)
    assert check.verdict is latticedt.Verdict.BORDER_BACKGROUND
    plan = latticedt.make_scan_plan(mask)
    flat, sigma = dt_engine.scan_order(image, plan.normal)
    assert len(flat) == len(sigma) == np.count_nonzero(image.support)
    dmap = latticedt.chamfer_two_scan(image, mask, plan=plan, unsafe=True,
                                      decomposition=decomp)
    exact = latticedt.dijkstra_oracle(image, mask).values
    assert np.array_equal(dmap.values, exact)
    assert np.array_equal(
        latticedt.parallel_iterative_oracle(image, mask).values, exact)
    assert decomp.closed_form_distance((2, 0, 0)) == 4

    assert len(decomp.hull) > 0
    stats = latticedt.max_relative_error(decomp)
    assert 0 < stats.rho_min <= stats.rho_max
    assert latticedt.convexity_report(decomp) == ("strict", [])

    dmap.scale = stats.scale
    path = tmp_path / "map.ldt"
    image_io.write_distance_map(dmap, path, encoding="binary")
    back = image_io.read_distance_map(path)
    finite = dmap.values < dmap.infinity
    assert np.array_equal(back.values < back.infinity, finite)
    assert np.array_equal(back.values[finite], dmap.values[finite])
    assert back.scale == stats.scale
    rows = image_io.distance_map_csv(dmap).splitlines()
    assert rows[0] == "x,y,z,value"
    assert len(rows) == 1 + np.count_nonzero(finite)

    geometry = latticedt.preset_geometry("bcc2")
    assert (3, 4) in [r.weights for r in
                      latticedt.search_integer_weights(geometry, 7)]
    assert len(latticedt.optimize_real_weights(geometry).weights) == 2
