#!/usr/bin/env python3
"""Regenerate the frozen reference images under tests/fixtures/.

All four files are derived from the two-vector diagonal mask
{(-1,0), (-1,1)} (weights 1) on Z^2:

- invalid_image.ldt: a random 6x6 image whose support is neither
  border-background nor wedge-preserving, chosen so that the forced
  two-scan output genuinely differs from the exact distance map.
- border_bg_image.ldt / border_bg_map.ldt: 13x6 box with a background
  border and two background seeds, plus its exact map.
- wedge_preserving_map.ldt: exact map of the carved parallelogram
  support 5 <= x+y <= 12, 0 <= y <= 5 with the same two seeds.

Maps are produced by ``dijkstra_oracle``, the label-setting bucket
wavefront, which is exact on every image; the two-scan is exact only on
images it certifies.  invalid_image.ldt is the first random image on
which the forced two-scan and ``dijkstra_oracle`` differ.  Run from any
directory: ``python scripts/make_fixtures.py``.
"""

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from latticedt.chamfer_mask import ChamferMask
from latticedt.dt_engine import (
    GridImage,
    Verdict,
    chamfer_two_scan,
    dijkstra_oracle,
    validate_image,
)
from latticedt.image_io import write_distance_map, write_image
from latticedt.lattice import square_lattice

OUT = ROOT / "tests" / "fixtures"


def diagonal_mask():
    return ChamferMask.build(square_lattice(),
                             [((-1, 0), 1), ((-1, 1), 1)])


def invalid_image(mask):
    """First random 6x6 image (seed 1, increasing density) where the
    forced two-scan differs from the exact map."""
    lat = square_lattice()
    rng = np.random.default_rng(1)
    for trial in range(1000):
        density = 0.35 + 0.05 * (trial % 5)
        fg = rng.random((6, 6)) < density
        img = GridImage.from_foreground(lat, (0, 0), fg)
        if validate_image(mask, img).verdict is not Verdict.INVALID:
            continue
        forced = chamfer_two_scan(img, mask, unsafe=True).values
        exact = dijkstra_oracle(img, mask).values
        if not np.array_equal(forced, exact):
            return img
    raise RuntimeError("no counterexample found")


def seeded_box(carve=None):
    lat = square_lattice()
    img = GridImage.from_foreground(lat, (0, 0), np.ones((13, 6), bool))
    if carve:
        img = img.carved(carve)
    vals = img.values.copy()
    if not carve:  # background border instead of a carved support
        vals[0, :] = vals[-1, :] = 0
        vals[:, 0] = vals[:, -1] = 0
    vals[5, 1] = 0
    vals[6, 4] = 0
    return GridImage(lat, (0, 0), vals, img.carve)


def main():
    mask = diagonal_mask()

    bad = invalid_image(mask)
    write_image(bad, f"{OUT}/invalid_image.ldt")

    border = seeded_box()
    assert validate_image(mask, border).verdict is Verdict.BORDER_BACKGROUND
    write_image(border, f"{OUT}/border_bg_image.ldt")
    write_distance_map(dijkstra_oracle(border, mask),
                       f"{OUT}/border_bg_map.ldt")

    carved = seeded_box(carve=[((1, 1), 5, 12), ((0, 1), 0, 5)])
    assert validate_image(mask, carved).verdict is Verdict.WEDGE_PRESERVING
    write_distance_map(dijkstra_oracle(carved, mask),
                       f"{OUT}/wedge_preserving_map.ldt")
    print("fixtures written to", OUT)


if __name__ == "__main__":
    main()
