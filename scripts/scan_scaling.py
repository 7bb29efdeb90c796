#!/usr/bin/env python3
"""Print N times (default 5) the 64^3 / 32^3 two-scan runtime ratio as
tests/test_acceptance.py::test_two_scan_runtime_scaling computes it (it
wants 4 to 16), with the ms per size and the views per pass.
Usage: python scripts/scan_scaling.py [N]"""
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from latticedt import GridImage, chamfer_two_scan, cubic_lattice
from latticedt.dt_engine import _scan_layout, make_scan_plan
from latticedt.presets import preset_mask


def best_time(mask, size):
    fg = np.ones((size,) * 3, dtype=bool)
    fg[(size // 2,) * 3] = False
    img = GridImage.from_foreground(cubic_lattice(), (0, 0, 0), fg)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        chamfer_two_scan(img, mask, unsafe=True)
        best = min(best, time.perf_counter() - t0)
    return best


if __name__ == "__main__":
    mask = preset_mask("z3-3", (3, 4, 5))
    plan = make_scan_plan(mask)
    for n in (32, 64):
        lay = _scan_layout(cubic_lattice(), plan, (n,) * 3, (0, 0, 0))
        print(f"{n}^3: {len(lay.forward.steps)} views a pass")
    for _ in range(int(sys.argv[1]) if sys.argv[1:] else 5):
        big, small = best_time(mask, 64), best_time(mask, 32)
        print(f"ratio {big / small:.2f}  64^3 {1e3 * big:.2f} ms  "
              f"32^3 {1e3 * small:.2f} ms", flush=True)
