#!/usr/bin/env python3
"""Print the integer weight tables and real-valued optima for every
built-in mask preset.

Usage: python scripts/reproduce_tables.py [preset ...]
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from latticedt.presets import PRESET_NAMES, preset_geometry
from latticedt.weight_opt import (
    optimize_real_weights,
    pareto_front,
    search_integer_weights,
)

SEARCH_BOUNDS = {
    "z2-1": 1, "z2-2": 22, "z2-3": 30,
    "z3-1": 1, "z3-2": 22, "z3-3": 30,
    "bcc1": 1, "bcc2": 22, "bcc3": 54, "bcc4": 50,
    "fcc1": 1, "fcc2": 22, "fcc3": 26, "fcc4": 30,
}


def show(preset):
    geometry = preset_geometry(preset)
    bound = SEARCH_BOUNDS[preset]
    t0 = time.monotonic()
    rows = pareto_front(search_integer_weights(geometry, bound))
    dt = time.monotonic() - t0
    opt = optimize_real_weights(geometry)
    print(f"== {preset}  (search bound {bound}, {dt:.2f}s) ==")
    for r in rows:
        ws = " ".join(f"{w:>3d}" for w in r.weights)
        print(f"  {ws}   scale {r.scale:.4f}   error {100 * r.error:.2f}%")
    ws = ", ".join(f"{w:.3f}" for w in opt.weights)
    print(f"  real optimum: ({ws})   error {100 * opt.error:.2f}%")
    print()


def main():
    names = sys.argv[1:] or [n for n in PRESET_NAMES if n in SEARCH_BOUNDS]
    for preset in names:
        show(preset)


if __name__ == "__main__":
    main()
