"""Command-line interface.

Subcommands: ``mask check``, ``weights optimize``, ``weights search``,
``dt``, ``ball``, ``verify``.  Exit codes: 0 success, 1 validation
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import itertools
import numbers
import sys

import numpy as np

from . import image_io
from .chamfer_mask import build_wedges, convexity_report
from .dt_engine import (
    DistanceMap,
    EngineError,
    Verdict,
    _mask_reach,
    chamfer_two_scan,
    dijkstra_oracle,
    generate_ball,
    parallel_iterative_oracle,
    validate_image,
)
from .lattice import lattice_by_name
from .presets import PRESET_NAMES, preset_geometry, preset_mask
from .weight_opt import (
    _pareto_index,
    _search_table,
    max_relative_error,
    optimize_real_weights,
)


class CliError(Exception):
    pass


class UsageError(CliError):
    """An option value the command cannot honour (exit code 2)."""


def _spacing(args):
    if getattr(args, "spacing", None):
        return tuple(float(t) for t in args.spacing.split(","))
    return None


def _load_mask(args):
    """Mask from --mask FILE or from --vectors PRESET with --weights."""
    if getattr(args, "mask", None):
        if not getattr(args, "lattice", None):
            raise CliError("--mask requires --lattice")
        lattice = lattice_by_name(args.lattice, _spacing(args))
        return image_io.read_mask(args.mask, lattice)
    weights = _weights(args)
    if weights is None:
        raise CliError("provide --mask FILE or --weights (with --vectors "
                       "or --lattice to pick a preset)")
    name = getattr(args, "vectors", None)
    if not name:
        if not getattr(args, "lattice", None):
            raise CliError("cannot infer a preset without --lattice")
        name = f"{args.lattice.lower()}{len(weights)}"
    try:
        return preset_mask(name, weights, _spacing(args))
    except KeyError as e:
        raise CliError(str(e)) from e


def _weights(args):
    txt = getattr(args, "weights", None)
    if not txt:
        return None
    out = []
    for t in txt.split(","):
        t = t.strip()
        out.append(int(t) if t.lstrip("+-").isdigit() else float(t))
    return tuple(out)


def _geometry(args):
    name = getattr(args, "vectors", None)
    if not name:
        raise CliError("--vectors PRESET is required "
                       f"(one of {', '.join(PRESET_NAMES)})")
    try:
        geom = preset_geometry(name, _spacing(args))
    except KeyError as e:
        raise CliError(str(e)) from e
    if getattr(args, "lattice", None) and \
            args.lattice.upper() != geom.lattice.name:
        raise CliError(f"preset {name} lives on {geom.lattice.name}, "
                       f"not {args.lattice}")
    return geom


def _exact(value):
    """An offender value as text: integers and the rationals of integer
    weights exactly (p/q when not whole), real weights to 12 digits."""
    if isinstance(value, (numbers.Rational, np.integer)):
        return str(value)
    return f"{value:.12g}"


def _decimals(x, d):
    """x to d decimals, or with d decimals in e notation where fixed
    decimals would show no digit of it or more than 12 before the point."""
    return f"{x:.{d}{'f' if x == 0 or 10 ** -d <= abs(x) < 1e12 else 'e'}}"


def cmd_mask_check(args, out):
    mask = _load_mask(args)
    decomp = build_wedges(mask)
    verdict, offenders = convexity_report(decomp)
    print(f"lattice {mask.lattice.name} (covolume {mask.lattice.covolume})",
          file=out)
    print(f"mask vectors: {len(mask.vectors)}", file=out)
    print(f"wedges: {len(decomp.wedges)}", file=out)
    stats = max_relative_error(decomp)
    print(f"ratio range: [{_decimals(stats.rho_min, 6)}, "
          f"{_decimals(stats.rho_max, 6)}]", file=out)
    print(f"scale: {_decimals(stats.scale, 4)}  "
          f"error: {100 * stats.error:.2f}%", file=out)
    print(f"convexity: {verdict}", file=out)
    for v, idx, lhs, rhs in offenders[:10]:
        if idx is None:
            print(f"  vertex {v}: reached by other vectors at cost "
                  f"{_exact(lhs)} (weight {rhs})", file=out)
        else:
            print(f"  vertex {v}: formula value {_exact(lhs)} exceeds "
                  f"weight {rhs} (wedge {idx})", file=out)
    return 0 if verdict != "nonconvex" else 1


def cmd_weights_optimize(args, out):
    geom = _geometry(args)
    opt = optimize_real_weights(geom)
    print("vector  weight", file=out)
    for orbit, w in zip(geom.classes, opt.weights):
        rep = max(orbit)
        print(f"{' '.join(str(c) for c in rep):8s}  {_decimals(w, 3)}",
              file=out)
    print(f"error: {100 * opt.error:.2f}%", file=out)
    return 0


def cmd_weights_search(args, out):
    if args.max_weight < 1:
        raise UsageError(f"--max-weight must be 1 or more, got "
                         f"{args.max_weight}")
    geom = _geometry(args)
    W, scale, error = _search_table(geom, args.max_weight)
    if not args.all:
        keep = _pareto_index(error.tolist())
        W, scale, error = W[:, keep], scale[keep], error[keep]
    cells = ["%d"] * geom.num_classes
    if args.format == "csv":
        print(",".join([f"w{i+1}" for i in range(geom.num_classes)]
                       + ["scale", "error_pct"]), file=out)
        line = ",".join(cells + ["%.4f", "%.2f"]) + "\n"
    else:
        line = " ".join(cells + ["%.3f", "%.2f"]) + "\n"
    # One template over the row-interleaved columns formats every row.
    fields = itertools.chain.from_iterable(
        zip(*W.tolist(), scale.tolist(), (100 * error).tolist()))
    out.write(line * len(error) % tuple(fields))
    return 0


def cmd_dt(args, out):
    image = image_io.read_image(args.infile)
    mask = _load_mask(args)
    if mask.lattice.name != image.lattice.name:
        raise CliError(f"mask lattice {mask.lattice.name} does not match "
                       f"image lattice {image.lattice.name}")
    # Only --scale needs the fan; validate_image builds it if it needs it.
    decomp = build_wedges(mask) if args.scale else None
    check = validate_image(mask, image, decomp)
    print(f"validation: {check.verdict.value}"
          + (f" ({check.reason})" if check.reason else ""), file=out)
    if check.verdict is Verdict.INVALID and not args.unsafe:
        print("refusing to transform an invalid image "
              "(use --unsafe to force)", file=sys.stderr)
        return 1
    # Validated above; the engine need not check the image again.
    dmap = chamfer_two_scan(image, mask, unsafe=True)
    if args.scale:
        dmap.scale = max_relative_error(decomp).scale
    if args.out:
        if args.format == "csv":
            with open(args.out, "w") as f:
                f.write(image_io.distance_map_csv(dmap))
        else:
            image_io.write_distance_map(dmap, args.out,
                                        encoding=args.encoding)
        print(f"wrote {args.out}", file=out)
    else:
        finite = dmap.values[(dmap.values < dmap.infinity)]
        print(f"points: {finite.size}  max distance: "
              f"{int(finite.max()) if finite.size else 0}", file=out)
    return 0


def cmd_ball(args, out):
    mask = _load_mask(args)
    points, dmap = generate_ball(mask, args.radius)
    print(f"ball radius {args.radius}: {len(points)} points", file=out)
    if args.out:
        if args.format == "ldt1":
            image_io.write_distance_map(dmap, args.out,
                                        encoding=args.encoding)
        else:
            inside = dmap.values <= args.radius
            clipped = np.where(inside, dmap.values, dmap.infinity)
            with open(args.out, "w") as f:
                f.write(image_io.distance_map_csv(
                    DistanceMap(dmap.lattice, dmap.origin, clipped,
                                dmap.infinity, dmap.scale)))
        print(f"wrote {args.out}", file=out)
    return 0


def _verify_case(mask, size, seed):
    """Random image drawn from ``seed`` through the two-scan and both
    oracles.  None when the three maps agree, else the first differing
    point as (coordinate, two-scan, Dijkstra, iterative)."""
    lattice = mask.lattice
    depth = max(_mask_reach(mask))
    rng = np.random.default_rng(seed)
    n = lattice.dim
    dims = tuple(int(rng.integers(2 * depth + 4, size + 1)) for _ in range(n))
    image = image_io.random_image(lattice, dims,
                                  density=float(rng.uniform(0.3, 0.9)),
                                  seed=seed, border_depth=depth)
    maps = [f(image, mask).values for f in
            (chamfer_two_scan, dijkstra_oracle, parallel_iterative_oracle)]
    differ = (maps[0] != maps[1]) | (maps[0] != maps[2])
    if not differ.any():
        return None
    idx = np.unravel_index(int(np.argmax(differ)), differ.shape)
    coord = tuple(int(o + i) for o, i in zip(image.origin, idx))
    return (coord, *(int(m[idx]) for m in maps))


_VERIFY_MAX_SIZE = 32
_VERIFY_MASKS = {
    "Z2": ("z2-2", (3, 4)),
    "Z3": ("z3-3", (3, 4, 5)),
    "BCC": ("bcc2", (13, 15)),
    "FCC": ("fcc2", (2, 3)),
}


def cmd_verify(args, out):
    if args.count < 1:
        raise UsageError(f"--count must be 1 or more, got {args.count}")
    names = (list(_VERIFY_MASKS) if args.lattice == "ALL"
             else [args.lattice])
    masks = {name: preset_mask(*_VERIFY_MASKS[name]) for name in names}
    # Image sides are drawn from [2 * depth + 4, size]: a background
    # border of the mask depth on each side around a foreground core.
    least = max(2 * max(_mask_reach(m)) + 4 for m in masks.values())
    if args.size < least:
        raise UsageError(f"--size must be {least} or more for "
                         f"{', '.join(names)}, got {args.size}")
    if args.size > _VERIFY_MAX_SIZE:
        raise UsageError(f"--size must lie in [{least}, {_VERIFY_MAX_SIZE}] "
                         f"for {', '.join(names)}, got {args.size}")
    failures = 0
    for name, mask in masks.items():
        mismatches = []
        for seed in range(args.seed, args.seed + args.count):
            found = _verify_case(mask, args.size, seed)
            if found is not None:
                mismatches.append((seed, found))
        failures += len(mismatches)
        print(f"{name}: {args.count - len(mismatches)}/{args.count} images "
              "match across two-scan / Dijkstra / iterative", file=out)
        if mismatches:
            seed, (coord, a, b, c) = mismatches[0]
            print(f"{name}: first mismatch at seed {seed}, point {coord}: "
                  f"two-scan {a}, Dijkstra {b}, iterative {c}", file=out)
    total = len(masks) * args.count
    print(f"total: {total - failures}/{total} passed", file=out)
    return 0 if failures == 0 else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="latticedt",
        description="Weighted (chamfer) distance transforms on point "
                    "lattices")
    sub = p.add_subparsers(dest="command", required=True)

    def common_mask(sp):
        sp.add_argument("--lattice", help="Z2, Z3, BCC or FCC")
        sp.add_argument("--mask", help="mask file ('vx vy [vz] : w' lines)")
        sp.add_argument("--vectors", help="preset geometry, e.g. bcc2")
        sp.add_argument("--weights", help="comma-separated weights for the "
                                          "preset classes")
        sp.add_argument("--spacing", help="comma-separated grid spacing")

    mask_p = sub.add_parser("mask", help="mask inspection")
    mask_sub = mask_p.add_subparsers(dest="subcommand", required=True)
    chk = mask_sub.add_parser("check", help="wedges, ratio range, convexity")
    common_mask(chk)
    chk.set_defaults(func=cmd_mask_check)

    w_p = sub.add_parser("weights", help="weight optimization")
    w_sub = w_p.add_subparsers(dest="subcommand", required=True)
    opt = w_sub.add_parser("optimize", help="best real weights")
    common_mask(opt)
    opt.set_defaults(func=cmd_weights_optimize)
    srch = w_sub.add_parser("search", help="integer weight table")
    common_mask(srch)
    srch.add_argument("--max-weight", type=int, required=True)
    srch.add_argument("--all", action="store_true",
                      help="print every candidate, not just the best "
                           "error per weight budget")
    srch.add_argument("--format", choices=("table", "csv"), default="table")
    srch.set_defaults(func=cmd_weights_search)

    dt = sub.add_parser("dt", help="distance transform of an LDT1 image")
    dt.add_argument("--in", dest="infile", required=True)
    dt.add_argument("--out")
    common_mask(dt)
    dt.add_argument("--unsafe", action="store_true",
                    help="transform even if the validity check fails")
    dt.add_argument("--scale", action="store_true",
                    help="store the optimal Euclidean scale in the output")
    dt.add_argument("--format", choices=("ldt1", "csv"), default="ldt1")
    dt.add_argument("--encoding", choices=("ascii", "binary"),
                    default="ascii")
    dt.set_defaults(func=cmd_dt)

    ball = sub.add_parser("ball", help="chamfer ball of a given radius")
    common_mask(ball)
    ball.add_argument("--radius", type=int, required=True)
    ball.add_argument("--out")
    ball.add_argument("--format", choices=("csv", "ldt1"), default="csv")
    ball.add_argument("--encoding", choices=("ascii", "binary"),
                      default="ascii")
    ball.set_defaults(func=cmd_ball)

    ver = sub.add_parser("verify",
                         help="cross-check two-scan against both oracles "
                              "on random images")
    ver.add_argument("--lattice", default="ALL", type=str.upper,
                     choices=(*_VERIFY_MASKS, "ALL"),
                     help="Z2, Z3, BCC, FCC or all (any case)")
    ver.add_argument("--count", type=int, default=100)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--size", type=int, default=_VERIFY_MAX_SIZE,
                     help="maximum image side length, from 6 (Z2, Z3) or "
                          f"8 (BCC, FCC) up to {_VERIFY_MAX_SIZE}")
    ver.set_defaults(func=cmd_verify)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (CliError, EngineError, ValueError, KeyError,
            FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
