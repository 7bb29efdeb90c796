"""latticedt benchmark: one workload, one process, one call at a time.

    python3 perfbench/run.py --workload volumes --seed 1 --seconds 32 --trace 0

Run from the root of a checkout: it imports latticedt from ``src/``.  Set
up (import, inputs from the seed, input files) runs SETUP_REPS times and
reports its median; then rounds of every phase run until ``--seconds``
have passed.  A timed metric takes each operation's median time over the
rounds and sums them.  Every output is checked by ``checks``.
With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` untraced and traced cycles alternate, the
per-layer metrics come from the traced ones and the spans are written to
``.perfbench_work/traces/``.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from types import SimpleNamespace

import phases
from tracing import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPS = 3
MIN_CYCLES = 3

# Small phases shared by the workloads that do not stress them.
SMALL_BOXES = [
    ("Z3", (20, 20, 20), "z3-3", (3, 4, 5), "objects"),
    ("BCC", (28, 28, 28), "bcc3", (4, 5, 7), "objects"),
    ("FCC", (22, 22, 22), "fcc3", (2, 3, 4), "point"),
]
SMALL_TABLES = [("bcc2", 7), ("fcc2", 3), ("fcc3", 4)]
SMALL_MASKS = [("bcc2", (3, 4)), ("fcc2", (2, 3)), ("bcc3", (4, 5, 7)),
               ("fcc3", (11, 16, 19))]
# Published rows given to ``mask check`` in the tables workload: every row
# of the cheap tables, and rows of the others with each verdict (strict,
# degenerate, nonconvex).  All 52 rows take about 47 s a round on a 2-core
# box, as the redundancy test costs 2-3.6 s per bcc4 or fcc4 row.
TABLE_MASKS = (
    [(p, w) for p in ("bcc1", "bcc2", "fcc1", "fcc2")
     for w, _s, _e in phases.checks.PUBLISHED[p][1]]
    + [("bcc3", (4, 5, 7)), ("bcc3", (33, 38, 54)), ("bcc4", (5, 6, 8, 10)),
       ("fcc3", (2, 3, 4)), ("fcc3", (7, 10, 12)), ("fcc3", (11, 16, 19)),
       ("fcc4", (2, 3, 4, 5)), ("fcc4", (5, 7, 9, 12))])
CLOSED_FORM_MASKS = [("fcc3", (11, 16, 19)), ("fcc4", (2, 3, 4, 5)),
                     ("bcc4", (5, 6, 8, 10))]


def _verify_cases():
    """Sizes and densities across the range ``latticedt verify`` draws."""
    shapes3 = [(10, 12, 14), (14, 20, 11), (18, 18, 18), (24, 16, 28),
               (32, 24, 20), (32, 32, 32)]
    densities = [0.3, 0.9, 0.6, 0.45, 0.75, 0.5]
    cases = []
    for lattice in ("Z2", "Z3", "BCC", "FCC"):
        for shape, density in zip(shapes3, densities):
            dims = shape[:2] if lattice == "Z2" else shape
            cases.append((lattice, dims, density))
    return cases


SMALL_VERIFY = _verify_cases()[2::6] + _verify_cases()[3::6]


WORKLOADS = {
    "volumes": {
        "boxes": [("Z3", (68, 68, 68), "z3-3", (3, 4, 5), "objects"),
                  ("BCC", (108, 108, 108), "bcc3", (4, 5, 7), "objects"),
                  ("FCC", (86, 86, 86), "fcc3", (2, 3, 4), "point")],
        "tables": SMALL_TABLES,
        "masks": SMALL_MASKS,
        "verify": SMALL_VERIFY,
        "closed_form": [(p, w, 3) for p, w in CLOSED_FORM_MASKS],
        "cycle": 3,
        "split": ("dt", "cli_ldt", "cli_csv"),
    },
    "tables": {
        "boxes": SMALL_BOXES,
        "tables": [(p, bound) for p, (bound, _cells)
                   in sorted(phases.checks.PUBLISHED.items())],
        "masks": TABLE_MASKS,
        "verify": SMALL_VERIFY,
        "closed_form": [(p, w, 3) for p, w in CLOSED_FORM_MASKS],
        "cycle": 3,
        "split": ("tables", "mask"),
    },
    "oracles": {
        "boxes": [("Z2", (48, 48), "z2-2", (3, 4), "objects")] + SMALL_BOXES,
        "tables": SMALL_TABLES,
        "masks": SMALL_MASKS,
        "verify": _verify_cases(),
        "closed_form": [(p, w, 6) for p, w in CLOSED_FORM_MASKS],
    },
}


def _ratio(num, den, factor=1.0):
    """num / den x factor; 0 where nothing was timed (all of it failed)."""
    return num * factor / den if den > 0 else 0.0


def op_medians(rounds):
    """Per end-to-end key: the sum over operations of each operation's
    median time over the rounds, and the work of one pass."""
    times, units = defaultdict(list), {}
    for r in rounds:
        for op, t in r.seconds.items():
            times[op].append(t)
        units.update(r.work)
    seconds, work = defaultdict(float), defaultdict(float)
    for (key, _label), ts in times.items():
        seconds[key] += statistics.median(ts)
    for (key, _label), u in units.items():
        work[key] += u
    return seconds, work


def end_to_end(rounds):
    """The end-to-end figures of a run from its untraced rounds."""
    s, w = op_medians(rounds)
    return {
        "dt_mpts_per_s": _ratio(w["dt"], s["dt"], 1e-6),
        "cli_ldt_mpts_per_s": _ratio(w["cli_ldt"], s["cli_ldt"], 1e-6),
        "cli_csv_mpts_per_s": _ratio(w["cli_csv"], s["cli_csv"], 1e-6),
        "tables_s": s["tables"],
        "mask_checks_per_s": _ratio(w["mask"], s["mask"]),
        "verify_kpts_per_s": _ratio(w["verify"], s["verify"], 1e-3),
        "closed_form_kpts_per_s": _ratio(w["closed_form"], s["closed_form"],
                                         1e-3),
    }


E2E_UNITS = {"setup_s": "s", "dt_mpts_per_s": "Mpoint/s",
             "cli_ldt_mpts_per_s": "Mpoint/s",
             "cli_csv_mpts_per_s": "Mpoint/s", "tables_s": "s",
             "mask_checks_per_s": "1/s", "verify_kpts_per_s": "kpoint/s",
             "closed_form_kpts_per_s": "kpoint/s", "peak_rss_mb": "MB"}

# per-layer metric -> (unit, span name, what: "s" total seconds, or a count)
LAYER_SPANS = {
    "lattice.member_grid_s": ("s", "lattice.member_grid", "s"),
    "dt_engine.image_build_s": ("s", "dt_engine.image_build", "s"),
    "dt_engine.validate_s": ("s", "dt_engine.validate", "s"),
    "dt_engine.plan_s": ("s", "dt_engine.plan", "s"),
    "dt_engine.order_s": ("s", "dt_engine.order", "s"),
    "dt_engine.scan_s": ("s", "dt_engine.scan", "s"),
    "dt_engine.points": ("count", "dt_engine.scan", "points"),
    "dt_engine.levels": ("count", "dt_engine.scan", "levels"),
    "dt_engine.dijkstra_s": ("s", "dt_engine.dijkstra", "s"),
    "dt_engine.iterative_s": ("s", "dt_engine.iterative", "s"),
    "chamfer_mask.build_wedges_s": ("s", "chamfer_mask.build_wedges", "s"),
    "chamfer_mask.wedges": ("count", "chamfer_mask.build_wedges", "wedges"),
    "chamfer_mask.hull_s": ("s", "chamfer_mask.hull", "s"),
    "chamfer_mask.hull_facets": ("count", "chamfer_mask.hull", "facets"),
    "chamfer_mask.convexity_s": ("s", "chamfer_mask.convexity", "s"),
    "weight_opt.search_s": ("s", "weight_opt.search", "s"),
    "weight_opt.search_cpu_s": ("s", "weight_opt.search", "cpu_s"),
    "weight_opt.rows_scored": ("count", "weight_opt.search", "rows"),
    "weight_opt.max_error_s": ("s", "weight_opt.max_error", "s"),
    "weight_opt.optimize_real_s": ("s", "weight_opt.optimize_real", "s"),
    "image_io.read_ascii_s": ("s", "image_io.read_ascii", "s"),
    "image_io.read_binary_s": ("s", "image_io.read_binary", "s"),
    "image_io.write_ascii_s": ("s", "image_io.write_ascii", "s"),
    "image_io.write_binary_s": ("s", "image_io.write_binary", "s"),
    "image_io.csv_s": ("s", "image_io.csv", "s"),
    "cli.dt_s": ("s", "cli.dt", "s"),
    "cli.search_s": ("s", "cli.search", "s"),
    "cli.mask_check_s": ("s", "cli.mask_check", "s"),
}
# per-layer ratio -> (unit, span name, count, factor)
LAYER_RATIOS = {
    "dt_engine.scan_ns_per_point": ("ns", "dt_engine.scan", "points", 1e9),
    "dt_engine.dijkstra_ns_per_point": ("ns", "dt_engine.dijkstra", "points",
                                        1e9),
    "chamfer_mask.closed_form_us_per_point": ("us", "chamfer_mask.closed_form",
                                              "points", 1e6),
    "weight_opt.search_us_per_row": ("us", "weight_opt.search", "rows", 1e6),
}
WRITE_SPANS = ("image_io.write_ascii", "image_io.write_binary", "image_io.csv")


def per_layer(table):
    """Per-layer figures of one traced round from its layer table."""
    empty = {"total_s": 0.0, "counts": {}}
    out = {}
    for name, (_unit, span, what) in LAYER_SPANS.items():
        row = table.get(span, empty)
        out[name] = row["total_s"] if what == "s" else \
            row["counts"].get(what, 0)
    for name, (_unit, span, count, factor) in LAYER_RATIOS.items():
        row = table.get(span, empty)
        out[name] = _ratio(row["total_s"], row["counts"].get(count, 0),
                           factor)
    out["image_io.bytes_written"] = sum(
        table.get(s, empty)["counts"].get("bytes", 0) for s in WRITE_SPANS)
    return out


def layer_units():
    units = {k: v[0] for k, v in LAYER_SPANS.items()}
    units.update({k: v[0] for k, v in LAYER_RATIOS.items()})
    units["image_io.bytes_written"] = "count"
    return units


def import_latticedt():
    """Import latticedt afresh from the checkout's ``src``, so that each
    set-up repetition pays for it."""
    for name in [n for n in sys.modules
                 if n == "latticedt" or n.startswith("latticedt.")]:
        del sys.modules[name]
    pkg = importlib.import_module("latticedt")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"latticedt imported from {pkg.__file__}, "
                          f"not from {SRC}")
    return SimpleNamespace(
        pkg=pkg, cli=importlib.import_module("latticedt.cli"),
        image_io=importlib.import_module("latticedt.image_io"),
        dt_engine=importlib.import_module("latticedt.dt_engine"))


def set_up(config, seed, work):
    """SETUP_REPS times: import, generate the inputs, write the files.
    Returns the last inputs and the median time."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        lt = import_latticedt()
        inputs = phases.Inputs(lt, config, seed, work)
        times.append(time.perf_counter() - t0)
    return inputs, statistics.median(times)


def _median_dict(dicts):
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def _print_layers(workload, tracer, cycles):
    table = tracer.layer_table()
    print(f"traced cycles of {workload}: {cycles}; per layer over all of "
          "them (calls, total s, self s, counts):")
    for name in sorted(table):
        row = table[name]
        counts = " ".join(f"{k}={v:.4g}" if isinstance(v, float)
                          else f"{k}={v}"
                          for k, v in sorted(row["counts"].items()))
        print(f"  {name:32s} {row['calls']:6d} {row['total_s']:10.4f} "
              f"{row['self_s']:10.4f}  {counts}")
    print("phase wall time covered by layer spans (lowest of the rounds):")
    for name, share in sorted(tracer.coverage().items()):
        print(f"  {name:32s} {100 * share:6.2f}%")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "latticedt", "__init__.py")):
        print(f"error: no latticedt sources under {SRC}; run from the root "
              "of a latticedt checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        config = WORKLOADS[args.workload]
        inputs, setup_s = set_up(config, args.seed, work)
        inputs.prepare()
        cycle, split = config.get("cycle", 1), config.get("split", ())
        untraced, traced, tracer = [], [], Tracer()
        firsts = []
        deadline = time.perf_counter() + args.seconds
        cycle_s = []
        last = {}       # traced? -> seconds the last such cycle took
        while True:
            t0 = time.perf_counter()
            trace_next = bool(args.trace and len(untraced) > len(traced))
            if trace_next:
                firsts.append(len(tracer.spans))
                traced.append(phases.run_cycle(inputs, cycle, split, tracer))
            else:
                untraced.append(phases.run_cycle(inputs, cycle, split))
            cycle_s.append(time.perf_counter() - t0)
            last[trace_next] = cycle_s[-1]
            # Run MIN_CYCLES untraced cycles (or one of each kind, traced),
            # so that each median has as many samples in a slow spell as
            # in a fast one, unless that would outrun the deadline by half;
            # then stop where the run ends closest to the deadline.
            trace_next = bool(args.trace and len(untraced) > len(traced))
            end = time.perf_counter() + last.get(trace_next,
                                                 2 * cycle_s[-1])
            short = (not traced if args.trace
                     else len(untraced) < MIN_CYCLES)
            if short and end <= deadline + args.seconds / 2:
                continue
            if (end + time.perf_counter()) / 2 >= deadline and \
                    (not args.trace or traced):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rounds = [r for c in untraced + traced for r in c]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.raised + r.wrong for r in rounds)
    for r in rounds:
        for p in r.problems:
            print(f"FAILED {p}")

    e2e = end_to_end([r for c in untraced for r in c])
    e2e["setup_s"] = setup_s
    e2e["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{args.workload} seed {args.seed}: {len(untraced)} untraced "
          f"and {len(traced)} traced cycle(s) of {cycle} round(s), taking "
          f"{' '.join(f'{t:.1f}' for t in cycle_s)} s; {attempted} "
          f"operations, {failed} failed")
    for k in E2E_UNITS:
        print(f"  {k:28s} {e2e[k]:12.5g} {E2E_UNITS[k]}")

    if args.trace:
        # Per pass over the operations: a phase that every round of the
        # cycle runs in full counts once per round.
        def per_pass(phase):
            return 1 if phase[len("phase."):] in split else 1 / cycle
        ends = firsts[1:] + [len(tracer.spans)]
        layers = _median_dict([per_layer(tracer.layer_table(a, b, per_pass))
                               for a, b in zip(firsts, ends)])
        _print_layers(args.workload, tracer, len(traced))
        print("tracing overhead per phase (median traced minus untraced "
              "end-to-end seconds):")
        overhead = {}
        traced_s, _w = op_medians([r for c in traced for r in c])
        untraced_s, _w = op_medians([r for c in untraced for r in c])
        for key in sorted(untraced_s):
            t, u = traced_s[key], untraced_s[key]
            overhead[key] = t - u
            print(f"  {key:16s} {t - u:+.5f} s ({100 * (t - u) / u:+.2f}%)")
        probe = Tracer()
        t0 = time.perf_counter()
        for _ in range(10000):
            with probe.span("probe"):
                pass
        per_span = (time.perf_counter() - t0) / 10000
        print(f"span bookkeeping: {len(tracer.spans) / len(traced):.0f} "
              f"spans a traced cycle x {1e6 * per_span:.2f} us = "
              f"{1e3 * per_span * len(tracer.spans) / len(traced):.2f} ms "
              "a cycle")
        os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
        path = os.path.join(WORK, "traces",
                            f"{args.workload}-seed{args.seed}.json")
        with open(path, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "spans": tracer.spans, "layers": layers,
                       "coverage": tracer.coverage(),
                       "overhead_s": overhead}, f)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
        units = layer_units()
        metrics = {k: {"value": layers[k], "unit": units[k]}
                   for k in sorted(units)}
    else:
        metrics = {k: {"value": e2e[k], "unit": u}
                   for k, u in E2E_UNITS.items()}
    print(json.dumps({"correct": not any(r.wrong for r in rounds),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
