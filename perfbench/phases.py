"""Workload inputs and the phases of one benchmark round.

A round runs every phase once; a phase is a list of operations, and an
operation calls latticedt and returns the check of its outputs.  The
calls of the end-to-end path are timed under their metric's key; in a
traced round each also gets a span, and the steps hidden inside it are
repeated one by one under spans of their own (the replay).
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

import checks

VERIFY_MASKS = {"Z2": ("z2-2", (3, 4)), "Z3": ("z3-3", (3, 4, 5)),
                "BCC": ("bcc2", (13, 15)), "FCC": ("fcc2", (2, 3))}


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

@dataclass
class Box:
    """A binary image over a box at the origin, with its mask."""

    lattice: str
    preset: str
    weights: tuple
    foreground: np.ndarray
    support: np.ndarray = None
    background: np.ndarray = None
    points: int = 0
    files: dict = field(default_factory=dict)
    image: object = None       # latticedt GridImage, where a phase needs it

    def __post_init__(self):
        dims = self.foreground.shape
        self.support = checks.member_mask(self.lattice, (0,) * len(dims), dims)
        self.background = self.support & ~self.foreground
        self.points = int(np.count_nonzero(self.support))

    @property
    def entries(self):
        return checks.mask_entries(self.preset, self.weights)

    @property
    def name(self):
        return f"{self.lattice}-{'x'.join(map(str, self.foreground.shape))}"


@dataclass
class ClosedFormCase:
    """A single-point transform on the box [-r, r]^3 and its points."""

    preset: str
    weights: tuple
    radius: int
    image: object = None
    points: list = None
    reference: list = None
    problem: str = ""


def depth(preset):
    return max(max(r) for r in checks.PRESETS[preset][1])


def objects(rng, dims, preset):
    """Union of 16 balls of radius 0.2 x the box side, with a background
    border as deep as the mask."""
    grids = np.ogrid[tuple(slice(0, d) for d in dims)]
    fg = np.zeros(dims, dtype=bool)
    r2 = (0.2 * min(dims)) ** 2
    for _ in range(16):
        centre = rng.uniform(0, dims)
        fg |= sum((g - c) ** 2 for g, c in zip(grids, centre)) <= r2
    k = depth(preset)
    inner = tuple(slice(k, d - k) for d in dims)
    border = np.ones(dims, dtype=bool)
    border[inner] = False
    fg[border] = False
    return fg


def single_point(rng, lattice, dims):
    """Every point foreground except one random lattice member."""
    member = checks.member_mask(lattice, (0,) * len(dims), dims)
    cands = np.flatnonzero(member)
    fg = np.ones(dims, dtype=bool)
    fg.ravel()[cands[rng.integers(len(cands))]] = False
    return fg


def random_fill(rng, dims, density, preset):
    fg = rng.random(dims) < density
    k = depth(preset)
    inner = tuple(slice(k, d - k) for d in dims)
    keep = np.zeros(dims, dtype=bool)
    keep[inner] = True
    return fg & keep


class Inputs:
    """Everything a workload's rounds run on, generated from the seed."""

    def __init__(self, lt, config, seed, work):
        rng = np.random.default_rng(seed)
        self.lt = lt
        self.work = work
        self.boxes = []
        for lattice, dims, preset, weights, kind in config["boxes"]:
            fg = (objects(rng, dims, preset) if kind == "objects"
                  else single_point(rng, lattice, dims))
            box = Box(lattice, preset, weights, fg)
            for enc in ("ascii", "binary"):
                path = os.path.join(work, f"{box.name}.{enc}.ldt")
                with open(path, "wb") as f:
                    f.write(checks.encode_image(lattice, fg, enc))
                box.files[enc] = path
            self.boxes.append(box)
        self.verify = []
        for lattice, dims, density in config["verify"]:
            preset, weights = VERIFY_MASKS[lattice]
            box = Box(lattice, preset, weights,
                      random_fill(rng, dims, density, preset))
            box.image = lt.pkg.GridImage.from_foreground(
                lt.pkg.lattice_by_name(lattice), (0,) * len(dims),
                box.foreground)
            self.verify.append(box)
        self.closed = []
        for preset, weights, radius in config["closed_form"]:
            case = ClosedFormCase(preset, weights, radius)
            lattice = checks.PRESETS[preset][0]
            dims = (2 * radius + 1,) * 3
            fg = np.ones(dims, dtype=bool)
            fg[radius, radius, radius] = False
            case.image = lt.pkg.GridImage.from_foreground(
                lt.pkg.lattice_by_name(lattice), (-radius,) * 3, fg)
            self.closed.append(case)
        self.tables = list(config["tables"])
        self.mask_checks = list(config["masks"])
        used = ([(b.preset, b.weights) for b in self.boxes + self.verify]
                + [(c.preset, c.weights) for c in self.closed]
                + self.mask_checks)
        self.masks = {k: lt.pkg.preset_mask(*k) for k in used}
        self.geometries = {p: lt.pkg.preset_geometry(p)
                           for p, _b in self.tables}

    def prepare(self):
        """Reference transforms for the closed form, checked here.  Runs
        once, after set-up and outside every timing."""
        for case in self.closed:
            mask = self.masks[(case.preset, case.weights)]
            dmap = self.lt.pkg.chamfer_two_scan(case.image, mask, unsafe=True)
            lattice = checks.PRESETS[case.preset][0]
            dims = case.image.dims
            origin = (-case.radius,) * 3
            support = checks.member_mask(lattice, origin, dims)
            background = np.zeros(dims, dtype=bool)
            background[(case.radius,) * 3] = True
            values = checks.library_values(dmap)
            try:
                checks.check_map(values, support, background,
                                 checks.mask_entries(case.preset,
                                                     case.weights),
                                 f"{case.preset} single-point transform")
            except checks.CheckError as e:
                case.problem = str(e)
            coords = np.argwhere(support)
            case.points = [tuple(p) for p in (coords + origin).tolist()]
            case.reference = values[support].tolist()


# ---------------------------------------------------------------------------
# One round
# ---------------------------------------------------------------------------

class Round:
    """Timings, work and outcomes of one round over ``inputs``.
    ``tracer`` is None in an untraced round.  The phases named in
    ``split`` run only every ``cycle``-th of their operations, from the
    ``index``-th on, so that a cycle of rounds runs each of them once."""

    def __init__(self, inputs, tracer=None, index=0, cycle=1, split=()):
        self.inputs = inputs
        self.lt = inputs.lt
        self.tracer = tracer
        self.index, self.cycle, self.split = index, cycle, split
        # (end-to-end key, operation) -> seconds, and -> units of work
        self.seconds = defaultdict(float)
        self.work = defaultdict(float)
        self.label = None                   # the operation running
        self.attempted = 0
        self.raised = 0
        self.wrong = 0
        self.problems = []

    def call(self, key, name, fn, *args, **kwargs):
        """An end-to-end call: timed under ``key``, and a span ``name``
        when traced."""
        if self.tracer is None:
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            self.seconds[key, self.label] += time.perf_counter() - t0
            return out
        with self.tracer.span(name):
            out = fn(*args, **kwargs)
        self.seconds[key, self.label] += self.tracer.last()
        return out

    def cli(self, key, name, argv):
        """``latticedt.cli.main(argv)`` in-process: (status, stdout)."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = self.call(key, name, self.lt.cli.main,
                               [str(a) for a in argv])
        return status, buf.getvalue()

    def done(self, key, units):
        """Credit ``units`` of work to the running operation."""
        self.work[key, self.label] += units

    def layer(self, name, fn, *args, **kwargs):
        """A replayed step, run in traced rounds only."""
        with self.tracer.span(name):
            return fn(*args, **kwargs)

    def count(self, **counts):
        """Add counts to the span closed last."""
        if self.tracer is not None:
            c = self.tracer.spans[-1]["counts"]
            for k, v in counts.items():
                c[k] = c.get(k, 0) + v

    def run_phase(self, name, ops):
        """Run the operations, then their checks (outside the phase)."""
        pending = []
        span = (self.tracer.span(f"phase.{name}") if self.tracer
                else contextlib.nullcontext())
        with span:
            for i, (label, op) in enumerate(ops):
                if name in self.split and i % self.cycle != self.index:
                    continue
                self.attempted += 1
                self.label = label
                try:
                    pending.append((label, op()))
                except Exception as e:  # a failed operation, reported
                    self.raised += 1
                    self.problems.append(f"{label}: {type(e).__name__}: {e}")
        for label, check in pending:
            try:
                check()
            except checks.CheckError as e:
                self.wrong += 1
                self.problems.append(f"{label}: {e}")


def _status_ok(status, text, what):
    if status != 0:
        raise checks.CheckError(f"{what} exited with {status}: "
                                f"{text.strip()[-200:]}")


def _scale_ok(box, scale):
    cell = checks.published_cell(box.preset, box.weights)
    rmin = checks.rho_min(box.preset, box.weights)
    if cell is not None and abs(scale - cell[0]) > checks.SCALE_TOL:
        raise checks.CheckError(f"{box.name}: scale {scale}, published "
                                f"{cell[0]}")
    if not 0 < scale * rmin <= 1:
        raise checks.CheckError(f"{box.name}: scale {scale} is outside "
                                f"(0, 1 / rho_min]")


def _levels(sigma):
    return 1 + int(np.count_nonzero(np.diff(sigma))) if len(sigma) else 0


def replay_scan(rnd, lt, image, mask, decomp, points):
    """The steps of a validated two-scan, one span each."""
    rnd.layer("dt_engine.validate", lt.pkg.validate_image, mask, image,
              decomp)
    plan = rnd.layer("dt_engine.plan", lt.pkg.make_scan_plan, mask)
    _flat, sigma = rnd.layer("dt_engine.order", lt.dt_engine.scan_order,
                             image, plan.normal)
    dmap = rnd.layer("dt_engine.scan", lt.pkg.chamfer_two_scan, image, mask,
                     plan=plan, unsafe=True, decomposition=decomp)
    rnd.count(points=points, levels=_levels(sigma))
    return dmap


def _write_csv(lt, dmap, path):
    with open(path, "w") as f:
        f.write(lt.image_io.distance_map_csv(dmap))


def replay_cli_dt(rnd, lt, box, mask, enc, fmt):
    """``latticedt dt --scale``'s steps in the CLI's order."""
    image = rnd.layer(f"image_io.read_{enc}", lt.image_io.read_image,
                      box.files[enc])
    decomp = rnd.layer("chamfer_mask.build_wedges", lt.pkg.build_wedges, mask)
    rnd.count(wedges=len(decomp.wedges))
    dmap = replay_scan(rnd, lt, image, mask, decomp, box.points)
    facets = rnd.layer("chamfer_mask.hull", getattr, decomp, "hull")
    rnd.count(facets=len(facets))
    stats = rnd.layer("weight_opt.max_error", lt.pkg.max_relative_error,
                      decomp)
    dmap.scale = stats.scale
    out = os.path.join(rnd.inputs.work, "replay.out")
    if fmt == "csv":
        rnd.layer("image_io.csv", _write_csv, lt, dmap, out)
    else:
        rnd.layer(f"image_io.write_{enc}", lt.image_io.write_distance_map,
                  dmap, out, encoding=enc)
    rnd.count(bytes=os.path.getsize(out))


def _weights_arg(weights):
    return ",".join(map(str, weights))


def dt_library_ops(rnd):
    """GridImage.from_foreground, then chamfer_two_scan as a user calls it."""
    lt, inputs = rnd.lt, rnd.inputs
    for box in inputs.boxes:
        def op(box=box):
            lattice = lt.pkg.lattice_by_name(box.lattice)
            mask = inputs.masks[(box.preset, box.weights)]
            origin = (0,) * box.foreground.ndim
            image = rnd.call("dt", "dt_engine.image_build",
                             lt.pkg.GridImage.from_foreground, lattice,
                             origin, box.foreground)
            dmap = rnd.call("dt", "dt_engine.two_scan",
                            lt.pkg.chamfer_two_scan, image, mask)
            rnd.done("dt", box.points)
            if rnd.tracer:
                rnd.layer("lattice.member_grid", lattice.member_grid, origin,
                          box.foreground.shape)
                replay_scan(rnd, lt, image, mask, None, box.points)
            return lambda: checks.check_map(
                checks.library_values(dmap), box.support, box.background,
                box.entries, f"{box.name} library map")
        yield f"dt {box.name}", op


def cli_dt_ops(rnd, fmt):
    """``latticedt dt --scale``: LDT1 in both encodings, or CSV."""
    lt, inputs = rnd.lt, rnd.inputs
    key = "cli_csv" if fmt == "csv" else "cli_ldt"
    encodings = ("binary",) if fmt == "csv" else ("ascii", "binary")
    for box in inputs.boxes:
        for enc in encodings:
            def op(box=box, enc=enc):
                out = os.path.join(inputs.work, f"{box.name}.out.{fmt}")
                argv = ["dt", "--in", box.files[enc], "--out", out,
                        "--vectors", box.preset,
                        "--weights", _weights_arg(box.weights), "--scale"]
                argv += (["--format", "csv"] if fmt == "csv"
                         else ["--encoding", enc])
                status, text = rnd.cli(key, "cli.dt", argv)
                rnd.done(key, box.points)
                if rnd.tracer:
                    replay_cli_dt(rnd, lt, box,
                                  inputs.masks[(box.preset, box.weights)],
                                  enc, fmt)

                def check():
                    _status_ok(status, text, "dt")
                    with open(out, "rb") as f:
                        data = f.read()
                    dims = box.foreground.shape
                    if fmt == "csv":
                        values = checks.decode_csv(data, box.lattice, dims)
                    else:
                        values, fields = checks.decode_map(data, box.lattice,
                                                           dims)
                        _scale_ok(box, float(fields.get("scale", "nan")))
                    checks.check_map(values, box.support, box.background,
                                     box.entries, f"{box.name} {fmt} {enc}")
                return check
            yield f"cli dt {box.name} {fmt} {enc}", op


def table_ops(rnd):
    """``weights search --all`` and ``weights optimize`` per preset."""
    lt, inputs = rnd.lt, rnd.inputs
    for preset, bound in inputs.tables:
        def search(preset=preset, bound=bound):
            status, text = rnd.cli("tables", "cli.search", [
                "weights", "search", "--vectors", preset, "--max-weight",
                bound, "--all", "--format", "csv"])
            if rnd.tracer:
                cpu = time.process_time()
                rows = rnd.layer("weight_opt.search",
                                 lt.pkg.search_integer_weights,
                                 inputs.geometries[preset], bound)
                rnd.count(rows=len(rows), cpu_s=time.process_time() - cpu)

            def check():
                _status_ok(status, text, "weights search")
                checks.check_search(preset, bound,
                                    checks.parse_search_csv(text))
            return check

        def optimize(preset=preset):
            status, text = rnd.cli("tables", "cli.optimize", [
                "weights", "optimize", "--vectors", preset])
            if rnd.tracer:
                rnd.layer("weight_opt.optimize_real",
                          lt.pkg.optimize_real_weights,
                          inputs.geometries[preset])

            def check():
                _status_ok(status, text, "weights optimize")
                checks.check_real_optimum(preset, text)
            return check
        yield f"search {preset} {bound}", search
        yield f"optimize {preset}", optimize


def mask_check_ops(rnd):
    lt, inputs = rnd.lt, rnd.inputs
    for preset, weights in inputs.mask_checks:
        def op(preset=preset, weights=weights):
            status, text = rnd.cli("mask", "cli.mask_check", [
                "mask", "check", "--vectors", preset,
                "--weights", _weights_arg(weights)])
            rnd.done("mask", 1)
            if rnd.tracer:
                mask = inputs.masks[(preset, weights)]
                decomp = rnd.layer("chamfer_mask.build_wedges",
                                   lt.pkg.build_wedges, mask)
                rnd.count(wedges=len(decomp.wedges))
                facets = rnd.layer("chamfer_mask.hull", getattr, decomp,
                                   "hull")
                rnd.count(facets=len(facets))
                rnd.layer("chamfer_mask.convexity",
                          lt.pkg.convexity_report, decomp)
                rnd.layer("weight_opt.max_error",
                          lt.pkg.max_relative_error, decomp)
            return lambda: checks.check_mask_report(preset, weights, text,
                                                    status)
        yield f"mask check {preset} {weights}", op


def verify_ops(rnd):
    """The two-scan and both oracles on each small image, one at a time."""
    lt, inputs = rnd.lt, rnd.inputs
    for box in inputs.verify:
        def op(box=box):
            mask = inputs.masks[(box.preset, box.weights)]
            maps = [rnd.call("verify", "dt_engine.two_scan",
                             lt.pkg.chamfer_two_scan, box.image, mask)]
            maps.append(rnd.call("verify", "dt_engine.dijkstra",
                                 lt.pkg.dijkstra_oracle, box.image, mask))
            rnd.count(points=box.points)
            maps.append(rnd.call("verify", "dt_engine.iterative",
                                 lt.pkg.parallel_iterative_oracle,
                                 box.image, mask))
            rnd.done("verify", box.points)
            if rnd.tracer:
                replay_scan(rnd, lt, box.image, mask, None, box.points)

            def check():
                values = [checks.library_values(m) for m in maps]
                if not (np.array_equal(values[0], values[1])
                        and np.array_equal(values[0], values[2])):
                    raise checks.CheckError(f"verify {box.name}: two-scan, "
                                            "Dijkstra and iterative differ")
                checks.check_map(values[0], box.support, box.background,
                                 box.entries, f"verify {box.name}")
            return check
        yield f"verify {box.name}", op


def _closed_forms(decomp, points):
    return [decomp.closed_form_distance(p) for p in points]


def closed_form_ops(rnd):
    lt, inputs = rnd.lt, rnd.inputs
    for case in inputs.closed:
        def op(case=case):
            mask = inputs.masks[(case.preset, case.weights)]
            decomp = rnd.call("closed_form", "chamfer_mask.build_wedges",
                              lt.pkg.build_wedges, mask)
            rnd.count(wedges=len(decomp.wedges))
            got = rnd.call("closed_form", "chamfer_mask.closed_form",
                           _closed_forms, decomp, case.points)
            rnd.count(points=len(case.points))
            rnd.done("closed_form", len(case.points))

            def check():
                if case.problem:
                    raise checks.CheckError(case.problem)
                bad = (sum(a != b for a, b in zip(got, case.reference))
                       + abs(len(got) - len(case.reference)))
                if bad:
                    raise checks.CheckError(
                        f"{case.preset} {case.weights}: closed form differs "
                        f"from the transform at {bad} point(s)")
            return check
        yield f"closed form {case.preset} {case.weights}", op


PHASES = (
    ("dt", dt_library_ops),
    ("cli_ldt", lambda rnd: cli_dt_ops(rnd, "ldt1")),
    ("cli_csv", lambda rnd: cli_dt_ops(rnd, "csv")),
    ("tables", table_ops),
    ("mask", mask_check_ops),
    ("verify", verify_ops),
    ("closed_form", closed_form_ops),
)


def run_cycle(inputs, cycle, split, tracer=None):
    """``cycle`` rounds, which together run every operation once and the
    phases not in ``split`` ``cycle`` times."""
    rounds = []
    for index in range(cycle):
        gc.collect()
        rnd = Round(inputs, tracer, index, cycle, split)
        for name, ops in PHASES:
            rnd.run_phase(name, ops(rnd))
        rounds.append(rnd)
    return rounds
