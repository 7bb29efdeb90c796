"""LDT1 image and map I/O, mask file reading, and synthetic images.

LDT1 layout (text header, then payload)::

    LDT1
    lattice <Z2|Z3|BCC|FCC|custom>
    [generators g11 g12 [g13] ; g21 ... ]   (custom lattices only)
    dims nx ny [nz]
    spacing sx sy [sz]
    [origin ox oy [oz]]                     (default all zero)
    [scale <float>]                         (distance maps only)
    data <ascii|binary>
    <payload>

The payload lists one value per lattice-member coordinate of the box, in
lexicographic raster order with x fastest.  Images store 0 (background) or
1 (foreground); distance maps store nonnegative 32-bit integers with
4294967295 as infinity.  Binary payloads are little-endian uint32.
"""

from __future__ import annotations

import math

import numpy as np

from .chamfer_mask import ChamferMask, MaskError
from .dt_engine import DistanceMap, GridImage
from .lattice import Lattice, LatticeError, custom_lattice, lattice_by_name

INF32 = 4294967295
# Whitespace that may separate ASCII payload values.
_SPACE = np.zeros(256, dtype=bool)
_SPACE[list(b" \t\n\r\x0b\x0c")] = True
# Place values of the ten decimal digits INF32 can have, then 0 for every
# place further left, where any value that fits has a zero digit.
_POW10 = np.append(10 ** np.arange(10, dtype=np.int64), 0)
# Values formatted per chunk by the text writers: small enough that a
# chunk's digit passes stay in cache.
_CHUNK_VALUES = 1 << 16


class FormatError(ValueError):
    """Raised for malformed LDT1 or mask files."""


def _raster(lattice, origin, dims):
    """Lattice membership of the box seen in payload order.  The transposed
    view makes x the last, fastest axis of a C-order walk, so boolean
    indexing through it reads or writes the payload in place."""
    return lattice.member_grid(origin, dims).T


def _member_count(lattice, origin, dims):
    """Number of lattice members in the box, counted on one period of the
    membership pattern (covolume * e_i lies in the lattice), so that a huge
    header costs no allocation."""
    m = lattice.covolume
    tile = lattice.member_grid(origin, tuple(min(m, d) for d in dims))
    return sum(math.prod((d - j + m - 1) // m for d, j in zip(dims, r))
               for r in np.argwhere(tile).tolist())


def _parse_header(lines):
    if not lines or lines[0].strip() != "LDT1":
        raise FormatError("missing LDT1 magic line")
    fields = {}
    i = 1
    while i < len(lines):
        parts = lines[i].split(None, 1)
        if not parts:
            i += 1
            continue
        key = parts[0]
        fields[key] = parts[1].strip() if len(parts) > 1 else ""
        i += 1
        if key == "data":
            break
    else:
        raise FormatError("header has no 'data' line")
    for required in ("lattice", "dims", "spacing", "data"):
        if required not in fields:
            raise FormatError(f"header is missing the '{required}' line")
    return fields, i


def _header_lattice(fields):
    dims = tuple(int(t) for t in fields["dims"].split())
    spacing = tuple(float(t) for t in fields["spacing"].split())
    if any(d <= 0 for d in dims):
        raise FormatError("dims must be positive")
    if len(dims) != len(spacing):
        raise FormatError("dims and spacing length mismatch")
    lat_id = fields["lattice"]
    if lat_id == "custom":
        if "generators" not in fields:
            raise FormatError("custom lattice needs a generators line")
        gens = tuple(tuple(int(t) for t in g.split())
                     for g in fields["generators"].split(";"))
        lattice = custom_lattice("custom", gens, spacing)
    else:
        lattice = lattice_by_name(lat_id, spacing)
    if lattice.dim != len(dims):
        raise FormatError("lattice dimension does not match dims")
    origin = tuple(int(t) for t in fields.get("origin", "").split()) \
        or (0,) * len(dims)
    if len(origin) != len(dims):
        raise FormatError("origin length mismatch")
    if any(abs(v) >= 2 ** 62 for v in dims + origin):
        raise FormatError("dims and origin must lie below 2**62")
    return lattice, dims, origin


def _read_payload(fields, raw, count):
    """The ``count`` payload values as int64; any other count is refused
    before the box is allocated."""
    if fields["data"] == "ascii":
        values = _parse_ascii(raw)
        if len(values) != count:
            raise FormatError(f"expected {count} payload values, "
                              f"got {len(values)}")
        return values
    if fields["data"] == "binary":
        if len(raw) != 4 * count:
            raise FormatError(f"expected {4 * count} payload bytes, "
                              f"got {len(raw)}")
        return np.frombuffer(raw, dtype="<u4").astype(np.int64)
    raise FormatError(f"unknown data encoding {fields['data']!r}")


def _parse_ascii(raw):
    """Values of an ASCII payload: unsigned decimal integers up to INF32
    separated by whitespace.  Each digit is weighted by its place value
    and each token summed in one pass, with no per-token loop."""
    a = np.frombuffer(raw, dtype=np.uint8)
    digit = (a >= ord("0")) & (a <= ord("9"))
    if not np.all(digit | _SPACE[a]):
        raise FormatError("ASCII payload may hold only unsigned decimal "
                          "integers and whitespace")
    edge = np.diff(digit.view(np.int8), prepend=np.int8(0),
                   append=np.int8(0))
    starts = np.flatnonzero(edge == 1)
    lengths = np.flatnonzero(edge == -1) - starts
    if not len(lengths):
        return np.zeros(0, dtype=np.int64)
    digits = a[digit] - ord("0")
    ends = np.cumsum(lengths)
    place = np.minimum(np.repeat(ends, lengths) - np.arange(len(digits)) - 1,
                       10)
    values = np.add.reduceat(digits * _POW10[place], ends - lengths)
    if np.any(digits[place == 10]) or np.any(values > INF32):
        raise FormatError(f"payload value exceeds {INF32}")
    return values


def _split_file(path):
    raw = open(path, "rb").read()
    # The header is pure text ending at the newline after the 'data' line.
    pos = 0
    lines = []
    while True:
        nl = raw.find(b"\n", pos)
        if nl < 0:
            raise FormatError("header has no 'data' line")
        line = raw[pos:nl].decode("ascii")
        lines.append(line)
        pos = nl + 1
        if line.split(None, 1)[:1] == ["data"]:
            break
    return lines, raw[pos:]


def _read(path):
    lines, rest = _split_file(path)
    fields, _ = _parse_header(lines)
    lattice, dims, origin = _header_lattice(fields)
    payload = _read_payload(fields, rest, _member_count(lattice, origin, dims))
    return fields, lattice, dims, origin, payload


def read_image(path) -> GridImage:
    _fields, lattice, dims, origin, payload = _read(path)
    if np.any(payload > 1):
        raise FormatError("image payload must be 0/1")
    values = np.full(dims, -1, dtype=np.int8)
    values.T[_raster(lattice, origin, dims)] = payload.astype(np.int8)
    return GridImage(lattice, origin, values)


def read_distance_map(path) -> DistanceMap:
    fields, lattice, dims, origin, payload = _read(path)
    scale = float(fields.get("scale", 1.0))
    values = np.full(dims, INF32, dtype=np.int64)
    values.T[_raster(lattice, origin, dims)] = payload
    return DistanceMap(lattice, origin, values, INF32, scale)


def _header_text(lattice, dims, origin, encoding, scale=None):
    """The header names a built-in lattice only when the registry's lattice
    of that name has the same generators; any other lattice is written as
    'custom' with its generators."""
    out = ["LDT1"]
    try:
        builtin = lattice_by_name(lattice.name)
    except LatticeError:
        builtin = None
    if builtin is not None and builtin.generators == lattice.generators:
        out.append(f"lattice {builtin.name}")
    else:
        out.append("lattice custom")
        out.append("generators " + " ; ".join(
            " ".join(str(c) for c in g) for g in lattice.generators))
    out.append("dims " + " ".join(str(d) for d in dims))
    out.append("spacing " + " ".join(repr(s) for s in lattice.spacing))
    if any(o != 0 for o in origin):
        out.append("origin " + " ".join(str(o) for o in origin))
    if scale is not None:
        out.append(f"scale {scale!r}")
    out.append(f"data {encoding}")
    return "\n".join(out) + "\n"


def _write(path, header, flat, per_line, encoding):
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        if encoding != "ascii":
            f.write(flat.astype("<u4").tobytes())
        elif not len(flat):
            f.write(b"\n")  # an empty payload is one empty line
        else:
            # per_line values a line and a short last line; chunks are
            # whole lines, and a chunk's last value ends a line.
            sep = np.full((max(1, _CHUNK_VALUES // per_line), per_line),
                          ord(" "), dtype=np.uint8)
            sep[:, -1] = ord("\n")
            for s in range(0, len(flat), sep.size):
                m = _digits(flat[s:s + sep.size], sep.ravel()[:len(flat) - s])
                m[-1, -1] = ord("\n")
                f.write(m[m != 0].tobytes())


def _digits(values, sep):
    """Decimal text of the integers ``values`` as uint8 rows, each ending in
    ``sep``: digits right-aligned behind NUL bytes, which writers drop once
    the rows are joined.  The digit passes run on the narrowest dtype."""
    a = np.abs(values)
    top = a.max(initial=0)
    neg = np.flatnonzero(values < 0)
    width = len(str(top)) + (len(neg) > 0)
    a = a.astype(np.min_scalar_type(top))
    m = np.empty((len(a), width + 1), dtype=np.uint8)
    m[:, -1] = sep
    for k in range(width - 1, -1, -1):
        live = a > 0
        a, r = np.divmod(a, 10)
        m[:, k] = (r + ord("0")) * live
    m[:, width - 1] |= ord("0")  # zero is "0"
    m[neg, width - 1 - np.count_nonzero(m[neg, :width], axis=1)] = ord("-")
    return m


def write_image(image: GridImage, path, encoding="ascii"):
    """Serialize an image whose support is every lattice member of its box
    (carved supports have no file representation)."""
    flat = image.values.T[_raster(image.lattice, image.origin, image.dims)]
    if np.any(flat < 0):
        raise FormatError("cannot serialize an image with a carved support")
    header = _header_text(image.lattice, image.dims, image.origin, encoding)
    _write(path, header, flat, image.dims[0], encoding)


def write_distance_map(dmap: DistanceMap, path, encoding="ascii"):
    flat = dmap.values.T[_raster(dmap.lattice, dmap.origin, dmap.dims)]
    finite = flat < dmap.infinity
    if np.any(finite & ((flat < 0) | (flat >= INF32))):
        raise FormatError(f"finite distances must lie in [0, {INF32}) to "
                          "fit a 32-bit payload")
    flat[~finite] = INF32  # flat is a copy
    header = _header_text(dmap.lattice, dmap.dims, dmap.origin, encoding,
                          scale=dmap.scale)
    _write(path, header, flat, dmap.dims[0], encoding)


# ---------------------------------------------------------------------------
# Mask files: one 'vx vy [vz] : w' entry per line, '#' comments, closed
# under v -> -v on load.
# ---------------------------------------------------------------------------


def read_mask(path, lattice: Lattice) -> ChamferMask:
    entries = []
    for lineno, line in enumerate(open(path, encoding="ascii"), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if ":" not in body:
            raise FormatError(f"{path}:{lineno}: expected 'vx vy [vz] : w'")
        vec_part, w_part = body.split(":", 1)
        vec = tuple(int(t) for t in vec_part.split())
        w_txt = w_part.strip()
        weight = int(w_txt) if w_txt.lstrip("+-").isdigit() else float(w_txt)
        entries.append((vec, weight))
    if not entries:
        raise FormatError(f"{path}: no mask entries")
    try:
        return ChamferMask.build(lattice, entries)
    except MaskError as e:
        raise FormatError(f"{path}: {e}") from e


# ---------------------------------------------------------------------------
# Synthetic images.
# ---------------------------------------------------------------------------


def _force_border_background(fg, depth):
    n = fg.ndim
    for ax in range(n):
        sl = [slice(None)] * n
        sl[ax] = slice(0, depth)
        fg[tuple(sl)] = False
        sl[ax] = slice(fg.shape[ax] - depth, None)
        fg[tuple(sl)] = False


def single_point_image(lattice, dims, border_background=False,
                       border_depth=1) -> GridImage:
    """All-foreground box with one background point at the center (snapped
    to the nearest lattice member)."""
    dims = tuple(dims)
    center = tuple(d // 2 for d in dims)
    if not lattice.member(center):
        for cand in sorted(np.ndindex(*([3] * len(dims)))):
            c = tuple(ci + o - 1 for ci, o in zip(center, cand))
            if lattice.member(c):
                center = c
                break
    fg = np.ones(dims, dtype=bool)
    fg[center] = False
    if border_background:
        _force_border_background(fg, border_depth)
    return GridImage.from_foreground(lattice, (0,) * len(dims), fg)


def random_image(lattice, dims, density=0.5, seed=0,
                 border_depth=1) -> GridImage:
    """Bernoulli foreground with all border points forced to background.
    Deterministic for a given seed."""
    rng = np.random.default_rng(seed)
    fg = rng.random(tuple(dims)) < density
    _force_border_background(fg, border_depth)
    return GridImage.from_foreground(lattice, (0,) * len(dims), fg)


# ---------------------------------------------------------------------------
# CSV export.
# ---------------------------------------------------------------------------


def distance_map_csv(dmap: DistanceMap):
    """CSV text 'x,y[,z],value' for every finite map entry, in lexicographic
    coordinate order, which is the C order of the array.  Coordinate text
    comes from one digit table per axis."""
    names = ["x", "y", "z"][:len(dmap.dims)]
    out = [",".join(names + ["value"]) + "\n"]
    tables = [_digits(np.arange(o, o + d), ord(","))
              for o, d in zip(dmap.origin, dmap.dims)]
    values = dmap.values.ravel()
    flat = np.flatnonzero(values < dmap.infinity)
    for s in range(0, len(flat), _CHUNK_VALUES):
        idx = flat[s:s + _CHUNK_VALUES]
        m = np.hstack([np.take(t, c, axis=0) for t, c in
                       zip(tables, np.unravel_index(idx, dmap.dims))]
                      + [_digits(values[idx], ord("\n"))])
        out.append(m[m != 0].tobytes().decode("ascii"))
    return "".join(out)
