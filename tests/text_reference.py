"""The ``%``-template text writer that ``latticedt.image_io`` used for the
CSV export and the ASCII LDT1 payload, before one numpy digit matrix
wrote both.  Tests compare the library's text with these bit for bit.

``text_rows`` formats a chunk of table rows through one template;
``csv_text`` and ``ascii_payload`` are the two writers built on it, as
they were."""

import numpy as np


def text_rows(table, sep, chunk_values=1 << 18):
    """One line of ``sep``-joined decimal integers per row of the 2-D
    ``table``, as text chunks of about ``chunk_values`` values, each
    formatted by one template."""
    rows, cols = table.shape
    step = max(1, chunk_values // cols)
    line = sep.join(["%d"] * cols) + "\n"
    for s in range(0, rows, step):
        block = table[s:s + step]
        yield (line * len(block)) % tuple(block.ravel().tolist())


def csv_text(dmap):
    """'x,y[,z],value' lines of every finite map entry in C order."""
    flat = np.flatnonzero(dmap.values < dmap.infinity)
    coords = np.unravel_index(flat, dmap.dims)
    table = np.column_stack([c + o for c, o in zip(coords, dmap.origin)]
                            + [dmap.values.ravel()[flat]])
    names = ["x", "y", "z"][:len(dmap.dims)]
    return ",".join(names + ["value"]) + "\n" + "".join(text_rows(table, ","))


def ascii_payload(flat, per_line):
    """ASCII LDT1 payload of the payload-order values ``flat``: per_line
    values a line, a short last line taking the rest; an empty payload is
    one empty line."""
    if not len(flat):
        return b"\n"
    full = len(flat) - len(flat) % per_line
    tables = [flat[:full].reshape(-1, per_line)]
    if full < len(flat):
        tables.append(flat[full:].reshape(1, -1))
    return b"".join(text.encode("ascii") for table in tables
                    for text in text_rows(table, " "))
