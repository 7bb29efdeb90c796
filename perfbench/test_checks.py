"""Tests of the benchmark's own checks: each rejects a corrupted output.

    python3 perfbench/test_checks.py

Uses only the standard library, numpy and ``checks``; latticedt is not
imported.
"""

from __future__ import annotations

import json
import os
import sys
import unittest

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def _distance_map(lattice, dims, preset, weights, background):
    """Exact map by Bellman-Ford sweeps, written here from the definition."""
    entries = checks.mask_entries(preset, weights)
    support = checks.member_mask(lattice, (0,) * len(dims), dims)
    values = np.where(support & background, 0, checks.INF)
    for _ in range(values.size):
        new = values.copy()
        for p in zip(*np.nonzero(support & ~background)):
            for v, w in entries:
                q = tuple(a + b for a, b in zip(p, v))
                if all(0 <= c < d for c, d in zip(q, dims)) and support[q]:
                    new[p] = min(new[p], values[q] + w)
        if np.array_equal(new, values):
            return values, support
        values = new
    raise AssertionError("no fixed point")


def _ldt1(lattice, dims, values, support, encoding, header_dims=None):
    raster = support.transpose()
    payload = values.transpose()[raster]
    payload = np.where(payload >= checks.INF, checks.INF32, payload)
    head = (f"LDT1\nlattice {lattice}\n"
            f"dims {' '.join(map(str, header_dims or dims))}\n"
            f"spacing {' '.join(['1.0'] * len(dims))}\n"
            f"scale 0.5\ndata {encoding}\n").encode()
    if encoding == "binary":
        return head + payload.astype("<u4").tobytes()
    return head + (" ".join(map(str, payload.tolist())) + "\n").encode()


class MapChecks(unittest.TestCase):
    def setUp(self):
        self.dims = (7, 6, 5)
        bg = np.zeros(self.dims, dtype=bool)
        bg[0, 0, 0] = bg[4, 2, 2] = True
        self.bg = bg
        self.values, self.support = _distance_map(
            "FCC", self.dims, "fcc2", (2, 3), bg)
        self.entries = checks.mask_entries("fcc2", (2, 3))

    def test_exact_map_passes(self):
        checks.check_map(self.values, self.support, self.bg, self.entries,
                         "map")

    def test_value_off_by_one_is_rejected(self):
        bad = self.values.copy()
        bad[3, 3, 2] += 1
        with self.assertRaises(checks.CheckError):
            checks.check_map(bad, self.support, self.bg, self.entries, "map")
        bad[3, 3, 2] -= 2
        with self.assertRaises(checks.CheckError):
            checks.check_map(bad, self.support, self.bg, self.entries, "map")

    def test_unreached_point_must_stay_unreached(self):
        bg = np.zeros(self.dims, dtype=bool)
        values = np.where(self.support, checks.INF, 0)
        checks.check_map(values, self.support, bg, self.entries, "empty")
        values[2, 2, 2] = 7
        with self.assertRaises(checks.CheckError):
            checks.check_map(values, self.support, bg, self.entries, "empty")

    def test_ldt1_round_trip_in_both_encodings(self):
        for enc in ("ascii", "binary"):
            data = _ldt1("FCC", self.dims, self.values, self.support, enc)
            got, fields = checks.decode_map(data, "FCC", self.dims)
            self.assertEqual(fields["scale"], "0.5")
            self.assertTrue(np.array_equal(got[self.support],
                                           self.values[self.support]))

    def test_ldt1_with_wrong_dims_is_rejected(self):
        for enc in ("ascii", "binary"):
            data = _ldt1("FCC", self.dims, self.values, self.support, enc,
                         header_dims=(7, 6, 6))
            with self.assertRaises(checks.CheckError):
                checks.decode_map(data, "FCC", self.dims)

    def test_ldt1_with_short_payload_is_rejected(self):
        data = _ldt1("FCC", self.dims, self.values, self.support, "binary")
        with self.assertRaises(checks.CheckError):
            checks.decode_map(data[:-4], "FCC", self.dims)

    def test_csv_round_trip_and_off_lattice_point(self):
        pts = np.argwhere(self.support)
        rows = [",".join(map(str, p)) + f",{self.values[tuple(p)]}"
                for p in pts]
        text = "x,y,z,value\n" + "\n".join(rows) + "\n"
        got = checks.decode_csv(text.encode(), "FCC", self.dims)
        self.assertTrue(np.array_equal(got, np.where(self.support,
                                                     self.values,
                                                     checks.INF)))
        with self.assertRaises(checks.CheckError):
            checks.decode_csv((text + "1,0,0,3\n").encode(), "FCC",
                              self.dims)

    def test_image_encoding_lists_members_x_fastest(self):
        fg = np.zeros((4, 2, 2), dtype=bool)
        fg[2, 0, 0] = True      # the second member in raster order
        data = checks.encode_image("FCC", fg, "ascii")
        payload = data.split(b"data ascii\n")[1].split()
        self.assertEqual(payload, [b"0", b"1"] + [b"0"] * 6)


class TableChecks(unittest.TestCase):
    def _rows(self, preset):
        """Published cells as the search prints them: the scale follows
        from the error, scale = (1 - error) / rho_min."""
        return [(w, round((1 - e / 100) / checks.rho_min(preset, w), 4), e)
                for w, _s, e in checks.PUBLISHED[preset][1]]

    def test_published_rows_pass(self):
        for preset in ("bcc2", "fcc4"):
            checks.check_search(preset, checks.PUBLISHED[preset][0],
                                self._rows(preset))

    def test_cell_outside_tolerance_is_rejected(self):
        rows = self._rows("bcc3")
        w, s, e = rows[3]
        # Still self-consistent, but 0.02 error points off the table.
        e2 = e + 0.02
        rows[3] = (w, round((1 - e2 / 100) / checks.rho_min("bcc3", w), 4),
                   e2)
        with self.assertRaises(checks.CheckError):
            checks.check_search("bcc3", 54, rows)

    def test_missing_cell_is_rejected(self):
        rows = self._rows("fcc2")[:-1]
        with self.assertRaises(checks.CheckError):
            checks.check_search("fcc2", 3, rows)

    def test_inconsistent_row_is_rejected(self):
        rows = self._rows("bcc2") + [((7, 8), 0.2, 10.0)]
        with self.assertRaises(checks.CheckError):
            checks.check_search("bcc2", 22, rows)

    def test_mask_report(self):
        report = ("lattice FCC (covolume 2)\nmask vectors: 18\nwedges: 32\n"
                  "ratio range: [1.414214, 1.732051]\n"
                  "scale: 0.6357  error: 10.10%\nconvexity: strict\n")
        checks.check_mask_report("fcc2", (2, 3), report, 0)
        with self.assertRaises(checks.CheckError):
            checks.check_mask_report("fcc2", (2, 3), report, 1)
        with self.assertRaises(checks.CheckError):
            checks.check_mask_report(
                "fcc2", (2, 3), report.replace("10.10", "10.13")
                .replace("0.6357", "0.6355"), 0)


class BenchmarkFile(unittest.TestCase):
    def test_metric_names_match_the_runner(self):
        sys.path.insert(0, HERE)
        import run
        with open(os.path.join(os.path.dirname(HERE),
                               "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.E2E_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.layer_units())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
