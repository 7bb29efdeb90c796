"""Spans kept in memory for the traced run, and their summary.

A span has a name, a start, an end, a parent and counts.  The benchmark
opens one span per phase of a round and one per call into a latticedt
module under it; spans are written out when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []     # dicts: name, start, end, parent, counts
        self._stack = []

    @contextmanager
    def span(self, name):
        """Record a span around the block; yields its counts dict."""
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "counts": {}}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def last(self):
        """Duration of the most recently closed span."""
        rec = self.spans[-1]
        return rec["end"] - rec["start"]

    def child_time(self):
        """Per span index, the time covered by its children."""
        covered = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                covered[rec["parent"]] += rec["end"] - rec["start"]
        return covered

    def layer_table(self, first=0, end=None, weight=None):
        """name -> calls, total and self seconds and summed counts, over
        the spans ``first`` to ``end``.  ``weight(phase name)`` scales the
        times and counts of a phase's spans."""
        covered = self.child_time()
        table = {}
        for i, rec in enumerate(self.spans[first:end], first):
            row = table.setdefault(rec["name"], {"calls": 0, "total_s": 0.0,
                                                 "self_s": 0.0, "counts": {}})
            root = rec if rec["parent"] is None else self.spans[rec["parent"]]
            f = weight(root["name"]) if weight else 1
            dur = rec["end"] - rec["start"]
            row["calls"] += 1
            row["total_s"] += f * dur
            row["self_s"] += f * (dur - covered[i])
            for k, v in rec["counts"].items():
                row["counts"][k] = row["counts"].get(k, 0) + f * v
        return table

    def coverage(self):
        """phase name -> the smallest share of a phase span's wall time
        that its layer spans cover."""
        covered = self.child_time()
        out = {}
        for i, rec in enumerate(self.spans):
            if rec["parent"] is None:
                dur = rec["end"] - rec["start"]
                share = covered[i] / dur if dur > 0 else 1.0
                out[rec["name"]] = min(out.get(rec["name"], 1.0), share)
        return out
