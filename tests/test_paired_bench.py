"""The verdicts that ``scripts/paired_bench.py`` prints for paired runs."""

import importlib.util
import os

import pytest

_spec = importlib.util.spec_from_file_location("paired_bench", os.path.join(
    os.path.dirname(__file__), os.pardir, "scripts", "paired_bench.py"))
paired_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired_bench)

PARENT = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]  # q1..q3 = 4.5


@pytest.mark.parametrize("change,wins,expected", [
    ([v + 5 for v in PARENT], 10, "claim met"),
    ([v + 5 for v in PARENT], 8, "claim not met"),   # 8 of 10 pairs
    ([v + 4 for v in PARENT], 10, "claim not met"),  # gain within spread
])
def test_claim_needs_nine_tenths_and_a_gain_beyond_the_spread(change, wins,
                                                               expected):
    assert paired_bench.verdict(PARENT, change, wins, 0.25, True) == expected


def test_claim_not_met_with_more_failed_operations():
    change = [v + 5 for v in PARENT]
    assert paired_bench.verdict(PARENT, change, 10, 0.25, True,
                                more_failures=True) == "claim not met"


@pytest.mark.parametrize("parent,change,expected", [
    (PARENT, [v * 0.8 for v in PARENT], "ok"),
    (PARENT, [v * 0.7 for v in PARENT], "worse"),
    ([10, 20, 30, 40], [11, 21, 31, 41], "unresolved"),
    ([10, 20, 30, 40], [41, 42, 43, 44], "ok"),  # every change run better
])
def test_other_metrics_are_judged_by_the_bound(parent, change, expected):
    assert paired_bench.verdict(parent, change, 0, 0.25, False) == expected
