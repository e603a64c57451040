"""The summary of tools/bench_pairs.py on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_summary_of_fixed_pairs():
    parent = [0.060, 0.062, 0.061, 0.064, 0.059]
    change = [0.055, 0.057, 0.062, 0.058, 0.054]
    frac = [0.5, 0.4, 0.6, 0.5, 0.7]
    pairs = [({"wall_s": p, "verified_frac": f}, {"wall_s": c, "verified_frac": f + 0.1 * (i % 2)})
             for i, (p, c, f) in enumerate(zip(parent, change, frac))]
    summary = bench_pairs.summarize(pairs, {"wall_s": "lower", "verified_frac": "higher"})
    wall = summary["wall_s"]
    assert wall["pairs"] == list(zip(parent, change))
    assert wall["parent"] == pytest.approx((0.061, 0.0595, 0.063))
    assert wall["change"] == pytest.approx((0.057, 0.0545, 0.060))
    assert wall["wins"] == 4
    # Higher is better, and a tie is no win: the change is 0.1 higher in
    # pairs 1 and 3 only.
    assert summary["verified_frac"]["wins"] == 2


def test_one_pair_is_its_own_quartiles():
    summary = bench_pairs.summarize([({"setup_s": 0.2}, {"setup_s": 0.2})], {})
    assert summary["setup_s"] == {"pairs": [(0.2, 0.2)], "parent": (0.2, 0.2, 0.2),
                                  "change": (0.2, 0.2, 0.2), "wins": 0}


def _summary(parent, change, better="lower"):
    pairs = [({"wall_s": p}, {"wall_s": c}) for p, c in zip(parent, change)]
    return bench_pairs.summarize(pairs, {"wall_s": better})["wall_s"]


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
WIDE = [0.70, 1.30, 0.80, 1.20, 0.90, 1.10, 0.75, 1.25, 1.00, 1.00]


@pytest.mark.parametrize("parent, change, better, expected", [
    # Three pairs 5.7% apart, as two identical trees once read: too few.
    (PARENT[:3], [p * 0.943 for p in PARENT[:3]], "lower", "unresolved"),
    (PARENT[:9], [p * 0.5 for p in PARENT[:9]], "lower", "unresolved"),
    # 10 of 10 wins, the median gap 0.10 wider than the parent's IQR.
    (PARENT, [p - 0.10 for p in PARENT], "lower", "gain"),
    # Higher is better: the same gap upward is a gain, downward is not.
    (PARENT, [p + 0.10 for p in PARENT], "higher", "gain"),
    (PARENT, [p - 0.10 for p in PARENT], "higher", "within bound"),
    # 9 of 10 wins, but the median gap is inside the parent's IQR.
    (PARENT, [p - 0.01 for p in PARENT[:9]] + [1.10], "lower", "within bound"),
    # 8 of 10 wins are not enough, however wide the gap.
    (PARENT, [p - 0.10 for p in PARENT[:8]] + [2.0, 2.0], "lower", "within bound"),
    # Worse by 21% against a 20% bound, and by 19%.
    (PARENT, [p * 1.21 for p in PARENT], "lower", "regression"),
    (PARENT, [p * 1.19 for p in PARENT], "lower", "within bound"),
    (PARENT, [p * 0.79 for p in PARENT], "higher", "regression"),
    # A parent IQR (0.425) wider than the 20% bound resolves nothing while
    # the runs overlap: not a 21% loss, nor two identical sides.
    (WIDE, [p * 1.21 for p in WIDE], "lower", "unresolved"),
    (WIDE, WIDE, "lower", "unresolved"),
    # Every change run beats every parent run, by less than the IQR.
    (WIDE, [0.65] * 10, "lower", "within bound"),
    # Every change run is worse than every parent run, by 45% in the median.
    (WIDE, [1.45] * 10, "lower", "regression"),
])
def test_verdict_of_fixed_pairs(parent, change, better, expected):
    assert bench_pairs.verdict(_summary(parent, change, better), better, 0.2) == expected


def test_pair_line_shows_attempted_operations_when_given():
    assert bench_pairs.pair_line(3, 42.54, 44.86) == \
        "  pair  3  parent 42.54  change 44.86  +5.5%"
    # A memory pair read against the operations each run fitted.
    assert bench_pairs.pair_line(3, 42.54, 44.86, (1320, 1760)) == \
        "  pair  3  parent 42.54  change 44.86  +5.5%  attempted 1320 / 1760"
