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
