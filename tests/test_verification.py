"""The per-module property suites must pass end to end."""

import numpy as np
import pytest

from capra import verification as ver
from capra.numerics import build_grid


@pytest.mark.parametrize("suite", ["norms", "conjugacy", "envelope"])
def test_module_suite_passes(suite):
    results = ver.run_suite(suite)
    for r in results:
        print(r.line())
    assert all(r.passed for r in results)


def test_report_dict_shape():
    results = ver.run_suite("norms", seed=3)
    report = ver.report_dict("norms", 3, results)
    assert report["suite"] == "norms" and report["seed"] == 3
    assert report["counts"]["passed"] + report["counts"]["failed"] == len(results)
    assert report["passed"] == all(r.passed for r in results)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        ver.run_suite("nope")


def _midpoint_gaps_by_coordinates(grid, accepted) -> int:
    # Every pair, its coordinate midpoint, and a node test by distance.
    keys = {tuple(np.round(row, 12)) for row in accepted}
    count = 0
    for i in range(len(accepted)):
        for j in range(i + 1, len(accepted)):
            mid = 0.5 * (accepted[i] + accepted[j])
            node = grid.nodes[grid.nearest_index(mid)]
            if np.max(np.abs(node - mid)) < 1e-9 and tuple(np.round(node, 12)) not in keys:
                count += 1
    return count


@pytest.mark.parametrize("bounds,counts", [
    ([(-1.0, 1.0), (-0.5, 1.0)], [9, 7]),
    ([(-1.0, 1.0)] * 3, [5, 5, 5]),
])
def test_midpoint_gap_count_planted_nonconvex_set(bounds, counts):
    grid = build_grid(bounds, counts)
    rng = np.random.default_rng(11)
    accepted = grid.nodes[rng.random(grid.node_count) < 0.6]
    expected = _midpoint_gaps_by_coordinates(grid, accepted)
    assert expected > 0
    assert ver._midpoint_gap_count(grid, accepted) == expected
    # a convex accepted set (an linf ball) has no gaps
    cube = grid.nodes[np.max(np.abs(grid.nodes), axis=1) <= 0.5 + 1e-12]
    assert ver._midpoint_gap_count(grid, cube) == 0
    assert ver._midpoint_gap_count(grid, grid.nodes[:0]) == 0



def test_checks_run_once_per_run_suite_call(monkeypatch):
    calls = []

    @ver._once_per_run
    def check(seed):
        calls.append(seed)
        return ver.CheckResult("probe", True, 0.0, float(seed))

    def suite(seed):
        # The same seed is one key; another seed is another.
        return [check(seed), check(seed), check(seed + 1)]

    for name in ("norms", "conjugacy", "envelope", "acceptance"):
        monkeypatch.setitem(ver.SUITES, name, suite)
    results = ver.run_suite("all", seed=1)
    assert calls == [1, 2]
    assert [r.observed for r in results] == [1.0, 1.0, 2.0] * 4
    # Each caller owns its copy, and no result outlives the call.
    results[0].name = "renamed"
    assert results[1].name == "probe"
    assert ver._RUN_MEMO.get() is None
    ver.run_suite("norms", seed=1)
    check(1)
    assert calls == [1, 2, 1, 2, 1]
