"""Fixed-seed solver traces pinned against a committed fixture.

``tests/data/golden_traces.json`` holds the traces of four small runs
(denoise, completion on a row-major mask and on the same mask shuffled,
NMF).  Refactors of the solvers must reproduce them: iteration counts,
ranks, prune events and status exactly, every traced float to 1e-12
relative.  Regenerate the fixture, only for an intended change of the
numbers, with ``PYTHONPATH=src python tests/test_traces.py``; before it
overwrites the fixture it prints any discrete mismatch against the old one
and the largest relative drift of each float field.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from lowrankmf import ObservedMask, SolverConfig, solve_denoise, solve_mc, solve_nmf
from lowrankmf.data import add_noise_snr, gen_lowrank, sample_mask

FIXTURE = Path(__file__).parent / "data" / "golden_traces.json"
RTOL = 1e-12
FLOAT_FIELDS = (
    "objective", "rel_change", "delta", "displacement_sq", "gram_min_eig", "max_col_sq"
)


def _completion_data(shuffle: bool):
    x0 = gen_lowrank(40, 40, 3, "gaussian", 11)
    y = add_noise_snr(x0, 20.0, 12)
    mask = sample_mask(40, 40, 600, 13)
    if shuffle:
        perm = np.random.default_rng(14).permutation(mask.card)
        mask = ObservedMask(40, 40, mask.row_idx[perm], mask.col_idx[perm])
    return y, mask


def _nmf_data():
    x0 = gen_lowrank(40, 40, 3, "uniform01", 21)
    return np.maximum(add_noise_snr(x0, 20.0, 22), 0.0)


def _denoise_data():
    x0 = gen_lowrank(40, 40, 3, "gaussian", 1)
    return add_noise_snr(x0, 20.0, 2)


CASES = {
    "denoise": lambda: solve_denoise(_denoise_data(), SolverConfig(lam=5.0, d_init=10)),
    "complete_sorted": lambda: solve_mc(
        *_completion_data(False), SolverConfig(lam=10.0, d_init=10)
    ),
    "complete_shuffled": lambda: solve_mc(
        *_completion_data(True), SolverConfig(lam=10.0, d_init=10)
    ),
    "nmf": lambda: solve_nmf(_nmf_data(), SolverConfig(lam=1.0, d_init=10)),
}


def trace_dict(trace) -> dict:
    return {
        "initial_objective": trace.initial_objective,
        "status": trace.status,
        "records": [
            {"k": r.k, "d": r.d, **{f: getattr(r, f) for f in FLOAT_FIELDS}}
            for r in trace.records
        ],
        "prunes": [
            {
                "k": p.iteration,
                "removed": list(p.removed_columns),
                "norms": list(p.pair_norms_at_removal),
            }
            for p in trace.prunes
        ],
    }


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b))


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_matches_fixture(name):
    want = json.loads(FIXTURE.read_text())[name]
    _, trace = CASES[name]()
    got = trace_dict(trace)
    assert got["status"] == want["status"]
    assert _close(got["initial_objective"], want["initial_objective"])
    assert [(r["k"], r["d"]) for r in got["records"]] == [
        (r["k"], r["d"]) for r in want["records"]
    ]
    for g, w in zip(got["records"], want["records"]):
        for f in FLOAT_FIELDS:
            assert _close(g[f], w[f]), (g["k"], f, g[f], w[f])
    assert [(p["k"], p["removed"]) for p in got["prunes"]] == [
        (p["k"], p["removed"]) for p in want["prunes"]
    ]
    for g, w in zip(got["prunes"], want["prunes"]):
        assert all(_close(a, b) for a, b in zip(g["norms"], w["norms"]))


DRIFT_FIELDS = ("initial_objective", *FLOAT_FIELDS, "prune_norms")


def fixture_drift(old: dict, new: dict) -> tuple[list[str], dict[str, float]]:
    """Discrete mismatches (status, ``k``/``d``, prune events) between two
    fixtures, and the largest relative difference of each float field."""
    mismatches, drift = [], dict.fromkeys(DRIFT_FIELDS, 0.0)

    def note(field, a, b):
        rel = abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0
        drift[field] = max(drift[field], rel)

    for name in sorted(set(old) | set(new)):
        if name not in old or name not in new:
            mismatches.append(f"{name}: case only in one fixture")
            continue
        o, n = old[name], new[name]
        if o["status"] != n["status"]:
            mismatches.append(f"{name}: status {o['status']} -> {n['status']}")
        kd = [[(r["k"], r["d"]) for r in t["records"]] for t in (o, n)]
        if kd[0] != kd[1]:
            mismatches.append(f"{name}: (k, d) sequence differs")
        events = [[(p["k"], p["removed"]) for p in t["prunes"]] for t in (o, n)]
        if events[0] != events[1]:
            mismatches.append(f"{name}: prune events {events[0]} -> {events[1]}")
        note("initial_objective", o["initial_objective"], n["initial_objective"])
        for a, b in zip(o["records"], n["records"]):
            for f in FLOAT_FIELDS:
                note(f, a[f], b[f])
        for a, b in zip(o["prunes"], n["prunes"]):
            for x, y in zip(a["norms"], b["norms"]):
                note("prune_norms", x, y)
    return mismatches, drift


def test_fixture_drift_reports_mismatches_and_largest_relative_drift():
    old = json.loads(FIXTURE.read_text())
    assert fixture_drift(old, old) == ([], {f: 0.0 for f in DRIFT_FIELDS})
    new = json.loads(FIXTURE.read_text())
    new["nmf"]["records"][1]["objective"] *= 1 + 1e-9
    new["denoise"]["status"] = "max_iter"
    new["denoise"]["records"][-1]["d"] += 1
    mismatches, drift = fixture_drift(old, new)
    assert mismatches == [
        "denoise: status converged -> max_iter", "denoise: (k, d) sequence differs"
    ]
    assert 0.9e-9 < drift["objective"] < 1.1e-9 and drift["delta"] == 0.0


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    out = {name: trace_dict(run()[1]) for name, run in sorted(CASES.items())}
    if FIXTURE.exists():
        mismatches, drift = fixture_drift(json.loads(FIXTURE.read_text()), out)
        for line in mismatches or ["no discrete mismatch (k, d, prunes, status)"]:
            print(line)
        for f, rel in drift.items():
            print(f"max relative drift {f}: {rel:.3g}")
    FIXTURE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
