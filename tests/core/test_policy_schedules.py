"""SO, BT(O) and LM schedules at figure-7 scale, pinned from a parent commit.

``fixtures/policy_schedules.json`` was generated from the parent of the
change that moved HLL union estimates onto one uint16 term encoding
with exact spill columns and the candidate index onto sorted runs
(``PYTHONPATH=<parent>/src python tests/core/test_policy_schedules.py
> tests/core/fixtures/policy_schedules.json``).  Each entry is the
sha256 of one run's merge steps.  A deliberate behaviour change
re-records it the same way and says so.

What the pin guards depends on the tables.  At the figure-7 mid-point
under ``latest`` the tables barely overlap: SO(hll) picks BT(O)'s pairs
and LM's schedule is the same for every seed, so those cases pin the
``(score, combo)`` tie-break and the spill path, not the scores.  Under
``zipfian`` the tables overlap, and SO(hll), BT(O) and LM all choose by
score (:func:`test_fixture_depends_on_the_scores` keeps it so); an
estimate change that flips one choice there fails by name.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import pytest

from repro.core import GreedyMerger, MergeInstance
from repro.core.policies import make_policy
from repro.simulator import SimulationConfig
from repro.simulator.phase1 import generate_sstables

FIXTURE = Path(__file__).parent / "fixtures" / "policy_schedules.json"
DISTRIBUTIONS = ("latest", "zipfian")
SEEDS = (1, 2, 3)
CASES = [f"{d}/seed={s}" for d in DISTRIBUTIONS for s in SEEDS]
#: label -> (policy name, estimator); LM consults no estimator.
POLICIES = {
    "SO": ("SO", "hll"),
    "BT(O)": ("BT(O)", "hll"),
    "SO(exact)": ("SO", "exact"),
    "LM": ("LM", None),
}
#: The one p = 17 case: 2**17 registers put the exact sums past uint32.
WIDE_CASE = "p=17/zipfian/seed=1"


@lru_cache(maxsize=None)
def _instance(case: str, operationcount: int = 100_000) -> MergeInstance:
    """The figure-7 mid-point (update 50 %), ~101 tables at the default
    ``operationcount``; ``case`` is ``"<distribution>/seed=<seed>"``."""
    distribution, seed = case.split("/seed=")
    config = replace(
        SimulationConfig.figure7(0.5, distribution=distribution, seed=int(seed)),
        operationcount=operationcount,
    )
    return MergeInstance(tuple(t.key_set for t in generate_sstables(config).tables))


def _wide_instance() -> MergeInstance:
    return _instance(WIDE_CASE.removeprefix("p=17/"), operationcount=20_000)


def _run(instance: MergeInstance, name: str, estimator, **hll):
    policy = make_policy(name, estimator=estimator, **hll)
    result = GreedyMerger(policy, backend="bitset").run(instance)
    text = ";".join(
        f"{','.join(map(str, step.inputs))}>{step.output}"
        for step in result.schedule.steps
    )
    return policy, hashlib.sha256(text.encode()).hexdigest()


def policy_schedules() -> dict[str, dict[str, str]]:
    """``case -> label -> sha256`` over every pinned run."""
    cases = {
        case: {
            label: _run(_instance(case), name, estimator)[1]
            for label, (name, estimator) in POLICIES.items()
        }
        for case in CASES
    }
    cases[WIDE_CASE] = {
        label: _run(_wide_instance(), label, "hll", hll_precision=17)[1]
        for label in ("SO", "BT(O)")
    }
    return cases


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("case", CASES)
def test_schedules_match_the_parent_commit(case, pinned):
    instance = _instance(case)
    for label, (name, estimator) in POLICIES.items():
        assert _run(instance, name, estimator)[1] == pinned[case][label], label


def test_wide_precision_schedules_match_the_parent_commit(pinned):
    for label in ("SO", "BT(O)"):
        policy, digest = _run(_wide_instance(), label, "hll", hll_precision=17)
        assert digest == pinned[WIDE_CASE][label], label
        assert len(policy.estimator._matrix.spill_columns)


def test_fixture_depends_on_the_scores(pinned):
    """Under ``zipfian`` SO(hll) and BT(O) part ways in every case and LM
    differs per seed, so the pin is not just the tie-break order."""
    assert set(pinned) == {*CASES, WIDE_CASE}
    zipfian = [pinned[f"zipfian/seed={seed}"] for seed in SEEDS]
    assert all(case["SO"] != case["BT(O)"] for case in zipfian)
    assert len({case["LM"] for case in zipfian}) == len(SEEDS)
    assert pinned[WIDE_CASE]["SO"] != pinned[WIDE_CASE]["BT(O)"]


@pytest.mark.parametrize("case", ("latest/seed=1", "zipfian/seed=1"))
def test_most_estimates_skip_the_term_pass(case):
    """At figure-7 scale most candidate unions keep enough zero registers
    to prove linear counting, so the zeros pass settles them and at most
    a fifth of the combos SO(hll) and BT(O) estimate reach the 2m-byte
    term rows."""
    for name in ("SO", "BT(O)"):
        matrix = _run(_instance(case), name, "hll")[0].estimator._matrix
        assert 0 < matrix.term_rows <= 0.2 * matrix.zero_rows, name


def test_fixture_reaches_the_spill_columns():
    """The pin only guards the spill path if some p = 12 run takes it:
    a register of rank >= 16 in an initial sketch."""
    spilled = [
        len(_run(_instance(case), "BT(O)", "hll")[0].estimator._matrix.spill_columns)
        for case in CASES
    ]
    assert any(spilled), spilled


if __name__ == "__main__":
    print(json.dumps(policy_schedules(), indent=1, sort_keys=True))
