"""Behaviour pin for speed changes: a speed change must not move any output.

One digest covers everything a run returns: the solution dump, the slot
trace and the convergence record, over three seeded instances of each
scheme family.  The golden was computed before the change it guards and is
updated only by a change that says why the behaviour moved.

The same families also pin the fact that lets ``run_itsso`` pause the
cyclic garbage collector: a run, its trace and its audit make no reference
cycles.
"""

import gc
import hashlib
from dataclasses import replace

import pytest

from uavsense.bench import (
    _ITSSO_SEED_OFFSET,
    ScenarioConfig,
    audit_solution,
    generate_scenario,
    nc_config,
    run_scheme,
)
from uavsense.itsso import ItssoConfig, solution_to_json

_SMALL = dict(m=10, n=10)
FAMILIES = {
    "table": ScenarioConfig(),
    "k2": ScenarioConfig(k=2, **_SMALL),
    "fsl": ScenarioConfig(scheme="fsl"),
    "nc": nc_config(ScenarioConfig()),
    "k1": ScenarioConfig(k=1, **_SMALL),
}
SEEDS = (7_130_000, 7_130_001, 7_130_002)

GOLDEN = {
    "table": "7cb5399123b0e6dd",
    "k2": "1576c7d12a47b798",
    "fsl": "968a6fdb084d5465",
    "nc": "a90c57d16b7d7451",
    "k1": "e569c819ffcf18f4",
}


def family_digest(base: ScenarioConfig) -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        sc = generate_scenario(replace(base, seed=seed))
        sol = run_scheme(sc, ItssoConfig(rng_seed=seed + _ITSSO_SEED_OFFSET),
                         record_trace=True)
        h.update(solution_to_json(sol).encode())
        for row in sol.outcome.trace:
            h.update(repr(row).encode())
        h.update(repr((sol.history, sol.candidate_history, sol.iterations,
                       sol.placement_passes)).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_outputs_match_the_golden(family):
    assert family_digest(FAMILIES[family]) == GOLDEN[family]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_runs_leave_no_cyclic_garbage(family):
    # solution_to_json is left out: json.dumps(indent=...) makes cycles of
    # its own, outside run_itsso
    sc = generate_scenario(replace(FAMILIES[family], seed=SEEDS[0]))
    cfg = ItssoConfig(rng_seed=SEEDS[0] + _ITSSO_SEED_OFFSET)
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    saved = len(gc.garbage)
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        sol = run_scheme(sc, cfg, record_trace=True)
        problems = audit_solution(sc, sol)
        untraced = run_scheme(sc, cfg)
        del sol, untraced
        found = gc.collect()
        kinds = sorted({type(o).__name__ for o in gc.garbage[saved:]})
    finally:
        gc.set_debug(flags)
        del gc.garbage[saved:]
        if enabled:
            gc.enable()
    assert problems == []
    assert (found, kinds) == (0, [])
