"""Sweeps run on the engine's own sessions.

The ``sweep`` and ``pareto`` ops sample and score on the request's
engine session, so they honour its storage tier, report ``warm`` by the
same rule as a ``solve``, and leave nothing alive once the engine's LRU
evicts the session. Their rows equal a direct harness sweep on a freshly
loaded dataset, on either tier.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.datasets.registry import load_dataset
from repro.experiments.harness import sweep_k, sweep_tau
from repro.service.engine import ServiceEngine
from repro.service.protocol import ParetoRequest, SolveRequest, SweepRequest
from repro.service.session import SolverSession

IM_DATASET = "rand-im-c2"
ALGORITHMS = ("Greedy", "BSM-TSGreedy")
#: A one-tau influence sweep, cheap enough to run per test.
SMALL = dict(
    dataset=IM_DATASET, k=3, values=(0.5,), algorithms=ALGORITHMS, im_samples=200
)


def _sweep(**args):
    return SweepRequest(**{**SMALL, **args})


def _pareto(**args):
    return ParetoRequest(**{**SMALL, **args})


@pytest.mark.parametrize("build", [_sweep, _pareto], ids=["sweep", "pareto"])
@pytest.mark.parametrize(
    "engine_store, request_store",
    [("ram", "mmap"), ("mmap", "")],
    ids=["request", "engine"],
)
def test_sweep_samples_into_the_engine_session_on_its_tier(
    build, engine_store, request_store
):
    engine = ServiceEngine(store=engine_store)
    response = engine.handle(build(store=request_store))
    assert response.ok, response.error
    storage = engine.session(IM_DATASET, 0, store="mmap").stats()["storage"]
    assert storage["store_kind"] == "mmap"
    assert storage["objectives"] >= 1
    assert response.cache["storage"] == storage


def test_an_evicted_sweep_session_releases_its_graph():
    engine = ServiceEngine(max_sessions=1)
    assert engine.handle(_sweep()).ok
    graph = weakref.ref(engine.session(IM_DATASET, 0).dataset.graph)
    solve = engine.handle(SolveRequest(dataset="rand-fl-c2", k=3, algorithm="greedy"))
    assert solve.ok
    gc.collect()
    assert graph() is None
    # The engine's LRU is the only session registry its stats report.
    assert not any(key.startswith("shared") for key in engine.stats())


@pytest.mark.parametrize("store", ["ram", "mmap"])
@pytest.mark.parametrize("parameter", ["tau", "k"])
def test_sweep_rows_equal_a_direct_harness_sweep(store, parameter):
    values = (0.2, 0.8) if parameter == "tau" else (2.0, 4.0)
    response = ServiceEngine(store=store).handle(
        _sweep(parameter=parameter, values=values, mc_simulations=20, tau=0.5)
    )
    assert response.ok, response.error
    data = load_dataset(IM_DATASET, seed=0)
    kwargs = dict(algorithms=ALGORITHMS, im_samples=200, mc_simulations=20, seed=0)
    if parameter == "tau":
        direct = sweep_tau(data, 3, values, **kwargs)
    else:
        direct = sweep_k(data, [int(v) for v in values], 0.5, **kwargs)
    fields = (
        "algorithm",
        "parameter",
        "value",
        "utility",
        "fairness",
        "oracle_calls",
        "solution_size",
        "feasible",
    )
    got = [tuple(row[name] for name in fields) for row in response.result["rows"]]
    want = [tuple(getattr(row, name) for name in fields) for row in direct.rows]
    assert got == want
    assert response.result["references"] == direct.references


def test_sweep_warm_follows_the_solve_rule():
    engine = ServiceEngine()
    solve = SolveRequest(dataset=IM_DATASET, k=3, algorithm="greedy", im_samples=200)
    assert engine.handle(solve).ok
    # The session exists, but the sweep samples with its own seed.
    assert engine.handle(_sweep()).warm is False
    assert engine.handle(_sweep()).warm is True
    assert engine.handle(_pareto()).warm is True


def test_a_sweep_that_samples_afresh_is_cold():
    # Its later rows hit evaluation entries that its own earlier rows
    # built on the fresh sample; those hits do not make it warm.
    engine = ServiceEngine()
    solve = SolveRequest(dataset=IM_DATASET, k=3, algorithm="greedy", im_samples=200)
    assert engine.handle(solve).ok
    sweep = _sweep(
        values=(0.1, 0.11, 0.12, 0.13),
        algorithms=("BSM-TSGreedy",),
        mc_simulations=20,
    )
    assert engine.handle(sweep).warm is False
    assert engine.handle(sweep).warm is True


def test_static_sweep_warm_is_session_reuse():
    engine = ServiceEngine()
    sweep = _sweep(dataset="rand-mc-c2")
    assert engine.handle(sweep).warm is False
    assert engine.handle(sweep).warm is True


def test_a_sweep_refuses_another_datasets_session():
    data = load_dataset(IM_DATASET, seed=0)
    other = SolverSession(load_dataset(IM_DATASET, seed=0))
    with pytest.raises(ValueError, match="different dataset"):
        sweep_tau(data, 3, (0.5,), algorithms=("Greedy",), session=other)
