"""Shared fixtures: cached generator batches reused across test modules, a
spy on the rankers' solvers, and a switch that makes every Ritz solve cold."""

from collections import defaultdict
from dataclasses import dataclass

import pytest

from fairank import rankers
from fairank.bpam import BpamParams, GenerationStats, generate
from fairank.graph import ColoredDigraph

BASE_SEED = 20250800


@dataclass
class Batch:
    params: BpamParams
    seeds: list[int]
    graphs: list[ColoredDigraph]
    stats: list[GenerationStats]


@pytest.fixture(scope="session")
def batch_cache():
    """Factory returning (and memoizing) replica batches per parameter set."""
    cache: dict[tuple, Batch] = {}

    def get(
        r: float = 0.3,
        rho: float = 0.3,
        n: int = 1000,
        d: int = 6,
        reps: int = 100,
        base_seed: int = BASE_SEED,
    ) -> Batch:
        key = (r, rho, n, d, reps, base_seed)
        if key not in cache:
            params = BpamParams(n, d, r, rho)
            seeds = [base_seed + i for i in range(reps)]
            graphs = []
            stats = []
            for s in seeds:
                g, st = generate(params, seed=s)
                graphs.append(g)
                stats.append(st)
            cache[key] = Batch(params, seeds, graphs, stats)
        return cache[key]

    return get


@pytest.fixture
def solver_calls(monkeypatch):
    """Results of every _ritz_topk, _krylov_start and _fixed_point call, by function name."""
    calls = defaultdict(list)
    for name in ("_ritz_topk", "_krylov_start", "_fixed_point"):
        def spy(*args, _name=name, _solve=getattr(rankers, name)):
            calls[_name].append(_solve(*args))
            return calls[_name][-1]
        monkeypatch.setattr(rankers, name, spy)
    return calls


@pytest.fixture
def forced_cold(monkeypatch):
    """Every one-row Krylov start gives up, so each Ritz solve is cold: the
    block Krylov run is the solve. Any later argument, the product cap
    among them, passes through by position."""
    krylov = rankers._krylov_start

    def start(g, k, tol, rng, s=1, *rest):
        return krylov(g, k, tol, rng, s, *rest) if s > 1 else None

    monkeypatch.setattr(rankers, "_krylov_start", start)
