"""The names the benchmark tracer wraps must exist in the package.

perfbench/tracing.py replaces each (path, attribute) in BOUNDARIES at run
time and reads counters off some results; a refactor that drops or renames
one of them would otherwise surface only in the benchmark's own smoke test.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import softdeepc
from softdeepc import (
    DeePCConfig,
    DeePCController,
    assemble,
    build_hankel,
    factorize_and_condense,
    partition_past_future,
)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("path, attribute, span", tracing.BOUNDARIES,
                         ids=[f"{p}.{a}" for p, a, _ in tracing.BOUNDARIES])
def test_boundary_resolves_to_callable(path, attribute, span):
    owner = softdeepc
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(getattr(owner, attribute))


def test_counters_read_from_real_results():
    rng = np.random.default_rng(0)
    t_ini, horizon = 2, 3
    part = partition_past_future(build_hankel(rng.standard_normal((60, 1)), 5),
                                 build_hankel(rng.standard_normal((60, 1)), 5),
                                 t_ini, horizon)
    condensed = factorize_and_condense(part, r=8)
    assert tracing._counters("reduction.factorize", condensed) == {"rank_used": 8}

    cfg = DeePCConfig(t_ini=t_ini, horizon=horizon, lambda_g=1.0)
    for data, rank in ((condensed, 8), (part, 0)):
        ctrl = DeePCController(assemble(cfg, data))
        assert tracing._counters("experiments.build", ctrl) == {"rank_used": rank}
