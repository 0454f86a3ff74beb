"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.core.decay import ForwardDecay
from repro.core.functions import ExponentialG, LandmarkWindowG, NoDecayG, PolynomialG

#: The example stream of the paper (Examples 1-3): (t_i, v_i) pairs with
#: landmark L = 100, evaluated at t = 110.
PAPER_STREAM = [(105, 4), (107, 8), (103, 3), (108, 6), (104, 4)]
PAPER_LANDMARK = 100.0
PAPER_QUERY_TIME = 110.0


@pytest.fixture
def paper_decay() -> ForwardDecay:
    """The paper's example decay: g(n) = n^2, L = 100."""
    return ForwardDecay(PolynomialG(beta=2.0), landmark=PAPER_LANDMARK)


@pytest.fixture
def low_table(monkeypatch):
    """``low_table(n)`` shrinks every engine's low-level table to ``n``
    groups for the rest of the test: ``LOW_TABLE_SIZE`` is a module
    constant the engine reads on every insert (a forked shard worker
    inherits the patched value)."""
    return lambda size: monkeypatch.setattr(
        "repro.dsms.engine.LOW_TABLE_SIZE", size
    )


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xDECAF)


@pytest.fixture(
    params=[
        NoDecayG(),
        PolynomialG(beta=1.0),
        PolynomialG(beta=2.0),
        PolynomialG(beta=0.5),
        ExponentialG(alpha=0.1),
        LandmarkWindowG(),
    ],
    ids=["none", "linear", "quadratic", "sqrt", "exp", "landmark-window"],
)
def any_g(request):
    """Every forward-decay function class the library ships."""
    return request.param
