"""Unit tests for the shared forward-weight engine."""

from __future__ import annotations

import math
import random

import pytest

from repro.core.aggregates import (
    DecayedAlgebraic,
    DecayedAverage,
    DecayedCount,
    DecayedMax,
    DecayedMin,
    DecayedSum,
    DecayedVariance,
)
from repro.core.clustering import DecayedKMeans
from repro.core.decay import ForwardDecay
from repro.core.errors import MergeError
from repro.core.functions import ExponentialG, PolynomialG
from repro.core.heavy_hitters import DecayedHeavyHitters
from repro.core.quantiles import DecayedQuantiles
from repro.core.weights import ForwardWeightEngine
from repro.sampling.with_replacement import DecayedSamplerWithReplacement


class _Recorder:
    def __init__(self):
        self.factors: list[float] = []

    def __call__(self, factor: float) -> None:
        self.factors.append(factor)


def test_polynomial_engine_is_passthrough():
    decay = ForwardDecay(PolynomialG(2.0), landmark=10.0)
    recorder = _Recorder()
    engine = ForwardWeightEngine(decay, recorder)
    assert engine.arrival_weight(13.0) == pytest.approx(9.0)
    assert engine.normalizer(20.0) == pytest.approx(100.0)
    assert recorder.factors == []
    assert engine.internal_landmark == 10.0


def test_normalizer_zero_becomes_one():
    decay = ForwardDecay(PolynomialG(2.0), landmark=10.0)
    engine = ForwardWeightEngine(decay, _Recorder())
    assert engine.normalizer(10.0) == 1.0


def test_exponential_engine_shifts_on_overflow():
    decay = ForwardDecay(ExponentialG(alpha=1.0), landmark=0.0)
    recorder = _Recorder()
    engine = ForwardWeightEngine(decay, recorder)
    assert engine.arrival_weight(354.0) == math.exp(354.0)
    assert engine.shifts == 0
    # Exponent 400 > SHIFT_EXPONENT (~354.9): the engine shifts to t=400 first.
    weight = engine.arrival_weight(400.0)
    assert weight == 1.0
    assert engine.internal_landmark == 400.0
    assert recorder.factors == [math.exp(-400.0)]
    assert engine.shifts == 1


def test_exponential_engine_accepts_old_items_after_shift():
    decay = ForwardDecay(ExponentialG(alpha=1.0), landmark=0.0)
    engine = ForwardWeightEngine(decay, _Recorder())
    engine.arrival_weight(400.0)  # forces shift
    assert engine.shifts == 1
    late = engine.arrival_weight(3.0)  # out-of-order item before landmark
    assert late == math.exp(3.0 - 400.0)


def test_shift_preserves_decayed_weight():
    """Section VI-A: state rescaled to L' answers as the closed form does."""
    alpha = 1.0
    times = [float(t) for t in range(1, 2_001)]
    state = [0.0]

    def scale(factor):
        state[0] *= factor

    engine = ForwardWeightEngine(
        ForwardDecay(ExponentialG(alpha), landmark=0.0), scale
    )
    for t in times:
        weight = engine.arrival_weight(t)
        state[0] += weight
    assert engine.shifts > 0
    query_time = 2_000.0
    exact = math.fsum(math.exp(alpha * (t - query_time)) for t in times)
    assert state[0] / engine.normalizer(query_time) == pytest.approx(
        exact, rel=1e-12
    )


def test_a_shift_whose_factor_underflows_scales_by_the_least_float():
    """exp(-1000) is 0.0; the sketches' scale refuses 0, so the engine
    passes the least positive float instead."""
    decay = ForwardDecay(ExponentialG(alpha=1.0), landmark=0.0)
    recorder = _Recorder()
    engine = ForwardWeightEngine(decay, recorder)
    assert engine.arrival_weight(1_000.0) == 1.0
    assert recorder.factors == [math.ulp(0.0)]
    assert engine.internal_landmark == 1_000.0
    assert engine.arrival_weight(1_300.0) == math.exp(300.0)
    assert recorder.factors == [math.ulp(0.0)]


def test_align_for_merge_scales_peer_state():
    decay = ForwardDecay(ExponentialG(alpha=1.0), landmark=0.0)
    ahead = ForwardWeightEngine(decay, _Recorder())
    behind = ForwardWeightEngine(decay, _Recorder())
    ahead.arrival_weight(500.0)  # internal landmark -> 500
    assert ahead.shifts == 1
    factor = ahead.align_for_merge(behind)
    assert factor == math.exp(-500.0)


def test_align_advances_self_when_peer_is_ahead():
    decay = ForwardDecay(ExponentialG(alpha=1.0), landmark=0.0)
    behind_recorder = _Recorder()
    behind = ForwardWeightEngine(decay, behind_recorder)
    ahead = ForwardWeightEngine(decay, _Recorder())
    ahead.arrival_weight(400.0)
    assert ahead.shifts == 1
    factor = behind.align_for_merge(ahead)
    assert factor == 1.0
    assert behind.internal_landmark == 400.0
    assert behind_recorder.factors == [math.exp(-400.0)]
    assert behind.shifts == 1


def test_a_normalizer_past_the_float_range_is_infinite():
    decay = ForwardDecay(ExponentialG(alpha=0.01), landmark=0.0)
    engine = ForwardWeightEngine(decay, _Recorder())
    assert engine.normalizer(70_000.0) == math.exp(700.0)
    assert engine.normalizer(80_000.0) == math.inf


def test_incompatible_engines_rejected():
    left = ForwardWeightEngine(ForwardDecay(PolynomialG(2.0)), _Recorder())
    right = ForwardWeightEngine(ForwardDecay(PolynomialG(3.0)), _Recorder())
    with pytest.raises(MergeError):
        left.align_for_merge(right)


# -- every engine owner shifts transparently ------------------------------
#
# Exponential forward decay answers alike whatever its landmark: each item's
# weight is exp(alpha * (t_i - t)).  Under alpha = 1 the stream below, at
# t in [1, 686], never passes SHIFT_EXPONENT from the landmark 350.  From the
# landmark -1,000 its first arrival passes it by so much that the shift
# factor underflows, and a later one passes it again with state held.  Each
# summary that owns a ForwardWeightEngine must answer alike from both.

ALPHA = 1.0
PLAIN_LANDMARK = 350.0
SHIFTING_LANDMARK = -1_000.0
QUERY_TIME = 700.0


def _stream() -> list[tuple[float, float, str, int]]:
    """``(time, value, key, level)`` rows at t = 1, 5.6, ..., 686.4, in
    time order but for every fifth row, which arrives last, after the
    shift has moved the landmark past it."""
    rng = random.Random(7)
    rows = [
        (1.0 + 4.6 * i, rng.uniform(0.5, 10.0), f"k{rng.randrange(8)}",
         rng.randrange(1024))
        for i in range(150)
    ]
    return ([row for i, row in enumerate(rows) if i % 5]
            + [row for i, row in enumerate(rows) if not i % 5][::-1])


def _aggregate(cls, *args):
    return (lambda decay: cls(decay, *args),
            lambda s, t, v, key, level: s.update(t, v),
            lambda s, now: s.query(now))


OWNERS = {
    "count": _aggregate(DecayedCount),
    "sum": _aggregate(DecayedSum),
    "average": _aggregate(DecayedAverage),
    "variance": _aggregate(DecayedVariance),
    "min": _aggregate(DecayedMin),
    "max": _aggregate(DecayedMax),
    "algebraic": _aggregate(DecayedAlgebraic, "square"),
    "heavy_hitters": (
        lambda decay: DecayedHeavyHitters(decay, epsilon=0.05),
        lambda s, t, v, key, level: s.update(key, t, v),
        lambda s, now: [tuple(h) for h in s.query(0.05, now)],
    ),
    "quantiles": (
        lambda decay: DecayedQuantiles(decay, epsilon=0.05, universe_bits=10),
        lambda s, t, v, key, level: s.update(level, t, v),
        lambda s, now: [s.query(phi) for phi in (0.1, 0.25, 0.5, 0.75, 0.9)],
    ),
    "quantiles_gk": (
        lambda decay: DecayedQuantiles(decay, epsilon=0.05, backend="gk"),
        lambda s, t, v, key, level: s.update(level, t, v),
        lambda s, now: [s.query(phi) for phi in (0.1, 0.25, 0.5, 0.75, 0.9)],
    ),
    "kmeans": (
        lambda decay: DecayedKMeans(decay, k=3, dimensions=2),
        lambda s, t, v, key, level: s.update((v, level / 100.0), t),
        lambda s, now: [(c.centroid, c.decayed_weight)
                        for c in s.clusters(now)],
    ),
    "with_replacement": (
        lambda decay: DecayedSamplerWithReplacement(
            decay, 8, rng=random.Random(3)),
        lambda s, t, v, key, level: s.update(key, t),
        lambda s, now: s.sample(),
    ),
}
MERGEABLE_OWNERS = [name for name in OWNERS
                    if name not in ("kmeans", "with_replacement")]


def _fed(name: str, rows, landmark: float):
    make, update, _ = OWNERS[name]
    summary = make(ForwardDecay(ExponentialG(ALPHA), landmark=landmark))
    for t, value, key, level in rows:
        update(summary, t, value, key, level)
    return summary


def _answer(name: str, summary):
    return OWNERS[name][2](summary, QUERY_TIME)


def _close(a, b, rel: float = 1e-9) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=rel)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_close(x, y, rel) for x, y in zip(a, b))
    return a == b


@pytest.mark.parametrize("name", list(OWNERS))
def test_a_shifted_summary_answers_like_an_unshifted_one(name):
    rows = _stream()
    plain = _fed(name, rows, PLAIN_LANDMARK)
    shifted = _fed(name, rows, SHIFTING_LANDMARK)
    assert plain._engine.shifts == 0
    assert shifted._engine.shifts == 2
    assert _close(_answer(name, shifted), _answer(name, plain)), name


@pytest.mark.parametrize("name", MERGEABLE_OWNERS)
def test_parts_shifted_to_different_landmarks_merge_alike(name):
    """Section VI-B: a merge aligns the part whose landmark is behind,
    whichever side that is, and answers like the unshifted merge."""
    rows = sorted(_stream())
    early, late = rows[:75], rows[75:]
    expected = _answer(name, _merged(name, early, late, PLAIN_LANDMARK))
    for first, second in ((early, late), (late, early)):
        merged = _merged(name, first, second, SHIFTING_LANDMARK)
        assert merged._engine.internal_landmark == late[0][0]
        assert _close(_answer(name, merged), expected), name


def _merged(name: str, first, second, landmark: float):
    into = _fed(name, first, landmark)
    into.merge(_fed(name, second, landmark))
    return into
