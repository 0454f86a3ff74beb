"""What each summary's declared state roles promise.

Every summary declares its state once, as ``_FIELDS``; a field's role
says what a landmark shift does to it (Section VI-A): a ``weight`` is
multiplied by the shift's factor, a ``log_weight`` shifted by its log and
an ``exact`` value left alone.  These tests hold the declarations to it:

* every registered summary that owns a ``ForwardWeightEngine`` is one of
  the engine owners ``tests/core/test_weights.py`` shifts and merges;
* a summary fed weights ``2**20`` times too heavy and then scaled by
  ``2**-20`` is the one fed plain weights — every weight was scaled, and
  nothing else; ``DecayedKMeans.sums``, a list of lists of weights,
  holds the nested shape to the same rule;
* a restored buffer whose non-negative weights are negative or NaN is a
  :class:`ParameterError` naming the type, wherever ``update`` refuses
  negative weights;
* a summary with nothing to scale says so.
"""

from __future__ import annotations

import copy
import math

import pytest

from repro.core import registry
from repro.core.clustering import DecayedKMeans
from repro.core.decay import ForwardDecay
from repro.core.errors import ParameterError
from repro.core.functions import ExponentialG
from repro.core.heavy_hitters import DecayedHeavyHitters
from repro.core.protocol import WEIGHT, StreamSummary
from repro.core.quantiles import DecayedQuantiles
from repro.core.weights import ForwardWeightEngine
from tests.core import test_weights
from tests.core.test_protocol_conformance import approx_equal, records_for
from tests.sampling.test_sampler_buffers import fed, refused

registry.load_all()
ALL = registry.iter_summaries()
#: Summaries fed raw weights that they store linearly: ``scale`` inverts
#: a uniformly heavier stream.
WEIGHTED = [
    info.name for info in ALL
    if info.input_kind in ("item_weight", "value_weight")
    and any(WEIGHT in field.shape.roles for field in info.cls._FIELDS)
]
#: GK inserts a tuple with ``delta = g + delta - 1e-12`` of its successor:
#: the slack is absolute, so at 2**20 times the weight it is relatively
#: smaller and the heavier summary's deltas differ in their last bits.
#: Its answers — quantiles, and the rank bounds its deltas set — still
#: agree.
BY_ANSWER = {"gk_summary"}


def _heavier(name: str, times: float) -> StreamSummary:
    """The factory summary fed ``records_for`` with weights ``times`` as
    heavy.  Items are spread over more keys than a SpaceSaving holds, so
    its errors are not all zero."""
    info = registry.get_summary(name)
    summary = info.factory()
    for index, (item, weight) in enumerate(records_for(info.input_kind, n=400)):
        if isinstance(item, str):
            item = f"{item}/{index % 29}"
        summary.update(item, weight * times)
    return summary


def _kmeans() -> DecayedKMeans:
    """A fed two-cluster k-means: its ``sums`` is a list of lists of
    weights, the nested weight shape."""
    model = DecayedKMeans(ForwardDecay(ExponentialG(0.1)), k=2, dimensions=2)
    for index in range(40):
        model.update((index % 7 - 3.0, index % 5 * 1.5), float(index + 1))
    return model


class TestOwners:
    def test_every_registered_engine_owner_is_shifted_by_test_weights(self):
        owned = {
            type(make(ForwardDecay(ExponentialG(1.0))))
            for make, _update, _answer in test_weights.OWNERS.values()
        }
        owners = [
            info.name for info in ALL
            if isinstance(getattr(info.factory(), "_engine", None),
                          ForwardWeightEngine)
        ]
        assert len(owners) >= 10
        for name in owners:
            assert registry.get_summary(name).cls in owned, name


class TestScale:
    def test_the_weighted_sketches_are_the_three_that_store_raw_weights(self):
        assert sorted(WEIGHTED) == [
            "gk_summary", "qdigest", "weighted_spacesaving"
        ]

    @pytest.mark.parametrize("name", WEIGHTED)
    def test_scaling_back_a_heavier_stream_gives_the_plain_summary(self, name):
        plain = _heavier(name, 1.0)
        heavy = _heavier(name, 2.0 ** 20)
        heavy.scale(2.0 ** -20)
        if name in BY_ANSWER:
            for phi in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
                assert approx_equal(heavy.query(phi), plain.query(phi)), phi
            for value in range(0, 1024, 37):
                assert approx_equal(heavy.rank_bounds(value),
                                    plain.rank_bounds(value)), value
            assert math.isclose(heavy.total_weight, plain.total_weight,
                                rel_tol=1e-9)
        else:
            assert heavy.to_bytes() == plain.to_bytes()

    def test_scaling_back_a_heavier_nested_weight_list_gives_the_plain_one(self):
        plain = _kmeans()
        payload = plain._state_payload()
        payload["sums"] = [[value * 2.0 ** 20 for value in row]
                           for row in payload["sums"]]
        payload["weights"] = [weight * 2.0 ** 20 for weight in payload["weights"]]
        heavy = DecayedKMeans._from_payload(payload)
        heavy.scale(2.0 ** -20)
        assert heavy._state_payload() == plain._state_payload()

    @pytest.mark.parametrize("name", ["weighted_reservoir", "priority_sampler"])
    def test_a_log_weight_shifts_by_the_log_of_the_factor(self, name):
        # The sample is ranked by log-weights less a draw: a common shift
        # keeps the ranking, so the same items stay, in the same order.
        summary = fed(name)
        before = summary.query()
        summary.scale(2.0 ** -20)
        after = summary.query()
        if name == "priority_sampler":
            assert [item for item, _lw in after.entries] == [
                item for item, _lw in before.entries]
            for (_i, shifted), (_j, plain) in zip(after.entries, before.entries):
                assert math.isclose(shifted, plain - 20 * math.log(2),
                                    abs_tol=1e-9)
        else:
            assert after == before

    @pytest.mark.parametrize("name", sorted(
        info.name for info in ALL
        if not any(field.shape.scales for field in info.cls._FIELDS)
    ))
    def test_a_summary_without_weights_refuses_to_scale(self, name):
        summary = registry.get_summary(name).factory()
        with pytest.raises(ParameterError, match="stores no weights to scale"):
            summary.scale(0.5)

    @pytest.mark.parametrize("factor", [0.0, -1.0, math.nan])
    def test_a_factor_that_is_not_positive_is_refused(self, factor):
        with pytest.raises(ParameterError, match="scale factor must be > 0"):
            _kmeans().scale(factor)

    @pytest.mark.parametrize("cls", [DecayedHeavyHitters, DecayedQuantiles])
    def test_a_deep_copy_shifts_its_own_state(self, cls):
        # The engine's callback is the summary's own bound ``scale``, so a
        # copy's landmark shift rescales the copy, not the original.
        original = cls(ForwardDecay(ExponentialG(1.0)), 0.1)
        original.update(3, 1.0)
        before = original.to_bytes()
        clone = copy.deepcopy(original)
        clone.update(5, 400.0)
        assert clone._engine.shifts == 1
        assert original.to_bytes() == before


class TestImpossibleWeights:
    """Restore refuses a negative or NaN value in a weight ``update``
    would never have stored."""

    def test_a_gk_tuple_of_negative_weight_is_refused(self):
        payload = fed("gk_summary")._state_payload()
        payload["tuples"][2][1] = -5.0
        refused("gk_summary", payload)

    def test_a_gk_total_of_nan_is_refused(self):
        payload = fed("gk_summary")._state_payload()
        payload["total"] = math.nan
        refused("gk_summary", payload)

    def test_a_nested_weight_row_that_is_not_a_list_is_refused(self):
        payload = _kmeans()._state_payload()
        payload["sums"][1] = -1e9
        with pytest.raises(ParameterError, match="sums is a float, not a list"):
            DecayedKMeans._from_payload(payload)

    def test_a_negative_with_replacement_weight_total_is_refused(self):
        payload = fed("decayed_with_replacement")._state_payload()
        payload["weight_total"] = -3.0
        refused("decayed_with_replacement", payload)


def test_every_registered_summary_writes_its_declared_fields_in_order():
    for info in ALL:
        keys = [field.key for field in info.cls._FIELDS]
        assert len(set(keys)) == len(keys), info.name
        outer = list(dict.fromkeys(key.split(".")[0] for key in keys))
        assert list(info.factory()._state_payload()) == outer, info.name
