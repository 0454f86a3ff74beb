"""User-defined aggregate functions (UDAFs) and the builtin aggregates.

GS exposes a UDAF hook — arbitrary code run per selected tuple, with a
final pass at output time — and the paper implements all its decayed
holistic aggregates and samplers that way ("we also implemented weighted
heavy hitters through the UDAF mechanism...").  This module reproduces the
mechanism:

* :class:`Udaf` — the interface: ``create`` / ``update`` / ``merge`` /
  ``finalize`` plus space accounting, and ``update_cols``, the one batch
  hook the engine calls with a group's slice of each argument column;
* builtin aggregates (``count``, ``sum``, ``min``, ``max``, ``avg``) which
  are *mergeable* and therefore eligible for the engine's two-level split
  (partial aggregation in the low level, super-aggregation above);
* adapters wrapping the library's summaries and samplers as UDAFs
  (weighted/unary SpaceSaving, sliding-window HH, exponential histograms,
  priority/reservoir/weighted-reservoir/Aggarwal samplers).  Like the
  paper's C UDAFs, these run at the high level only (``mergeable =
  False``), which is exactly the configuration Figure 2(b) measures.
  Each names its summary by registry name and imports that summary's
  module when it is constructed — which :func:`default_registry` puts
  off until a query names the aggregate, so a process loads the
  summaries its query runs and ``create`` / ``update_cols`` never import.

A :class:`UdafRegistry` maps query-text names to UDAFs; the parser
treats any registered name used as a function call in the SELECT list as an
aggregate.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import partial
from itertools import repeat
from typing import TYPE_CHECKING, Callable

from repro.core.errors import EmptySummaryError, MergeError, QueryError
from repro.core.registry import get_summary

if TYPE_CHECKING:
    from repro.core.decay import ForwardDecay
    from repro.core.functions import FFunction
    from repro.sampling.priority import PrioritySampler
    from repro.sketches.exponential_histogram import (
        ExponentialHistogramCount,
        ExponentialHistogramSum,
    )
    from repro.sketches.qdigest import QDigest
    from repro.sketches.spacesaving import SpaceSavingBase
    from repro.sketches.swhh import SlidingWindowHeavyHitters

__all__ = [
    "Udaf",
    "UdafRegistry",
    "default_registry",
    "CountUdaf",
    "SumUdaf",
    "MinUdaf",
    "MaxUdaf",
    "AvgUdaf",
    "WeightedHHUdaf",
    "UnaryHHUdaf",
    "SlidingWindowHHUdaf",
    "EHCountUdaf",
    "EHSumUdaf",
    "EHDecayedUdaf",
    "WeightedQuantilesUdaf",
    "DecayedDistinctUdaf",
    "PrioritySampleUdaf",
    "WeightedReservoirUdaf",
    "ReservoirUdaf",
    "AggarwalUdaf",
]


class Udaf(ABC):
    """One aggregate function usable in the GSQL-like dialect.

    ``mergeable`` declares whether partial states combine losslessly; only
    mergeable aggregates participate in the engine's low-level partial
    aggregation (the paper's two-level architecture).
    """

    #: Name used in query text (case-insensitive).
    name: str = ""
    #: Number of arguments expected (``-1`` = count(*) style, no args).
    arity: int = 1
    #: Whether partial states can be merged (two-level eligibility).
    mergeable: bool = False

    @abstractmethod
    def create(self) -> object:
        """Return a fresh per-group state."""

    @abstractmethod
    def update(self, state: object, args: tuple) -> None:
        """Fold one tuple's evaluated arguments into ``state``."""

    def update_cols(self, state: object, arg_cols: tuple, count: int) -> None:
        """Fold ``count`` rows into ``state``, given as one equal-length
        sequence per argument (none for a ``count(*)``-style aggregate).

        The one batch hook the engine calls, and the one a UDAF author
        overrides to amortize per-tuple dispatch; it must leave ``state``
        exactly as :meth:`update` per row, in order, would — which is
        what this default does.
        """
        update = self.update
        for args in zip(*arg_cols) if arg_cols else repeat((), count):
            update(state, args)

    def update_many(self, state: object, args_batch: list[tuple]) -> None:
        """Fold a batch of evaluated argument tuples into ``state``:
        :meth:`update_cols` on the batch's transpose."""
        if args_batch:
            arity = len(args_batch[0])
            cols = tuple([args[i] for args in args_batch] for i in range(arity))
            self.update_cols(state, cols, len(args_batch))

    def merge(self, state: object, other: object) -> None:
        """Fold partial state ``other`` into ``state`` (mergeable only)."""
        raise MergeError(f"UDAF {self.name!r} does not support merging")

    @abstractmethod
    def finalize(self, state: object) -> object:
        """Produce the output value from a final state."""

    def state_size_bytes(self, state: object) -> int:
        """Approximate per-group state footprint (Fig. 2(d)/4(c) accounting)."""
        return 8


# ---------------------------------------------------------------------------
# Builtin (mergeable) aggregates — the two-level fast path
# ---------------------------------------------------------------------------


class CountUdaf(Udaf):
    """``count(*)`` — undecayed tuple count (4-byte integer in the paper)."""

    name = "count"
    arity = -1
    mergeable = True

    def create(self) -> list:
        return [0]

    def update(self, state: list, args: tuple) -> None:
        state[0] += 1

    def update_cols(self, state: list, arg_cols: tuple, count: int) -> None:
        state[0] += count

    def merge(self, state: list, other: list) -> None:
        state[0] += other[0]

    def finalize(self, state: list) -> int:
        return state[0]

    def state_size_bytes(self, state: object) -> int:
        return 4


class SumUdaf(Udaf):
    """``sum(expr)`` — covers undecayed *and* forward-decayed sums.

    The paper's point: a polynomially decayed sum is just
    ``sum(len * (time % 60) * (time % 60)) / 3600`` — plain arithmetic fed
    to the ordinary sum aggregate, no engine changes required.
    """

    name = "sum"
    arity = 1
    mergeable = True

    def create(self) -> list:
        return [0.0]

    def update(self, state: list, args: tuple) -> None:
        state[0] += args[0]

    def update_cols(self, state: list, arg_cols: tuple, count: int) -> None:
        # A plain left-to-right loop, not sum(): the per-tuple order (and
        # no compensated summation) keeps the float result bit-identical.
        total = state[0]
        for value in arg_cols[0]:
            total += value
        state[0] = total

    def merge(self, state: list, other: list) -> None:
        state[0] += other[0]

    def finalize(self, state: list) -> float:
        return state[0]


class MinUdaf(Udaf):
    """``min(expr)``."""

    name = "min"
    arity = 1
    mergeable = True

    def create(self) -> list:
        return [None]

    def update(self, state: list, args: tuple) -> None:
        value = args[0]
        if state[0] is None or value < state[0]:
            state[0] = value

    def update_cols(self, state: list, arg_cols: tuple, count: int) -> None:
        self.update(state, (min(arg_cols[0]),))

    def merge(self, state: list, other: list) -> None:
        if other[0] is not None and (state[0] is None or other[0] < state[0]):
            state[0] = other[0]

    def finalize(self, state: list) -> object:
        return state[0]


class MaxUdaf(Udaf):
    """``max(expr)``."""

    name = "max"
    arity = 1
    mergeable = True

    def create(self) -> list:
        return [None]

    def update(self, state: list, args: tuple) -> None:
        value = args[0]
        if state[0] is None or value > state[0]:
            state[0] = value

    def update_cols(self, state: list, arg_cols: tuple, count: int) -> None:
        self.update(state, (max(arg_cols[0]),))

    def merge(self, state: list, other: list) -> None:
        if other[0] is not None and (state[0] is None or other[0] > state[0]):
            state[0] = other[0]

    def finalize(self, state: list) -> object:
        return state[0]


class AvgUdaf(Udaf):
    """``avg(expr)`` — sum/count pair, mergeable."""

    name = "avg"
    arity = 1
    mergeable = True

    def create(self) -> list:
        return [0.0, 0]

    def update(self, state: list, args: tuple) -> None:
        state[0] += args[0]
        state[1] += 1

    def update_cols(self, state: list, arg_cols: tuple, count: int) -> None:
        total = state[0]
        for value in arg_cols[0]:
            total += value
        state[0] = total
        state[1] += count

    def merge(self, state: list, other: list) -> None:
        state[0] += other[0]
        state[1] += other[1]

    def finalize(self, state: list) -> float | None:
        return state[0] / state[1] if state[1] else None

    def state_size_bytes(self, state: object) -> int:
        return 16


# ---------------------------------------------------------------------------
# Library adapters (high-level-only UDAFs, like the paper's C UDAFs)
# ---------------------------------------------------------------------------


class _SummaryUdaf(Udaf):
    """A UDAF whose state is one of the library's summaries: a tuple's
    arguments are the summary's ``update`` arguments, and a group's column
    slices go straight to the summary's own ``update_many``.

    ``summary`` is the state class's registry name; constructing the UDAF
    imports the one module that defines it."""

    summary: str

    def __init__(self) -> None:
        self._summary_cls = get_summary(self.summary).cls

    def update(self, state, args: tuple) -> None:
        state.update(*args)

    def update_cols(self, state, arg_cols: tuple, count: int) -> None:
        state.update_many(*arg_cols)

    def state_size_bytes(self, state) -> int:
        return state.state_size_bytes()


class WeightedHHUdaf(_SummaryUdaf):
    """``fwd_hh(item, weight)`` — forward-decayed heavy hitters.

    The query supplies the static weight ``g(t_i - L)`` as an ordinary
    expression (e.g. ``(time % 60) * (time % 60)`` for quadratic decay, or
    ``exp(...)``), mirroring how the paper feeds weights to its UDAFs.
    ``finalize`` returns the summary's ``(item, weight, error)`` counters.
    """

    name = "fwd_hh"
    arity = 2
    summary = "weighted_spacesaving"

    def __init__(self, epsilon: float = 0.01, phi: float = 0.05):
        super().__init__()
        self.epsilon = epsilon
        self.phi = phi

    def create(self) -> SpaceSavingBase:
        return self._summary_cls.from_epsilon(self.epsilon)

    def finalize(self, state: SpaceSavingBase) -> list[tuple]:
        return [
            (c.item, c.count, c.error) for c in state.heavy_hitters(self.phi)
        ]


class UnaryHHUdaf(WeightedHHUdaf):
    """``unary_hh(item)`` — the undecayed heavy-hitter baseline."""

    name = "unary_hh"
    arity = 1
    summary = "unary_spacesaving"


class SlidingWindowHHUdaf(_SummaryUdaf):
    """``sw_hh(item, time)`` — the backward-decay heavy-hitter baseline."""

    name = "sw_hh"
    arity = 2
    summary = "sliding_window_heavy_hitters"

    def __init__(
        self,
        window: float = 60.0,
        pane: float | None = None,
        epsilon: float = 0.01,
        phi: float = 0.05,
    ):
        super().__init__()
        self.window = window
        self.pane = pane
        self.epsilon = epsilon
        self.phi = phi

    def create(self) -> SlidingWindowHeavyHitters:
        return self._summary_cls(self.window, self.pane, self.epsilon)

    def finalize(self, state: SlidingWindowHeavyHitters) -> list[tuple]:
        if state.items_processed == 0:
            return []
        now = state.last_time
        return state.heavy_hitters(self.phi, self.window, now)


class EHCountUdaf(_SummaryUdaf):
    """``eh_count(time)`` — backward-decay count baseline (Fig. 2).

    Maintains one Exponential Histogram per group; ``finalize`` reports the
    window count (the Cohen-Strauss combination for arbitrary decay is
    exposed via :class:`DecayedEHCombiner` in the benchmarks).
    """

    name = "eh_count"
    arity = 1
    summary = "eh_count"

    def __init__(self, epsilon: float = 0.1, window: float = 60.0):
        super().__init__()
        self.epsilon = epsilon
        self.window = window

    def create(self) -> ExponentialHistogramCount:
        return self._summary_cls(self.epsilon, self.window)

    def finalize(self, state: ExponentialHistogramCount) -> float:
        return state.count(state.last_time)


class EHSumUdaf(_SummaryUdaf):
    """``eh_sum(time, value)`` — backward-decay sum baseline (Fig. 2)."""

    name = "eh_sum"
    arity = 2
    summary = "eh_sum"

    def __init__(self, epsilon: float = 0.1, window: float = 60.0):
        super().__init__()
        self.epsilon = epsilon
        self.window = window

    def create(self) -> ExponentialHistogramSum:
        return self._summary_cls(self.epsilon, self.window)

    def update(self, state: ExponentialHistogramSum, args: tuple) -> None:
        state.update(args[0], int(args[1]))

    def update_cols(
        self, state: ExponentialHistogramSum, arg_cols: tuple, count: int
    ) -> None:
        state.update_many(arg_cols[0], list(map(int, arg_cols[1])))

    def finalize(self, state: ExponentialHistogramSum) -> float:
        return state.sum(state.last_time)


class EHDecayedUdaf(_SummaryUdaf):
    """``eh_decayed(time)`` — arbitrary backward decay at *query* time.

    The selling point of the Exponential-Histogram baseline (and the reason
    the paper benchmarks against it): one EH per group can answer the
    decayed count for **any** backward decay function ``f`` chosen when the
    result is read, via the Cohen-Strauss scaled-window combination.
    ``finalize`` evaluates the configured ``f`` over the bucket staircase.
    """

    name = "eh_decayed"
    arity = 1
    summary = "eh_count"

    def __init__(
        self,
        f: "FFunction | None" = None,
        epsilon: float = 0.1,
        window: float = 60.0,
    ):
        from repro.core.functions import PolynomialF
        from repro.sketches.exponential_histogram import DecayedEHCombiner

        super().__init__()
        self._combiner = DecayedEHCombiner
        self.f = f if f is not None else PolynomialF(alpha=1.0)
        self.epsilon = epsilon
        self.window = window

    def create(self) -> ExponentialHistogramCount:
        return self._summary_cls(self.epsilon, self.window)

    def finalize(self, state: ExponentialHistogramCount) -> float:
        if len(state) == 0:
            return 0.0
        return self._combiner(state).decayed_value(self.f, state.last_time)


class WeightedQuantilesUdaf(_SummaryUdaf):
    """``fwd_quantiles(value, weight)`` — forward-decayed quantiles.

    The query supplies the static weight ``g(t_i - L)`` like the other
    forward UDAFs; ``finalize`` reports the configured ``phis`` over the
    weighted q-digest (Theorem 3).  Values must be non-negative integers
    below ``2**universe_bits``.
    """

    name = "fwd_quantiles"
    arity = 2
    summary = "qdigest"

    def __init__(
        self,
        epsilon: float = 0.05,
        universe_bits: int = 16,
        phis: tuple[float, ...] = (0.25, 0.5, 0.75),
    ):
        super().__init__()
        self.epsilon = epsilon
        self.universe_bits = universe_bits
        self.phis = phis

    def create(self) -> QDigest:
        return self._summary_cls.from_epsilon(self.epsilon, self.universe_bits)

    def update(self, state: QDigest, args: tuple) -> None:
        state.update(int(args[0]), args[1])

    def update_cols(self, state: QDigest, arg_cols: tuple, count: int) -> None:
        state.update_many(list(map(int, arg_cols[0])), arg_cols[1])

    def finalize(self, state: QDigest) -> list[int]:
        if state.total_weight == 0.0:
            return []
        return state.quantiles(self.phis)


class DecayedDistinctUdaf(_SummaryUdaf):
    """``fwd_distinct(item, time)`` — decayed count-distinct (Theorem 4).

    Unlike the weight-expression UDAFs, count-distinct needs the *decay
    model itself* (weights combine by max, in log space), so the UDAF is
    configured with a :class:`~repro.core.decay.ForwardDecay` at
    registration time and receives raw timestamps from the query.
    """

    name = "fwd_distinct"
    arity = 2

    def __init__(
        self,
        decay: "ForwardDecay | None" = None,
        epsilon: float = 0.1,
        exact: bool = False,
        seed: int = 0,
    ):
        from repro.core.decay import ForwardDecay
        from repro.core.functions import PolynomialG

        self.summary = "exact_decayed_distinct" if exact else "decayed_distinct_count"
        super().__init__()
        # Default landmark -1: strictly below non-negative trace timestamps
        # ("a lower bound on the smallest timestamp", Section III-B), so
        # g(t_i - L) is always positive as the max-combine needs.
        self.decay = decay if decay is not None else ForwardDecay(
            PolynomialG(beta=2.0), landmark=-1.0
        )
        self.epsilon = epsilon
        self.exact = exact
        self.seed = seed

    def create(self):
        if self.exact:
            return self._summary_cls(self.decay)
        return self._summary_cls(self.decay, epsilon=self.epsilon, seed=self.seed)

    def finalize(self, state) -> float:
        try:
            return state.query()
        except EmptySummaryError:
            return 0.0


class _SeededSamplerUdaf(_SummaryUdaf):
    """Shared plumbing for sampler UDAFs: a group's state is a size-``k``
    sampler on its own seeded RNG stream, reported as its sample."""

    def __init__(self, k: int = 100, seed: int = 0):
        super().__init__()
        self.k = k
        self.seed = seed
        self._counter = 0

    def create(self):
        # Imported here: only a sampler query runs the keyed generator.
        from repro.core.keyed_random import KEY_BITS, KeyedRandom

        self._counter += 1
        key = (self.seed * 1_000_003 + self._counter) % (1 << KEY_BITS)
        return self._summary_cls(self.k, rng=KeyedRandom(key))

    def finalize(self, state) -> list:
        return state.sample() if len(state) else []


class PrioritySampleUdaf(_SeededSamplerUdaf):
    """``prisamp(item, weight)`` — the paper's PRISAMP UDAF (Section VIII).

    Standard priority sampling; the query generates the (forward-decay)
    weights from timestamps and feeds them in, exactly as in::

        select tb, PRISAMP(srcIP, exp(time % 60)) from TCP group by time/60 as tb
    """

    name = "prisamp"
    arity = 2
    summary = "priority_sampler"

    def finalize(self, state: PrioritySampler) -> list:
        if state.items_seen == 0:
            return []
        return [item for item, __ in state.sample().entries]


class WeightedReservoirUdaf(_SeededSamplerUdaf):
    """``wrsamp(item, weight)`` — Efraimidis-Spirakis weighted reservoir."""

    name = "wrsamp"
    arity = 2
    summary = "weighted_reservoir"


class ReservoirUdaf(_SeededSamplerUdaf):
    """``reservoir(item)`` — undecayed reservoir sampling baseline."""

    name = "reservoir"
    arity = 1
    summary = "reservoir"


class AggarwalUdaf(_SeededSamplerUdaf):
    """``aggsamp(item)`` — Aggarwal's exponential-bias baseline."""

    name = "aggsamp"
    arity = 1
    summary = "aggarwal_reservoir"


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class UdafRegistry:
    """Case-insensitive name -> UDAF instance registry used by the parser."""

    def __init__(self) -> None:
        self._udafs: dict[str, Udaf] = {}
        self._unbuilt: dict[str, Callable[[], Udaf]] = {}

    def register(self, udaf: Udaf) -> None:
        """Register (or replace) a UDAF under its ``name``."""
        if not udaf.name:
            raise QueryError("UDAF must define a non-empty name")
        self._unbuilt.pop(udaf.name.lower(), None)
        self._udafs[udaf.name.lower()] = udaf

    def register_lazy(self, cls: type[Udaf], *args, **kwargs) -> None:
        """Register ``cls(*args, **kwargs)`` under ``cls.name``, constructed
        the first time a query names it (and kept from then on)."""
        self._udafs.pop(cls.name.lower(), None)
        self._unbuilt[cls.name.lower()] = partial(cls, *args, **kwargs)

    def get(self, name: str) -> Udaf:
        """Look up a UDAF; raises :class:`QueryError` if unknown."""
        key = name.lower()
        udaf = self._udafs.get(key)
        if udaf is None:
            build = self._unbuilt.pop(key, None)
            if build is None:
                raise QueryError(
                    f"unknown aggregate {name!r}; registered: {self.names()}"
                )
            udaf = self._udafs[key] = build()
        return udaf

    def __contains__(self, name: str) -> bool:
        key = name.lower()
        return key in self._udafs or key in self._unbuilt

    def names(self) -> list[str]:
        """All registered aggregate names."""
        return sorted({*self._udafs, *self._unbuilt})


#: The sliding window (seconds) of the windowed adapters, ``sw_hh`` and
#: the exponential histograms, in :func:`default_registry`.
_WINDOW_S = 60.0

#: ``sw_hh``'s pane width in seconds; None lets the sketch choose.
_PANE_S = None

#: The seed of the sampling and distinct-count adapters.
_SEED = 0


def default_registry(
    hh_epsilon: float = 0.01,
    hh_phi: float = 0.05,
    eh_epsilon: float = 0.1,
    sample_size: int = 100,
) -> UdafRegistry:
    """A registry with the builtins plus every library adapter (each
    adapter constructed, and its summary module imported, when a query
    first names it).

    The parameters configure the adapters the figures sweep (epsilon,
    sample size); benchmarks construct registries per data point.  The
    window, pane and seed are the module constants ``_WINDOW_S``,
    ``_PANE_S`` and ``_SEED``.
    """
    registry = UdafRegistry()
    for builtin in (CountUdaf(), SumUdaf(), MinUdaf(), MaxUdaf(), AvgUdaf()):
        registry.register(builtin)
    registry.register_lazy(WeightedHHUdaf, hh_epsilon, hh_phi)
    registry.register_lazy(UnaryHHUdaf, hh_epsilon, hh_phi)
    registry.register_lazy(
        SlidingWindowHHUdaf, _WINDOW_S, _PANE_S, hh_epsilon, hh_phi
    )
    registry.register_lazy(EHCountUdaf, eh_epsilon, _WINDOW_S)
    registry.register_lazy(EHSumUdaf, eh_epsilon, _WINDOW_S)
    registry.register_lazy(EHDecayedUdaf, epsilon=eh_epsilon, window=_WINDOW_S)
    registry.register_lazy(WeightedQuantilesUdaf, epsilon=max(hh_epsilon, 0.01))
    registry.register_lazy(DecayedDistinctUdaf, epsilon=0.1, seed=_SEED)
    registry.register_lazy(PrioritySampleUdaf, sample_size, _SEED)
    registry.register_lazy(WeightedReservoirUdaf, sample_size, _SEED)
    registry.register_lazy(ReservoirUdaf, sample_size, _SEED)
    registry.register_lazy(AggarwalUdaf, sample_size, _SEED)
    return registry
