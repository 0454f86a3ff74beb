"""Exception hierarchy for the forward-decay library.

All library-specific errors derive from :class:`DecayError`, so callers can
catch a single base class at an integration boundary while still being able
to discriminate finer-grained failures (bad timestamps, bad landmarks,
invalid parameters, ...) when they need to.
"""

from __future__ import annotations


class DecayError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class ParameterError(DecayError, ValueError):
    """A decay function or summary was configured with an invalid parameter.

    Examples: a non-positive exponential rate, a zero-size reservoir, an
    error bound outside ``(0, 1)``.
    """


class LandmarkError(DecayError, ValueError):
    """An item or query time is inconsistent with the configured landmark.

    Forward decay (Definition 3 of the paper) requires ``t_i > L`` for every
    arrival and ``t >= t_i`` for query times; violations raise this error.
    """


class TimestampError(DecayError, ValueError):
    """A timestamp is malformed (NaN, infinite) or violates query ordering."""


class EmptySummaryError(DecayError, RuntimeError):
    """A query (quantile, sample, min/max, ...) was posed to an empty summary."""


class MergeError(DecayError, ValueError):
    """Two summaries are incompatible for merging.

    Summaries can only be merged when they agree on the decay function,
    landmark, and structural parameters (Section VI-B of the paper).
    """


class QueryError(DecayError, ValueError):
    """A DSMS query is syntactically or semantically invalid."""


class ProtocolError(DecayError, ValueError):
    """A wire frame violates the ``repro.serve`` protocol.

    Raised for malformed, truncated, or oversized frames and for version
    mismatches; the serving layer converts it into a structured ERROR
    reply, never a server crash.
    """


class SchemaError(DecayError, ValueError):
    """A tuple or expression does not conform to the stream schema."""


class StoreError(DecayError, ValueError):
    """A tiered-store segment is unreadable, corrupt, or inconsistent.

    Raised by :mod:`repro.store` when an on-disk record fails its CRC,
    a segment is truncated mid-record, or a manifest references state
    that no longer exists.  Carries the offending ``segment`` path and
    record ``offset`` (when known) so operators can quarantine the exact
    file — the store never crashes on bad bytes and never silently
    returns a wrong answer derived from them.
    """

    def __init__(self, message: str, segment: str | None = None,
                 offset: int | None = None):
        super().__init__(message)
        self.segment = segment
        self.offset = offset
