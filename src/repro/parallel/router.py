"""One router over many owners: place, check, supervise, fold.

Section VI-B's fixed numerators make a partial state independent of
where it was built, so "route each batch to the owners of its group
keys, fold their partials at query time" is the whole of a partitioned
runtime; :class:`Router` is its one implementation (DESIGN.md §5), under
``ShardedEngine``, ``ShardedBackend`` and the cluster ``Coordinator``.

An owner has the surface a serve backend gives the server
(:class:`~repro.serve.backend.SingleEngineBackend`): ``insert_cols``,
``partial_blobs``, ``checkpoint_blobs`` (make the state durable),
``restore_blobs`` (adopt), ``close`` (rows ingested, ``-1`` if
unknown), and ``pressure`` where the sharded engine asks for it.
One that can be lost raises :class:`ConnectionError` when gone and adds
``respawn()`` (a replacement holding its last checkpoint),
``unacked_rows`` (replayed to the replacement), ``pid`` and ``exitcode``.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

from repro.core.cols import row_count
from repro.core.errors import QueryError
from repro.dsms.engine import ResultRow, fold_partials
from repro.parallel.routing import GroupKeyRouter, validate_mergeable

__all__ = ["OwnerFailure", "Router"]

#: Respawns one owner gets before its next loss is a :class:`QueryError`.
_MAX_RESPAWNS = 3


@dataclass(frozen=True)
class OwnerFailure:
    """One lost owner (shard index or node name), detected while shipping
    (``phase="ship"``) or awaiting a reply (``"request"``); ``pid`` /
    ``exitcode`` are None when the transport cannot know them.  Every row
    it was sent was checkpointed (``rows_recovered``), replayed to the
    replacement (``rows_replayed``) or lost: acknowledged after the mark.
    """

    owner: object
    phase: str
    detected_at: float
    pid: int | None
    exitcode: int | None
    rows_recovered: int
    rows_replayed: int
    rows_lost: int
    respawned: bool

    def to_dict(self) -> dict:
        """JSON-safe form, as ``stats()["failures"]`` lists it."""
        return asdict(self)


class Router:
    """Route one mergeable query's batches to owners; fold at query time.

    ``placement`` has ``nodes`` (the owners, in order) and
    ``node_for(key)``; ``make_owner(name)`` builds each owner once the
    query is checked.  ``frame_rows`` caps the rows one delivery carries
    (a serving node's frame; None hands each owner its slice whole), and
    ``checkpoint_reads`` makes every read a checkpoint too.  A lost owner
    is respawned from its last checkpoint, at most ``_MAX_RESPAWNS`` times
    each.
    """

    def __init__(
        self,
        plan,
        placement,
        make_owner,
        *,
        frame_rows: int | None = None,
        checkpoint_reads: bool = False,
    ):
        self._plan = plan
        template = plan.build_engine()
        validate_mergeable(template)
        self.parsed_query = template.query
        self.schema = plan.schema
        self._routing = GroupKeyRouter(template.query, plan.schema)
        self._placement = placement
        self._frame_rows = frame_rows
        self._checkpoint_reads = checkpoint_reads
        self._rows_routed = 0
        self._failures: list[OwnerFailure] = []
        self._close_stats: dict | None = None
        self._owners: dict = {}
        self._rows_sent: dict = {}
        self._ckpt_mark: dict = {}
        self._respawns: dict = {}
        for name in placement.nodes:
            self._add_owner(name, make_owner(name))

    def _add_owner(self, name, owner) -> None:
        self._owners[name] = owner
        self._rows_sent[name] = self._ckpt_mark[name] = self._respawns[name] = 0

    def _remove_owner(self, name):
        for table in self._rows_sent, self._ckpt_mark, self._respawns:
            del table[name]
        return self._owners.pop(name)

    # -- supervision --------------------------------------------------------------

    def _recover(self, name, phase: str) -> None:
        """Respawn a lost owner from its checkpoint, recording the cost;
        :class:`QueryError` once its respawn budget is spent."""
        owner = self._owners[name]
        replayed = owner.unacked_rows
        acked = self._rows_sent[name] - replayed
        recovered = min(self._ckpt_mark[name], acked)
        respawned = self._respawns[name] < _MAX_RESPAWNS
        failure = OwnerFailure(
            owner=name,
            phase=phase,
            detected_at=time.time(),
            pid=owner.pid,
            exitcode=owner.exitcode,
            rows_recovered=recovered,
            rows_replayed=replayed,
            rows_lost=acked - recovered,
            respawned=respawned,
        )
        self._failures.append(failure)
        if not respawned:
            raise QueryError(
                f"owner {name!r} died {self._respawns[name] + 1} time(s) "
                f"(exitcode {failure.exitcode}); respawn budget of "
                f"{_MAX_RESPAWNS} exhausted"
            )
        self._respawns[name] += 1
        owner.respawn()
        # The replacement holds the checkpoint; the replay follows it.
        self._rows_sent[name] = recovered + replayed
        self._ckpt_mark[name] = recovered

    def _call(self, name, method: str, *args, phase: str = "request"):
        """One owner call, asked again of the replacement of a lost owner."""
        while True:
            try:
                return getattr(self._owners[name], method)(*args)
            except ConnectionError:
                self._recover(name, phase)

    # -- routing / ingestion ------------------------------------------------------

    def insert_cols(self, cols: list) -> None:
        """Route one columnar batch (one list per schema field), one slice
        per owner.  An empty batch is ignored, a ragged one is a
        :class:`QueryError`, and one the schema refuses a
        :class:`~repro.core.errors.SchemaError` before any owner — sent
        only the columns its query reads — is sent anything.
        """
        self._ensure_open()
        if row_count(cols, QueryError) == 0:
            return
        self.schema.validate_cols(cols)
        placement = self._placement
        for name, part, count in self._routing.partition(
            cols, placement.node_for, placement.nodes
        ):
            self._rows_routed += count
            size = self._frame_rows or count
            for start in range(0, count, size):
                piece = part if size >= count else [c[start:start + size] for c in part]
                self._ship(name, piece, min(size, count - start))

    def _ship(self, name, cols: list, count: int) -> None:
        """Hand one piece to its owner.  A piece the transport refused
        outright (``FrameTooLarge``) is never counted as sent."""
        try:
            self._owners[name].insert_cols(cols)
        except ConnectionError:
            # The transport kept the piece: the replacement replays it.
            self._rows_sent[name] += count
            self._recover(name, "ship")
        else:
            self._rows_sent[name] += count

    # -- reads --------------------------------------------------------------------

    def _checkpoint(self) -> dict:
        """Make every owner durable: ``{owner: its checkpoint_blobs}``; the
        rows sent so far become each owner's checkpoint mark."""
        self._ensure_open()
        kept = {}
        for name in self._placement.nodes:
            kept[name] = self._call(name, "checkpoint_blobs")
            self._ckpt_mark[name] = self._rows_sent[name]
        return kept

    def _partials(self) -> list[bytes]:
        """Every owner's blobs; with ``checkpoint_reads`` each owner is
        checkpointed, and one that kept no blob is read beside it."""
        self._ensure_open()
        if self._checkpoint_reads:
            kept = self._checkpoint()
            return [
                blob
                for name, blobs in kept.items()
                for blob in blobs or self._call(name, "partial_blobs")
            ]
        return [
            blob
            for name in self._placement.nodes
            for blob in self._call(name, "partial_blobs")
        ]

    def query(self) -> list[ResultRow]:
        """Results over everything ingested so far: every owner's partial
        states folded into one collector, so HAVING / ORDER BY / LIMIT see
        the merged groups.  Ingestion may continue."""
        return fold_partials(self._plan.build_engine, self._partials())

    # -- statistics ---------------------------------------------------------------

    @property
    def rows_routed(self) -> int:
        """Tuples the router has accepted and placed so far."""
        return self._rows_routed

    @property
    def failures(self) -> list[OwnerFailure]:
        """Detected owner losses, in detection order (copy)."""
        return list(self._failures)

    def stats(self) -> dict:
        """Router accounting: rows routed, failures, and per-owner marks."""
        return {
            "rows_routed": self._rows_routed,
            "rows_lost": sum(failure.rows_lost for failure in self._failures),
            "failures": [failure.to_dict() for failure in self._failures],
            "owners": {
                name: {
                    "rows_sent": self._rows_sent[name],
                    "checkpoint_mark": self._ckpt_mark[name],
                    "respawns": self._respawns[name],
                }
                for name in self._placement.nodes
            },
        }

    # -- lifecycle ----------------------------------------------------------------

    def _ensure_open(self) -> None:
        if self._close_stats is not None:
            raise QueryError(f"{type(self).__name__} is closed")

    def _close_report(self, counts: dict) -> dict:
        """What :meth:`close` returns, given ``{owner: rows ingested}``."""
        return {"tuples_per_owner": counts}

    def close(self) -> dict:
        """Close every owner (a dead one reports ``-1`` rows).  Idempotent:
        later calls return the first call's report."""
        if self._close_stats is None:
            counts = {name: owner.close() for name, owner in self._owners.items()}
            self._close_stats = self._close_report(counts)
        return self._close_stats

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
