"""Key-partitioned multi-core ingestion with merge-at-query (Section VI-B).

The paper's fixed-numerator decomposition makes decayed aggregation
parallelize like undecayed aggregation: summaries computed per shard *for
the same g and landmark* merge exactly, so the only coordination a parallel
engine needs is at query time.  :class:`ShardedEngine` applies that at
process granularity:

* tuples are hash-partitioned by GROUP BY key across ``shards`` workers,
  each owning a private :class:`~repro.dsms.engine.QueryEngine` built from
  the same query text;
* batches are partitioned in columns and each shard's slice ships over
  a bounded queue (the backpressure boundary) as packed
  :func:`repro.core.cols.pack_cols` bytes into the engine's batch
  kernel; rows exist only at the public edge (``insert_many`` transposes
  once, ``process`` fills one edge buffer flushed the same way);
* queries collect partial-state blobs and fold them with
  :func:`repro.dsms.engine.fold_partials` — landmark/decay compatibility
  is checked at merge, exactly as the paper requires.

Partitioning by group key means no group is split across shards, but
correctness does not depend on it: merge-at-query combines same-key
partials from any routing (``shard_key`` routes on a raw column instead
when computing the full key in the router would dominate).

``processes=0`` runs the same sharding, batching, and serde-merge pipeline
inline in one process — bit-identical to the multiprocess mode for a given
router, which is what the determinism tests pin: the sharded result equals
the unsharded engine exactly for commutative exact aggregates (count/sum/
min/max/avg over integer-valued data; float-valued sums agree within
reassociation tolerance, see DESIGN.md §7).

**Supervision (DESIGN.md §9).**  The same mergeability makes a dead worker
cheap: its partial state is an ordinary summary, so the supervisor respawns
the process from the pickle-safe :class:`~repro.parallel.worker.ShardPlan`,
re-seeds it from the shard's most recent checkpointed blob, and the rebuilt
shard merges back into queries exactly.  Every ship and every reply checks
worker liveness with a bounded wait, so a ``kill -9`` never hangs the
router on a full queue; the unrecoverable delta (rows shipped after the
last acknowledged checkpoint) is surfaced as a structured
:class:`~repro.parallel.supervision.ShardFailure` and through the metrics
registry.  Checkpoints refresh for free on every :meth:`partial_states`
(hence every :meth:`query`), or on demand via :meth:`checkpoint`.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import time
from typing import Callable, Iterable

from repro.core.cols import pack_cols, rows_to_cols
from repro.core.errors import ParameterError, QueryError
from repro.dsms.engine import QueryEngine, ResultRow, fold_partials
from repro.dsms.schema import Schema
from repro.dsms.udaf import UdafRegistry, default_registry
from repro.parallel.routing import (
    GroupKeyRouter,
    stable_route,
    validate_mergeable,
)
from repro.parallel.supervision import ShardFailure
from repro.parallel.worker import ShardPlan, shard_worker_main

__all__ = ["ShardedEngine", "stable_route"]

#: How long one bounded ``queue.put`` waits before re-checking worker
#: liveness.  Small enough that a dead worker is noticed promptly; large
#: enough that a healthy-but-busy worker is not polled hot.
_PUT_POLL_S = 0.05

#: How long ``close()`` waits for any single worker reply / join before
#: escalating (skip, then terminate).  Close is bounded by a few of these
#: per shard, never by a dead worker's queue.
_CLOSE_WAIT_S = 5.0


class ShardedEngine:
    """Multiprocess sharded ingestion for one GSQL query.

    Parameters
    ----------
    sql:
        Query text.  Workers re-parse it against their own registry, so
        only text and configuration ever cross the process boundary.
    schema:
        Schema of the source stream.
    shards:
        Number of partitions == number of shard workers.
    processes:
        ``None`` (default) runs one OS process per shard; ``0`` runs every
        shard inline in this process — same code path minus the IPC, for
        determinism tests and single-core hosts.  Other values are
        rejected: partitions and workers are one-to-one by design.
    batch_size:
        Rows :meth:`process` buffers at the edge before routing them as
        one batch (``insert_many`` / ``insert_cols`` batches ship at once).
    queue_depth:
        Bound of each worker's input queue, in batches.  A full queue
        blocks the router — backpressure, not unbounded buffering.
    registry_factory / registry_params:
        How workers (and the local parse) build the UDAF registry;
        defaults to :func:`~repro.dsms.udaf.default_registry`.  The
        factory must be picklable under spawn start methods.
    two_level / low_table_size:
        Forwarded to every worker's :class:`QueryEngine`.
    shard_key:
        Optional schema column name to route on (cheap tuple index)
        instead of evaluating the GROUP BY expressions in the router.
    router:
        Optional ``(key, shards) -> shard`` override; e.g.
        :func:`stable_route` for run-to-run deterministic partitioning.
        Default is builtin ``hash``.
    start_method:
        Forwarded to :func:`multiprocessing.get_context` (None = platform
        default).
    metrics:
        Optional enabled :class:`~repro.obs.registry.MetricsRegistry`;
        records per-shard throughput (``parallel.shard<i>.rows``), queue
        depth at send time, merged-state volume, merge latency, and —
        under supervision — worker failures, respawns, and lost-row
        deltas under ``parallel.*``.  None/disabled leaves the hot path
        untouched.
    emit_on_bucket_change:
        Forwarded to every worker's :class:`QueryEngine`: each shard
        watches the first GROUP BY key and finalizes earlier buckets as
        its own substream passes them (collect with :meth:`drain`).
        Punctuation arrives via :meth:`heartbeat` / :meth:`heartbeat_all`.
    supervise:
        When True (default), dead worker processes are detected on every
        ship and reply, respawned from the shard's last checkpoint, and
        reported via :attr:`failures` instead of hanging the router or
        failing the query.  ``False`` restores fail-fast semantics:
        a dead worker raises :class:`QueryError` at the next reply (and
        :meth:`close` still returns within its timeout).
    max_respawns:
        Supervised mode only: how many times any single shard may be
        respawned before the engine gives up and raises
        :class:`QueryError` (a crash-looping worker indicates a bug, not
        transient bad luck).
    store_dir / store_hot_groups:
        Tiered group-state storage (:mod:`repro.store`).  When
        ``store_dir`` is set each shard worker attaches a
        :class:`~repro.store.tiered.TieredStore` over
        ``<store_dir>/shard<i>`` and keeps at most ``store_hot_groups``
        groups in RAM; every state reply persists the shard's segment
        manifest, and a supervised respawn rebuilds the worker from
        those segments instead of re-shipping a checkpoint blob.
    """

    def __init__(
        self,
        sql: str,
        schema: Schema,
        shards: int = 4,
        processes: int | None = None,
        *,
        batch_size: int = 512,
        queue_depth: int = 8,
        registry_factory: Callable[..., UdafRegistry] = default_registry,
        registry_params: dict | None = None,
        two_level: bool = True,
        low_table_size: int = 4096,
        shard_key: str | None = None,
        router: Callable[[object, int], int] | None = None,
        start_method: str | None = None,
        metrics=None,
        emit_on_bucket_change: bool = False,
        supervise: bool = True,
        max_respawns: int = 3,
        store_dir: str | None = None,
        store_hot_groups: int = 4096,
    ):
        if shards < 1:
            raise ParameterError(f"shards must be >= 1, got {shards!r}")
        if processes not in (None, 0, shards):
            raise ParameterError(
                f"processes must be None (one per shard) or 0 (inline), "
                f"got {processes!r} for {shards} shard(s)"
            )
        if batch_size < 1:
            raise ParameterError(f"batch_size must be >= 1, got {batch_size!r}")
        if queue_depth < 1:
            raise ParameterError(f"queue_depth must be >= 1, got {queue_depth!r}")
        if max_respawns < 0:
            raise ParameterError(
                f"max_respawns must be >= 0, got {max_respawns!r}"
            )
        self.shards = shards
        self.inline = processes == 0
        self.batch_size = batch_size
        self.supervise = supervise
        self.max_respawns = max_respawns
        self._plan = ShardPlan(
            sql=sql,
            schema=schema,
            two_level=two_level,
            low_table_size=low_table_size,
            registry_factory=registry_factory,
            registry_params=dict(registry_params or {}),
            emit_on_bucket_change=emit_on_bucket_change,
            store_dir=store_dir,
            store_hot_groups=store_hot_groups,
        )
        # Local plan: validates the query against the schema up front and
        # provides the compiled GROUP BY expressions for routing.
        template = self._plan.build_engine()
        validate_mergeable(template)
        self.parsed_query = template.query
        self.schema = schema
        self._routing = GroupKeyRouter(
            template.query, schema, shard_key=shard_key
        )
        if router is None:
            # Builtin hash is the fast default; randomized per interpreter
            # for strings, but routing happens only in this process, and
            # merge-at-query is correct under any placement.
            router = lambda key, n: hash(key) % n
        self._place = lambda key: router(key, shards)
        self._edge: list[tuple] = []  # rows from process(), not yet routed
        self._rows_routed = 0
        self._closed = False
        self._close_stats: dict = {"tuples_per_shard": []}
        self._workers: list = []
        self._queues: list = []
        self._conns: list = []
        self._engines: list[QueryEngine] = []
        self._queue_depth = queue_depth
        # Supervision state: per-shard loss accounting and checkpoints.
        self._shipped_total = [0] * shards
        self._ckpt_mark = [0] * shards
        self._ckpt_blobs: list[bytes | None] = [None] * shards
        self._respawns = [0] * shards
        self._failures: list[ShardFailure] = []
        self._obs_init(metrics)
        if self.inline:
            self._engines = [
                self._plan.build_engine(
                    store_dir=self._plan.shard_store_dir(shard)
                )
                for shard in range(shards)
            ]
            self._context = None
        else:
            self._context = multiprocessing.get_context(start_method)
            for shard in range(shards):
                queue, conn, process = self._spawn(shard)
                self._queues.append(queue)
                self._conns.append(conn)
                self._workers.append(process)

    def _obs_init(self, metrics) -> None:
        self._metrics = metrics
        self._obs = metrics is not None and getattr(metrics, "enabled", False)
        if not self._obs:
            return
        self._m_shard_rows = [
            metrics.counter(f"parallel.shard{i}.rows") for i in range(self.shards)
        ]
        self._m_batches = metrics.counter("parallel.batches")
        self._m_queue_depth = metrics.gauge("parallel.queue.depth")
        self._m_merge_us = metrics.latency("parallel.query.merge_us")
        self._m_state_bytes = metrics.counter("parallel.query.state_bytes")
        self._m_failures = metrics.counter("parallel.failures")
        self._m_respawns = metrics.counter("parallel.respawns")
        self._m_rows_lost = metrics.counter("parallel.rows_lost")

    # -- worker lifecycle ---------------------------------------------------------

    def _spawn(self, shard: int):
        """Start one worker process with a fresh queue and pipe."""
        queue = self._context.Queue(maxsize=self._queue_depth)
        parent_conn, child_conn = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=shard_worker_main,
            args=(self._plan, shard, queue, child_conn),
            daemon=True,
            name=f"repro-shard-{shard}",
        )
        process.start()
        child_conn.close()
        return queue, parent_conn, process

    def _abandon_transport(self, shard: int) -> None:
        """Discard a dead or stopped worker's queue and pipe without blocking.

        ``cancel_join_thread`` first: the queue's feeder thread may hold
        batches nobody will ever read, and ``close``/``join_thread`` would
        wait on that buffer draining into a pipe with no reader.
        """
        queue = self._queues[shard]
        queue.cancel_join_thread()
        queue.close()
        try:
            self._conns[shard].close()
        except OSError:  # pragma: no cover - already torn down
            pass

    def _recover(self, shard: int, phase: str) -> None:
        """Respawn a dead shard worker from its last checkpoint.

        Records a :class:`ShardFailure` with the exact lost delta (rows
        shipped since the last acknowledged checkpoint die with the
        worker: they were either in its memory or on its abandoned
        queue), re-seeds the replacement from the checkpoint blob, and
        resets the shard's loss accounting to the recovered baseline.
        Raises :class:`QueryError` once ``max_respawns`` is exhausted.
        """
        process = self._workers[shard]
        process.join(timeout=0)
        lost = self._shipped_total[shard] - self._ckpt_mark[shard]
        recovered = self._ckpt_mark[shard]
        self._abandon_transport(shard)
        respawned = self._respawns[shard] < self.max_respawns
        failure = ShardFailure(
            shard=shard,
            pid=process.pid,
            exitcode=process.exitcode,
            detected_at=time.time(),
            phase=phase,
            rows_recovered=recovered,
            rows_lost_min=lost,
            rows_lost_max=lost,
            respawned=respawned,
        )
        self._failures.append(failure)
        if self._obs:
            self._m_failures.add(1.0)
            self._m_rows_lost.add(float(lost))
        if not respawned:
            raise QueryError(
                f"shard worker {shard} died {self._respawns[shard] + 1} "
                f"time(s) (exitcode {process.exitcode}); respawn budget of "
                f"{self.max_respawns} exhausted"
            )
        self._respawns[shard] += 1
        queue, conn, new_process = self._spawn(shard)
        self._queues[shard] = queue
        self._conns[shard] = conn
        self._workers[shard] = new_process
        blob = self._ckpt_blobs[shard]
        if blob is not None and self._plan.store_dir is None:
            # Store-backed shards recover from their own segment manifest
            # (written with every state reply) when the replacement builds
            # its engine; re-shipping the blob would double-count.
            queue.put(("merge", blob))
        # The replacement's durable content is exactly the checkpoint.
        self._shipped_total[shard] = recovered
        self._ckpt_mark[shard] = recovered
        if self._obs:
            self._m_respawns.add(1.0)

    def _put(self, shard: int, message: tuple, phase: str = "ship") -> bool:
        """Queue ``message`` to a shard, never hanging on a dead worker.

        Unsupervised mode keeps the plain blocking put (backpressure with
        no liveness cost).  Supervised mode alternates bounded puts with
        ``is_alive`` polls, so a worker killed while its queue is full is
        detected within ``_PUT_POLL_S`` and recovered; the message then
        goes to the replacement.  Always True, as :meth:`_try_put` may not be.
        """
        if not self.supervise:
            self._queues[shard].put(message)
            return True
        while True:
            if not self._workers[shard].is_alive():
                self._recover(shard, phase)
            try:
                self._queues[shard].put(message, timeout=_PUT_POLL_S)
                return True
            except queue_module.Full:
                continue

    def _recv(self, shard: int, request: tuple, *, recover: bool = True):
        """The payload of this worker's reply to ``request`` (already
        queued) — the one place a shard connection is read.

        A worker that died instead of answering is respawned from its
        checkpoint and asked again (:meth:`_recover` raises once the
        respawn budget is spent); unsupervised, or with ``recover=False``
        (shutdown), the death raises :class:`QueryError`.
        """
        while True:
            try:
                reply = self._conns[shard].recv()
            except EOFError:
                if not (self.supervise and recover):
                    raise QueryError(
                        f"shard worker {shard} died before answering "
                        f"{request[0]!r}; check the worker log for exceptions"
                    ) from None
                self._recover(shard, "request")
                self._put(shard, request, "request")
                continue
            if reply[0] == "error":
                raise QueryError(f"shard worker failed: {reply[1]}")
            return reply[1]

    # -- routing / ingestion ------------------------------------------------------

    def process(self, row: tuple) -> None:
        """Offer one tuple: buffered at the edge and routed with its batch
        at ``batch_size`` rows, or before any heartbeat, read or close."""
        self._ensure_open()
        self._edge.append(row)
        if len(self._edge) >= self.batch_size:
            self._flush_edge()

    def insert_many(self, rows: Iterable[tuple]) -> None:
        """Route a batch of tuples: transposed here, once, and handed to
        :meth:`insert_cols`."""
        self.insert_cols(rows_to_cols(rows))

    def insert_cols(self, cols: list) -> None:
        """Route one columnar batch; per-shard partitions ship immediately.

        ``cols`` is one list per schema field, all the same length (as a
        serve backend hands over from an ``INSERT_COLS`` frame); an empty
        batch is ignored.  Each shard's partition stays columnar end to
        end — one :func:`repro.core.cols.pack_cols` buffer on the queue,
        the worker engine's ``insert_cols`` kernel behind it — and
        results are bit-identical to feeding the rows to :meth:`process`,
        whose buffered rows ship first to keep per-shard arrival order.
        """
        self._ensure_open()
        self._flush_edge()
        self._route_cols(cols, self._put)

    def _flush_edge(self, put=None) -> None:
        """Route and ship the rows :meth:`process` buffered."""
        if self._edge:
            rows, self._edge = self._edge, []
            self._route_cols(rows_to_cols(rows), put or self._put)

    def _route_cols(self, cols: list, put) -> None:
        """Deliver each shard's part of ``cols``: to the inline engine,
        or packed through ``put`` (shipped only if ``put`` queued it)."""
        parts = self._routing.partition(cols, self._place, range(self.shards))
        for shard, part, count in parts:
            self._rows_routed += count
            if self.inline:
                self._engines[shard].insert_cols(part)
            else:
                if self._obs:
                    try:
                        self._m_queue_depth.set(float(self._queues[shard].qsize()))
                    except NotImplementedError:  # pragma: no cover - macOS
                        pass
                if not put(shard, ("colb", pack_cols(part))):
                    continue
                self._shipped_total[shard] += count
            if self._obs:
                self._m_shard_rows[shard].add(float(count))
                self._m_batches.add(1.0)

    # -- punctuation --------------------------------------------------------------

    def _deliver_heartbeat(self, shards: Iterable[int], row: tuple) -> None:
        # Ship buffered rows first so the marker never overtakes data
        # offered before it — both travel the same queues.
        self._ensure_open()
        self._flush_edge()
        for shard in shards:
            if self.inline:
                self._engines[shard].heartbeat(row)
            else:
                self._put(shard, ("heartbeat", row))

    def heartbeat(self, row: tuple) -> None:
        """Route punctuation to the shard owning ``row``'s group key.

        The marker advances event time on that shard only (closing time
        buckets it has passed, with the same late/equal no-op rules as
        :meth:`QueryEngine.heartbeat`); it is never counted or aggregated.
        Useful when punctuation is per-substream — e.g. one quiet source
        whose keys all hash to one shard.  For stream-wide punctuation use
        :meth:`heartbeat_all`.
        """
        owner = self._routing.owner(row, self._place, range(self.shards))
        self._deliver_heartbeat([owner], row)

    def heartbeat_all(self, row: tuple) -> None:
        """Broadcast punctuation to every shard (global event time)."""
        self._deliver_heartbeat(range(self.shards), row)

    def drain(self) -> list[ResultRow]:
        """Result rows of time buckets closed by the shards so far.

        Requires ``emit_on_bucket_change=True`` (otherwise always empty).
        Each shard's rows arrive in its own emission order; across shards
        they are concatenated in shard order — per-bucket rows are only
        grouped within a shard, since every shard closes buckets at its
        own pace.  Cleared on read, like :meth:`QueryEngine.drain`.

        Rows buffered by :meth:`process` ship first (which can itself
        close buckets).  Emitted rows never appear in query results, so
        callers interleaving the two should drain *after* querying too.
        A dead worker's undrained rows are part of its checkpoint delta.
        """
        self._ensure_open()
        self._flush_edge()
        rows: list[ResultRow] = []
        for shard in range(self.shards):
            if self.inline:
                rows.extend(self._engines[shard].drain())
            else:
                self._put(shard, ("drain",), "request")
                rows.extend(self._recv(shard, ("drain",)))
        return rows

    # -- querying -----------------------------------------------------------------

    def partial_states(self) -> list[bytes]:
        """One serde-encoded partial state per shard (pending rows shipped
        first).  Workers keep their state and keep ingesting.

        Under supervision every successful reply refreshes that shard's
        recovery checkpoint, so a steady query (or :meth:`checkpoint`)
        cadence bounds the worst-case lost delta to one inter-query
        window of rows.
        """
        self._ensure_open()
        self._flush_edge()
        if self.inline:
            # Same contract as the worker's state handler: a snapshot of
            # a store-backed shard also makes its manifest durable.
            blobs = [engine.partial_state_bytes() for engine in self._engines]
            for engine in self._engines:
                if engine.store is not None:
                    engine.store_checkpoint()
            return blobs
        # Pipelined: every request is queued before the first reply is
        # read, so shards snapshot concurrently.
        for shard in range(self.shards):
            self._put(shard, ("state",), "request")
        blobs: list[bytes] = []
        for shard in range(self.shards):
            blob = self._recv(shard, ("state",))
            # The reply covers every batch shipped before the request
            # (same queue, FIFO; no ship can interleave), so it doubles
            # as a checkpoint: the blob and the rows-shipped total (the
            # recovered baseline, if answering took a respawn) become
            # the shard's recovery point.
            self._ckpt_mark[shard] = self._shipped_total[shard]
            self._ckpt_blobs[shard] = blob
            blobs.append(blob)
        return blobs

    def store_pressure(self) -> float:
        """The worst inline shard store's eviction pressure in ``[0, 1]``.

        Multiprocess shards report 0.0 — their stores live in the worker
        processes and the signal is not worth a round-trip per credit
        grant.  Storeless shards are never pressured.
        """
        if not self.inline:
            return 0.0
        return max(
            (
                engine.store.pressure()
                for engine in self._engines
                if engine.store is not None
            ),
            default=0.0,
        )

    def checkpoint(self) -> dict:
        """Refresh every shard's recovery point; returns per-shard info.

        Collects partial states exactly like :meth:`partial_states` (so
        rows shipped before the call are captured) and keeps the blobs as
        the re-seed source for any later respawn.  Returns
        ``{"shards": n, "blob_bytes": [...], "rows_captured": [...]}``.
        """
        blobs = self.partial_states()
        if self.inline:
            captured = [engine.tuples_processed for engine in self._engines]
        else:
            captured = list(self._ckpt_mark)
        return {
            "shards": self.shards,
            "blob_bytes": [len(blob) for blob in blobs],
            "rows_captured": captured,
        }

    def query(self) -> list[ResultRow]:
        """Merged results over everything ingested so far.

        Collects every shard's partial state, folds the blobs into one
        collector (:func:`~repro.dsms.engine.fold_partials`), and finalizes —
        HAVING / ORDER BY / LIMIT apply to the merged groups, identically
        to an unsharded flush.  Ingestion may continue afterwards; a later
        ``query()`` reflects the longer prefix (merge-at-query).
        """
        blobs = self.partial_states()
        start = time.perf_counter_ns() if self._obs else 0
        rows = fold_partials(self._plan.build_engine, blobs)
        if self._obs:
            elapsed_us = (time.perf_counter_ns() - start) / 1e3
            self._m_merge_us.observe(elapsed_us)
            self._m_state_bytes.add(float(sum(len(b) for b in blobs)))
        return rows

    # -- statistics ---------------------------------------------------------------

    @property
    def rows_routed(self) -> int:
        """Tuples accepted by the router so far (shipped or buffered)."""
        return self._rows_routed + len(self._edge)

    @property
    def failures(self) -> list[ShardFailure]:
        """Detected worker deaths, in detection order (copy)."""
        return list(self._failures)

    def stats(self) -> dict:
        """Router-side statistics plus the edge buffer's row count."""
        return {
            "shards": self.shards,
            "inline": self.inline,
            "rows_routed": self.rows_routed,
            "buffered": len(self._edge),
            "batch_size": self.batch_size,
            "supervised": self.supervise,
            "respawns": list(self._respawns),
            "failures": [failure.to_dict() for failure in self._failures],
            "rows_lost": sum(f.rows_lost_max for f in self._failures),
        }

    # -- lifecycle ----------------------------------------------------------------

    def _ensure_open(self) -> None:
        if self._closed:
            raise QueryError("ShardedEngine is closed")

    def _try_put(self, shard: int, message: tuple) -> bool:
        """Best-effort put for shutdown: bounded, never respawns."""
        deadline = time.monotonic() + _CLOSE_WAIT_S
        while True:
            if not self._workers[shard].is_alive():
                return False
            try:
                self._queues[shard].put(message, timeout=_PUT_POLL_S)
                return True
            except queue_module.Full:
                if time.monotonic() >= deadline:
                    return False

    def close(self) -> dict:
        """Stop the workers; returns per-shard ingested-tuple counts.

        Idempotent: the first call tears the workers down and caches its
        result; every later call (including ``__exit__`` after an explicit
        ``close()``) is a no-op returning the same counts.  Pending
        buffered rows are shipped first so every routed tuple is accounted
        for in the returned counts.

        Bounded even when a worker died mid-batch with a full queue: every
        wait (stop delivery, reply, join) carries a timeout, dead shards
        report ``-1``, stragglers are terminated, and every queue is
        released with ``cancel_join_thread`` before ``close`` — the feeder
        thread of an abandoned queue must never be joined against a pipe
        nobody reads.
        """
        if self._closed:
            return self._close_stats
        counts: list[int] = []
        if self.inline:
            self._flush_edge()
            counts = [engine.tuples_processed for engine in self._engines]
            for engine in self._engines:
                if engine.store is not None:
                    engine.store.close()
        else:
            self._flush_edge(self._try_put)
            shards = range(self.shards)
            stopped = [self._try_put(shard, ("stop",)) for shard in shards]
            for shard in shards:
                count = -1
                if stopped[shard] and self._conns[shard].poll(_CLOSE_WAIT_S):
                    try:
                        count = self._recv(shard, ("stop",), recover=False)
                    except QueryError:
                        pass
                counts.append(count)
            for process in self._workers:
                process.join(timeout=_CLOSE_WAIT_S)
                if process.is_alive():
                    process.terminate()
            for shard in shards:
                self._abandon_transport(shard)
            for process in self._workers:
                if process.exitcode is None:
                    process.join(timeout=_CLOSE_WAIT_S)
        self._closed = True
        self._close_stats = {"tuples_per_shard": counts}
        return self._close_stats

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
