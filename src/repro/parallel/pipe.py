"""The process owner transport: one shard worker behind a queue and a pipe.

:func:`shard_worker_main` runs in the worker: a
:class:`~repro.serve.backend.SingleEngineBackend` built from the
pickle-safe :class:`~repro.parallel.worker.ShardPlan`, and one message on
its bounded input queue per backend method:

``("colb", pack_cols bytes)``  ``insert_cols`` (the columns read decoded)
``("merge", blob)``            ``restore_blobs``
``("state",)``                 ``partial_blobs``: replies ``("state", blob)``
``("checkpoint",)``            ``checkpoint_blobs``: ``("checkpoint", blobs)``
``("stop",)``                  ``close``: replies ``("stopped", tuples_in)``

An exception is sent as ``("error", message)`` before the worker exits.
:class:`PipeOwner` is the parent's end; only this module imports
:mod:`multiprocessing`.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module

from repro.core.cols import pack_cols, row_count, unpack_cols
from repro.core.errors import QueryError
from repro.serve.backend import SingleEngineBackend

__all__ = ["PipeOwner", "WorkerLost", "shard_worker_main"]

#: One bounded ``queue.put`` between liveness checks: a dead worker is
#: noticed promptly, a busy one not polled hot.
_PUT_POLL_S = 0.05

#: How long ``close()`` waits on a worker at each step before giving up.
_CLOSE_WAIT_S = 5.0

#: Batches a worker's input queue holds; a full queue blocks the router.
_QUEUE_DEPTH = 8


class WorkerLost(QueryError, ConnectionError):
    """A shard worker process died: the :class:`ConnectionError` the
    router respawns the worker on."""


def shard_worker_main(plan, shard_id: int, in_queue, conn) -> None:
    """Serve one shard's messages from ``in_queue`` until ``("stop",)``,
    replying on ``conn`` (any queue and connection objects will do)."""
    try:
        backend = SingleEngineBackend(plan.for_shard(shard_id))
        while True:
            tag, *args = in_queue.get()
            if tag == "colb":
                backend.insert_cols(unpack_cols(args[0], backend.columns_read)[0])
            elif tag == "merge":
                backend.restore_blobs(args)
            elif tag == "state":
                conn.send(("state", backend.partial_blobs()[0]))
            elif tag == "checkpoint":
                conn.send(("checkpoint", backend.checkpoint_blobs()))
            elif tag == "stop":
                conn.send(("stopped", backend.close()))
                break
            else:
                raise ValueError(f"unknown shard message {tag!r}")
    except Exception as error:
        try:
            conn.send(("error", f"shard {shard_id}: {error}"))
        except (OSError, ValueError):
            pass
    finally:
        conn.close()


class PipeOwner:
    """The parent's end of one shard worker process: a batch the worker
    was found dead before taking is replayed to its replacement."""

    def __init__(self, plan, shard: int):
        self._plan = plan
        self._shard = shard
        self._unacked: list[tuple[int, tuple]] = []
        self._kept: list[bytes] = []  # what the last checkpoint re-seeds
        self._start()

    def _start(self) -> None:
        self.queue = multiprocessing.Queue(maxsize=_QUEUE_DEPTH)
        self._conn, child_conn = multiprocessing.Pipe(duplex=False)
        self.process = multiprocessing.Process(
            target=shard_worker_main,
            args=(self._plan, self._shard, self.queue, child_conn),
            daemon=True,
            name=f"repro-shard-{self._shard}",
        )
        self.process.start()
        self.pid = self.process.pid
        child_conn.close()

    def _put(self, message: tuple, timeout_s: float | None = None) -> bool:
        """Queue ``message``, polling the worker's liveness while the
        queue is full; False once ``timeout_s`` has passed."""
        waited = 0.0
        while self.process.is_alive():
            try:
                self.queue.put(message, timeout=_PUT_POLL_S)
                return True
            except queue_module.Full:
                waited += _PUT_POLL_S
                if timeout_s is not None and waited >= timeout_s:
                    return False
        raise WorkerLost(f"shard worker {self._shard} is dead")

    def _ask(self, tag: str):
        self._put((tag,))
        try:
            reply, payload = self._conn.recv()
        except EOFError:
            raise WorkerLost(
                f"shard worker {self._shard} died before answering {tag!r}; "
                "check the worker log for exceptions"
            ) from None
        if reply == "error":
            raise QueryError(f"shard worker failed: {payload}")
        return payload

    def insert_cols(self, cols: list) -> None:
        """Queue one packed batch; kept for the replacement if the worker
        is found dead."""
        message = ("colb", pack_cols(cols))
        try:
            self._put(message)
        except WorkerLost:
            self._unacked.append((row_count(cols), message))
            raise

    def restore_blobs(self, blobs: list[bytes]) -> None:
        """Queue ``blobs`` for the worker to fold in."""
        for blob in blobs:
            self._put(("merge", blob))

    def partial_blobs(self) -> list[bytes]:
        """The worker's partial state, after every batch queued before."""
        return [self._ask("state")]

    def checkpoint_blobs(self) -> list[bytes]:
        """The worker's checkpoint: its blob, kept here to re-seed a
        replacement, or nothing once a store-backed worker has published
        its manifest."""
        self._kept = self._ask("checkpoint")
        return self._kept

    def pressure(self) -> float:
        """0.0: the worker's store is not worth a round trip per grant."""
        return 0.0

    @property
    def unacked_rows(self) -> int:
        return sum(count for count, _message in self._unacked)

    @property
    def exitcode(self) -> int | None:
        self.process.join(timeout=0)
        return self.process.exitcode

    def respawn(self) -> None:
        """Replace the dead worker: re-seed it from the last checkpoint,
        then replay the batches its predecessor never took."""
        self._abandon()
        self._start()
        self.restore_blobs(self._kept)
        replay, self._unacked = self._unacked, []
        for _count, message in replay:
            self._put(message)

    def _abandon(self) -> None:
        """Drop the queue and pipe without blocking: the queue's feeder
        thread may hold batches nobody will read, so it is never joined."""
        self.queue.cancel_join_thread()
        self.queue.close()
        self._conn.close()

    def close(self) -> int:
        """Stop the worker; the rows it ingested, ``-1`` if it cannot say.
        Every wait is bounded and a straggler is terminated."""
        count = -1
        try:
            if self._put(("stop",), _CLOSE_WAIT_S) and self._conn.poll(
                _CLOSE_WAIT_S
            ):
                reply, payload = self._conn.recv()
                if reply == "stopped":
                    count = payload
        except (WorkerLost, EOFError, OSError):
            pass
        self.process.join(timeout=_CLOSE_WAIT_S)
        if self.process.is_alive():
            self.process.terminate()
        self._abandon()
        if self.process.exitcode is None:
            self.process.join(timeout=_CLOSE_WAIT_S)
        return count

