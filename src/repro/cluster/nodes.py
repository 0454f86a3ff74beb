"""Cluster nodes: a ``StreamServer`` in this process, or in its own.

Both share one lifecycle — ``start`` / ``stop`` / ``kill`` / ``respawn``
/ ``alive`` plus ``host`` / ``port`` — and keep their port across a
respawn, restoring the checkpoint in ``state_dir``: a respawned node
rejoins the ring at the same address holding exactly its last
checkpoint.  Only a :class:`LocalNode` runs an event loop in this
process, so the server (and asyncio with it) is imported when one
starts: a coordinator over :class:`ProcessNode` instances loads
neither.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from repro.core.errors import ParameterError
from repro.serve.backend import build_backend
from repro.testing.chaos import ServerProcess

if TYPE_CHECKING:
    from repro.serve.server import ThreadedServer

__all__ = ["LocalNode", "ProcessNode"]


class _Node:
    """What both flavours share: a name, a state dir, and a server
    (``_serve()``) that has ``host`` / ``port`` / ``kill()`` / ``stop()``."""

    def __init__(self, name: str, sql: str, state_dir: str):
        if not name:
            raise ParameterError("node name must be non-empty")
        self.name = name
        self.sql = sql
        self.state_dir = state_dir
        self.host: str | None = None
        self.port: int | None = None
        self._server = None

    def start(self):
        """Serve a fresh backend on the node's port; restores any
        checkpoint in ``state_dir``."""
        if self.alive():
            raise ParameterError(f"node {self.name!r} is already running")
        os.makedirs(self.state_dir, exist_ok=True)
        self._server = self._serve()
        self.host = self._server.host
        self.port = self._server.port
        return self

    def kill(self) -> None:
        """Crash the node: no goodbye checkpoint (idempotent)."""
        if self._server is not None:
            self._server.kill()

    def respawn(self):
        """Restart a dead node on its old port, from its checkpoint."""
        self.kill()
        return self.start()

    def stop(self) -> None:
        """Graceful shutdown; writes a final checkpoint."""
        if self._server is not None:
            self._server.stop()

    def __enter__(self):
        return self if self.alive() else self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class LocalNode(_Node):
    """One in-process ``StreamServer`` over a single engine, on a
    background event loop, its backend rebuilt on every (re)start from
    the checkpoint in the required ``state_dir``; ``kill()`` is the
    threaded server's crash teardown, the in-process analogue of
    SIGKILL."""

    kind = "local"

    def __init__(self, name: str, sql: str, schema, state_dir: str):
        super().__init__(name, sql, state_dir)
        self.schema = schema

    def _serve(self) -> "ThreadedServer":
        from repro.serve.server import StreamServer, ThreadedServer

        server = StreamServer(
            build_backend(self.sql, self.schema),
            port=self.port or 0,
            state_dir=self.state_dir,
        )
        return ThreadedServer(server).start()

    def alive(self) -> bool:
        """Whether the serving thread is up."""
        thread = self._server and self._server._thread
        return bool(thread and thread.is_alive())


class ProcessNode(_Node):
    """One ``repro serve`` OS process over a single engine, serving the
    netflow schema: SIGKILL is real, and ``<state_dir>/node.log`` keeps
    its output across respawns."""

    kind = "process"

    def _serve(self) -> ServerProcess:
        return ServerProcess(
            self.sql,
            state_dir=self.state_dir,
            port=self.port or 0,
            log_path=os.path.join(self.state_dir, "node.log"),
        ).start()

    def alive(self) -> bool:
        """Whether the server process is up."""
        return self._server is not None and self._server.alive()

    @property
    def pid(self) -> int | None:
        """The server process's pid (None before the first start)."""
        return self._server.pid if self._server is not None else None
