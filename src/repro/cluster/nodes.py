"""Cluster node runtimes: in-process and subprocess ``StreamServer``s.

A node is one :class:`~repro.serve.server.StreamServer` the coordinator
routes to.  Both flavours share the same tiny lifecycle surface —
``start`` / ``stop`` / ``kill`` / ``respawn`` / ``alive`` plus
``host``/``port`` — so the coordinator never cares which one it drives:

* :class:`LocalNode` runs the server on a background event loop in this
  process (:class:`~repro.serve.server.ThreadedServer`).  Cheap and
  deterministic; ``kill()`` uses the threaded server's crash teardown
  (no goodbye checkpoint), the in-process analogue of SIGKILL.
* :class:`ProcessNode` runs ``python -m repro serve`` as a real OS
  process via :class:`~repro.testing.chaos.ServerProcess`, so SIGKILL is
  a genuine SIGKILL.  It serves the netflow ``PACKET_SCHEMA`` (what the
  CLI serves).

Both keep their listen port across ``respawn()`` and restore state from
the checkpoint in ``state_dir`` — a respawned node rejoins the ring at
the same address holding exactly its last checkpoint, and the
coordinator's clients reconnect and replay unacknowledged batches on
top of it.

Only a :class:`LocalNode` runs an event loop in this process, so the
server (and asyncio with it) is imported by :meth:`LocalNode.start`: a
coordinator whose nodes are all :class:`ProcessNode` loads neither.
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


class LocalNode:
    """One in-process ``StreamServer`` on a background event loop.

    ``schema`` is any :class:`~repro.dsms.schema.Schema`; the backend is
    built fresh on every (re)start and reseeded from the node's
    checkpoint.  ``state_dir`` is required — without a durable
    checkpoint a respawned node would silently restart empty, and the
    coordinator's loss accounting assumes checkpoint-or-replay.
    """

    kind = "local"

    def __init__(
        self,
        name: str,
        sql: str,
        schema,
        state_dir: str,
        *,
        shards: int = 0,
        credit_window: int = 8,
        registry_params: dict | None = None,
    ):
        if not name:
            raise ParameterError("node name must be non-empty")
        self.name = name
        self.sql = sql
        self.schema = schema
        self.state_dir = state_dir
        self.shards = shards
        self.credit_window = credit_window
        self.registry_params = dict(registry_params or {})
        self.host: str | None = None
        self.port: int | None = None
        self._threaded: ThreadedServer | None = None

    def start(self) -> "LocalNode":
        """Build a fresh backend and serve it; restores any checkpoint."""
        from repro.serve.server import StreamServer, ThreadedServer

        if self.alive():
            raise ParameterError(f"node {self.name!r} is already running")
        os.makedirs(self.state_dir, exist_ok=True)
        backend = build_backend(
            self.sql,
            self.schema,
            shards=self.shards,
            processes=0,
            registry_params=self.registry_params,
        )
        server = StreamServer(
            backend,
            port=self.port or 0,
            credit_window=self.credit_window,
            state_dir=self.state_dir,
        )
        self._threaded = ThreadedServer(server).start()
        self.host = self._threaded.host
        self.port = self._threaded.port
        return self

    def alive(self) -> bool:
        """Whether the serving thread is up."""
        thread = self._threaded and self._threaded._thread
        return bool(thread and thread.is_alive())

    def kill(self) -> None:
        """Crash the node: no goodbye checkpoint, connections aborted."""
        if self._threaded is not None:
            self._threaded.kill()

    def respawn(self) -> "LocalNode":
        """Restart a dead node on its old port, from its checkpoint."""
        if self.alive():
            self.kill()
        return self.start()

    def stop(self) -> None:
        """Graceful shutdown; writes a final checkpoint."""
        if self._threaded is not None:
            self._threaded.stop()

    def __enter__(self) -> "LocalNode":
        return self.start() if not self.alive() else self

    def __exit__(self, *exc_info) -> None:
        self.stop()


class ProcessNode:
    """One ``repro serve`` OS process (netflow schema, CLI code path).

    The subprocess flavour for chaos tests and the ``repro cluster``
    CLI: SIGKILL really is SIGKILL, and recovery exercises the deployed
    entry point byte for byte.  ``log_path`` (default
    ``<state_dir>/node.log``) captures the server's stdout/stderr across
    respawns — CI uploads it when a cluster test fails.
    """

    kind = "process"

    def __init__(
        self,
        name: str,
        sql: str,
        state_dir: str,
        *,
        shards: int = 0,
        credit_window: int = 8,
        log_path: str | None = None,
        startup_timeout_s: float = 30.0,
    ):
        if not name:
            raise ParameterError("node name must be non-empty")
        self.name = name
        self.sql = sql
        self.state_dir = state_dir
        self.shards = shards
        self.credit_window = credit_window
        self.log_path = log_path or os.path.join(state_dir, "node.log")
        self.startup_timeout_s = startup_timeout_s
        self.host: str | None = None
        self.port: int | None = None
        self._server: ServerProcess | None = None

    def start(self) -> "ProcessNode":
        """Spawn the server process; restores any checkpoint."""
        if self.alive():
            raise ParameterError(f"node {self.name!r} is already running")
        os.makedirs(self.state_dir, exist_ok=True)
        self._server = ServerProcess(
            self.sql,
            state_dir=self.state_dir,
            shards=self.shards,
            credit_window=self.credit_window,
            port=self.port or 0,
            startup_timeout_s=self.startup_timeout_s,
            log_path=self.log_path,
        ).start()
        self.host = self._server.host
        self.port = self._server.port
        return self

    def alive(self) -> bool:
        """Whether the server process is up."""
        return self._server is not None and self._server.alive()

    @property
    def pid(self) -> int | None:
        return self._server.pid if self._server is not None else None

    def kill(self) -> None:
        """SIGKILL the server process and reap it."""
        if self._server is not None:
            self._server.kill()

    def respawn(self) -> "ProcessNode":
        """Restart a dead node on its old port, from its checkpoint."""
        if self._server is not None:
            self._server.kill()  # idempotent; reaps an externally killed pid
        self._server = None
        return self.start()

    def stop(self) -> None:
        """Graceful SIGTERM shutdown; writes a final checkpoint."""
        if self._server is not None and self._server.alive():
            self._server.stop()

    def __enter__(self) -> "ProcessNode":
        return self.start() if not self.alive() else self

    def __exit__(self, *exc_info) -> None:
        if self.alive():
            self.stop()
        elif self._server is not None:
            self._server.kill()
