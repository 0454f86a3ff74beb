"""Fault injection for the fault-tolerance layer (crash tests, benchmarks).

Three primitives:

- :func:`wait_until` — poll a condition with a hard deadline, the
  backbone of every crash test (no bare ``sleep`` guesses).
- :func:`kill_worker` — SIGKILL the process of one shard worker of a
  :class:`~repro.parallel.sharded.ShardedEngine` (its
  :class:`~repro.parallel.pipe.PipeOwner`'s handle) and wait until the
  OS has actually reaped it, so the next ingest call deterministically
  sees a dead process.
- :class:`ServerProcess` — run ``repro serve`` as a real subprocess that
  can be SIGKILLed between periodic checkpoints and restarted on the
  same ``--state-dir``, exactly the crash-recovery scenario of
  DESIGN.md §6.4.

Everything here is in-tree (not test-only) because the cluster's
:class:`~repro.cluster.nodes.ProcessNode` runs its server through
:class:`ServerProcess`.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

from repro.core.serde import CHECKPOINT_FILENAME

__all__ = ["ServerProcess", "kill_node", "kill_worker", "wait_until"]

#: How long :meth:`ServerProcess.start` waits for the port file.
_STARTUP_TIMEOUT_S = 30.0


def wait_until(
    predicate,
    timeout_s: float = 30.0,
    interval_s: float = 0.02,
    message: str = "condition",
):
    """Poll ``predicate`` until it returns a truthy value; that value is
    returned.  Raises :class:`TimeoutError` after ``timeout_s``."""
    deadline = time.monotonic() + timeout_s
    while True:
        value = predicate()
        if value:
            return value
        if time.monotonic() >= deadline:
            raise TimeoutError(
                f"timed out after {timeout_s:.1f}s waiting for {message}"
            )
        time.sleep(interval_s)


def kill_worker(engine, shard: int, sig: int = signal.SIGKILL) -> int:
    """Kill one shard worker process and wait for the OS to reap it; the
    pid.  The engine is not told: its next call must detect the death."""
    process = getattr(engine._owners[shard], "process", None)
    if process is None:
        raise ValueError("cannot kill a worker of an inline engine")
    return _kill(process.pid, process.is_alive, sig, f"shard {shard} worker")


def kill_node(node, sig: int = signal.SIGKILL) -> int:
    """Kill a :class:`~repro.cluster.nodes.ProcessNode`'s server behind the
    coordinator's back and wait for the OS to reap it; the pid."""
    if node.pid is None:
        raise ValueError(f"node {node.name!r} has no server process")
    return _kill(node.pid, node.alive, sig, f"node {node.name!r}")


def _kill(pid: int, alive, sig: int, what: str) -> int:
    os.kill(pid, sig)
    # ``alive`` turns False only once the process has been waited on,
    # which polling it does.
    wait_until(
        lambda: not alive(), timeout_s=10.0, message=f"{what} (pid {pid}) to die"
    )
    return pid


class ServerProcess:
    """A real ``repro serve`` subprocess with crash/restart controls.

    Drives the CLI entry point (``python -m repro serve``) so the crash
    path under test is byte-for-byte the deployed one.  Readiness uses
    ``--port-file`` (written only after the listener is bound), never a
    sleep.  Usable as a context manager; :meth:`kill` SIGKILLs the
    process mid-flight, after which a new :class:`ServerProcess` on the
    same ``state_dir`` exercises restart-from-checkpoint.
    """

    def __init__(
        self,
        sql: str,
        *,
        state_dir: str | None = None,
        checkpoint_interval_s: float | None = None,
        port: int = 0,
        log_path: str | None = None,
    ):
        self.sql = sql
        self.state_dir = state_dir
        self.log_path = log_path
        self._argv = [sys.executable, "-m", "repro", "serve", sql,
                      "--port", str(port)]
        if state_dir is not None:
            self._argv += ["--state-dir", state_dir]
        if checkpoint_interval_s is not None:
            self._argv += ["--checkpoint-interval", str(checkpoint_interval_s)]
        self._process: subprocess.Popen | None = None
        self._log_handle = None
        self._port_file: str | None = None
        self.host: str | None = None
        self.port: int | None = None

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> "ServerProcess":
        """Spawn the server and block until it is accepting connections."""
        if self._process is not None:
            raise RuntimeError("server already started")
        base = self.state_dir or os.getcwd()
        self._port_file = os.path.join(
            base, f".serve-port-{os.getpid()}-{id(self)}"
        )
        if os.path.exists(self._port_file):
            os.unlink(self._port_file)
        argv = self._argv + ["--port-file", self._port_file]
        if self.log_path is not None:
            # Append so a respawn on the same path keeps the crash's tail;
            # CI uploads these files when a cluster test fails.
            self._log_handle = open(self.log_path, "ab")
            stdout = self._log_handle
        else:
            self._log_handle = None
            stdout = subprocess.PIPE
        self._process = subprocess.Popen(
            argv,
            stdout=stdout,
            stderr=subprocess.STDOUT,
            env=os.environ.copy(),
        )
        try:
            wait_until(
                self._try_read_port,
                timeout_s=_STARTUP_TIMEOUT_S,
                message="server port file",
            )
        except TimeoutError:
            output = self._collect_output(kill_first=True)
            raise RuntimeError(
                f"repro serve failed to become ready:\n{output}"
            ) from None
        return self

    def _try_read_port(self) -> bool:
        if self._process.poll() is not None:
            output = self._collect_output(kill_first=False)
            raise RuntimeError(
                f"repro serve exited during startup "
                f"(code {self._process.returncode}):\n{output}"
            )
        try:
            with open(self._port_file) as handle:
                line = handle.read().strip()
        except FileNotFoundError:
            return False
        if not line:
            return False
        host, port = line.split()
        self.host, self.port = host, int(port)
        return True

    def _collect_output(self, kill_first: bool) -> str:
        if kill_first and self._process.poll() is None:
            self._process.kill()
        try:
            output, _ = self._process.communicate(timeout=10)
        except subprocess.TimeoutExpired:  # pragma: no cover - last resort
            return "<no output: process did not exit>"
        if self._log_handle is not None:
            self._close_log()
            try:
                with open(self.log_path, "rb") as handle:
                    return handle.read().decode("utf-8", "replace")
            except OSError:  # pragma: no cover - log vanished
                return "<no output: log file unreadable>"
        return (output or b"").decode("utf-8", "replace")

    def _close_log(self) -> None:
        if self._log_handle is not None:
            self._log_handle.close()
            self._log_handle = None

    @property
    def pid(self) -> int:
        return self._process.pid

    def alive(self) -> bool:
        """Whether the server subprocess is currently running."""
        return self._process is not None and self._process.poll() is None

    def kill(self) -> None:
        """SIGKILL the server — no checkpoint, no goodbye — and reap it."""
        if self._process is None:
            return
        if self._process.poll() is None:
            self._process.kill()
        self._process.wait(timeout=30)
        self._close_log()
        self._cleanup_port_file()

    def stop(self, timeout_s: float = 30.0) -> int:
        """Graceful SIGTERM shutdown (writes a final checkpoint when
        configured with a state dir); returns the exit code."""
        if self._process is None:
            raise RuntimeError("server not started")
        if self._process.poll() is None:
            self._process.send_signal(signal.SIGTERM)
        try:
            self._process.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait(timeout=30)
        self._close_log()
        self._cleanup_port_file()
        return self._process.returncode

    def _cleanup_port_file(self) -> None:
        if self._port_file and os.path.exists(self._port_file):
            os.unlink(self._port_file)

    def __enter__(self) -> "ServerProcess":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        if self.alive():
            self.stop()
        else:
            self.kill()

    # -- checkpoint observation ----------------------------------------------------

    @property
    def checkpoint_path(self) -> str | None:
        if self.state_dir is None:
            return None
        return os.path.join(self.state_dir, CHECKPOINT_FILENAME)

    def checkpoint_bytes(self) -> bytes | None:
        """Current checkpoint contents, or None if none written yet."""
        path = self.checkpoint_path
        if path is None or not os.path.exists(path):
            return None
        with open(path, "rb") as handle:
            return handle.read()
