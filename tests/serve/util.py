"""Shared helpers for the serve test suite: fixtures-by-hand, raw sockets."""

from __future__ import annotations

import socket

from repro.dsms.engine import QueryEngine, run_query
from repro.dsms.parser import parse_query
from repro.dsms.udaf import default_registry
from repro.serve import (
    AsyncServeClient,
    ServeClient,
    StreamServer,
    ThreadedServer,
    build_backend,
    protocol,
)
from repro.workloads.netflow import PACKET_SCHEMA

SQL = (
    "select tb, destIP, count(*) as c, sum(len) as s from TCP "
    "group by time/60 as tb, destIP"
)


def make_rows(n: int, start: int = 100) -> list[tuple]:
    return [
        (
            start + i,
            float(start + i),
            "10.0.0.1",
            f"d{i % 5}",
            80,
            443,
            40 + i % 17,
            "TCP",
        )
        for i in range(n)
    ]


def canon(rows) -> list[str]:
    """Order-insensitive canonical form of result rows."""
    return sorted(repr(sorted(row.items())) for row in rows)


def expected_rows(sql: str, rows: list[tuple]) -> list[dict]:
    query = parse_query(sql, default_registry())
    return [dict(row) for row in run_query(query, PACKET_SCHEMA, rows)]


def flushed_rows(sql: str, rows: list[tuple]) -> list[dict]:
    """The in-process answer in flush order: one engine fed ``rows``."""
    engine = QueryEngine(parse_query(sql, default_registry()), PACKET_SCHEMA)
    engine.insert_many(rows)
    return engine.flush()


def serve(
    sql: str = SQL, *, shards: int = 0, processes: int | None = 0, **kwargs
) -> ThreadedServer:
    backend = build_backend(
        sql, PACKET_SCHEMA, shards=shards, processes=processes
    )
    return ThreadedServer(StreamServer(backend, **kwargs)).start()


class Awaitable:
    """The sync client behind the async surface, so one scenario serves
    both drivers."""

    def __init__(self, client):
        self._client = client

    def __getattr__(self, name):
        attr = getattr(self._client, name)
        if not callable(attr):
            return attr

        async def call(*args, **kwargs):
            return attr(*args, **kwargs)

        return call


async def connect(driver: str, host: str, port: int):
    """A client of either driver behind the awaitable surface."""
    if driver == "sync":
        return Awaitable(ServeClient(host, port))
    return await AsyncServeClient.connect(host, port)


class RawConnection:
    """A bare socket speaking hand-crafted bytes, for malformed-frame tests."""

    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port), timeout=10)
        self.decoder = protocol.FrameDecoder()

    def hello(self) -> None:
        self.send_frame(protocol.HELLO, {"wire_version": protocol.WIRE_VERSION})
        assert self.read_frame().ftype == protocol.WELCOME

    def send_frame(self, ftype: int, payload: dict | None = None) -> None:
        self.sock.sendall(protocol.encode_frame(ftype, payload))

    def send_raw(self, data: bytes) -> None:
        self.sock.sendall(data)

    def read_frame(self):
        while True:
            for frame in self.decoder.frames():
                return frame
            data = self.sock.recv(65536)
            if not data:
                raise ConnectionError("server closed the connection")
            self.decoder.feed(data)

    def closed_by_server(self) -> bool:
        """True once the server has closed its end (EOF on read)."""
        self.sock.settimeout(10)
        try:
            return self.sock.recv(65536) == b""
        except (ConnectionResetError, TimeoutError):
            return True

    def close(self) -> None:
        self.sock.close()
