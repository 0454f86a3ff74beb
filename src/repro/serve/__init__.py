"""``repro.serve``: network serving for continuous queries.

The paper's systems (Gigascope, the DSMS of Section V) are *services*:
tuples arrive over a tap, queries run continuously, answers are read out
while the stream keeps flowing.  This package is that deployment shape for
the reproduction — an asyncio TCP server
(:class:`~repro.serve.server.StreamServer`) running one engine (single or
sharded, :mod:`repro.serve.backend`) behind a small framed wire protocol
(:mod:`repro.serve.protocol`), plus sync/async client libraries
(:mod:`repro.serve.client`).

Quick start::

    from repro.serve import build_backend, StreamServer, ThreadedServer
    from repro.serve import ServeClient

    backend = build_backend(sql, schema, shards=4)
    with ThreadedServer(StreamServer(backend)) as server:
        with ServeClient(server.host, server.port) as client:
            client.insert(rows)
            for row in client.query():
                print(row)

The CLI fronts the same pieces as ``repro serve`` and ``repro client``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".client": ("AsyncServeClient", "ClientConnectionError", "ServeClient"),
        ".server": ("CHECKPOINT_FILENAME", "StreamServer", "ThreadedServer"),
        ".protocol": (
            "Frame", "FrameDecoder", "MAX_FRAME_BYTES", "RemoteError", "WIRE_VERSION",
        ),
        ".backend": ("SingleEngineBackend", "build_backend"),
        "repro.parallel.sharded": ("ShardedBackend",),
    },
)
