"""Workload generators standing in for the paper's live network feeds.

* :mod:`repro.workloads.netflow` — synthetic packet traces (Zipf
  destinations, TCP/UDP mix, rate-stamped, optional out-of-order jitter);
* :mod:`repro.workloads.synthetic` — plain ``(timestamp, value)`` streams
  for unit/property tests and examples.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".netflow": (
            "PACKET_SCHEMA", "PacketTraceConfig", "PacketTraceGenerator",
            "generate_trace",
        ),
        ".synthetic": (
            "uniform_stream", "zipf_stream", "bursty_stream", "with_out_of_order",
            "interleave_streams",
        ),
    },
)
