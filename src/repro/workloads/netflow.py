"""Synthetic network packet traces — the stand-in for the paper's live tap.

The paper's experiments run on live traffic at an AT&T facility
(~400,000 packets/sec, ~1.8 Gbit/s, mixed TCP/UDP), with the effective rate
varied by flow sampling on the NIC.  We have no network tap, so this module
generates synthetic traces that preserve the properties the figures
actually depend on:

* **group cardinality** — tens of thousands of distinct (destIP, destPort)
  groups per minute ("a major factor for our queries");
* **skew** — Zipf-distributed destinations so heavy hitters exist;
* **rate** — the trace carries timestamps laid out at a configurable
  packets/sec rate; the benchmark harness converts measured per-tuple cost
  into CPU load at that rate;
* **protocol mix** — TCP/UDP split for the Figure 4(b)/(d) UDP variants;
* **ordering** — optional bounded timestamp jitter to exercise the
  out-of-order tolerance of forward decay (Section VI-B).

Traces are deterministic given a seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator

from repro.core.errors import ParameterError
from repro.dsms.schema import Field, FieldType, Schema

__all__ = ["PacketTraceConfig", "PacketTraceGenerator", "PACKET_SCHEMA", "generate_trace"]


#: Schema of generated packet tuples; ``time`` is integer seconds (what the
#: GSQL idioms ``time/60`` and ``time % 60`` operate on), ``ts`` the full
#: float timestamp.
PACKET_SCHEMA = Schema(
    [
        Field("time", FieldType.INT),
        Field("ts", FieldType.FLOAT),
        Field("srcIP", FieldType.STR),
        Field("destIP", FieldType.STR),
        Field("srcPort", FieldType.INT),
        Field("destPort", FieldType.INT),
        Field("len", FieldType.INT),
        Field("proto", FieldType.STR),
    ]
)


@dataclass(frozen=True)
class PacketTraceConfig:
    """Parameters of one synthetic trace.

    Defaults approximate a busy link scaled down to laptop size: adjust
    ``rate_per_sec`` and ``duration_sec`` per experiment; the benchmarks
    use short traces and scale load analytically.  A NaN or infinite
    duration, rate, exponent or jitter is a ``ParameterError``.

    Known defect: host ``r`` prints as ``192.168.{r>>8&255}.{r&255}`` (sources
    ``10.1.…``), so populations past 65,535 alias (``spill_store`` seed 1:
    13,196 destinations, 12,632 addresses); the fix re-baselines that trace.
    """

    duration_sec: float = 60.0
    rate_per_sec: float = 10_000.0
    tcp_fraction: float = 0.8
    num_dest_ips: int = 5_000
    num_dest_ports: int = 100
    num_src_ips: int = 20_000
    zipf_exponent: float = 1.1
    jitter_sec: float = 0.0
    seed: int = 42

    def __post_init__(self) -> None:
        if not (0 < self.duration_sec < math.inf and 0 < self.rate_per_sec < math.inf):
            raise ParameterError("duration and rate must be positive and finite")
        if not 0.0 <= self.tcp_fraction <= 1.0:
            raise ParameterError("tcp_fraction must be in [0, 1]")
        if min(self.num_dest_ips, self.num_dest_ports, self.num_src_ips) < 1:
            raise ParameterError("population sizes must be >= 1")
        if not 0 < self.zipf_exponent < math.inf:
            raise ParameterError("zipf_exponent must be positive and finite")
        if not 0 <= self.jitter_sec < math.inf:
            raise ParameterError("jitter_sec must be >= 0 and finite")

    @property
    def total_packets(self) -> int:
        """duration × rate packets; a product a rounding error short of an
        integer is that integer (``0.29 * 100`` gives 29, not 28)."""
        product = self.duration_sec * self.rate_per_sec
        whole = math.ceil(product)
        return whole if whole - product <= 4 * math.ulp(product) else int(product)


def _zipf_cumulative_weights(n: int, exponent: float) -> list[float]:
    return list(accumulate(rank ** (-exponent) for rank in range(1, n + 1)))


# Packet length mix: TCP acks, small payloads, and full MTU segments.
_LENGTHS = (40, 120, 576, 1500)
_LENGTH_CUM_WEIGHTS = (0.35, 0.55, 0.75, 1.0)


class PacketTraceGenerator:
    """Deterministic synthetic packet-trace generator."""

    def __init__(self, config: PacketTraceConfig):
        self.config = config
        self.schema = PACKET_SCHEMA
        self._rng = random.Random(config.seed)
        self._dest_ip_cum = _zipf_cumulative_weights(
            config.num_dest_ips, config.zipf_exponent
        )
        self._port_cum = _zipf_cumulative_weights(config.num_dest_ports, 1.0)

    def packets(self) -> Iterator[tuple]:
        """Yield packet tuples matching :data:`PACKET_SCHEMA`.

        Timestamps advance at the configured rate; with ``jitter_sec > 0``
        each packet's timestamp is perturbed by a bounded random offset
        (clamped at zero), producing a realistic mildly out-of-order feed.

        ``uniform`` / ``randrange`` are inlined as CPython 3.10-3.12 expand
        them: same draws, same bytes (golden-pinned).  Rows share host strings.
        """
        from bisect import bisect_left

        config = self.config
        rand = self._rng.random
        getrandbits = self._rng.getrandbits
        step = 1.0 / config.rate_per_sec
        jitter = config.jitter_sec
        low, span = -jitter, jitter - -jitter  # uniform(-jitter, jitter)
        dest_ip_cum = self._dest_ip_cum
        dest_ip_total = dest_ip_cum[-1]
        port_cum = self._port_cum
        port_total = port_cum[-1]
        num_src = config.num_src_ips
        src_bits = num_src.bit_length()
        tcp_fraction = config.tcp_fraction
        ports = [0, 80, 443, *range(1003, config.num_dest_ports + 1001)]  # by rank
        src_ips, dest_ips = [None] * num_src, [None] * (config.num_dest_ips + 1)
        timestamp = 0.0
        for __ in range(config.total_packets):
            ts = timestamp
            if jitter:
                ts += low + span * rand()
                if ts < 0.0:
                    ts = 0.0
            dest = bisect_left(dest_ip_cum, rand() * dest_ip_total) + 1
            port = ports[bisect_left(port_cum, rand() * port_total) + 1]
            while (src := getrandbits(src_bits)) >= num_src:  # randrange(num_src)
                pass
            length = _LENGTHS[bisect_left(_LENGTH_CUM_WEIGHTS, rand())]
            proto = "tcp" if rand() < tcp_fraction else "udp"
            while (src_port := getrandbits(16)) >= 64512:  # randrange(1024, 65536)
                pass
            if (src_ip := src_ips[src]) is None:
                src_ip = src_ips[src] = f"10.1.{src >> 8 & 255}.{src & 255}"
            if (dest_ip := dest_ips[dest]) is None:
                dest_ip = dest_ips[dest] = f"192.168.{dest >> 8 & 255}.{dest & 255}"
            yield (int(ts), ts, src_ip, dest_ip, 1024 + src_port, port, length, proto)
            timestamp += step

    def materialize(self) -> list[tuple]:
        """The whole trace as a list (what the benchmarks replay)."""
        return list(self.packets())


def generate_trace(
    duration_sec: float = 10.0,
    rate_per_sec: float = 10_000.0,
    seed: int = 42,
    **overrides,
) -> list[tuple]:
    """Convenience wrapper: build a config and materialize its trace."""
    config = PacketTraceConfig(
        duration_sec=duration_sec,
        rate_per_sec=rate_per_sec,
        seed=seed,
        **overrides,
    )
    return PacketTraceGenerator(config).materialize()
