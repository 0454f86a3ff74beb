"""Unit tests for the synthetic packet-trace generator."""

from __future__ import annotations

import hashlib
import math
from collections import Counter

import pytest

from repro.core.errors import ParameterError
from repro.workloads.netflow import (
    PACKET_SCHEMA,
    PacketTraceConfig,
    PacketTraceGenerator,
    generate_trace,
)


class TestConfig:
    def test_total_packets(self):
        config = PacketTraceConfig(duration_sec=2.0, rate_per_sec=500)
        assert config.total_packets == 1_000

    def test_validation(self):
        with pytest.raises(ParameterError):
            PacketTraceConfig(duration_sec=0)
        with pytest.raises(ParameterError):
            PacketTraceConfig(tcp_fraction=1.5)
        with pytest.raises(ParameterError):
            PacketTraceConfig(num_dest_ips=0)
        with pytest.raises(ParameterError):
            PacketTraceConfig(zipf_exponent=0)
        with pytest.raises(ParameterError):
            PacketTraceConfig(jitter_sec=-1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name", ["duration_sec", "rate_per_sec", "zipf_exponent", "jitter_sec"]
    )
    def test_non_finite_refused_when_built(self, name, value):
        with pytest.raises(ParameterError, match=name.split("_")[0]):
            PacketTraceConfig(**{name: value})

    def test_total_packets_forgives_rounding_error(self):
        # 0.29 * 100 == 28.999999999999996: one rounding error short of 29.
        def count(duration, rate):
            config = PacketTraceConfig(duration_sec=duration, rate_per_sec=rate)
            return config.total_packets

        assert count(0.29, 100) == 29
        assert count(0.295, 100) == 29  # a real fraction still truncates
        assert count(300.0, 400.0) == 120_000
        assert count(120.0, 100_000 / 120.0) == 100_000


class TestGeneration:
    def test_deterministic_given_seed(self):
        first = generate_trace(duration_sec=0.5, rate_per_sec=1_000, seed=9)
        second = generate_trace(duration_sec=0.5, rate_per_sec=1_000, seed=9)
        assert first == second

    def test_different_seeds_differ(self):
        first = generate_trace(duration_sec=0.5, rate_per_sec=1_000, seed=1)
        second = generate_trace(duration_sec=0.5, rate_per_sec=1_000, seed=2)
        assert first != second

    def test_rows_match_schema(self):
        trace = generate_trace(duration_sec=0.2, rate_per_sec=1_000)
        for row in trace[:100]:
            PACKET_SCHEMA.validate_cols([[value] for value in row])

    def test_timestamps_at_configured_rate(self):
        trace = generate_trace(duration_sec=1.0, rate_per_sec=100)
        assert len(trace) == 100
        ts = [row[1] for row in trace]
        assert ts[0] == pytest.approx(0.0)
        assert ts[-1] == pytest.approx(0.99, abs=0.02)
        assert ts == sorted(ts)

    def test_int_time_matches_float_ts(self):
        trace = generate_trace(duration_sec=0.5, rate_per_sec=2_000)
        for row in trace:
            assert row[0] == int(row[1])

    def test_protocol_mix(self):
        trace = generate_trace(
            duration_sec=1.0, rate_per_sec=2_000, tcp_fraction=0.8
        )
        protos = Counter(row[7] for row in trace)
        assert protos["tcp"] / len(trace) == pytest.approx(0.8, abs=0.05)
        pure = generate_trace(duration_sec=0.2, rate_per_sec=500,
                              tcp_fraction=1.0)
        assert all(row[7] == "tcp" for row in pure)

    def test_destination_skew_is_zipfian(self):
        trace = generate_trace(
            duration_sec=2.0, rate_per_sec=5_000, num_dest_ips=1_000,
            zipf_exponent=1.2,
        )
        counts = Counter(row[3] for row in trace)
        ranked = counts.most_common()
        # Heavy skew: top destination gets far more than the median one.
        top = ranked[0][1]
        median = ranked[len(ranked) // 2][1]
        assert top > 10 * median

    def test_out_of_order_jitter(self):
        config = PacketTraceConfig(
            duration_sec=1.0, rate_per_sec=1_000, jitter_sec=0.05, seed=3
        )
        trace = PacketTraceGenerator(config).materialize()
        ts = [row[1] for row in trace]
        assert ts != sorted(ts)  # genuinely out of order
        # ...but bounded: displacement never exceeds the jitter horizon.
        for emitted, stamped in enumerate(ts):
            nominal = emitted / 1_000
            assert abs(stamped - nominal) <= 0.05 + 1e-9

    def test_lengths_from_catalogue(self):
        trace = generate_trace(duration_sec=0.2, rate_per_sec=1_000)
        assert {row[6] for row in trace} <= {40, 120, 576, 1500}


# Golden ``sha256(repr(trace))`` digests, seed 1.  The workload shapes
# mirror the ``trace`` dicts of benchmarks/stack/workloads.py (at a tenth
# of their rows, and ``sketch_inproc`` at its full 120k); the rest drive
# each branch of the draw loop: the clamp at zero, both rejection loops of
# the bounded integer draws, both protocol extremes and the port table's
# special ranks.  A change to the generator that moves one RNG draw or
# one output byte fails here on every Python the suite runs on.
_GOLDEN = {
    "sketch_inproc/10": (
        dict(duration_sec=300.0, rate_per_sec=12_000 / 300.0,
             num_dest_ports=8, zipf_exponent=1.1, jitter_sec=2.0),
        "bd9de7ea943ea1aa39d5bd6a0130a9010bb7bb3f134e4c03bc3f5fef76726266",
    ),
    "sketch_inproc": (
        dict(duration_sec=300.0, rate_per_sec=120_000 / 300.0,
             num_dest_ports=8, zipf_exponent=1.1, jitter_sec=2.0),
        "d037c68595aab4d62cefc469eacb9f333ef0bc2cacf84b50e31de31779688f48",
    ),
    # countsum_served and readmix_cluster share this trace dict.
    "served/10": (
        dict(duration_sec=120.0, rate_per_sec=10_000 / 120.0,
             num_dest_ips=1000, num_dest_ports=4, zipf_exponent=1.1),
        "da2dd1f8c92387ad1012aa2334442a0137dbff7a31711774a693905b165dc53b",
    ),
    "spill_store/10": (
        dict(duration_sec=300.0, rate_per_sec=6_000 / 300.0,
             num_dest_ips=200_000, num_dest_ports=4, zipf_exponent=1.1),
        "755d260558d2f2d830c297acf1c9b0fc51370d79f6d291150359a48323625151",
    ),
    "jitter-clamps-at-zero": (
        dict(duration_sec=2.0, rate_per_sec=1_000.0, jitter_sec=5.0),
        "cdd13f18d15680aef4677142c3fba477340e99592581b70d55f17ac715e72c5c",
    ),
    "7-sources": (
        dict(duration_sec=1.0, rate_per_sec=2_000.0, num_src_ips=7),
        "1515ea8222c14aee63557e09a96551635b3a046e914e88ab569896f59fff4e00",
    ),
    "20000-sources": (
        dict(duration_sec=1.0, rate_per_sec=2_000.0, num_src_ips=20_000),
        "d484128bf7e6c9a47164e6fce722d28006230c25fbb8e20a0d6d421cda1f4ae6",
    ),
    "all-udp": (
        dict(duration_sec=1.0, rate_per_sec=2_000.0, tcp_fraction=0.0),
        "4a4cc27e03a546789e40b5130d616c78fc967e9380cc83e70a2217c9459ee976",
    ),
    "all-tcp": (
        dict(duration_sec=1.0, rate_per_sec=2_000.0, tcp_fraction=1.0),
        "41a55ef4d02b6263a4441f2d958e29057e073e640a26f7b270e5acfc9c723b7a",
    ),
    "1-port": (
        dict(duration_sec=1.0, rate_per_sec=2_000.0, num_dest_ports=1),
        "296e9664f13adf2ba7593b07a8b7126fbcde20137acc5deee44795ceb95206e8",
    ),
    "2-ports": (
        dict(duration_sec=1.0, rate_per_sec=2_000.0, num_dest_ports=2),
        "031c3aa545f96eafb00e963a26a6cfec571212c99c6e53483a57be4b114ae330",
    ),
    "70000-destinations": (
        dict(duration_sec=1.0, rate_per_sec=2_000.0, num_dest_ips=70_000),
        "3b10db509ea4c766a85f2e81f0e640b2c09d8e4e0a347464d115cd2537247e64",
    ),
}


class TestGoldenTraces:
    @pytest.mark.parametrize("name", sorted(_GOLDEN))
    def test_same_seed_same_bytes(self, name):
        fields, digest = _GOLDEN[name]
        config = PacketTraceConfig(seed=1, **fields)
        trace = PacketTraceGenerator(config).materialize()
        assert len(trace) == config.total_packets
        assert hashlib.sha256(repr(trace).encode()).hexdigest() == digest
        assert list(PacketTraceGenerator(config).packets()) == trace
        for row in trace:
            assert math.copysign(1.0, row[1]) > 0.0  # neither < 0 nor -0.0

    @pytest.mark.xfail(
        strict=True,
        reason="known defect: addresses alias past 65,535 hosts "
        "(192.168.{r>>8&255}.{r&255}); fixing it re-baselines spill_store",
    )
    def test_distinct_destinations_print_distinct_addresses(self):
        # spill_store at seed 1 draws 13,196 distinct destination ranks
        # (counted from the Zipf draws); aliasing prints 12,632 addresses.
        config = PacketTraceConfig(
            duration_sec=300.0, rate_per_sec=200.0, num_dest_ips=200_000,
            num_dest_ports=4, zipf_exponent=1.1, seed=1,
        )
        trace = PacketTraceGenerator(config).materialize()
        assert len({row[3] for row in trace}) == 13_196
