"""The v8 partial-state blob: golden bytes, exact round trips, hostile input.

``partial_state_bytes()`` is the one encoding every carrier ships raw —
shard replies, PARTIALS_OK / ADOPT bodies, ``checkpoint.bin`` — so its
bytes are pinned literally here, its round trip is checked over every
UDAF and the awkward key / state values, and every damaged buffer must
end in :class:`MergeError` with the engine untouched.
"""

from __future__ import annotations

import struct
import zlib
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.cols import pack_cols, pack_column, read_column
from repro.core.errors import MergeError
from repro.core.merge import merge_all
from repro.core.serde import PARTIAL_STATE, seal, unseal
from repro.dsms import engine as engine_module
from repro.dsms.engine import (
    PARTIAL_STATE_VERSION,
    QueryEngine,
    describe_partial_state,
    fold_partials,
)
from repro.dsms.parser import parse_query
from repro.dsms.schema import Field, FieldType, Schema
from repro.dsms.udaf import Udaf, default_registry

SCHEMA = Schema(
    [
        Field("time", FieldType.INT),
        Field("k", FieldType.STR),
        Field("k2", FieldType.STR),
        Field("v", FieldType.INT),
        Field("w", FieldType.FLOAT),
        Field("x", FieldType.FLOAT),
    ]
)


class RaggedUdaf(Udaf):
    """Distinct values seen, as a sorted list: a state of ragged arity."""

    name = "ragged"
    arity = 1
    mergeable = True

    def create(self) -> list:
        return []

    def update(self, state: list, args: tuple) -> None:
        self.merge(state, [args[0]])

    def merge(self, state: list, other: list) -> None:
        state[:] = sorted(set(state) | set(other))

    def finalize(self, state: list) -> list:
        return list(state)


def registry():
    reg = default_registry(sample_size=4)
    reg.register(RaggedUdaf())
    return reg


#: One call per UDAF in ``default_registry()``, plus the ragged one.
CALLS = {
    "count": "count(*)",
    "sum": "sum(x)",
    "min": "min(x)",
    "max": "max(x)",
    "avg": "avg(x)",
    "fwd_hh": "fwd_hh(v, w)",
    "unary_hh": "unary_hh(v)",
    "sw_hh": "sw_hh(v, time)",
    "eh_count": "eh_count(time)",
    "eh_sum": "eh_sum(time, v)",
    "eh_decayed": "eh_decayed(time)",
    "fwd_quantiles": "fwd_quantiles(v, w)",
    "fwd_distinct": "fwd_distinct(v, time)",
    "prisamp": "prisamp(v, w)",
    "wrsamp": "wrsamp(v, w)",
    "reservoir": "reservoir(v)",
    "aggsamp": "aggsamp(v)",
    "ragged": "ragged(v)",
}


def test_calls_cover_the_default_registry():
    assert set(CALLS) == set(default_registry().names()) | {"ragged"}


def build(calls, group_by="k", **kwargs) -> QueryEngine:
    keys = group_by.split(", ") if group_by else []
    select = ", ".join(
        keys + [f"{call} as a{i}" for i, call in enumerate(calls)]
    )
    sql = f"select {select} from TCP" + (
        f" group by {group_by}" if group_by else ""
    )
    return QueryEngine(parse_query(sql, registry()), SCHEMA, **kwargs)


def untouched(engine: QueryEngine) -> bool:
    return engine.group_count == 0 and engine.tuples_processed == 0


# -- golden bytes ------------------------------------------------------------------

GOLDEN_SCHEMA = Schema(
    [
        Field("time", FieldType.INT),
        Field("destIP", FieldType.STR),
        Field("len", FieldType.INT),
    ]
)
GOLDEN_SQL = (
    "select tb, destIP, count(*) as c, sum(len) as s, unary_hh(len) as hh "
    "from TCP group by time/60 as tb, destIP"
)
GOLDEN_ROWS = [(61, "h1", 40), (62, "h2", 1500), (63, "h1", 40)]
#: zlib release the deflated goldens (here and in tests/store/test_format.py)
#: were written with: another may pick other streams, so there only their
#: inflated bodies are pinned.
GOLDEN_ZLIB = "1.2.13"
#: Scalar + sketch aggregates over two groups, as the writer lays it out:
#: the column blocks at the widths the values need (i8, str/u8, the
#: integral sums as f64/i16, bytes/u8 with the summaries' shared head once),
#: the body deflated.
GOLDEN_BLOB = bytes.fromhex(
    "4644505308fb00000088606c1c0169010000636000036608c500a3415c260616"
    "066665206376170b1b73b0ab8fab738842499282633090d45148492d2ef10c00"
    "f1202c1d85e4fcd2bc120d2d4d9058b28e427169ae464e6a1e985baca3509a97"
    "5854199f910117cbc850700bf2f75508710e50700ff20f0d50708a54d028c9cc"
    "4d55d057303300ebc366114805c44aa0e98640f7313332fe6705b9180a981858"
    "41c24c8c8c20d7b3313165186618814598189580222c0c01ac77960219d9ce82"
    "222c82108715172426a716279665e6a5738042815d818395233911289a595259"
    "925f929803f65e6a513103730a501e0460963ab03382b8ec207d4c1a4c0c1fec"
    "910498efb0826401"
)
#: The same state as the commits before summaries stored their values as
#: themselves wrote it (version 7: the ``unary_hh`` buffers of summary
#: version 3, each counter's item a ``["int", 40]`` pair).  This build
#: refuses it, naming the version.
GOLDEN_BLOB_V7 = bytes.fromhex(
    "4644505307110100008151c36901b20100007d503b4e033110f5677f2d371841"
    "b3a0952014a4e4b30a281228ab241454c86c2cbc52b241b1172957e00ad4dc80"
    "e3e410dc0066ec80281053ccbcf7ec997936633e6428ecbb12152c62720fc1eb"
    "4b94c8c9e07a504ec13dc0f9047301336dddb022165001f5b26b5d7eb04f5a5d"
    "80ed16f95cb79eda02ba56add6f7c6fc68c6c0e5787403d3b282abf1e8b6828b"
    "3bc85db3d070082747beefaf457423acc4e93df42739ff8cc8f136048b49169c"
    "93fb4408d333c75e117c17958855f1e60dc17bd9efcb9d60cc3ea95a5bf5dcb4"
    "8f19fd420a599cd50ad5c6adddd2a9b97f9e5e592667784e1187c2ce524e28f5"
    "bf970ac209e1a67532278621bd4cc0534c1fa7ffb46db6b3a59ffcbbed0b"
)
#: The same state as the commits before deflated bodies wrote it (version
#: 6): ``GOLDEN_BLOB``'s body, plain.  This build refuses it, naming the
#: version.
GOLDEN_BLOB_V6 = bytes.fromhex(
    "4644505306b20100006c771abc00000000000000030000000000000003000000"
    "00000000000000000200040003230000009b8a04060353454c45435420746220"
    "41532074622c20646573744950204153206465737449502c20636f756e74282a"
    "2920415320632c2073756d286c656e2920415320732c20756e6172795f686828"
    "6c656e292041532068682046524f4d205443502047524f555020425920287469"
    "6d65202f203630292041532074622c2064657374495020415320646573744950"
    "74696d656465737449506c656e31000000030101ff0400000000000000000000"
    "0002000531000000020101230000000602026831683231000000020201220000"
    "0004005005dca5000000b44337370311756e6172795f7370616365736176696e"
    "67080300000007200805086361706163697479746f74616c636f756e74657273"
    "0003640000000000000005000000000000004007010000000007030000000007"
    "02000000000603000000696e7403280000000000000003020000000000000003"
    "0000000000000000f03f07010000000007030000000007020000000006030000"
    "00696e7403dc05000000000000030100000000000000030000000000000000"
)
#: The same state as the commits before string heads wrote it (version 5:
#: version-2 summary buffers, each repeating the 67 bytes the two share).
#: This build refuses it, naming the version.
GOLDEN_BLOB_V5 = bytes.fromhex(
    "4644505305f401000038e1922800000000000000030000000000000003000000"
    "00000000000000000200040003230000009b8a04060353454c45435420746220"
    "41532074622c20646573744950204153206465737449502c20636f756e74282a"
    "2920415320632c2073756d286c656e2920415320732c20756e6172795f686828"
    "6c656e292041532068682046524f4d205443502047524f555020425920287469"
    "6d65202f203630292041532074622c2064657374495020415320646573744950"
    "74696d656465737449506c656e31000000030101ff0300000000000000000000"
    "0002000531000000020101230000000602026831683231000000020201220000"
    "0004005005dc25000000f67a7a0211756e6172795f7370616365736176696e67"
    "080300000007020805086361706163697479746f74616c636f756e7465727300"
    "0364000000000000000500000000000000400701000000000703000000000702"
    "000000000603000000696e740328000000000000000302000000000000000300"
    "000000000000000211756e6172795f7370616365736176696e67080300000007"
    "020805086361706163697479746f74616c636f756e7465727300036400000000"
    "00000005000000000000f03f0701000000000703000000000702000000000603"
    "000000696e7403dc050000000000000301000000000000000300000000000000"
    "00"
)
#: The same state as the commits before the engine dropped its open time
#: bucket wrote it (version 3: a bucket count in the header and a column
#: holding bucket 1).  This build refuses it by its missing magic.
GOLDEN_BLOB_V3 = bytes.fromhex(
    "0300000000000000030000000000000003000000000000000000000002000401"
    "0003230000009b8a04060353454c4543542074622041532074622c2064657374"
    "4950204153206465737449502c20636f756e74282a2920415320632c2073756d"
    "286c656e2920415320732c20756e6172795f6868286c656e2920415320686820"
    "46524f4d205443502047524f5550204259202874696d65202f20363029204153"
    "2074622c206465737449502041532064657374495074696d656465737449506c"
    "656e31000000010131000000030101ff03000000000000000000000002000531"
    "0000000201012300000006020268316832310000000202012200000004005005"
    "dc25000000f67a7a0211756e6172795f7370616365736176696e670803000000"
    "07020805086361706163697479746f74616c636f756e74657273000364000000"
    "0000000005000000000000004007010000000007030000000007020000000006"
    "03000000696e7403280000000000000003020000000000000003000000000000"
    "00000211756e6172795f7370616365736176696e670803000000070208050863"
    "61706163697479746f74616c636f756e74657273000364000000000000000500"
    "0000000000f03f0701000000000703000000000702000000000603000000696e"
    "7403dc05000000000000030100000000000000030000000000000000d16af912"
)
#: The same state as the commits before typed column encodings wrote it
#: (version 2; every int 8 bytes, every length 4).
GOLDEN_BLOB_V2_WIDE = bytes.fromhex(
    "0200000000000000030000000000000003000000000000000000000002000401"
    "000303000000a70000008a00000004000000060000000353454c454354207462"
    "2041532074622c20646573744950204153206465737449502c20636f756e7428"
    "2a2920415320632c2073756d286c656e2920415320732c20756e6172795f6868"
    "286c656e292041532068682046524f4d205443502047524f5550204259202874"
    "696d65202f203630292041532074622c20646573744950204153206465737449"
    "5074696d656465737449506c656e010000000800000000000000010100000018"
    "00000000000000010000000000000001ffffffffffffffff0100000000000000"
    "0000000002000501000000100000000000000001000000000000000103000000"
    "0c00000002000000026831683201000000100000000000000002000000000000"
    "000102000000104054000000000000409770000000000005000000fc0000007a"
    "0000007a0211756e6172795f7370616365736176696e67080300000007020805"
    "086361706163697479746f74616c636f756e7465727300036400000000000000"
    "0500000000000000400701000000000703000000000702000000000603000000"
    "696e740328000000000000000302000000000000000300000000000000000211"
    "756e6172795f7370616365736176696e67080300000007020805086361706163"
    "697479746f74616c636f756e7465727300036400000000000000050000000000"
    "00f03f0701000000000703000000000702000000000603000000696e7403dc05"
    "0000000000000301000000000000000300000000000000000542f090"
)
#: The same state as the commit before packed summary buffers wrote it:
#: the wide framing, the two ``unary_hh`` buffers in the version-1 (JSON)
#: layout.  Re-framed at the current version (:func:`restamp`), this
#: build refuses them, naming the summaries' version — as it refuses the
#: version-2 buffers of every other fixture above.
GOLDEN_BLOB_V1_SUMMARIES = bytes.fromhex(
    "0200000000000000030000000000000003000000000000000000000002000401"
    "000303000000a70000008a00000004000000060000000353454c454354207462"
    "2041532074622c20646573744950204153206465737449502c20636f756e7428"
    "2a2920415320632c2073756d286c656e2920415320732c20756e6172795f6868"
    "286c656e292041532068682046524f4d205443502047524f5550204259202874"
    "696d65202f203630292041532074622c20646573744950204153206465737449"
    "5074696d656465737449506c656e010000000800000000000000010100000018"
    "00000000000000010000000000000001ffffffffffffffff0100000000000000"
    "0000000002000501000000100000000000000001000000000000000103000000"
    "0c00000002000000026831683201000000100000000000000002000000000000"
    "000102000000104054000000000000409770000000000005000000ce00000062"
    "00000064017b2274797065223a22756e6172795f7370616365736176696e6722"
    "2c227061796c6f6164223a7b226361706163697479223a3130302c22746f7461"
    "6c223a322e302c22636f756e74657273223a5b5b5b22696e74222c34305d2c32"
    "2c305d5d7d7d017b2274797065223a22756e6172795f7370616365736176696e"
    "67222c227061796c6f6164223a7b226361706163697479223a3130302c22746f"
    "74616c223a312e302c22636f756e74657273223a5b5b5b22696e74222c313530"
    "305d2c312c305d5d7d7d519a76b8"
)


#: The header of versions 2 and 3: the current one plus an open-bucket
#: count between the text and slot counts.
_BUCKETED_HEAD = struct.Struct("!BQQQIHBH")


def restamp(blob: bytes) -> bytes:
    """A version-2 or -3 ``blob`` sealed at the current version, less its
    version byte, bucket count, bucket column and CRC32 (the column codec
    reads every version it ever wrote)."""
    _v, *counters, texts, buckets, slots = _BUCKETED_HEAD.unpack_from(blob)
    view = memoryview(blob)
    text_end = read_column(view, _BUCKETED_HEAD.size, texts)[1]
    bucket_end = read_column(view, text_end, buckets)[1]
    return seal(PARTIAL_STATE, b"".join((
        struct.pack("!QQQIHH", *counters, texts, slots),
        view[_BUCKETED_HEAD.size:text_end],
        view[bucket_end:-4],
    )))


def golden_engine(rows=()) -> QueryEngine:
    engine = QueryEngine(
        parse_query(GOLDEN_SQL, default_registry()), GOLDEN_SCHEMA
    )
    engine.insert_many(list(rows))
    return engine


class TestGoldenBytes:
    def test_writer_matches_fixture(self):
        blob = golden_engine(GOLDEN_ROWS).partial_state_bytes()
        if zlib.ZLIB_RUNTIME_VERSION == GOLDEN_ZLIB:  # another picks other streams
            assert blob == GOLDEN_BLOB
        assert unseal(PARTIAL_STATE, blob) == unseal(PARTIAL_STATE, GOLDEN_BLOB)
        # Version 8 stores each counter's item as itself, not as a tagged
        # pair: the summary column inflates to 107 bytes, not 180.
        v7 = unseal(PARTIAL_STATE._replace(version=7), GOLDEN_BLOB_V7)
        assert len(v7) - len(unseal(PARTIAL_STATE, GOLDEN_BLOB)) == 180 - 107
        # Version 7 deflated version 6's body, byte for byte.
        assert v7 == GOLDEN_BLOB_V6[13:]
        assert len(GOLDEN_BLOB_V7) < 0.65 * len(GOLDEN_BLOB_V6)
        # Version 5 was version 3 less its bucket count and column, sealed
        # (the CRC32 covers the body alone), and 85 bytes under version 2.
        assert unseal(PARTIAL_STATE, restamp(GOLDEN_BLOB_V3)) == GOLDEN_BLOB_V5[13:]
        assert len(unseal(PARTIAL_STATE, restamp(GOLDEN_BLOB_V2_WIDE))) - len(
            GOLDEN_BLOB_V5[13:]) == 85
        # Version 6 stores the summary buffers' shared head once.
        assert len(GOLDEN_BLOB_V5) - len(GOLDEN_BLOB_V6) == 66

    def test_fixture_decodes_to_the_source_state(self):
        restored = golden_engine()
        restored.merge_partial(GOLDEN_BLOB)
        source = golden_engine(GOLDEN_ROWS)
        assert restored.tuples_processed == 3
        for engine in (restored, source):
            engine.process((120, "h1", 1))
        assert restored.flush() == source.flush()

    @pytest.mark.parametrize("blob, version", [
        (GOLDEN_BLOB_V5, 5), (GOLDEN_BLOB_V6, 6), (GOLDEN_BLOB_V7, 7),
    ], ids=["v5", "v6", "v7"])
    def test_an_older_sealed_blob_is_refused_naming_its_version(self, blob, version):
        restored = golden_engine()
        for read in (restored.merge_partial, describe_partial_state):
            with pytest.raises(
                MergeError, match=f"unsupported version {version} at offset 4 "
            ):
                read(blob)
        assert untouched(restored)

    @pytest.mark.parametrize("blob, version", [
        (GOLDEN_BLOB_V1_SUMMARIES, 1), (GOLDEN_BLOB_V2_WIDE, 2), (GOLDEN_BLOB_V3, 2),
    ], ids=["v1", "v2-wide", "v3"])
    def test_blob_with_older_summaries_is_refused(self, blob, version):
        restored = golden_engine()
        for read in (restored.merge_partial, describe_partial_state):
            with pytest.raises(MergeError, match=f"summary serde version {version} "):
                read(restamp(blob))
        assert untouched(restored)

    def test_describe_reads_the_fixture(self):
        info = describe_partial_state(GOLDEN_BLOB)
        assert info["version"] == PARTIAL_STATE_VERSION == 8
        assert (info["groups"], info["bytes"]) == (2, len(GOLDEN_BLOB))
        assert info["column_bytes"] == 2 + 6 + 2 + 4 + 107  # inflated
        assert info["slots"] == [1, 1, -1]
        # "h1" / "h2" share a byte, but a head of one byte saves nothing.
        assert info["columns"] == [
            ("i8", 2), ("str/u8", 6), ("i8", 2), ("f64/i16", 4),
            ("bytes/u8+head67", 107),
        ]
        # The summary slot, named from its buffers' heads, with the bytes
        # its column stores (the head once), not the 171 its buffers decode to.
        assert info["summaries"] == [
            {"slot": 2, "type": "unary_spacesaving", "buffers": 2, "bytes": 107}
        ]


# -- exact round trip --------------------------------------------------------------

KEY_PARTS = st.sampled_from(
    [0, 1, True, False, None, -0.0, 0.0, float("nan"), float("inf"),
     float("-inf"), 1 << 70, -(1 << 70), "", "h", "é", ("t", 1), (2, (3,))]
)
STATE_VALUES = st.one_of(
    st.integers(-5, 5),
    st.sampled_from([1 << 70, -(1 << 64), -0.0, float("nan"), float("inf"),
                     float("-inf"), 0.1, 1e308]),
)
ROWS = st.lists(
    st.tuples(
        KEY_PARTS, KEY_PARTS, st.integers(0, 1023),
        st.floats(0.5, 8.0), STATE_VALUES,
    ),
    max_size=24,
)


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(
        calls=st.lists(
            st.sampled_from(sorted(CALLS.values())), min_size=0, max_size=3
        ),
        rows=ROWS,
        group_by=st.sampled_from(["k", "k, k2", ""]),
        two_level=st.booleans(),
    )
    def test_flush_after_merge_partial_equals_the_source(
        self, calls, rows, group_by, two_level
    ):
        assume(calls or group_by)
        stream = [(i + 1, *row) for i, row in enumerate(rows)]
        options = dict(group_by=group_by, two_level=two_level)
        with mock.patch.object(engine_module, "LOW_TABLE_SIZE", 2):
            source = build(calls, **options)
            source.insert_many(stream)
            blob = source.partial_state_bytes()

            restored = build(calls, **options)
            restored.merge_partial(blob)
        # Deterministic bytes: the restored state re-encodes identically.
        assert restored.partial_state_bytes() == blob
        assert restored.tuples_processed == len(stream)
        assert restored.low_evictions == source.low_evictions
        # repr, not ==: NaN states and keys must compare equal to themselves.
        assert repr(restored.flush()) == repr(source.flush())

    @pytest.mark.parametrize("call", sorted(CALLS.values()))
    def test_merge_of_live_engines_matches_merge_partial(self, call):
        stream = [
            (i + 1, f"h{i % 3}", "", i % 7, 1.0 + i % 2, float(i))
            for i in range(40)
        ]
        donor = build([call])
        donor.insert_many(stream)
        via_blob, via_merge = build([call]), build([call])
        via_blob.merge_partial(donor.partial_state_bytes())
        via_merge.merge(donor)
        assert via_merge.partial_state_bytes() == via_blob.partial_state_bytes()
        # The donor keeps ingesting without disturbing the merged copy.
        before = via_merge.partial_state_bytes()
        donor.insert_many([(99, "h0", "", 3, 1.0, 1.0)])
        assert via_merge.partial_state_bytes() == before


class TestFoldOrder:
    def test_fold_partials_equals_merge_all_of_collectors(self):
        """Overlapping groups in every blob — the post-rebalance ADOPT
        case — with float sums and sketches, whose merges are order-
        sensitive: one collector must reproduce the old fold exactly."""
        calls = ["sum(x)", "avg(x)", "fwd_hh(v, w)", "fwd_quantiles(v, w)"]
        donors = [build(calls) for _ in range(4)]
        for i in range(400):
            row = (i + 1, f"h{i % 5}", "", i % 11, 0.1 * (1 + i % 7), 0.1 * i)
            donors[(i * i) % 4].process(row)
        blobs = [donor.partial_state_bytes() for donor in donors]

        collectors = []
        for blob in blobs:
            collector = build(calls)
            collector.merge_partial(blob)
            collectors.append(collector)
        old = merge_all(collectors).flush()

        assert fold_partials(lambda: build(calls), blobs) == old
        assert fold_partials(lambda: build(calls), []) == []


# -- hostile / stale input ---------------------------------------------------------


def crafted(groups, slots, cols, texts=None) -> bytes:
    """A well-sealed current-version buffer with arbitrary structure inside."""
    engine = golden_engine()
    if texts is None:
        texts = [engine.query.sql(), *engine.schema.names()]
    head = struct.pack("!QQQIHH", 0, 0, 0, groups, len(texts), len(slots))
    return seal(
        PARTIAL_STATE,
        head + pack_column(texts) + pack_column(slots) + pack_cols(cols),
    )


#: A well-formed summary buffer (what the ``unary_hh`` slot carries).
HH_BYTES = bytes.fromhex(
    "0411756e6172795f7370616365736176696e6708030000000720080508636170"
    "6163697479746f74616c636f756e746572730003640000000000000005000000"
    "000000f03f070100000000070300000002280100"
)


class TestHostileInput:
    # Every truncation and flipped bit of GOLDEN_BLOB: tests/test_hostile.py.

    @pytest.mark.parametrize("blob", [b'\x01{"version":1}', GOLDEN_BLOB_V2_WIDE,
                                      GOLDEN_BLOB_V3], ids=["v1-json", "v2", "v3"])
    def test_a_blob_from_before_the_envelope_is_refused_by_its_magic(self, blob):
        engine = golden_engine()
        for read in (engine.merge_partial, describe_partial_state):
            with pytest.raises(MergeError, match="bad magic .* at offset 0"):
                read(blob)
        assert untouched(engine)

    @pytest.mark.parametrize(
        "blob",
        [
            crafted(1, [1, 1], [[1], ["h"], [1], [2.0]]),  # an aggregate short
            crafted(1, [1, 1, 1], [[1], ["h"], [1]]),  # columns short
            crafted(2, [1, 1, -1], [[1], ["h"], [1], [2.0], [b"x"]]),  # groups
            crafted(2, [1, 1, -3], [[1, 1], ["h", "i"], [1, 1], [2.0, 2.0],
                                    [b"", b""]]),  # unknown slot code
            crafted(2, [1, 1, -1], [[1, 1], ["h", "h"], [1, 1], [2.0, 2.0],
                                    [b"", b""]]),  # duplicate key
            crafted(1, [1, 1, -1], [[[1]], ["h"], [1], [2.0], [b""]]),  # key
            crafted(1, [1, 1, -1], [[1], ["h"], [1], [2.0], [b"\x01{"]]),
            crafted(1, [1, 1, -1], [[1], ["h"], [1], [2.0], ["str"]]),
            crafted(1, [1, True, -1], [[1], ["h"], [1], [2.0], [b""]]),
            # A slot of the wrong kind for its aggregate: scalars where the
            # sketch belongs, a (valid) summary where the count belongs.
            crafted(1, [1, 1, 1], [[1], ["h"], [1], [2.0], [3]]),
            crafted(1, [-1, 1, -1], [[1], ["h"], [HH_BYTES], [2.0], [HH_BYTES]]),
            crafted(0, [], [], texts=[]),  # no plan at all
        ],
    )
    def test_sealed_but_malformed_buffers_are_rejected_whole(self, blob):
        engine = golden_engine()
        with pytest.raises(MergeError):
            engine.merge_partial(blob)
        assert untouched(engine)

    def test_the_crafting_helper_can_also_build_an_acceptable_buffer(self):
        # Control for the cases above: same helper, right slot kinds.
        engine = golden_engine()
        engine.merge_partial(
            crafted(1, [1, 1, -1], [[1], ["h"], [1], [2.0], [HH_BYTES]])
        )
        assert engine.flush() == [
            {"tb": 1, "destIP": "h", "c": 1, "s": 2.0, "hh": [(40, 1.0, 0.0)]}
        ]
