"""How the ``*.tar.gz`` store directories in this folder were written.

They are what ``repro store upgrade`` has to carry forward, so they were
written by the commits that produced them in the field, not by this one::

    git clone <repo> parent && git -C parent checkout <PR 15 commit>
    PYTHONPATH=parent/src python tests/store/fixtures/make_fixtures.py OUT

* ``store_countsum_pr15`` / ``store_sketch_pr15`` — a :class:`TieredStore`
  directory after the first half of :func:`make_rows`, checkpointed:
  manifest version 2, a ``keys-*.dir`` snapshot, version-2 record segments.
* ``store_sketch_v1buffers_pr15`` — the same with ``to_bytes`` writing the
  version-1 JSON summary buffer: what PR 14 and earlier left on disk.
* ``store_countsum_v1`` — the count/sum store re-expressed the oldest way:
  manifest version 1 (embedded directory) over version-1 JSON segments.

``tests/store/test_upgrade.py`` imports :data:`QUERIES` and
:func:`make_rows` from here; the writing half below runs only under the
parent commit (it uses ``SegmentWriter(version=1)``).
"""

import json
import os
import random
import shutil
import sys
import tarfile

FWD_EXP = "exp((time % 60) * 0.1)"
#: name -> (sql, rows, distinct destinations, hot groups): the stack
#: benchmark's spill_store and sketch_inproc queries.
QUERIES = {
    "countsum": (
        "select destIP, sum(time * time) as c, sum(len * time * time) as s "
        "from TCP group by destIP", 600, 120, 16),
    "sketch": (
        f"select tb, destPort, fwd_hh(destIP, {FWD_EXP}) as hh, "
        f"fwd_quantiles(len, {FWD_EXP}) as q, "
        f"prisamp(srcIP, {FWD_EXP}) as samp, sum({FWD_EXP}) as w "
        "from TCP group by time/60 as tb, destPort", 240, 3, 2),
}
LOW_TABLE_SIZE = 8


def make_rows(n, dests, seed=16):
    """``n`` PACKET_SCHEMA rows; the fixtures hold the first ``n // 2``."""
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        t = 1 + i // 2
        rows.append((t, t + rng.random(), f"10.0.0.{rng.randrange(20)}",
                     f"192.168.{rng.randrange(4)}.{rng.randrange(dests)}",
                     1024 + rng.randrange(100), rng.choice((80, 443, 53)),
                     40 + rng.randrange(1400), "tcp"))
    return rows


def main(out):
    from repro.core import registry
    from repro.core.protocol import StreamSummary
    from repro.dsms.engine import QueryEngine
    from repro.dsms.parser import parse_query
    from repro.dsms.udaf import default_registry
    from repro.store import SegmentReader, SegmentWriter, TieredStore
    from repro.store.directory import KeyDirectory
    from repro.store.segment import canonical_key
    from repro.workloads.netflow import PACKET_SCHEMA

    def json_buffer(summary):
        body = {"type": registry.summary_name_of(type(summary)),
                "payload": summary._state_payload()}
        return b"\x01" + json.dumps(
            body, separators=(",", ":"), allow_nan=False
        ).encode("utf-8")

    packed_to_bytes = StreamSummary.to_bytes
    names = []
    for name, buffers in (("countsum", ""), ("sketch", ""),
                          ("sketch", "_v1buffers")):
        sql, n, dests, hot = QUERIES[name]
        names.append(f"store_{name}{buffers}_pr15")
        d = os.path.join(out, names[-1])
        StreamSummary.to_bytes = json_buffer if buffers else packed_to_bytes
        shutil.rmtree(d, ignore_errors=True)
        store = TieredStore(d, hot_groups=hot, segment_bytes=8 << 10)
        engine = QueryEngine(
            parse_query(sql, default_registry()), PACKET_SCHEMA, store=store,
            low_table_size=LOW_TABLE_SIZE,
        )
        rows = make_rows(n, dests)
        for i in range(0, n // 2, 40):
            engine.insert_many(rows[i:min(i + 40, n // 2)])
        engine.store_checkpoint()
        print(names[-1], store.stats())
        store.close()
        os.unlink(os.path.join(d, "keys.dir"))  # a cache recovery never reads
    StreamSummary.to_bytes = packed_to_bytes

    src = os.path.join(out, "store_countsum_pr15")
    dst = os.path.join(out, "store_countsum_v1")
    names.append("store_countsum_v1")
    shutil.rmtree(dst, ignore_errors=True)
    os.makedirs(os.path.join(dst, "segments"))
    with open(os.path.join(src, "MANIFEST.json")) as handle:
        manifest = json.load(handle)
    snap = KeyDirectory(os.path.join(src, manifest["directory_file"]))
    live = {(seg, off) for _h, seg, off, _l in snap.items()}
    snap.close()
    embedded = {}
    for seg_name in manifest["segments"]:
        reader = SegmentReader(os.path.join(src, "segments", seg_name))
        writer = SegmentWriter(os.path.join(dst, "segments", seg_name), version=1)
        seg_id = int(seg_name.rsplit(".", 1)[0].rsplit("-", 1)[-1])
        for offset, record in reader.iter_records():
            new_off, new_len = writer.append(record["k"], record["s"], record["g"])
            if (seg_id, offset) in live:
                embedded[canonical_key(record["k"])] = [seg_name, new_off, new_len]
        writer.finalize()
    assert len(embedded) == manifest["directory_entries"]
    v1 = {k: v for k, v in manifest.items()
          if k not in ("directory_file", "directory_entries")}
    v1.update(version=1, directory=embedded)
    with open(os.path.join(dst, "MANIFEST.json"), "w") as handle:
        json.dump(v1, handle, separators=(",", ":"))

    for name in names:
        with tarfile.open(os.path.join(out, name + ".tar.gz"), "w:gz") as tar:
            tar.add(os.path.join(out, name), arcname=name)


if __name__ == "__main__":
    main(sys.argv[1])
