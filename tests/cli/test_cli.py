"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import re
import zlib

import pytest

from repro.cli import main, read_trace_csv, write_trace_csv
from repro.core.errors import DecayError
from repro.core.serde import PARTIALS_CHECKPOINT_VERSION
from repro.dsms.engine import PARTIAL_STATE_VERSION
from repro.store import MANIFEST_VERSION
from repro.workloads.netflow import PACKET_SCHEMA, generate_trace
from tests.dsms.test_partial_codec import GOLDEN_ZLIB
from tests.store.test_tiered import manifest_tree, sealed_manifest


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "trace.csv"
    assert main([
        "trace", "--duration", "1", "--rate", "500", "--proto", "tcp",
        "--seed", "3", "--out", str(path),
    ]) == 0
    return path


class TestTraceCommand:
    def test_writes_csv(self, trace_file, capsys):
        assert trace_file.exists()
        rows = read_trace_csv(str(trace_file), PACKET_SCHEMA)
        assert len(rows) == 500
        for row in rows[:20]:
            PACKET_SCHEMA.validate_cols([[value] for value in row])

    def test_roundtrip_preserves_rows(self, tmp_path):
        trace = generate_trace(duration_sec=0.5, rate_per_sec=200, seed=9)
        path = tmp_path / "t.csv"
        write_trace_csv(trace, PACKET_SCHEMA, str(path))
        assert read_trace_csv(str(path), PACKET_SCHEMA) == trace

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("not,a,real,header\n1,2,3,4\n")
        with pytest.raises(DecayError):
            read_trace_csv(str(path), PACKET_SCHEMA)


class TestQueryCommand:
    def test_runs_count_query(self, trace_file, capsys):
        code = main([
            "query",
            "select tb, count(*) as c from TCP group by time/60 as tb",
            "--trace", str(trace_file),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "'c': 500" in out

    def test_decayed_query_with_limit(self, trace_file, capsys):
        code = main([
            "query",
            "select tb, destIP, sum(len*(time % 60)*(time % 60))/3600 as s "
            "from TCP group by time/60 as tb, destIP",
            "--trace", str(trace_file),
            "--limit", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("'s':") == 3

    def test_bad_query_reports_error(self, trace_file, capsys):
        code = main([
            "query", "select nonsense(",
            "--trace", str(trace_file),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_a_non_grouped_select_item_is_refused(self, trace_file, capsys):
        code = main([
            "query",
            "select destIP, len*2 as x, count(*) as c from TCP group by destIP",
            "--trace", str(trace_file),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(
            "error: select item 'x' references non-grouped columns ['len']"
        )
        assert captured.out == ""


class TestServeCommand:
    def test_a_non_grouped_select_item_fails_before_binding(self, capsys):
        code = main([
            "serve",
            "select destIP, len*2 as x, count(*) as c from TCP group by destIP",
            "--port", "0", "--run-seconds", "0",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(
            "error: select item 'x' references non-grouped columns ['len']"
        )
        assert "serving on" not in captured.out


class TestClusterVerify:
    """``--verify`` checks the cluster against one engine fed every row and
    flushed once, so a group is one row whatever its first GROUP BY key."""

    @pytest.mark.parametrize(
        "sql",
        [
            "select destIP, count(*) as c, sum(len) as s from TCP "
            "group by destIP",
            "select tb, destIP, count(*) as c, sum(len) as s from TCP "
            "group by time/60 as tb, destIP",
            "select destPort, tb, count(*) as c from TCP "
            "group by destPort, time/60 as tb",
        ],
        ids=["key-first", "bucket-first", "bucket-second"],
    )
    def test_a_right_answer_verifies(self, tmp_path, capsys, sql):
        import json

        code = main([
            "cluster", sql, "--nodes", "2", "--duration", "5",
            "--rate", "200", "--state-dir", str(tmp_path), "--verify",
        ])
        captured = capsys.readouterr()
        assert "DIFFER" not in captured.err
        assert code == 0
        assert json.loads(captured.out)["exact_match"] is True


class TestFigureCommand:
    def test_fig1_is_fast_and_exact(self, capsys):
        assert main(["figure", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "0.25" in out

    def test_fig5_from_file_trace(self, trace_file, capsys):
        code = main(["figure", "fig5", "--trace", str(trace_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "bwd sliding-window HH" in out

    def test_unknown_figure_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])


class TestBenchCommand:
    @pytest.fixture(scope="class")
    def bench_dir(self, tmp_path_factory):
        out_dir = tmp_path_factory.mktemp("bench")
        stats = out_dir / ".repro_stats.json"
        assert main([
            "bench", "smoke", "--out-dir", str(out_dir),
            "--scale", "0.05", "--repeats", "1",
            "--stats-out", str(stats),
        ]) == 0
        return out_dir

    def test_writes_artifact_and_stats(self, bench_dir):
        from repro.bench.artifacts import load_artifact

        artifact = load_artifact(str(bench_dir / "BENCH_smoke.json"))
        assert artifact["name"] == "smoke"
        assert artifact["entries"]
        assert (bench_dir / ".repro_stats.json").exists()

    def test_stats_renders_text(self, bench_dir, capsys):
        assert main([
            "stats", "--in", str(bench_dir / ".repro_stats.json"),
        ]) == 0
        out = capsys.readouterr().out
        assert "decayed rates" in out
        assert "hot keys" in out
        assert "engine.no_decay.ingest.latency_us" in out

    def test_stats_json_reports_required_fields(self, bench_dir, capsys):
        import json

        assert main([
            "stats", "--json", "--in", str(bench_dir / ".repro_stats.json"),
        ]) == 0
        snap = json.loads(capsys.readouterr().out)
        metrics = snap["metrics"]
        rate = metrics["engine.no_decay.ingest.rate"]
        assert rate["per_sec"] > 0
        latency = metrics["engine.no_decay.ingest.latency_us"]
        assert latency["p50"] is not None and latency["p99"] is not None
        hot = metrics["engine.no_decay.hot_keys"]
        assert 1 <= len(hot["top"]) <= 5

    def test_no_stats_flag_skips_snapshot(self, tmp_path):
        assert main([
            "bench", "smoke", "--out-dir", str(tmp_path),
            "--scale", "0.05", "--repeats", "1", "--no-stats",
            "--stats-out", str(tmp_path / "stats.json"),
        ]) == 0
        assert not (tmp_path / "stats.json").exists()

    def test_stats_missing_snapshot_errors(self, tmp_path, capsys):
        assert main(["stats", "--in", str(tmp_path / "absent.json")]) == 2
        assert "no stats snapshot" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["fig2a", "fig4a", "scaling"])
    def test_only_the_smoke_suite_is_accepted(self, suite, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["bench", suite, "--out-dir", str(tmp_path)])
        assert "invalid choice" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestCompareScript:
    def test_compare_cli_gate(self, tmp_path):
        import json
        import pathlib
        import subprocess
        import sys

        repo = pathlib.Path(__file__).resolve().parents[2]
        out_dir = tmp_path
        assert main([
            "bench", "smoke", "--out-dir", str(out_dir),
            "--scale", "0.05", "--repeats", "1", "--no-stats",
        ]) == 0
        artifact_path = out_dir / "BENCH_smoke.json"
        ok = subprocess.run(
            [sys.executable, str(repo / "benchmarks" / "compare.py"),
             str(artifact_path), str(artifact_path)],
            capture_output=True, text=True,
        )
        assert ok.returncode == 0, ok.stderr
        assert "no regressions" in ok.stdout

        worse = json.loads(artifact_path.read_text())
        for name, entry in worse["entries"].items():
            if name.endswith(".relative_cost"):
                entry["value"] *= 10.0
        worse_path = out_dir / "BENCH_worse.json"
        worse_path.write_text(json.dumps(worse))
        bad = subprocess.run(
            [sys.executable, str(repo / "benchmarks" / "compare.py"),
             str(artifact_path), str(worse_path)],
            capture_output=True, text=True,
        )
        assert bad.returncode == 1, bad.stdout
        assert "REGRESSED" in bad.stdout


class TestStoreInspectCommand:
    def _make_store(
        self, tmp_path,
        sql="select tb, destIP, count(*) as c from TCP "
            "group by time/60 as tb, destIP",
    ) -> str:
        from repro.dsms.engine import QueryEngine
        from repro.dsms.parser import parse_query
        from repro.dsms.udaf import default_registry
        from repro.store import TieredStore

        directory = str(tmp_path / "store")
        query = parse_query(sql, default_registry())
        store = TieredStore(directory, hot_groups=4)
        engine = QueryEngine(query, PACKET_SCHEMA, store=store)
        engine.insert_many(generate_trace(
            duration_sec=2.0, rate_per_sec=400, seed=5
        ))
        engine.store_checkpoint()
        assert store.stats()["evictions"] > 0  # spilled pages to inspect
        store.close()
        return directory

    def test_inspect_renders_manifest_and_segments(self, tmp_path, capsys):
        directory = self._make_store(tmp_path)
        assert main(["store", "inspect", directory]) == 0
        out = capsys.readouterr().out
        assert f"manifest: v{MANIFEST_VERSION}" in out
        assert "group(s)" in out
        assert ".seg" in out and "ok" in out

    def test_inspect_reports_pages_rows_and_slot_layout(self, tmp_path, capsys):
        directory = self._make_store(tmp_path)
        assert main(["store", "inspect", directory]) == 0
        out = capsys.readouterr().out
        report_lines = [ln for ln in out.splitlines() if ".seg" in ln]
        assert report_lines and all("v8" in ln for ln in report_lines)
        assert all(
            "pages" in ln and "rows" in ln and "live" in ln
            for ln in report_lines
        )
        assert "B/live row" in out
        assert "B stored," in out and "B of columns inflated" in out
        assert "slots: scalars x1" in out  # count(*) keeps one scalar
        # The destIP keys of a page share "192.168.<n>.": stored once.
        assert "columns, B/row of the first page: i8:1.0 str/u8+head10:" in out

    def test_inspect_json(self, tmp_path, capsys):
        import json

        directory = self._make_store(tmp_path)
        assert main(["store", "inspect", directory, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["manifest"]["version"] == MANIFEST_VERSION
        assert report["manifest"]["groups"] > 0
        assert report["manifest"]["directory_file"].endswith(".dir")
        assert all(s["status"] == "ok" for s in report["segments"])
        assert all(s["format"] == "v8" for s in report["segments"])
        for segment in report["segments"]:
            assert 0 < segment["pages"] <= segment["records"]
            assert segment["layout"] == ["scalars x1"]
            kinds = [kind for kind, _per_row in segment["columns"]]
            assert kinds[0] == kinds[2] == "i8"
            assert re.fullmatch(r"str/u8\+head(8|9|10)", kinds[1]), kinds
            if segment["live"]:
                assert segment["bytes_per_live_row"] == round(
                    segment["bytes"] / segment["live"], 2
                )
        assert sum(s["live"] for s in report["segments"]) == (
            report["manifest"]["groups"]
        )

    def test_inspect_names_a_narrowed_float_column(self, tmp_path, capsys):
        import json
        import os

        from repro.store.segment import SegmentReader

        directory = self._make_store(
            tmp_path,
            "select tb, destIP, sum(len) as s from TCP "
            "group by time/60 as tb, destIP",
        )
        assert main(["store", "inspect", directory]) == 0
        out = capsys.readouterr().out
        assert "columns, B/row of the first page: i8:1.0 str/u8+head10:" in out
        assert " f64/i16:2.0" in out
        assert main(["store", "inspect", directory, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        # Each page takes the width of fewest bytes: i16 while its sums
        # that need i32 cost less as 12-byte patches than 2 more bytes a
        # row, i32 (the wider, on a tie) once a sixth of them do.
        expected = []
        for name in sorted(os.listdir(os.path.join(directory, "segments"))):
            page = next(SegmentReader(
                os.path.join(directory, "segments", name)
            ).iter_pages())
            sums = [states[0][0] for states in page.states()]
            wide = sum(not -(1 << 15) <= total < 1 << 15 for total in sums)
            expected.append("f64/i32" if 12 * wide >= 2 * len(sums) else "f64/i16")
        assert [segment["columns"][-1][0] for segment in report["segments"]] == expected

    def test_inspect_names_summary_types_and_their_bytes(self, tmp_path, capsys):
        import json

        directory = self._make_store(
            tmp_path,
            "select destPort, unary_hh(len) as hh, prisamp(srcIP, len) as samp "
            "from TCP group by destPort",
        )
        assert main(["store", "inspect", directory, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        tallies = [s["summaries"] for s in report["segments"] if s["summaries"]]
        assert tallies
        for tally in tallies:
            assert set(tally) == {"unary_spacesaving", "priority_sampler"}
            assert tally["priority_sampler"]["buffers"] == (
                tally["unary_spacesaving"]["buffers"]
            )
            assert tally["priority_sampler"]["bytes"] > 2_500  # the RNG state
        # Each segment's pages as stored (deflated) beside its columns'
        # inflated bytes, of which each tally counts its own.
        assert [s["column_bytes"] for s in report["segments"]] == [19_320, 7_529]
        if zlib.ZLIB_RUNTIME_VERSION == GOLDEN_ZLIB:  # another picks other streams
            assert [s["page_bytes"] for s in report["segments"]] == [8_433, 4_573]
        for segment in report["segments"]:
            inflated = sum(t["bytes"] for t in segment["summaries"].values())
            assert inflated < segment["column_bytes"]
            assert segment["page_bytes"] < segment["bytes"]
        assert [s["layout"] for s in report["segments"] if s["summaries"]][0] == [
            "summary:unary_spacesaving", "summary:priority_sampler",
        ]
        assert main(["store", "inspect", directory]) == 0
        out = capsys.readouterr().out
        assert "priority_sampler x " in out
        assert "slots: summary:unary_spacesaving | summary:priority_sampler" in out

    @pytest.mark.parametrize(
        "offset, mask, status, detail",
        [
            (30, 0xFF, "corrupt:", "fails its CRC32"),
            # The version byte 8 -> 1, 5, 6 or 7: an older segment, refused
            # by name.
            (4, 0x09, "unsupported:", "unsupported version 1 "),
            (4, 0x0D, "unsupported:", "unsupported version 5 "),
            (4, 0x0E, "unsupported:", "unsupported version 6 "),
            (4, 0x0F, "unsupported:", "unsupported version 7 "),
        ],
        ids=["crc", "older-version", "older-version-5", "older-version-6",
             "older-version-7"],
    )
    def test_inspect_flags_corruption(
        self, tmp_path, capsys, offset, mask, status, detail
    ):
        import os

        directory = self._make_store(tmp_path)
        seg_dir = os.path.join(directory, "segments")
        victim = os.path.join(seg_dir, sorted(os.listdir(seg_dir))[0])
        with open(victim, "r+b") as handle:
            handle.seek(offset)
            byte = handle.read(1)
            handle.seek(offset)
            handle.write(bytes([byte[0] ^ mask]))
        assert main(["store", "inspect", directory]) == 0
        out = capsys.readouterr().out
        # "corrupt:" with the colon — tmp_path itself contains the word
        # "corruption" via the test name, which must not satisfy this.
        assert status in out
        assert detail in out

    @pytest.mark.parametrize(
        "damage, detail",
        [
            (lambda manifest: sealed_manifest([]), "a list, not a dict"),
            (
                lambda manifest: sealed_manifest(
                    {"segments": 5, "directory_file": 7}
                ),
                "field 'query' is None",
            ),
            (
                lambda manifest: sealed_manifest(manifest, version=99),
                "unsupported version 99 at offset 4 ",
            ),
        ],
        ids=["list", "wrong-field-types", "future-version"],
    )
    def test_inspect_refuses_a_manifest_recovery_refuses(
        self, tmp_path, capsys, damage, detail
    ):
        import os

        directory = self._make_store(tmp_path)
        assert main(["store", "inspect", directory]) == 0
        valid = capsys.readouterr()
        path = os.path.join(directory, "MANIFEST.json")
        with open(path, "rb") as handle:
            image = handle.read()
        with open(path, "wb") as handle:
            handle.write(damage(manifest_tree(image)))
        assert main(["store", "inspect", directory]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: ") and detail in line
        # The reader changed nothing: the store reads as it did before.
        with open(path, "wb") as handle:
            handle.write(image)
        assert main(["store", "inspect", directory]) == 0
        assert capsys.readouterr() == valid

    def test_store_has_no_upgrade_command(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["store", "upgrade", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "invalid choice: 'upgrade'" in capsys.readouterr().err

    def test_inspect_missing_directory_errors(self, tmp_path, capsys):
        assert main(["store", "inspect", str(tmp_path / "nope")]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_inspect_uncheckpointed_store(self, tmp_path, capsys):
        directory = str(tmp_path / "empty")
        import os

        os.makedirs(directory)
        assert main(["store", "inspect", directory]) == 0
        out = capsys.readouterr().out
        assert "manifest: none" in out


class TestCheckpointInspectCommand:
    SQL = (
        "select tb, destIP, count(*) as c, sum(len) as s from TCP "
        "group by time/60 as tb, destIP"
    )

    def _make_checkpoint(self, tmp_path, shards: int = 2, sql=SQL) -> str:
        from repro.core.cols import rows_to_cols
        from repro.serve import StreamServer, ThreadedServer, build_backend

        backend = build_backend(
            sql, PACKET_SCHEMA, shards=shards, processes=0
        )
        backend.insert_cols(rows_to_cols(generate_trace(
            duration_sec=2.0, rate_per_sec=400, seed=5
        )))
        server = ThreadedServer(
            StreamServer(backend, state_dir=str(tmp_path / "state"))
        ).start()
        return server.stop()

    def test_inspect_renders_header_blobs_and_columns(self, tmp_path, capsys):
        path = self._make_checkpoint(tmp_path)
        assert main(["checkpoint", "inspect", path]) == 0
        out = capsys.readouterr().out
        assert f"v{PARTIALS_CHECKPOINT_VERSION}, CRC ok" in out
        assert "2 blob(s)" in out and "B/group" in out
        assert "count(*) AS c" in out
        assert f"blob 1: v{PARTIAL_STATE_VERSION}" in out
        # Each column is named by its encoding, with its bytes per row: the
        # integral sums as i16s, and blob 0's one sum beyond i16 as a
        # 12-byte patch (155 rows: 310 + 12 bytes, not 620 as i32s); the
        # destIP keys' shared "192.168." once.
        assert "i8:" in out and "str/u8+head8:" in out
        assert "f64/i16:322 (2.1/row)" in out and "f64/i16:336 (2.0/row)" in out
        assert "(1,513 B of columns inflated)" in out

    def test_inspect_json(self, tmp_path, capsys):
        import json
        import os

        path = self._make_checkpoint(tmp_path)
        assert main(["checkpoint", "inspect", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["version"] == PARTIALS_CHECKPOINT_VERSION == 3
        assert report["bytes"] == os.path.getsize(path)
        assert report["schema"] == PACKET_SCHEMA.names()
        assert report["groups"] == sum(b["groups"] for b in report["blobs"])
        assert report["bytes_per_group"] == report["bytes"] / report["groups"]
        columns = report["blobs"][0]["columns"]
        assert [kind for kind, _size in columns] == [
            "i8", "str/u8+head8", "i8", "f64/i16",
        ]
        assert report["blobs"][0]["columns"][-1] == ["f64/i16", 322]
        # Each blob deflated, beside its columns' inflated bytes.
        assert report["blobs"][0]["column_bytes"] == sum(size for _k, size in columns)
        assert all(b["bytes"] < b["column_bytes"] for b in report["blobs"])

    def test_inspect_names_summary_slots_and_their_bytes(self, tmp_path, capsys):
        import json

        path = self._make_checkpoint(
            tmp_path, shards=1,
            sql="select destPort, count(*) as c, unary_hh(len) as hh from TCP "
                "group by destPort",
        )
        assert main(["checkpoint", "inspect", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        (blob,) = report["blobs"]
        (slot,) = blob["summaries"]
        assert (slot["slot"], slot["type"]) == (1, "unary_spacesaving")
        assert slot["buffers"] == blob["groups"]
        assert report["summary_bytes"] == slot["bytes"]
        # The blob as stored (deflated) beside its columns' inflated bytes,
        # most of them the slot's.
        assert blob["column_bytes"] == 3_194
        if zlib.ZLIB_RUNTIME_VERSION == GOLDEN_ZLIB:  # another picks other streams
            assert blob["bytes"] == 1_213
        assert blob["bytes"] < report["bytes"]
        assert 0.5 * blob["column_bytes"] < slot["bytes"] < blob["column_bytes"]
        # The bytes the slot's column takes in the file: its buffers'
        # shared head is counted once.
        name, size = blob["columns"][-1]
        assert re.fullmatch(r"bytes/u(8|16|32)\+head\d+", name), name
        assert slot["bytes"] == size
        assert main(["checkpoint", "inspect", path]) == 0
        out = capsys.readouterr().out
        assert f"{slot['bytes']:,} in summary buffers" in out
        assert "slot 1: unary_spacesaving x " in out

    def test_inspect_flags_corruption_with_an_offset(self, tmp_path, capsys):
        path = self._make_checkpoint(tmp_path)
        with open(path, "r+b") as handle:
            handle.seek(100)
            byte = handle.read(1)
            handle.seek(100)
            handle.write(bytes([byte[0] ^ 0xFF]))
        assert main(["checkpoint", "inspect", path]) == 2
        err = capsys.readouterr().err
        assert path in err and "fails its CRC32 at offset" in err

    def test_inspect_missing_file_errors(self, tmp_path, capsys):
        assert main(["checkpoint", "inspect", str(tmp_path / "nope")]) == 2
        assert "nope" in capsys.readouterr().err
