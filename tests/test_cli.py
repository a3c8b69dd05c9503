"""Tests for repro.cli — the full pipeline driven through the CLI."""

import json
import os
import signal
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.text.normalizer import MAX_QUERY_TOKENS


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {repro.__version__}" in capsys.readouterr().out


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Run the pipeline once: taxonomy -> log -> model."""
    root = tmp_path_factory.mktemp("cli")
    taxonomy = root / "taxonomy.tsv.gz"
    log = root / "log.jsonl.gz"
    heldout = root / "heldout.jsonl.gz"
    model = root / "model"
    assert main(["taxonomy-build", "--out", str(taxonomy)]) == 0
    assert (
        main(
            [
                "log-generate",
                "--taxonomy", str(taxonomy),
                "--out", str(log),
                "--intents", "800",
                "--seed", "7",
                "--no-gold",
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "log-generate",
                "--taxonomy", str(taxonomy),
                "--out", str(heldout),
                "--intents", "300",
                "--seed", "99",
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "train",
                "--log", str(log),
                "--taxonomy", str(taxonomy),
                "--out", str(model),
            ]
        )
        == 0
    )
    return {"taxonomy": taxonomy, "log": log, "heldout": heldout, "model": model}


class TestPipelineCommands:
    def test_artifacts_exist(self, workspace):
        assert workspace["taxonomy"].exists()
        assert workspace["log"].exists()
        assert (workspace["model"] / "manifest.json").exists()

    def test_detect_human_readable(self, workspace, capsys):
        code = main(
            ["detect", "--model", str(workspace["model"]), "popular iphone 5s smart cover"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "head" in out
        assert "smart cover" in out

    def test_detect_json(self, workspace, capsys):
        code = main(
            [
                "detect",
                "--model", str(workspace["model"]),
                "--json",
                "cheap hotels in rome",
                "2013 movies",
            ]
        )
        out_lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert len(out_lines) == 2
        first = json.loads(out_lines[0])
        assert first["head"] == "hotels"
        assert "rome" in first["constraints"]

    def test_detect_from_input_file(self, workspace, capsys, tmp_path):
        queries = tmp_path / "queries.txt"
        queries.write_text("iphone 5s smart cover\n\nrome hotels\n")
        code = main(
            [
                "detect",
                "--model", str(workspace["model"]),
                "--json",
                "--input", str(queries),
            ]
        )
        out_lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert len(out_lines) == 2

    def test_detect_no_queries_is_error(self, workspace, capsys):
        code = main(["detect", "--model", str(workspace["model"])])
        assert code == 2
        assert "no queries" in capsys.readouterr().err

    def test_detect_query_over_token_cap_is_error(self, workspace, capsys):
        over = " ".join(["hotels"] * (MAX_QUERY_TOKENS + 1))
        code = main(
            ["detect", "--model", str(workspace["model"]), "cheap hotels", over]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"error: query has {MAX_QUERY_TOKENS + 1} tokens, over the limit "
            f"of {MAX_QUERY_TOKENS} (MAX_QUERY_TOKENS)\n"
        )

    def test_detect_explain(self, workspace, capsys):
        code = main(
            [
                "detect",
                "--model", str(workspace["model"]),
                "--explain",
                "iphone 5s smart cover",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "head candidates:" in out
        assert "winning evidence:" in out

    def test_detect_with_spelling(self, workspace, capsys):
        code = main(
            [
                "detect",
                "--model", str(workspace["model"]),
                "--spell", "--json",
                "ihpone 5s smart cvoer",
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["head"] == "smart cover"

    def test_evaluate(self, workspace, capsys):
        code = main(
            [
                "evaluate",
                "--model", str(workspace["model"]),
                "--log", str(workspace["heldout"]),
                "--max-examples", "300",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "head accuracy" in out
        assert "constraint accuracy" in out

    def test_evaluate_unlabelled_log_errors(self, workspace, capsys):
        code = main(
            [
                "evaluate",
                "--model", str(workspace["model"]),
                "--log", str(workspace["log"]),  # written with --no-gold
            ]
        )
        assert code == 2
        assert "no labelled" in capsys.readouterr().err

    def test_evaluate_show_errors(self, workspace, capsys):
        code = main(
            [
                "evaluate",
                "--model", str(workspace["model"]),
                "--log", str(workspace["heldout"]),
                "--max-examples", "200",
                "--show-errors", "5",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "head errors" in out or "no head errors" in out

    def test_rewrite(self, workspace, capsys):
        code = main(
            ["rewrite", "--model", str(workspace["model"]), "best rome hotels"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "relax[0]: best rome hotels" in out
        assert "rome hotels" in out

    def test_similar(self, workspace, capsys):
        code = main(
            [
                "similar",
                "--model", str(workspace["model"]),
                "iphone 5s case",
                "case for iphone 5s",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "same intent" in out

    def test_similar_conflict(self, workspace, capsys):
        code = main(
            [
                "similar",
                "--model", str(workspace["model"]),
                "iphone 5s case",
                "galaxy s4 case",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "different intent" in out

    def test_patterns(self, workspace, capsys):
        code = main(["patterns", "--model", str(workspace["model"]), "--top", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "modifier concept" in out
        assert len(out.strip().splitlines()) <= 5 + 4  # rows + header/title

    def test_missing_file_is_error_not_traceback(self, tmp_path, capsys):
        code = main(
            [
                "train",
                "--log", str(tmp_path / "nope.jsonl"),
                "--taxonomy", str(tmp_path / "nope.tsv"),
                "--out", str(tmp_path / "m"),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


@pytest.fixture(scope="module")
def snapshot(workspace, tmp_path_factory):
    path = tmp_path_factory.mktemp("snap") / "model.hdms"
    assert (
        main(["snapshot", "--model", str(workspace["model"]), "--out", str(path)]) == 0
    )
    return path


class TestSnapshotCommands:
    def test_snapshot_writes_file_and_summary(self, workspace, snapshot, capsys):
        assert snapshot.exists() and snapshot.stat().st_size > 0
        # overwriting is fine (atomic replace); the summary names the model
        code = main(
            ["snapshot", "--model", str(workspace["model"]), "--out", str(snapshot)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "phrases" in out and "speller: no" in out

    def test_info_without_log_statistics(self, snapshot, capsys):
        # A model directory carries no click log, so neither does its snapshot.
        assert main(["snapshot", "--info", str(snapshot)]) == 0
        assert "  log statistics: none\n" in capsys.readouterr().out

    def test_info_counts_log_statistics(self, model, tmp_path, capsys):
        path = tmp_path / "with-log.hdms"
        compiled = model.compile()
        compiled.save_snapshot(path)
        stats = compiled._constraint_tables.statistics
        edges = stats.edges
        terms = len(stats.document_frequencies)
        assert len(edges) > len(edges.queries) > 0
        assert main(["snapshot", "--info", str(path)]) == 0
        assert (
            f"  log statistics: {len(edges.queries)} queries, {len(edges)} drop "
            f"edges, {terms} terms\n"
        ) in capsys.readouterr().out

    def test_detect_from_snapshot_matches_model(self, workspace, snapshot, capsys):
        query = "cheap hotels in rome"
        assert main(["detect", "--snapshot", str(snapshot), "--json", query]) == 0
        from_snapshot = json.loads(capsys.readouterr().out)
        assert main(["detect", "--model", str(workspace["model"]), "--json", query]) == 0
        from_model = json.loads(capsys.readouterr().out)
        assert from_snapshot == from_model

    def test_detect_from_snapshot_with_batch(self, snapshot, capsys):
        # Every query list goes through one detect_batch call; a repeated
        # query gets the same answer.
        code = main(
            [
                "detect",
                "--snapshot", str(snapshot),
                "--json",
                "cheap hotels in rome",
                "iphone 5s smart cover",
                "cheap hotels in rome",
            ]
        )
        out_lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert len(out_lines) == 3
        assert json.loads(out_lines[0]) == json.loads(out_lines[2])

    def test_detect_needs_exactly_one_source(self, workspace, snapshot, capsys):
        assert main(["detect", "q"]) == 2
        assert "exactly one of" in capsys.readouterr().err
        code = main(
            [
                "detect",
                "--model", str(workspace["model"]),
                "--snapshot", str(snapshot),
                "q",
            ]
        )
        assert code == 2
        assert "exactly one of" in capsys.readouterr().err

    def test_spell_requires_speller_in_snapshot(self, snapshot, capsys):
        code = main(["detect", "--snapshot", str(snapshot), "--spell", "q"])
        assert code == 2
        assert "without a speller" in capsys.readouterr().err

    def test_snapshot_with_speller_corrects_typos(self, workspace, tmp_path, capsys):
        path = tmp_path / "spelled.hdms"
        code = main(
            [
                "snapshot",
                "--model", str(workspace["model"]),
                "--out", str(path),
                "--spell",
            ]
        )
        assert code == 0
        assert "speller: yes" in capsys.readouterr().out
        code = main(
            [
                "detect",
                "--snapshot", str(path),
                "--spell", "--json",
                "ihpone 5s smart cvoer",
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["head"] == "smart cover"

    def test_corrupt_snapshot_is_error_not_traceback(self, tmp_path, capsys):
        bad = tmp_path / "bad.hdms"
        bad.write_bytes(b"scrambled bytes")
        assert main(["detect", "--snapshot", str(bad), "q"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_detect_stats_prints_cache_counters(self, snapshot, capsys):
        code = main(
            [
                "detect",
                "--snapshot", str(snapshot),
                "--stats",
                "zzqx glorp widget",
                "zzqx glorp widget",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "runtime cache stats:" in captured.err
        assert "readings:" in captured.err
        assert "hit_rate=" in captured.err
        assert "zzqx" in captured.out  # detections still printed

    def test_detect_stats_requires_snapshot(self, workspace, capsys):
        code = main(["detect", "--model", str(workspace["model"]), "--stats", "q"])
        assert code == 2
        assert "--stats" in capsys.readouterr().err


class TestServeCommand:
    def test_serve_needs_exactly_one_source(self, capsys):
        assert main(["serve"]) == 2
        assert "exactly one of" in capsys.readouterr().err

    def test_serve_has_no_replicas_flag(self, snapshot, capsys):
        """Multi-process serving is `repro route`; `serve` is one process."""
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--snapshot", str(snapshot), "--replicas", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --replicas 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["route"])
    @pytest.mark.parametrize("replicas", ["0", "-1"])
    def test_nonpositive_replicas_rejected(self, snapshot, capsys, command, replicas):
        code = main(
            [command, "--snapshot", str(snapshot), "--replicas", replicas]
        )
        assert code == 2
        assert "need at least one replica" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["serve", "route"])
    def test_bad_serving_flag_is_clean_error(self, snapshot, capsys, command):
        """Rejected before any detector loads or replica spawns."""
        code = main(
            [command, "--snapshot", str(snapshot), "--max-batch-size", "0"]
        )
        assert code == 2
        assert "error: max_batch_size must be positive" in capsys.readouterr().err

    def test_serve_spell_requires_speller_in_snapshot(self, snapshot, capsys):
        code = main(["serve", "--snapshot", str(snapshot), "--spell"])
        assert code == 2
        assert "without a speller" in capsys.readouterr().err

    def test_serve_end_to_end(self, snapshot):
        """Real server process: start, POST a query, drain on SIGTERM."""
        env = dict(os.environ)
        src = str(Path(repro.__file__).parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli",
                "serve", "--snapshot", str(snapshot), "--port", "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        try:
            ready = process.stdout.readline()  # "serving on http://host:port"
            assert "serving on http://" in ready, ready
            port = int(ready.rsplit(":", 1)[1])
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/detect",
                data=json.dumps({"query": "cheap hotels in rome"}).encode(),
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                payload = json.loads(response.read())
            assert payload["head"] == "hotels"
            assert "rome" in payload["constraints"]
            process.send_signal(signal.SIGTERM)
            out, _ = process.communicate(timeout=30)
            assert process.returncode == 0
            assert "server drained and stopped" in out
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup on failure
                process.kill()
                process.communicate()


class TestCorpusBuildPath:
    def test_taxonomy_from_corpus(self, tmp_path, capsys):
        out = tmp_path / "tax.tsv.gz"
        code = main(
            [
                "taxonomy-build",
                "--out", str(out),
                "--from-corpus",
                "--sentences", "60",
                "--seed", "3",
            ]
        )
        assert code == 0
        assert out.exists()
        assert "instances" in capsys.readouterr().out
