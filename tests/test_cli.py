"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.store import SegmentedTraceStore


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_args(self):
        args = build_parser().parse_args(
            ["--preset", "tiny", "simulate", "--out", "/tmp/x"]
        )
        assert args.command == "simulate"
        assert args.preset == "tiny"
        assert args.segments is None  # resolved to --jobs at dispatch
        assert args.resume is False

    def test_experiment_args(self):
        args = build_parser().parse_args(["experiment", "fig1", "table2"])
        assert args.ids == ["fig1", "table2"]

    def test_invalid_preset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--preset", "giant", "characterize"])

    def test_faults_args(self):
        args = build_parser().parse_args(
            ["--preset", "tiny", "faults", "--seed", "7", "--intensities", "0,0.25"]
        )
        assert args.command == "faults"
        assert args.seed == 7
        assert args.intensities == "0,0.25"

    def test_faults_defaults(self):
        args = build_parser().parse_args(["faults"])
        assert args.seed == 0
        assert args.intensities is None
        assert args.model == "gbdt"

    def test_gateway_args(self):
        args = build_parser().parse_args(
            ["--preset", "tiny", "gateway", "--shards", "1,2", "--clients", "5"]
        )
        assert args.command == "gateway"
        assert args.shards == "1,2"
        assert args.clients == 5
        assert args.chaos == 0.25

    def test_gateway_defaults(self):
        args = build_parser().parse_args(["gateway"])
        assert args.shards is None
        assert args.clients == 3
        assert args.batch_size == 64

    def test_serve_replay_chaos_and_checkpoint_args(self):
        args = build_parser().parse_args(
            [
                "serve-replay",
                "--registry",
                "/tmp/r",
                "--chaos",
                "0.25",
                "--chaos-seed",
                "7",
                "--checkpoint-dir",
                "/tmp/ckpt",
                "--checkpoint-every",
                "500",
                "--crash-after",
                "1200",
            ]
        )
        assert args.chaos == 0.25
        assert args.chaos_seed == 7
        assert args.checkpoint_dir == "/tmp/ckpt"
        assert args.checkpoint_every == 500
        assert args.crash_after == 1200
        assert args.resume is False

    def test_serve_replay_chaos_defaults_off(self):
        args = build_parser().parse_args(["serve-replay", "--registry", "/tmp/r"])
        assert args.chaos is None
        assert args.checkpoint_dir is None
        assert args.crash_after is None

    def test_resilience_args(self):
        args = build_parser().parse_args(
            ["resilience", "--intensities", "0,0.25", "--seed", "3"]
        )
        assert args.command == "resilience"
        assert args.seed == 3

    def test_registry_verify_args(self):
        args = build_parser().parse_args(
            ["registry", "verify", "--registry", "/tmp/r", "--name", "twostage"]
        )
        assert args.command == "registry"
        assert args.action == "verify"


class TestMain:
    def test_simulate_writes_trace(self, tmp_path, capsys):
        out = tmp_path / "trace"
        code = main(["--preset", "tiny", "--no-cache", "simulate", "--out", str(out)])
        assert code == 0
        assert SegmentedTraceStore(out).num_segments == 1
        assert "samples" in capsys.readouterr().out

    def test_evaluate_basic(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code = main(
            ["--preset", "tiny", "evaluate", "--split", "DS1", "--model", "basic_a"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "F1=" in out and "basic_a" in out

    def test_experiment_fig1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code = main(["--preset", "tiny", "experiment", "fig1"])
        assert code == 0
        assert "fig1" in capsys.readouterr().out

    def test_faults_sweep(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code = main(
            ["--preset", "tiny", "faults", "--intensities", "0,0.25", "--seed", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "degradation" in out
        assert "baseline" in out


class TestChaosServeCli:
    def test_crash_then_resume_smoke(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        base = [
            "--preset",
            "tiny",
            "serve-replay",
            "--registry",
            str(tmp_path / "registry"),
            "--fast",
            "--batch-size",
            "64",
            "--chaos",
            "0.25",
            "--chaos-seed",
            "7",
            "--checkpoint-dir",
            str(tmp_path / "ckpt"),
            "--checkpoint-every",
            "300",
        ]
        code = main(base + ["--crash-after", "900"])
        captured = capsys.readouterr()
        # The simulated crash is a library error: one line, no traceback.
        assert code == 1
        assert "repro: error: simulated crash" in captured.err
        assert "Traceback" not in captured.err

        code = main(base + ["--resume"])
        captured = capsys.readouterr()
        assert code == 0
        assert "resumed from" in captured.out
        assert "availability" in captured.out

    def test_resume_without_checkpoints_is_one_line_error(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        code = main(
            [
                "--preset",
                "tiny",
                "serve-replay",
                "--registry",
                str(tmp_path / "registry"),
                "--fast",
                "--checkpoint-dir",
                str(tmp_path / "ckpt"),
                "--resume",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "repro: error:" in captured.err
        assert "nothing to resume" in captured.err


class TestErrorHandling:
    """Library failures exit nonzero with one stderr line, no traceback."""

    def test_unknown_experiment_id(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code = main(["--preset", "tiny", "experiment", "nope"])
        assert code == 1
        err = capsys.readouterr().err
        assert "repro: error:" in err
        assert "nope" in err
        assert "Traceback" not in err

    def test_strict_reaches_parallel_experiments(self, tmp_path, capsys, monkeypatch):
        # Under --strict a corrupted cached segment is refused by the
        # store's own check at any --jobs: never healed (re-simulated and
        # quarantined) first and only then reported.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["--preset", "tiny", "experiment", "fig1"]) == 0
        (segment,) = tmp_path.glob("store-*/seg-*.npz")
        damaged = segment.read_bytes()[:-7]
        segment.write_bytes(damaged)
        capsys.readouterr()
        code = main(
            ["--preset", "tiny", "--jobs", "2", "--strict", "experiment", "fig1", "fig3"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("repro: error: checksum mismatch: expected")
        assert "re-simulating" not in err
        assert segment.read_bytes() == damaged
        assert not list(tmp_path.glob("store-*/quarantine"))

    def test_invalid_intensities(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code = main(["--preset", "tiny", "faults", "--intensities", "0,2"])
        assert code == 1
        assert "[0, 1]" in capsys.readouterr().err

    def test_unparseable_intensities(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code = main(["--preset", "tiny", "faults", "--intensities", "a,b"])
        assert code == 1
        assert "invalid" in capsys.readouterr().err
