"""``repro simulate`` into a store, the ``repro store`` subcommands, and
the top-level ``--strict`` flag."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.store import SegmentedTraceStore


@pytest.fixture(scope="module")
def cli_store(tmp_path_factory) -> str:
    """One tiny-preset store built through the CLI itself."""
    root = tmp_path_factory.mktemp("cli") / "store"
    assert (
        main(
            [
                "--preset",
                "tiny",
                "simulate",
                "--out",
                str(root),
                "--segments",
                "4",
            ]
        )
        == 0
    )
    return str(root)


class TestStoreCli:
    def test_simulate_commits_a_manifest(self, cli_store):
        assert SegmentedTraceStore(cli_store).is_committed

    def test_verify_ok_exits_zero(self, cli_store, capsys):
        assert main(["store", "verify", "--store", cli_store]) == 0
        assert "0 broken" in capsys.readouterr().out

    def test_digest_prints_hex(self, cli_store, capsys):
        assert main(["store", "digest", "--store", cli_store]) == 0
        digest = capsys.readouterr().out.strip()
        assert len(digest) == 64
        int(digest, 16)

    def test_inject_verify_recover_cycle(self, cli_store, capsys):
        assert main(["store", "digest", "--store", cli_store]) == 0
        before = capsys.readouterr().out.strip()

        assert (
            main(
                [
                    "store",
                    "inject",
                    "--store",
                    cli_store,
                    "--kind",
                    "bitflip",
                    "--seed",
                    "3",
                ]
            )
            == 0
        )
        assert "bitflip fault" in capsys.readouterr().out
        assert main(["store", "verify", "--store", cli_store]) == 1
        assert "1 broken" in capsys.readouterr().out

        # Strict: typed error, exit 1, no healing.
        assert main(["--strict", "store", "digest", "--store", cli_store]) == 1
        assert "checksum mismatch" in capsys.readouterr().err
        assert main(["store", "verify", "--store", cli_store]) == 1
        capsys.readouterr()

        with pytest.warns(UserWarning, match="re-simulating span"):
            assert main(["store", "recover", "--store", cli_store]) == 0
        assert "recovered" in capsys.readouterr().out
        assert main(["store", "verify", "--store", cli_store]) == 0
        capsys.readouterr()

        assert main(["store", "digest", "--store", cli_store]) == 0
        assert capsys.readouterr().out.strip() == before

    def test_features_reports_shape(self, cli_store, capsys):
        assert main(["store", "features", "--store", cli_store]) == 0
        out = capsys.readouterr().out
        assert "rows x" in out and "4 segment(s)" in out

    def test_crash_hook_exits_nonzero_then_resume_succeeds(
        self, tmp_path, capsys
    ):
        root = tmp_path / "crashy"
        code = main(
            [
                "--preset",
                "tiny",
                "simulate",
                "--out",
                str(root),
                "--segments",
                "4",
                "--crash-after-segments",
                "1",
            ]
        )
        assert code == 1
        assert "simulated crash after 1 segments" in capsys.readouterr().err
        assert not SegmentedTraceStore(root).is_committed
        assert (
            main(
                [
                    "--preset",
                    "tiny",
                    "simulate",
                    "--out",
                    str(root),
                    "--segments",
                    "4",
                    "--resume",
                ]
            )
            == 0
        )
        assert SegmentedTraceStore(root).is_committed
