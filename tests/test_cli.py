"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["predict"])
        assert args.lps == 50 and args.accuracy == 0.99 and args.success == 0.7

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["warp"])


class TestCommands:
    def test_worker_reports_a_rejected_push(self, capsys, monkeypatch):
        from repro.distributed.worker import ShardWorker
        from repro.exceptions import PushRejected

        def rejected(self, max_shards=None, stop=None):
            raise PushRejected("hash-mismatch", "shard 0 payload hashes elsewhere")

        monkeypatch.setattr(ShardWorker, "run", rejected)
        code = main(["worker", "--coordinator", "http://127.0.0.1:9", "--id", "w0"])
        err = capsys.readouterr().err
        assert code == 1
        assert "push rejected" in err and "coordinator gone" not in err

    def test_predict(self, capsys):
        assert main(["predict", "--lps", "30"]) == 0
        out = capsys.readouterr().out
        assert "stage 1" in out and "dominant stage" in out and "stage1" in out

    def test_predict_offline(self, capsys):
        assert main(["predict", "--lps", "30", "--embedding-mode", "offline"]) == 0
        out = capsys.readouterr().out
        assert "offline" in out

    def test_solve(self, capsys):
        assert main(["solve", "--spins", "5", "--reads", "20", "--cells", "3"]) == 0
        out = capsys.readouterr().out
        assert "best energy" in out and "exact ground" in out

    def test_embed(self, capsys):
        assert main([
            "embed", "--vertices", "8", "--density", "0.3", "--cells", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "physical qubits" in out and "max chain" in out

    def test_fig9(self, capsys):
        assert main(["fig9", "--max-lps", "30"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 9(a)" in out and "Fig. 9(b)" in out

    def test_predict_backend_variants(self, capsys):
        assert main(["predict", "--lps", "30", "--backend", "aspen"]) == 0
        assert "backend=aspen" in capsys.readouterr().out
        assert main(["predict", "--lps", "30", "--backend", "des"]) == 0
        assert "backend=des" in capsys.readouterr().out

    def test_predict_unknown_backend_exits_2(self, capsys):
        assert main(["predict", "--backend", "warp"]) == 2
        assert "unknown backend" in capsys.readouterr().err

    def test_predict_backend_capability_violation_exits_2(self, capsys):
        code = main([
            "predict", "--backend", "aspen", "--embedding-mode", "offline",
        ])
        assert code == 2
        assert "not supported" in capsys.readouterr().err

    def test_fig9_backend_variant(self, capsys):
        assert main(["fig9", "--max-lps", "10", "--backend", "closed_form"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("backend: closed_form")
        assert "Fig. 9(a)" in out
        assert main(["fig9", "--backend", "warp"]) == 2
        assert "unknown backend" in capsys.readouterr().err

    def test_study_backend_axis_flag(self, capsys):
        assert main([
            "study", "--lps", "1:4", "--backend", "closed_form,des", "--no-summary",
        ]) == 0
        assert "evaluated 6 points" in capsys.readouterr().out
        assert main(["study", "--lps", "1:4", "--backend", "warp"]) == 2
        assert "unknown backend" in capsys.readouterr().err
