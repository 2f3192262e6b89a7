"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestDerive:
    def test_named_expression(self, capsys):
        assert main(["derive", "velocity_magnitude",
                     "--grid", "6x6x6"]) == 0
        out = capsys.readouterr().out
        assert "derived 'v_mag'" in out
        assert "Dev-W=3 Dev-R=1 K-Exe=1" in out

    def test_inline_expression(self, capsys):
        assert main(["derive", "a = u + v", "--grid", "4x4x4",
                     "--strategy", "roundtrip"]) == 0
        assert "derived 'a'" in capsys.readouterr().out

    def test_show_kernels(self, capsys):
        assert main(["derive", "a = sqrt(abs(u))", "--grid", "4x4x4",
                     "--show-kernels"]) == 0
        assert "__kernel" in capsys.readouterr().out

    def test_bad_grid(self):
        with pytest.raises(SystemExit):
            main(["derive", "a = u", "--grid", "banana"])

    def test_strategy_choices(self, capsys):
        for strategy in ("staged", "streaming", "multi-device"):
            assert main(["derive", "q_criterion", "--grid", "6x6x8",
                         "--strategy", strategy,
                         "--device", "gpu"]) == 0


class TestPlan:
    def test_failing_case_exits_nonzero(self, capsys):
        code = main(["plan", "q_criterion", "--table1-row", "12",
                     "--device", "gpu", "--strategy", "staged"])
        assert code == 1
        assert "FAILED" in capsys.readouterr().out

    def test_passing_case(self, capsys):
        code = main(["plan", "velocity_magnitude", "--table1-row", "1",
                     "--device", "gpu", "--strategy", "fusion"])
        assert code == 0
        out = capsys.readouterr().out
        assert "modeled runtime" in out
        assert "Dev-W=3" in out

    def test_streaming_plans_what_fusion_cannot_fit(self, capsys):
        """Row 12's q_criterion needs more than the M2050's 3 GiB fused;
        streamed in slabs it plans from shapes alone."""
        row12 = ["plan", "q_criterion", "--table1-row", "12",
                 "--device", "gpu", "--strategy"]
        assert main([*row12, "fusion"]) == 1
        fused = capsys.readouterr().out
        assert "FAILED" in fused and "high-water: 2.531 GiB" in fused
        assert main([*row12, "streaming"]) == 0
        streamed = capsys.readouterr().out
        assert "FAILED" not in streamed
        assert "modeled runtime" in streamed
        assert "K-Exe=4" in streamed

    def test_custom_grid(self, capsys):
        assert main(["plan", "vorticity_magnitude",
                     "--grid", "64x64x64"]) == 0

    def test_inline_expression_rejected(self):
        with pytest.raises(SystemExit):
            main(["plan", "a = u + v"])


class TestRender:
    def test_writes_ppm(self, tmp_path, capsys):
        target = tmp_path / "out.ppm"
        assert main(["render", "velocity_magnitude", "--grid", "8x8x8",
                     "--output", str(target)]) == 0
        data = target.read_bytes()
        assert data.startswith(b"P6\n8 8\n255\n")
        assert len(data) == len(b"P6\n8 8\n255\n") + 8 * 8 * 3


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_repro_error_maps_to_exit_2(self, capsys):
        # an expression referencing a filter that does not exist
        code = main(["derive", "a = frobnicate(u)", "--grid", "4x4x4"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestCheck:
    def test_bit_exact_expression(self, capsys):
        assert main(["check", "q_criterion", "--grid", "4x5x6"]) == 0
        assert "bit-exact" in capsys.readouterr().out

    def test_all_strategies_check_clean(self, capsys):
        for strategy in ("roundtrip", "staged", "fusion"):
            assert main(["check", "vorticity_magnitude",
                         "--grid", "4x4x4", "--strategy", strategy]) == 0


class TestTrace:
    def test_writes_chrome_trace(self, tmp_path, capsys):
        import json
        target = tmp_path / "trace.json"
        assert main(["derive", "velocity_magnitude", "--grid", "4x4x4",
                     "--trace", str(target)]) == 0
        events = json.loads(target.read_text())["traceEvents"]
        device = [e for e in events if e["ph"] == "X" and e["pid"] > 1]
        by_cat = {}
        for e in device:
            by_cat[e["cat"]] = by_cat.get(e["cat"], 0) + 1
        # 3 writes + 1 kernel + 1 read (fusion, Table II).
        assert by_cat == {"dev-write": 3, "kernel": 1, "dev-read": 1}
        host = {e["name"] for e in events
                if e["ph"] == "X" and e["pid"] == 1}
        assert {"engine.compile", "engine.execute", "plan.launch"} <= host

    def test_profile_prints_phase_table(self, tmp_path, capsys):
        assert main(["derive", "velocity_magnitude", "--grid", "4x4x4",
                     "--profile"]) == 0
        out = capsys.readouterr().out
        assert "engine.execute" in out
        assert "device lanes (modeled)" in out
