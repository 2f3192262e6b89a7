"""Tests for sweep records and the paper-style report formatting."""

import pytest

from repro.experiments import (EXPR_SHORT, format_fig_series,
                               format_table1, format_table2, run_case,
                               run_sweep)
from repro.workloads import TABLE1_SUBGRIDS


@pytest.fixture(scope="module")
def mini_sweep():
    """A reduced sweep (2 grids) exercising all formatting paths."""
    return run_sweep(grids=TABLE1_SUBGRIDS[:2])


class TestRunCase:
    def test_case_fields(self):
        case = run_case("velocity_magnitude", TABLE1_SUBGRIDS[0], "cpu",
                        "fusion")
        assert case.n_cells == 9_437_184
        assert not case.failed
        assert case.runtime > 0
        assert (case.dev_writes, case.dev_reads,
                case.kernel_execs) == (3, 1, 1)

    def test_reference_case(self):
        case = run_case("q_criterion", TABLE1_SUBGRIDS[0], "gpu",
                        "reference")
        assert case.executor == "reference"
        assert case.kernel_execs == 1

    def test_failed_case_has_no_runtime(self):
        case = run_case("q_criterion", TABLE1_SUBGRIDS[-1], "gpu",
                        "staged")
        assert case.failed
        assert case.runtime is None


def test_sweep_compiles_each_expression_once():
    """A sweep plans 216 strategy cases over 3 expressions; compiling is
    per expression, not per case."""
    from repro.analysis.vortex import EXPRESSIONS
    from repro.metrics import MetricsRegistry, set_registry
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        run_sweep()
    finally:
        set_registry(previous)
    assert registry.value("repro_engine_compile_total") == len(EXPRESSIONS)


class TestFormatting:
    def test_table1_has_all_rows(self):
        table = format_table1()
        assert table.count("192 x 192") == 12
        assert "113,246,208" in table

    def test_table2_nine_rows(self, mini_sweep):
        table = format_table2(mini_sweep)
        # header + separator + 9 strategy rows (reference excluded)
        assert len(table.splitlines()) == 11
        assert "Reference" not in table

    def test_fig_series_runtime(self, mini_sweep):
        panel = format_fig_series(mini_sweep, metric="runtime",
                                  expression="q_criterion")
        assert "Q-Crit" in panel
        assert "cpu/fusion" in panel and "gpu/roundtrip" in panel
        assert len([l for l in panel.splitlines()
                    if l.strip() and l.lstrip()[0].isdigit()]) == 2

    def test_fig_series_memory_marks_failures(self):
        sweep = run_sweep(grids=TABLE1_SUBGRIDS[-1:])
        panel = format_fig_series(sweep, metric="memory",
                                  expression="q_criterion")
        assert "*" in panel          # failed GPU cases flagged
        assert "3.0 GiB" in panel    # the green line

    def test_runtime_panel_marks_failures(self):
        sweep = run_sweep(grids=TABLE1_SUBGRIDS[-1:])
        panel = format_fig_series(sweep, metric="runtime",
                                  expression="q_criterion")
        assert "FAIL" in panel

    def test_short_names(self):
        assert set(EXPR_SHORT.values()) == {"VelMag", "VortMag", "Q-Crit"}
