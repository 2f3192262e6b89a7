"""End-to-end tests for :class:`DerivedFieldService`.

The service must produce bitwise-identical results to a plain engine,
resolve every admitted request exactly once, expose a JSON-able metrics
snapshot, and shut down cleanly whether draining or cancelling.
"""

import json

import numpy as np
import pytest

from repro.analysis.vortex import EXPRESSION_INPUTS, EXPRESSIONS
from repro.errors import (HostInterfaceError, RequestCancelled,
                          ServiceClosed)
from repro.host.engine import DerivedFieldEngine
from repro.service import DerivedFieldService, RequestStatus
from repro.workloads import SubGrid, make_fields

GRID = SubGrid(6, 6, 8)


@pytest.fixture(scope="module")
def fields():
    return make_fields(GRID, seed=7)


def case_inputs(fields, name):
    return {k: fields[k] for k in EXPRESSION_INPUTS[name]}


class TestCorrectness:
    def test_bitwise_equal_to_engine(self, fields):
        engine = DerivedFieldEngine(device="cpu", strategy="fusion")
        with DerivedFieldService(devices=("cpu",)) as service:
            for name, expression in EXPRESSIONS.items():
                inputs = case_inputs(fields, name)
                expected = engine.derive(expression, inputs)
                got = service.derive(expression, inputs)
                assert got.dtype == expected.dtype
                assert np.array_equal(got, expected), name

    def test_execute_returns_full_report(self, fields):
        with DerivedFieldService(devices=("cpu",)) as service:
            report = service.execute(EXPRESSIONS["velocity_magnitude"],
                                     case_inputs(fields,
                                                 "velocity_magnitude"))
        assert report.output is not None
        assert report.strategy == "fusion"
        assert report.cache is not None
        assert report.timing.total > 0

    def test_repeated_requests_hit_plan_cache(self, fields):
        inputs = case_inputs(fields, "velocity_magnitude")
        with DerivedFieldService(devices=("cpu",)) as service:
            for _ in range(5):
                service.derive(EXPRESSIONS["velocity_magnitude"], inputs)
            snapshot = service.snapshot()
        cache = snapshot["plan_cache"]
        assert cache["lookups"] == 5
        assert cache["hits"] == 4

    def test_malformed_request_rejected_synchronously(self, fields):
        with DerivedFieldService(devices=("cpu",)) as service:
            with pytest.raises(HostInterfaceError):
                service.submit(EXPRESSIONS["q_criterion"],
                               {"u": fields["u"]})
            # a synchronous rejection never counts as admitted work
            assert service.snapshot()["requests"]["submitted"] == 0

    def test_shape_only_request_rejected_synchronously(self, fields):
        from repro.strategies import ArraySpec
        shapes = {k: ArraySpec(fields[k].shape, fields[k].dtype)
                  for k in EXPRESSION_INPUTS["velocity_magnitude"]}
        with DerivedFieldService(devices=("cpu",)) as service:
            with pytest.raises(HostInterfaceError, match=r"plan\(\)"):
                service.submit(EXPRESSIONS["velocity_magnitude"], shapes)
            assert service.snapshot()["requests"]["submitted"] == 0


class TestSnapshot:
    def test_snapshot_is_json_serializable(self, fields):
        with DerivedFieldService(devices=("cpu", "gpu")) as service:
            for name in EXPRESSIONS:
                service.derive(EXPRESSIONS[name],
                               case_inputs(fields, name))
            snapshot = service.snapshot()
        round_tripped = json.loads(json.dumps(snapshot))
        assert round_tripped["requests"]["outcomes"]["served"] == 3
        assert set(round_tripped["devices"]) == {"0:cpu", "1:gpu"}
        for stats in round_tripped["latency"].values():
            assert {"count", "mean_s", "max_s", "p50_s", "p95_s",
                    "p99_s"} <= set(stats)
        assert 0.0 <= round_tripped["plan_cache"]["hit_rate"] <= 1.0

    def test_outcomes_account_for_every_request(self, fields):
        inputs = case_inputs(fields, "velocity_magnitude")
        with DerivedFieldService(devices=("cpu",)) as service:
            handles = [service.submit(EXPRESSIONS["velocity_magnitude"],
                                      inputs) for _ in range(8)]
            for handle in handles:
                handle.result()
            snapshot = service.snapshot()
        requests = snapshot["requests"]
        assert requests["submitted"] == 8
        assert requests["resolved"] == 8
        assert requests["in_flight"] == 0
        assert requests["outcomes"]["served"] == 8


class TestLifecycle:
    def test_cancel_before_dispatch(self, fields):
        inputs = case_inputs(fields, "velocity_magnitude")
        service = DerivedFieldService(devices=("cpu",), start=False)
        try:
            handle = service.submit(EXPRESSIONS["velocity_magnitude"],
                                    inputs)
            handle.cancel()
            service.start()
            with pytest.raises(RequestCancelled):
                handle.result(timeout=5.0)
            assert handle.status is RequestStatus.CANCELLED
            assert service.snapshot()["requests"]["outcomes"][
                "cancelled"] == 1
        finally:
            service.close()

    def test_submit_after_close_raises(self, fields):
        service = DerivedFieldService(devices=("cpu",))
        service.close()
        with pytest.raises(ServiceClosed):
            service.submit(EXPRESSIONS["velocity_magnitude"],
                           case_inputs(fields, "velocity_magnitude"))

    def test_close_without_drain_cancels_queued(self, fields):
        inputs = case_inputs(fields, "velocity_magnitude")
        service = DerivedFieldService(devices=("cpu",), start=False)
        handles = [service.submit(EXPRESSIONS["velocity_magnitude"],
                                  inputs) for _ in range(3)]
        service.close(drain=False)
        for handle in handles:
            assert handle.done()
            assert handle.status is RequestStatus.CANCELLED
            with pytest.raises(RequestCancelled):
                handle.result()

    def test_close_is_idempotent(self):
        service = DerivedFieldService(devices=("cpu",))
        service.close()
        service.close()

    def test_needs_at_least_one_device(self):
        with pytest.raises(ValueError):
            DerivedFieldService(devices=())


class TestCLIServe:
    def test_serve_smoke(self, capsys):
        from repro.cli import main
        assert main(["serve", "--devices", "cpu,gpu", "--clients", "4",
                     "--requests", "40", "--grid", "6x6x8"]) == 0
        out = capsys.readouterr().out
        assert "dropped=0" in out
        assert "plan cache:" in out
        assert "device[0:cpu]" in out
        assert "device[1:gpu]" in out

    def test_serve_json_output(self, tmp_path, capsys):
        from repro.cli import main
        target = tmp_path / "serve.json"
        assert main(["serve", "--requests", "12", "--clients", "2",
                     "--grid", "4x4x6", "--expressions",
                     "velocity_magnitude", "--json", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert payload["load"]["outcomes"]["served"] == 12
        assert payload["metrics"]["requests"]["submitted"] == 12

    def test_serve_rejects_unknown_device(self):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["serve", "--devices", "tpu"])
