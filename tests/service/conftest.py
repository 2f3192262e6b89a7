"""Service-suite fixtures: every test must shut down what it starts."""

import threading

import pytest

SERVICE_THREAD_PREFIXES = ("repro-worker-", "repro-dispatcher")


def service_threads() -> "set[threading.Thread]":
    return {thread for thread in threading.enumerate()
            if thread.name.startswith(SERVICE_THREAD_PREFIXES)}


@pytest.fixture(autouse=True)
def no_leaked_service_threads():
    """Fail a test whose service threads outlive it: a service that is
    never closed keeps its workers blocked on the admission queue."""
    before = service_threads()
    yield
    leaked = sorted(thread.name for thread in service_threads() - before)
    assert not leaked, f"service threads outlived the test: {leaked}"


@pytest.fixture
def hold_engine():
    """``hold(engine)`` makes ``engine.execute_batch`` block until the
    returned gate opens; the returned ``entered`` event is set once a
    launch is being held.  Every gate opens at teardown."""
    gates = []

    def hold(engine):
        entered, gate = threading.Event(), threading.Event()
        launch = engine.execute_batch

        def held(prepared_list):
            entered.set()
            gate.wait(30.0)
            return launch(prepared_list)

        engine.execute_batch = held
        gates.append(gate)
        return entered, gate

    yield hold
    for gate in gates:
        gate.set()
