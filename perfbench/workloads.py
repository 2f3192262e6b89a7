"""The three workloads: in-situ steps, a served request stream, and an
interactive user typing new expressions.

Each workload builds its seeded inputs in ``__init__`` (NumPy only, not
timed), imports and warms the program in :meth:`start`, then runs timed
slices.  Every operation's output is checked; a mismatch counts as a
failed operation.  Checks run outside the timed intervals.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import sys
import time
import traceback

import numpy as np

from inputs import BENCH_GRID, explore_programs, field_set
from tracing import OP_SPAN

__all__ = ["Explore", "Insitu", "Serve", "WORKLOADS"]

# Operations whose exact device counts are averaged into the clsim
# per-op metrics; fixed so the averages depend on the seed alone.
COUNT_OPS = 48


def _counts(report) -> dict:
    return {"clsim.modeled_s": report.timing.total,
            "clsim.mem_high_water_bytes": report.mem_high_water,
            "clsim.kernel_execs": report.counts.kernel_execs,
            "clsim.dev_writes": report.counts.dev_writes,
            "clsim.dev_reads": report.counts.dev_reads}


def _mean_counts(rows: list[dict]) -> dict:
    return {key: float(np.mean([row[key] for row in rows]))
            for key in rows[0]} if rows else {}


class Workload:
    """Shared bookkeeping: attempted/failed counts and latencies by mode."""

    name = ""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies = {"untraced": [], "traced": []}
        self.logged = 0

    def record(self, latency: float, ok: bool, traced: bool) -> None:
        self.attempted += 1
        self.failed += not ok
        self.latencies["traced" if traced else "untraced"].append(latency)

    def log_failure(self) -> None:
        """Print the current exception's traceback to stderr (the first
        few only); the caller counts the failed operation."""
        self.logged += 1
        if self.logged <= 3:
            traceback.print_exc(file=sys.stderr)

    def after_slice(self) -> None:
        """Checks deferred until the slice (and any tracing) ended."""

    def throughput(self) -> float:
        """Closed loop: operations per second of operation wall."""
        latencies = self.latencies["untraced"]
        return len(latencies) / sum(latencies)

    def close(self) -> None:
        pass


class Insitu(Workload):
    """Fig 7: Q-criterion over a 128^3 dataset on 2 ranks, 64^3 blocks.

    One operation is one time step, ``run_distributed`` on the simulated
    GPU with the fusion strategy.  Steps rotate through three seeded
    datasets (together larger than the 105 MiB L3), so no step starts on
    the previous step's input.  Closed loop: one caller, two rank
    threads."""

    name = "insitu"
    N = 128                # cells per axis of the global dataset
    BLOCK = 64             # cells per axis of a block
    DATASETS = 3           # 3 x 48 MiB of velocity: larger than the L3

    def __init__(self, seed: int):
        super().__init__()
        self.dims = (self.N,) * 3
        self.block = (self.BLOCK,) * 3
        self.inputs = [field_set(self.dims, seed, i)
                       for i in range(self.DATASETS)]
        self.steps = 0

    def start(self) -> None:
        from repro.analysis.vortex import Q_CRITERION, q_criterion_reference
        from repro.host.visitsim.dataset import RectilinearDataset
        from repro.par.driver import run_distributed
        self._run = run_distributed
        self._expression = Q_CRITERION
        self.datasets = [
            RectilinearDataset(f["x"], f["y"], f["z"],
                               {"u": f["u"], "v": f["v"], "w": f["w"]})
            for f in self.inputs]
        # The first step on each dataset is checked against the NumPy
        # reference; every later step on it must reproduce it bit for
        # bit, which a digest of the field checks without holding it.
        self.expected = []
        for fields, dataset in zip(self.inputs, self.datasets):
            result = self._step(dataset)
            good = reference_matches(fields, result.field,
                                     q_criterion_reference)
            self.expected.append((_digest(result.field),
                                  self._stats(result), good))
            self.attempted += 1
            self.failed += not good

    def _step(self, dataset):
        return self._run(self._expression, dataset, block_dims=self.block,
                         n_ranks=2)

    @staticmethod
    def _stats(result) -> tuple:
        return tuple((s.kernel_execs, s.dev_writes, s.dev_reads,
                      s.sim_seconds, s.mem_high_water)
                     for s in result.rank_stats)

    def run_slice(self, seconds: float, session=None) -> None:
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            k = self.steps % len(self.datasets)
            self.steps += 1
            start = time.perf_counter()
            try:
                if session is None:
                    result = self._step(self.datasets[k])
                else:
                    with session.tracer.span(OP_SPAN, parent=None):
                        result = self._step(self.datasets[k])
            except Exception:
                self.log_failure()
                self.record(time.perf_counter() - start, False,
                            session is not None)
                continue
            latency = time.perf_counter() - start
            # The check is not part of the slice's budget, so the number
            # of steps a slice holds depends on the steps alone.
            checked = time.perf_counter()
            digest, stats, good = self.expected[k]
            ok = (good and _digest(result.field) == digest
                  and self._stats(result) == stats)
            self.record(latency, ok, session is not None)
            end += time.perf_counter() - checked

    def exact_counts(self) -> dict:
        """Device counts of one step (summed over ranks; peak is the
        largest rank's)."""
        stats = self.expected[0][1]
        return {"clsim.modeled_s": sum(s[3] for s in stats),
                "clsim.mem_high_water_bytes": max(s[4] for s in stats),
                "clsim.kernel_execs": sum(s[0] for s in stats),
                "clsim.dev_writes": sum(s[1] for s in stats),
                "clsim.dev_reads": sum(s[2] for s in stats)}


def _digest(field: np.ndarray) -> bytes:
    return hashlib.sha1(np.ascontiguousarray(field)).digest()


REFERENCE_SLAB = 16      # i-planes per slab of the reference check


def reference_matches(fields: dict, output: np.ndarray, reference) -> bool:
    """Compare a global Q field with the NumPy reference, every cell
    including block seams.

    The reference runs on slabs of ``REFERENCE_SLAB`` i-planes plus one
    halo plane on each interior side, which gives the same central
    differences as the whole grid while holding only a slab's
    temporaries."""
    ni, nj, nk = dims = tuple(int(d) for d in fields["dims"])
    got = output.reshape(dims)
    for i0 in range(0, ni, REFERENCE_SLAB):
        i1 = min(ni, i0 + REFERENCE_SLAB)
        lo, hi = max(0, i0 - 1), min(ni, i1 + 1)
        part = {name: np.ascontiguousarray(
            fields[name].reshape(dims)[lo:hi]).ravel()
            for name in ("u", "v", "w")}
        ref = reference(part["u"], part["v"], part["w"],
                        np.asarray((hi - lo, nj, nk), dtype=np.int32),
                        fields["x"][lo:hi + 1], fields["y"], fields["z"])
        ref = ref.reshape(hi - lo, nj, nk)[i0 - lo:i1 - lo]
        scale = float(np.max(np.abs(ref))) or 1.0
        if not np.allclose(got[i0:i1], ref, rtol=1e-9, atol=1e-9 * scale):
            return False
    return True


class Serve(Workload):
    """An open-loop burst schedule through ``ServiceClient.submit_many``.

    Every 40 ms a burst of six requests is due: two for each of the
    paper's three expressions at 16x16x32, each on its own input set from
    a seeded pool.  One event-loop thread drives the schedule; the
    service runs one ``cpu`` worker with its defaults (compiled fusion,
    ``max_batch=8``).  Latency is timed from the burst's due time to the
    awaiting coroutine resuming.  At 150 requests/s the worker stays
    lightly loaded, so a slow phase of the host does not build a
    backlog."""

    name = "serve"
    PERIOD = 0.040
    PER_EXPRESSION = 2
    POOL = 64

    def __init__(self, seed: int):
        super().__init__()
        self.pool = [field_set(BENCH_GRID, seed, i)
                     for i in range(self.POOL)]
        self.order = np.random.default_rng([seed, 3000])
        self.sent = 0
        self.wall = 0.0            # untraced slices, first due to last
        self.traced_requests: list[dict] = []

    def start(self) -> None:
        from repro.analysis.vortex import EXPRESSIONS
        from repro.host import DerivedFieldEngine
        from repro.service import DerivedFieldService, ServiceClient
        self.expressions = sorted(EXPRESSIONS.items())
        # Each served array, Table II row and memory peak must equal a
        # solo engine's run of the same request.
        solo = DerivedFieldEngine(device="cpu", strategy="fusion")
        self.expected = {}
        for e, (_name, text) in enumerate(self.expressions):
            for i, fields in enumerate(self.pool):
                report = solo.execute(text, fields)
                self.expected[e, i] = (report.output, _counts(report))
        self.service = DerivedFieldService(devices=("cpu",))
        self.client = ServiceClient(self.service)
        self.loop = asyncio.new_event_loop()
        self._slice(0.5, None, warmup=True)

    def _burst(self) -> list[tuple[int, int]]:
        """(expression index, pool index) of each request in a burst."""
        kinds = np.repeat(np.arange(len(self.expressions)),
                          self.PER_EXPRESSION)
        self.order.shuffle(kinds)
        burst = [(int(e), (self.sent + j) % self.POOL)
                 for j, e in enumerate(kinds)]
        self.sent += len(burst)
        return burst

    def run_slice(self, seconds: float, session=None) -> None:
        self._slice(seconds, session)

    def _slice(self, seconds: float, session, warmup: bool = False) -> None:
        start, tasks = self.loop.run_until_complete(
            self._drive(seconds, session, warmup))
        if not warmup and session is None:
            self.wall += max(t.result() for t in tasks) - start

    async def _drive(self, seconds: float, session, warmup: bool):
        start = time.perf_counter() + 0.002
        tasks = []
        for b in range(max(1, round(seconds / self.PERIOD))):
            due = start + b * self.PERIOD
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            burst = self._burst()
            before = len(session.submitted) if session is not None else 0
            futures = self.client.submit_many(
                [(self.expressions[e][1], self.pool[i]) for e, i in burst])
            ids = session.submitted[before:] if session is not None else []
            if len(ids) != len(burst):      # a refused submit: no ids
                ids = [None] * len(burst)
            for future, request, request_id in zip(futures, burst, ids):
                tasks.append(asyncio.ensure_future(self._settle(
                    future, request, due, request_id, session, warmup)))
        await asyncio.gather(*tasks)
        return start, tasks

    async def _settle(self, future, request, due: float, request_id,
                      session, warmup: bool) -> float:
        try:
            report = await future
        except Exception:
            resumed = time.perf_counter()
            self.log_failure()
            ok = False
        else:
            resumed = time.perf_counter()
            output, counts = self.expected[request]
            ok = (np.array_equal(report.output, output)
                  and _counts(report) == counts)
        if warmup:
            self.attempted += 1
            self.failed += not ok
        else:
            self.record(resumed - due, ok, session is not None)
            if session is not None:
                self.traced_requests.append(
                    {"id": request_id, "due": due, "resume": resumed})
        return resumed

    def exact_counts(self) -> dict:
        """Per-request device counts: the mean over the three
        expressions, which every burst mixes equally (served reports
        equal these, as the check on each request asserts)."""
        return _mean_counts([self.expected[e, 0][1]
                             for e in range(len(self.expressions))])

    def throughput(self) -> float:
        return len(self.latencies["untraced"]) / self.wall

    def close(self) -> None:
        self.service.close()
        self.loop.close()


class Explore(Workload):
    """An interactive user typing never-seen expressions.

    One operation is ``DerivedFieldEngine.execute`` of a new program on
    a long-lived engine at 16x16x32: parse, lower, CSE, network
    validation, plan build, sweep codegen and the first launch.  Programs
    come from a seeded grammar-directed generator, one at a time before
    each operation's clock starts, and are pairwise distinct in plan
    structure, so the plan cache almost never hits.
    Closed loop with one caller.

    A session (one engine) lasts ``SESSION`` programs, then the next
    program starts a new engine, untimed.  The engine keeps every
    compiled expression, so a fixed session length keeps peak memory
    independent of how many programs a run gets through."""

    name = "explore"
    WARMUP = 10
    SESSION = 1000
    CHECKER_LIFETIME = 256    # bounds the oracle engine's expression cache

    def __init__(self, seed: int):
        super().__init__()
        self.fields = field_set(BENCH_GRID, seed, 0)
        self.programs = explore_programs(seed)
        self.in_session = 0
        self.pending: list[tuple[str, object]] = []
        self.count_rows: list[dict] = []
        self.checked = 0

    def start(self) -> None:
        from repro.host import DerivedFieldEngine
        self._engine_type = DerivedFieldEngine
        self.engine = DerivedFieldEngine()
        self.checker = None
        for _ in range(self.WARMUP):
            text = next(self.programs)
            self.attempted += 1
            self.failed += not self._check(text, self._execute(text))

    def _execute(self, text: str):
        try:
            return self.engine.execute(text, self.fields)
        except Exception:
            self.log_failure()
            return None

    def run_slice(self, seconds: float, session=None) -> None:
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            if self.in_session == self.SESSION:
                self.engine = self._engine_type()
                gc.collect()          # free the old session's cycles now
                self.in_session = 0
            self.in_session += 1
            text = next(self.programs)
            start = time.perf_counter()
            if session is None:
                report = self._execute(text)
            else:
                with session.tracer.span(OP_SPAN, parent=None):
                    report = self._execute(text)
            latency = time.perf_counter() - start
            if report is not None and len(self.count_rows) < COUNT_OPS:
                self.count_rows.append(_counts(report))
            if session is None:
                # Checked now, outside the operation's time and the
                # slice's budget, so no result is held between
                # operations and memory does not grow with throughput.
                checked = time.perf_counter()
                self.record(latency, self._check(text, report), False)
                end += time.perf_counter() - checked
            else:
                # The oracle's own engine calls must not be traced.
                self.record(latency, True, True)
                self.pending.append((text, report))

    def after_slice(self) -> None:
        for text, report in self.pending:
            self.failed += not self._check(text, report)
        self.pending.clear()

    def _check(self, text: str, report) -> bool:
        """Compare a compiled result with the ``vectorized`` backend."""
        if self.checker is None or \
                self.checked % self.CHECKER_LIFETIME == 0:
            self.checker = self._engine_type(backend="vectorized")
            gc.collect()
        self.checked += 1
        if report is None:
            return False
        try:
            expected = self.checker.execute(text, self.fields).output
        except Exception:
            self.log_failure()
            return False
        return bool(np.allclose(report.output, expected, rtol=1e-12,
                                atol=1e-12))

    def exact_counts(self) -> dict:
        return _mean_counts(self.count_rows)


WORKLOADS = {cls.name: cls for cls in (Insitu, Serve, Explore)}
