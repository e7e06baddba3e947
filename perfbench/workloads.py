"""The four benchmark workloads and their seeded inputs.

A solve workload (``dense-regular``, ``mpc-sublinear``,
``decomposed-grid``) builds one fresh input per operation from
``(seed, index)``, so no input repeats within a run, and its warm-up
inputs have a size the timed operations never use.  ``serve-waves`` sends
a seeded open-loop schedule of request waves to one ``ColoringService``.
"""

from __future__ import annotations

import asyncio
import time
import traceback
from dataclasses import dataclass

import numpy as np

import oracle
from repro.core.instances import (
    BatchedListColoringInstance,
    make_delta_plus_one_instance,
)
from repro.core.list_coloring import solve_list_coloring_congest
from repro.decomposition.decomposed_coloring import solve_list_coloring_polylog
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.mpc.coloring import solve_list_coloring_mpc
from repro.parallel.backend import ProcessBackend
from repro.serving.service import ColoringService

#: Pool size of every backend and service: fixed, not ``os.cpu_count()``,
#: so the same work is measured on any host.
WORKERS = 2

#: Input-seed stride: operation ``i`` of a run with seed ``s`` uses graph
#: seed ``s * SEED_STRIDE + i``.
SEED_STRIDE = 1_000_000


@dataclass
class Case:
    """One input plus the arrays the oracle checks against, copied before
    the program sees the instance."""

    instance: object
    n: int
    eu: np.ndarray
    ev: np.ndarray
    list_offsets: np.ndarray
    list_values: np.ndarray


def make_case(graph: Graph) -> Case:
    eu = np.array(graph.edges_u, dtype=np.int64)
    ev = np.array(graph.edges_v, dtype=np.int64)
    offsets, values = oracle.delta_plus_one_lists(graph.n, eu, ev)
    return Case(make_delta_plus_one_instance(graph), graph.n, eu, ev, offsets, values)


def regular_case(n: int, degree: int, seed: int) -> Case:
    return make_case(gen.random_regular_graph(n, degree, seed=seed))


def relabeled_grid_case(side: int, rng: np.random.Generator) -> Case:
    base = gen.grid_graph(side, side)
    perm = rng.permutation(base.n)
    edges = np.stack([perm[base.edges_u], perm[base.edges_v]], axis=1)
    return make_case(Graph(base.n, edges))


def start_pool(backend: ProcessBackend) -> None:
    """Start the worker processes now.  ``prewarm()`` only builds the
    executor; its processes start on the first submission, so a
    two-signature batch (two shards, instance mode) is solved here."""
    backend.prewarm()
    pair = BatchedListColoringInstance.from_instances(
        [
            make_delta_plus_one_instance(gen.cycle_graph(16)),
            make_delta_plus_one_instance(gen.random_regular_graph(16, 4, seed=1)),
        ]
    )
    backend.solve_batch(pair)


def pass_pairs(passes) -> list:
    return [(p.active_before, p.colored) for p in passes]


# ---------------------------------------------------------------------------
# Solve workloads: one operation is one full solve of a fresh input.
# ---------------------------------------------------------------------------
class SolveWorkload:
    """Base of the closed-loop solve workloads."""

    name = ""
    backend: ProcessBackend | None = None

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        """Build the program objects and run the warm-up operation."""

    def make_input(self, index: int) -> Case:
        raise NotImplementedError

    def solve(self, case: Case):
        raise NotImplementedError

    def check(self, case: Case, result) -> list[str]:
        return oracle.check_coloring(
            case.n, case.eu, case.ev, case.list_offsets, case.list_values, result.colors
        )

    def close(self) -> None:
        if self.backend is not None:
            self.backend.close()


class DenseRegular(SolveWorkload):
    """Serial Theorem 1.1 on random 16-regular graphs, n = 2000."""

    name = "dense-regular"
    N, DEGREE, WARM_N = 2000, 16, 300

    def setup(self) -> None:
        self.solve(regular_case(self.WARM_N, self.DEGREE, self.seed))

    def make_input(self, index: int) -> Case:
        return regular_case(self.N, self.DEGREE, self.seed * SEED_STRIDE + index)

    def solve(self, case: Case):
        return solve_list_coloring_congest(case.instance)

    def check(self, case: Case, result) -> list[str]:
        return super().check(case, result) + oracle.check_passes(
            case.n, pass_pairs(result.passes)
        )


class MPCSublinear(SolveWorkload):
    """Theorem 1.5 (sublinear-memory MPC) on random 8-regular graphs,
    n = 1000, through one reused two-worker process backend."""

    name = "mpc-sublinear"
    N, DEGREE, WARM_N = 1000, 8, 250

    def setup(self) -> None:
        self.backend = ProcessBackend(workers=WORKERS)
        start_pool(self.backend)
        self.solve(regular_case(self.WARM_N, self.DEGREE, self.seed))

    def make_input(self, index: int) -> Case:
        return regular_case(self.N, self.DEGREE, self.seed * SEED_STRIDE + index)

    def solve(self, case: Case):
        return solve_list_coloring_mpc(
            case.instance, regime="sublinear", backend=self.backend
        )

    def check(self, case: Case, result) -> list[str]:
        return super().check(case, result) + oracle.check_passes(
            case.n, pass_pairs(result.passes), avoid_mis=True,
            left_over=result.endgame_nodes,
        )


class DecomposedGrid(SolveWorkload):
    """Corollary 1.2 (network decomposition) on a 100×100 grid whose nodes
    each operation relabels with a fresh seeded permutation."""

    name = "decomposed-grid"
    SIDE, WARM_SIDE = 100, 30

    def setup(self) -> None:
        self.backend = ProcessBackend(workers=WORKERS)
        start_pool(self.backend)
        warm = np.random.default_rng([self.seed, 1 << 30])
        self.solve(relabeled_grid_case(self.WARM_SIDE, warm))

    def make_input(self, index: int) -> Case:
        rng = np.random.default_rng([self.seed, index])
        return relabeled_grid_case(self.SIDE, rng)

    def solve(self, case: Case):
        return solve_list_coloring_polylog(case.instance, backend=self.backend)

    def check(self, case: Case, result) -> list[str]:
        clusters = result.decomposition.clusters
        return super().check(case, result) + oracle.check_decomposition(
            case.n,
            case.eu,
            case.ev,
            [c.nodes for c in clusters],
            [c.color for c in clusters],
        )


# ---------------------------------------------------------------------------
# serve-waves: an open-loop schedule of request bursts against one service.
# ---------------------------------------------------------------------------
@dataclass
class Request:
    wave: int
    case: Case
    key: tuple  #: (Δ, graph seed): equal keys are the same instance
    repeat: bool
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    result: object = None
    error: str | None = None


class ServeWaves:
    """One ``ColoringService(workers=2)`` with default coalescing.

    Every ``PERIOD_MS`` milliseconds a wave of ``PER_DEGREE`` requests per degree in
    ``DEGREES`` is due at once: small random-regular instances, so three
    fusion signatures.  From the second wave on, ``REPEATS`` of each
    degree's requests repeat an instance sent in an earlier wave.  Requests
    go out interleaved by degree in a fixed order, so every wave offers the
    coalescer the same shape.
    """

    name = "serve-waves"
    N, WARM_N = 100, 90
    DEGREES = (4, 8, 12)
    PER_DEGREE, REPEATS = 4, 2
    PERIOD_MS = 800

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.waves = max(1, int(seconds * 1000) // self.PERIOD_MS)
        self.service: ColoringService | None = None

    def schedule(self, waves: int, n: int, seed_base: int) -> list:
        """``waves`` lists of :class:`Request`, built from the seed."""
        rng = np.random.default_rng([self.seed, n])
        sent: dict = {d: [] for d in self.DEGREES}
        next_seed = seed_base
        plan = []
        for wave in range(waves):
            per_degree = []
            for d in self.DEGREES:
                reqs = []
                repeats = self.REPEATS if sent[d] else 0
                for _ in range(self.PER_DEGREE - repeats):
                    case = regular_case(n, d, next_seed)
                    reqs.append(Request(wave, case, (d, next_seed), False))
                    next_seed += 1
                for pick in rng.choice(len(sent[d]), size=repeats, replace=False):
                    old = sent[d][pick]
                    reqs.append(Request(wave, old.case, old.key, True))
                sent[d].extend(r for r in reqs if not r.repeat)
                per_degree.append([reqs[i] for i in rng.permutation(len(reqs))])
            plan.append([r for group in zip(*per_degree) for r in group])
        return plan

    async def setup(self) -> None:
        """Build the schedule's instances and the service, start it, and
        run one warm-up wave of instances the timed waves never send."""
        self.plan = self.schedule(self.waves, self.N, self.seed * SEED_STRIDE)
        warm = self.schedule(1, self.WARM_N, self.seed * SEED_STRIDE)[0]
        self.service = ColoringService(workers=WORKERS)
        self.service.start()
        await asyncio.gather(*(self.service.submit(r.case.instance) for r in warm))
        # Batch records land just after their responses; wait for the
        # warm-up's so the timed phase's records start after them.
        deadline = time.monotonic() + 30.0
        while sum(b["size"] for b in self.service.batch_telemetry) < len(warm):
            if time.monotonic() > deadline:
                raise RuntimeError("warm-up batch records never arrived")
            await asyncio.sleep(0.001)

    async def close(self) -> None:
        if self.service is not None:
            await self.service.close()

    async def _send(self, request: Request) -> None:
        request.sent = time.monotonic()
        try:
            request.result = await self.service.submit(request.case.instance)
        except Exception:  # noqa: BLE001 - counted as a failed request
            request.error = traceback.format_exc()
        request.done = time.monotonic()

    async def run(self, on_wave=None) -> list:
        """Send every wave on schedule; return all requests once each has
        its response.  ``on_wave(index)`` runs just before a wave is due."""
        loop = asyncio.get_running_loop()
        start = loop.time() + 0.05
        tasks = []
        for index, wave in enumerate(self.plan):
            due = start + index * self.PERIOD_MS / 1000
            if on_wave is not None:
                on_wave(index)
            await asyncio.sleep(max(0.0, due - loop.time()))
            for request in wave:
                request.due = due
                tasks.append(loop.create_task(self._send(request)))
        await asyncio.gather(*tasks)
        return [r for wave in self.plan for r in wave]

    def check(self, requests: list) -> list[list[str]]:
        """Per-request oracle problems; the determinism check compares each
        response with one standalone solve per distinct instance."""
        standalone: dict = {}
        problems = []
        for r in requests:
            if r.error is not None:
                problems.append([r.error])
                continue
            case = r.case
            found = oracle.check_coloring(
                case.n, case.eu, case.ev, case.list_offsets, case.list_values,
                r.result.colors,
            )
            found += oracle.check_passes(case.n, pass_pairs(r.result.passes))
            if r.key not in standalone:
                standalone[r.key] = solve_list_coloring_congest(case.instance)
            found += oracle.check_same_result(r.result, standalone[r.key])
            problems.append(found)
        return problems


SOLVE_WORKLOADS = {w.name: w for w in (DenseRegular, MPCSublinear, DecomposedGrid)}
NAMES = tuple(SOLVE_WORKLOADS) + (ServeWaves.name,)
