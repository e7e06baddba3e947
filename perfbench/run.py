"""Benchmark command: one workload, one seed, one run.

    python3 perfbench/run.py --workload dense-regular --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  With ``--trace 0`` the run measures the end-to-end
metrics with no tracing; with ``--trace 1`` it reports the per-layer
metrics, tracing every other operation (every other wave on
``serve-waves``) so the traced-minus-untraced latency gives the tracing
overhead, and writes a record under ``perfbench/records/``.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import ctypes
import json
import multiprocessing
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from collections import Counter
from contextlib import ExitStack, nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Cold set-ups per run before and after the timed phase; ``setup_s`` is
#: the median of these and the run's own set-up.  The host's speed drifts
#: over tens of seconds, so set-ups taken on both sides of the timed phase
#: see the same stretch of it that the operations do.
SETUPS_BEFORE = SETUPS_AFTER = 2
#: A cold set-up that has not reported by then fails the run.
SETUP_TIMEOUT_S = 120

#: (module, qualname, span, group) of every traced layer entry point.  A
#: span named after a per-layer ``*_s`` metric reports its self time.
SPANS = [
    ("repro.core.potential", "SeedSweepWorkspace.__init__", "sweep.workspace_s", None),
    ("repro.core.potential", "SweepCountKernel.count_rows", "sweep.count_s", None),
    ("repro.core.potential", "SeedSweepWorkspace.weight_rows", "sweep.weight_s", None),
    ("repro.core.potential", "exact_by_sigma_grouped", "sweep.sigma_s", None),
    ("repro.core.derandomize", "fix_bits_greedily_many", "sweep.fix_bits_s", None),
    ("repro.core.derandomize", "derandomize_phase_group", "phase", None),
    ("repro.core.list_ops", "prune_lists_after_coloring", "lists.prune_s", None),
    ("repro.core.list_ops", "prune_lists_against_colored", "lists.prune_s", None),
    ("repro.core.validation", "verify_proper_list_coloring", "lists.verify_s", None),
    ("repro.graphs.graph", "Graph.bfs_tree", "graph.bfs_s", None),
    ("repro.graphs.graph", "Graph.bfs_levels", "graph.bfs_s", None),
    ("repro.graphs.graph", "Graph.connected_components", "graph.bfs_s", None),
    ("repro.graphs.graph", "Graph.induced_subgraph", "graph.induced_s", None),
    ("repro.decomposition.rozhon_ghaffari", "decompose", "decomp.carve_s", None),
    ("repro.decomposition.network_decomposition", "NetworkDecomposition.validate", "decomp.validate_s", None),
    ("repro.substrates.linial", "linial_coloring", "substrates.linial_s", None),
    ("repro.substrates.mis", "mis_bounded_degree", "substrates.mis_s", None),
    ("repro.mpc.machine", "MPCEngine.exchange", "mpc.exchange_s", None),
    ("repro.mpc.primitives", "mpc_sort", "mpc.sort_s", None),
    ("repro.parallel.backend", "ProcessBackend.solve_batch", "solve_batch", "dispatch"),
    ("repro.parallel.backend", "ProcessBackend.solve_batch_iter[iter]", "solve_batch_iter", "dispatch"),
    ("repro.parallel.backend", "ProcessBackend.partial_pass_batch", "partial_pass_batch", "dispatch"),
    ("repro.serving.service", "ColoringService._solve_group", "solve_group", None),
]
SELF_TIME_METRICS = sorted({span for _, _, span, _ in SPANS if span.endswith("_s")})

#: RoundLedger categories, with per-class suffixes (``class_3``) folded.
ROUND_CATEGORIES = (
    "linial", "bfs_tree", "exchange", "seed_fixing", "mis", "list_update",
    "preprocessing", "aggregation_trees", "maintenance", "edge_payloads",
    "passes", "data_plane", "endgame", "carve_color", "class",
)


def import_program():
    """Put the checkout's ``src`` first on the path and import the program
    and the benchmark modules; exit with an error when the checkout has no program."""
    sys.path[:0] = [SRC, HERE]
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"cannot import the program from {SRC}: {exc}")
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"repro was imported from {repro.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# Process accounting
# ---------------------------------------------------------------------------
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def worker_pids() -> list:
    return [p.pid for p in multiprocessing.active_children()]


def cpu_seconds() -> float:
    """User + system CPU of this process (all threads) and of its live
    multiprocessing children, read from ``/proc/<pid>/stat``."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    total = usage.ru_utime + usage.ru_stime
    for pid in worker_pids():
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += (int(fields[11]) + int(fields[12])) / CLOCK_TICKS
    return total


def worker_peak_rss_mb() -> float:
    peak = 0
    for pid in worker_pids():
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
        except OSError:
            continue
    return peak / 1024.0


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ColdSetups:
    """Cold set-ups on demand, at any point of a run.

    A process forked just after import waits for requests; for each it
    forks a child that calls ``setup()`` -- set up, close what it set up,
    return the seconds the set-up took -- and passes the seconds back.  So
    every set-up starts from the same post-import state: none finds the
    program's per-process caches (GF(2^m) tables, memoized helpers, lazily
    imported modules) filled by another, whenever it runs.  The set-up
    processes form their own process group, which :meth:`close` ends."""

    def __init__(self, setup):
        self._conn, theirs = multiprocessing.Pipe()
        self.pid = os.fork()
        if self.pid == 0:
            self._conn.close()
            self._serve(setup, theirs)
        theirs.close()

    @staticmethod
    def _serve(setup, conn) -> None:
        try:
            os.setpgid(0, 0)
            while conn.recv():
                child = os.fork()
                if child == 0:
                    try:
                        seconds = setup()
                        conn.send(seconds if wait_for_workers() else "pool outlived it")
                    except BaseException:  # noqa: BLE001 - reported to the run
                        conn.send(traceback.format_exc())
                    os._exit(0)
                os.waitpid(child, 0)
        finally:
            os._exit(0)

    def measure(self, count: int) -> list:
        """Seconds of ``count`` cold set-ups, one after another."""
        seconds = []
        for _ in range(count):
            self._conn.send(True)
            got = self._conn.recv() if self._conn.poll(SETUP_TIMEOUT_S) else "timed out"
            if not isinstance(got, float):
                raise RuntimeError(f"a cold set-up failed: {got}")
            seconds.append(got)
        return seconds

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        if exc[0] is not None:
            try:
                os.killpg(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self._conn.close()
        os.waitpid(self.pid, 0)


PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the parent of every descendant whose own parent
    ends first, so :func:`reap_descendants` can wait for it.  The
    program's ``resource_tracker`` processes are such descendants: a pool
    worker or a cold set-up starts one and ends before it does."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        errno = ctypes.get_errno()
        raise OSError(errno, f"prctl(PR_SET_CHILD_SUBREAPER): {os.strerror(errno)}")


def child_pids() -> list:
    """Pids of the live processes whose parent is this one."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def reap_descendants(timeout: float = 30.0) -> bool:
    """Stop this process's resource tracker and wait until every child,
    adopted ones included, has ended; kill those left after ``timeout``
    seconds.  True when none had to be killed."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if tracker._fd is not None:
        # A tracker ends once no process holds its pipe open.
        os.close(tracker._fd)
        tracker._fd = tracker._pid = None
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if os.waitpid(-1, os.WNOHANG)[0] == 0:
                time.sleep(0.02)
        except ChildProcessError:
            return True
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return False


def wait_for_workers(timeout: float = 30.0) -> bool:
    """True once every child process has ended (joined)."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


# ---------------------------------------------------------------------------
# Metric assembly
# ---------------------------------------------------------------------------
def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values):
    """The highest percentile with at least ten samples beyond it, as
    ``(percentile, value)``; ``None`` below forty samples."""
    if len(values) < 40:
        return None
    ordered = sorted(values)
    n = len(ordered)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def make_tracer():
    from tracing import Tracer

    targets = []
    for module, qualname, span, group in SPANS:
        counter = COUNTERS.get(span)
        targets.append((module, qualname, span, group, counter))
    return Tracer(targets)


def _count_rows(tracer, args, result, began):
    rows = len(args[1])
    tracer.add("seed_rows", rows)
    tracer.add("count_cells", rows * args[0].count_width)


def _weight_rows(tracer, args, result, began):
    workspace, counts = args[0], args[1]
    columns = int(workspace.bounds[-1]) if workspace.live else 0
    tracer.add("weight_cells", len(counts) * columns)


def _solve_group(tracer, args, result, began):
    tracer.events.append(("batch", began, [r.enqueued_at for r in args[1]]))


def _dispatch(tracer, args, result, began):
    # The first traced dispatch names the backend and where its telemetry
    # stood; the service builds its backend internally.
    if not any(kind == "backend" for kind, *_ in tracer.events):
        backend = args[0]
        tracer.events.append(
            ("backend", backend, len(backend.telemetry), len(backend.sweep_telemetry))
        )


COUNTERS = {
    "sweep.count_s": _count_rows,
    "sweep.weight_s": _weight_rows,
    "solve_group": _solve_group,
    "solve_batch": _dispatch,
    "solve_batch_iter": _dispatch,
    "partial_pass_batch": _dispatch,
}


def dispatch_metrics(backend, since: int, sweeps_since: int, ops: int):
    """Exact dispatch counts per operation from the backend's public
    telemetry after the given record indices, plus the ``(seed rows, count
    cells)`` its seed-axis fan-outs swept in pool workers."""
    records = backend.telemetry[since:] if backend is not None else []
    sweeps = backend.sweep_telemetry[sweeps_since:] if backend is not None else []
    modes = Counter(r["mode"] for r in records)
    metrics = {
        "dispatch.calls": len(records) / ops,
        "dispatch.instance_calls": modes["instance"] / ops,
        "dispatch.seed_calls": modes["seed"] / ops,
        "dispatch.both_calls": modes["both"] / ops,
        "dispatch.shards": sum(r["effective_shards"] for r in records) / ops,
        "dispatch.sweep_fanouts": len(sweeps) / ops,
        "dispatch.retries": sum(r["faults"]["retries"] for r in records) / ops,
    }
    fanout = (
        sum(s["order"] for s in sweeps) / ops,
        sum(s["order"] * s["count_width"] for s in sweeps) / ops,
    )
    return metrics, fanout


def span_metrics(tracer, traced_ops: int, fanout) -> dict:
    """Self times and coordinator sweep counts per traced operation; the
    rows and cells swept in pool workers (``fanout``, per operation) are
    added to the counts."""
    per = max(1, traced_ops)
    out = {metric: tracer.self_s.get(metric, 0.0) / per for metric in SELF_TIME_METRICS}
    out["dispatch.wall_s"] = tracer.group_s.get("dispatch", 0.0) / per
    out["sweep.phases"] = tracer.calls.get("phase", 0) / per
    out["sweep.seed_rows"] = tracer.counts["seed_rows"] / per + fanout[0]
    out["sweep.count_cells"] = tracer.counts["count_cells"] / per + fanout[1]
    out["sweep.weight_cells"] = tracer.counts["weight_cells"] / per
    return out


def cache_metrics(cache, before: dict | None, ops: int) -> dict:
    if cache is None or before is None:
        return {"cache.hits": 0, "cache.misses": 0, "cache.hit_ratio": 0.0, "cache.memory_mb": 0.0}
    after = cache.stats()
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return {
        "cache.hits": hits / ops,
        "cache.misses": misses / ops,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.memory_mb": after["memory_bytes"] / 2**20,
    }


def add_rounds(rounds: Counter, ledger) -> None:
    """Fold one ledger's categories into ``rounds`` (``class_3`` counts as
    ``class``)."""
    for category, charged in ledger.breakdown().items():
        head, _, suffix = category.rpartition("_")
        rounds[head if suffix.isdigit() else category] += charged


def rounds_metrics(rounds: Counter, ops: int) -> dict:
    """Per-operation model rounds by ledger category."""
    return {f"rounds.{c}": rounds.get(c, 0) / ops for c in ROUND_CATEGORIES}


#: Per-layer metrics only ``serve-waves`` measures; the solve workloads
#: report them as 0.
SERVE_METRICS = (
    "serve.queue_wait_ms_p50", "serve.batch_ms_p50", "serve.batches",
    "serve.batch_size_mean", "serve.generator_late_ms_max",
    "serve.latency_tail_ms", "serve.repeat_share",
)


def report(kind: str, values: dict) -> dict:
    """The ``kind`` metrics named in ``BENCHMARK.json``, with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)[kind]
    missing = {m["name"] for m in spec} - set(values)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in spec}


def log(message: str) -> None:
    print(message, flush=True)


# ---------------------------------------------------------------------------
# Solve workloads: a closed loop of full solves, one fresh input each.
# ---------------------------------------------------------------------------
def set_up_solve(cls, seed: int):
    """Build the workload, run its warm-up and build the first input;
    return ``(workload, first case, seconds taken)``."""
    begin = time.perf_counter()
    workload = cls(seed)
    workload.setup()
    case = workload.make_input(0)
    return workload, case, time.perf_counter() - begin


def solve_probe(cls, seed: int):
    """A cold set-up of a solve workload, for :class:`ColdSetups`."""

    def probe() -> float:
        workload, _, taken = set_up_solve(cls, seed)
        workload.close()
        return taken

    return probe


def run_solve(cls, seed: int, seconds: float, trace: bool, cold: ColdSetups) -> dict:
    setups = cold.measure(SETUPS_BEFORE)
    workload, case, taken = set_up_solve(cls, seed)
    setups.append(taken)

    backend = workload.backend
    since = len(backend.telemetry) if backend is not None else 0
    sweeps_since = len(backend.sweep_telemetry) if backend is not None else 0
    tracer = make_tracer() if trace else None
    # Results are folded into sums as they come, so memory does not grow
    # with the number of operations a run completes.
    latencies, traced_lat, untraced_lat = [], [], []
    rounds = Counter()
    model_rounds = clusters = 0
    cpu = 0.0
    faults = 0
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        if attempted:
            case = workload.make_input(attempted)
        traced = trace and attempted % 2 == 1
        with tracer.installed() if traced else nullcontext():
            faults0, cpu0 = minor_faults(), cpu_seconds()
            t0 = time.perf_counter()
            try:
                result, problems = workload.solve(case), []
            except Exception:  # noqa: BLE001 - counted as a failed operation
                result, problems = None, [traceback.format_exc()]
            latency = time.perf_counter() - t0
            cpu += cpu_seconds() - cpu0
            faults += minor_faults() - faults0
        problems = problems or workload.check(case, result)
        if problems:
            failed += 1
            log(f"operation {attempted} failed: {problems[:3]}")
        else:
            latencies.append(latency)
            (traced_lat if traced else untraced_lat).append(latency)
            model_rounds += result.rounds.total
            add_rounds(rounds, result.rounds)
            if hasattr(result, "decomposition"):
                clusters += len(result.decomposition.clusters)
        del result
        attempted += 1
        if time.perf_counter() - start >= seconds:
            break

    ops = max(1, len(latencies))
    e2e = {
        "setup_s": median(setups),
        "latency_p50_ms": 1e3 * median(latencies),
        "cpu_s_per_op": cpu / attempted,
        "peak_rss_mb": peak_rss_mb(),
        "model_rounds_per_op": model_rounds / ops,
    }
    layer, fanout = dispatch_metrics(backend, since, sweeps_since, attempted)
    worker_rss = worker_peak_rss_mb()
    modes = Counter(r["mode"] for r in backend.telemetry[since:]) if backend else {}
    workload.close()
    clean = wait_for_workers()
    if not clean:
        log("worker processes outlived the backend")
    setups += cold.measure(SETUPS_AFTER)
    log(
        f"{cls.name}: {attempted} operations, {failed} failed, "
        f"dispatch modes {dict(modes)}, latencies ms "
        f"{[round(1e3 * x) for x in latencies]}, set-ups ms "
        f"{[round(1e3 * x) for x in setups]}"
    )
    if tracer is not None:
        layer.update(span_metrics(tracer, len(traced_lat), fanout))
        layer.update(cache_metrics(None, None, ops))
        layer.update(rounds_metrics(rounds, ops))
        layer.update(dict.fromkeys(SERVE_METRICS, 0.0))
        layer.update(
            {
                "decomp.clusters": clusters / ops,
                "mem.minor_faults": faults / attempted,
                "mem.worker_peak_rss_mb": worker_rss,
                "trace.latency_p50_ms": 1e3 * median(traced_lat),
                "trace.overhead_ms": 1e3 * (median(traced_lat) - median(untraced_lat)),
            }
        )
    return {
        "correct": failed == 0 and clean,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": e2e,
        "per_layer": layer,
    }


# ---------------------------------------------------------------------------
# serve-waves: an open loop of request waves against one service.
# ---------------------------------------------------------------------------
async def set_up_serve(seed: int, seconds: float):
    """Build the schedule and the service and run the warm-up wave; return
    ``(workload, seconds taken)``."""
    from workloads import ServeWaves

    begin = time.perf_counter()
    workload = ServeWaves(seed, seconds)
    await workload.setup()
    return workload, time.perf_counter() - begin


def serve_probe(seed: int, seconds: float):
    """A cold set-up of ``serve-waves``, for :class:`ColdSetups`."""

    async def once() -> float:
        workload, taken = await set_up_serve(seed, seconds)
        await workload.close()
        return taken

    return lambda: asyncio.run(once())


async def run_serve(seed: int, seconds: float, trace: bool, cold: ColdSetups) -> dict:
    # The cold set-ups block the event loop, which has nothing else to do
    # before the service starts and after it closes.
    setups = cold.measure(SETUPS_BEFORE)
    workload, taken = await set_up_serve(seed, seconds)
    setups.append(taken)

    service = workload.service
    batches_since = len(service.batch_telemetry)
    cache_before = service.sweep_cache.stats()
    tracer = make_tracer() if trace else None
    tracing = ExitStack()

    def on_wave(index: int) -> None:
        # Trace every odd wave; the period leaves each wave time to end.
        tracing.close()
        if tracer is not None and index % 2 == 1:
            tracing.enter_context(tracer.installed())

    faults0, cpu0 = minor_faults(), cpu_seconds()
    try:
        requests = await workload.run(on_wave)
    finally:
        tracing.close()
    cpu = cpu_seconds() - cpu0
    faults = minor_faults() - faults0
    # Read before the check, whose standalone solves are the oracle's.
    rss = peak_rss_mb()
    worker_rss = worker_peak_rss_mb()
    await workload.close()
    clean = wait_for_workers()
    if not clean:
        log("worker processes outlived the service")
    setups += cold.measure(SETUPS_AFTER)

    problems = workload.check(requests)
    attempted = len(requests)
    failed = sum(1 for p in problems if p)
    for r, p in zip(requests, problems):
        if p:
            log(f"request of wave {r.wave} failed: {p[:3]}")
    good = [r for r, p in zip(requests, problems) if not p]
    ops = max(1, len(good))
    latencies = [r.done - r.due for r in good]
    rounds = Counter()
    for r in good:
        add_rounds(rounds, r.result.rounds)
    e2e = {
        "setup_s": median(setups),
        "latency_p50_ms": 1e3 * median(latencies),
        "cpu_s_per_op": cpu / attempted,
        "peak_rss_mb": rss,
        "model_rounds_per_op": sum(r.result.rounds.total for r in good) / ops,
    }
    batches = service.batch_telemetry[batches_since:]
    repeat_share = sum(r.repeat for r in requests) / attempted
    tail_point = tail(latencies)
    log(
        f"serve-waves: {attempted} requests in {len(workload.plan)} waves, "
        f"{failed} failed, repeat share {repeat_share:.3f}, {len(batches)} batches, "
        f"set-ups ms {[round(1e3 * x) for x in setups]}"
        + (
            f", p{tail_point[0]:.1f} latency {1e3 * tail_point[1]:.1f} ms "
            f"over {len(latencies)} samples"
            if tail_point
            else ""
        )
    )
    layer = {}
    if tracer is not None:
        # The service builds its backend itself: the first traced dispatch
        # names it, and dispatch counts cover the waves from that one on.
        captured = [e[1:] for e in tracer.events if e[0] == "backend"]
        backend, since, sweeps_since = captured[0] if captured else (None, 0, 0)
        counted = sum(1 for r in requests if r.wave >= 1) or attempted
        layer, fanout = dispatch_metrics(backend, since, sweeps_since, counted)
        traced = [r.done - r.due for r in good if r.wave % 2 == 1]
        untraced = [r.done - r.due for r in good if r.wave % 2 == 0]
        dues = sorted({r.due for r in requests})
        waits = [
            began - max((d for d in dues if d <= at), default=at)
            for kind, began, enqueued in (e for e in tracer.events if e[0] == "batch")
            for at in enqueued
        ]
        layer.update(span_metrics(tracer, len(traced), fanout))
        layer.update(cache_metrics(service.sweep_cache, cache_before, attempted))
        layer.update(rounds_metrics(rounds, ops))
        layer.update(
            {
                "decomp.clusters": 0.0,
                "serve.queue_wait_ms_p50": 1e3 * median(waits),
                "serve.batch_ms_p50": 1e3 * median([b["wall_seconds"] for b in batches]),
                "serve.batches": len(batches) / attempted,
                "serve.batch_size_mean": (
                    sum(b["size"] for b in batches) / len(batches) if batches else 0.0
                ),
                "serve.generator_late_ms_max": 1e3 * max(r.sent - r.due for r in requests),
                "serve.latency_tail_ms": 1e3 * tail_point[1] if tail_point else 0.0,
                "serve.repeat_share": repeat_share,
                "mem.minor_faults": faults / attempted,
                "mem.worker_peak_rss_mb": worker_rss,
                "trace.latency_p50_ms": 1e3 * median(traced),
                "trace.overhead_ms": 1e3 * (median(traced) - median(untraced)),
            }
        )
    return {
        "correct": failed == 0 and clean,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": e2e,
        "per_layer": layer,
    }


# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_program()
    from workloads import NAMES, SOLVE_WORKLOADS

    if args.workload not in NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(NAMES)}")
    trace = bool(args.trace)
    adopt_orphans()
    try:
        if args.workload in SOLVE_WORKLOADS:
            cls = SOLVE_WORKLOADS[args.workload]
            with ColdSetups(solve_probe(cls, args.seed)) as cold:
                outcome = run_solve(cls, args.seed, args.seconds, trace, cold)
        else:
            with ColdSetups(serve_probe(args.seed, args.seconds)) as cold:
                outcome = asyncio.run(run_serve(args.seed, args.seconds, trace, cold))
    finally:
        reaped = reap_descendants()
    if not reaped:
        log("processes outlived the run and were killed")
        outcome["correct"] = False

    kind = "per_layer" if trace else "end_to_end"
    metrics = report(kind, outcome[kind])
    if trace:
        record_dir = os.path.join(HERE, "records")
        os.makedirs(record_dir, exist_ok=True)
        path = os.path.join(record_dir, f"{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "attempted": outcome["attempted"],
                    "failed": outcome["failed"],
                    "end_to_end": outcome["end_to_end"],
                    "per_layer": metrics,
                },
                fh,
                indent=1,
                sort_keys=True,
            )
    print(
        json.dumps(
            {
                "correct": outcome["correct"],
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
