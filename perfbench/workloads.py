"""The three workloads: ``scaling``, ``grid`` and ``daemon``.

Each workload runs repro through its public surfaces (``repro.api``,
``repro.study``, ``repro.serve.ServeClient`` and a ``repro serve``
subprocess) on inputs generated from the workload seed, checks every
output, and returns its end-to-end metrics (untraced) or per-layer
metrics (traced, from :mod:`tracing` spans).  How much work a run does
is a function of ``--seconds`` alone, never of the clock, so the exact
counts of a traced run repeat for one seed.  ``run.py`` is the driver.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import json
import os
import re
import resource
import select
import signal
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Import probes per run: each is a fresh interpreter through ``import repro``.
PROBES = 5
#: Daemon spawns per untraced run (spawn until ``GET /jobs`` answers).
SPAWNS = 5
#: Warm passes per cycle of a study workload.
WARM_PASSES = 4
#: Seconds one cycle of a study workload takes on a 2-core box.
CYCLE_S = 2.6
#: Cell-scheduler threads in the grid workload (the box has 2 cores).
GRID_WORKERS = 2
#: :func:`reference_s` on the box that recorded ``baseline.json`` (2-vCPU
#: Xeon at 2.1 GHz) in its fast state.  Study-pass times are reported
#: at this speed: raw time × ``REFERENCE_S`` / the reference time
#: measured around the pass.
REFERENCE_S = 0.003

BACKEND_KINDS = (
    ("agent", "sequential"),
    ("counts", "sequential"),
    ("async", "sequential"),
    ("adversary", "sequential"),
    ("ensemble-agent", "ensemble"),
    ("ensemble-counts", "ensemble"),
    ("ensemble-async", "ensemble"),
    ("ensemble-adversary-agent", "ensemble"),
    ("ensemble-adversary-counts", "ensemble"),
    ("kernel-agent", "kernel"),
    ("kernel-async", "kernel"),
    ("sharded-agent", "sharded"),
    ("sharded-counts", "sharded"),
    ("sharded-async", "sharded"),
    ("sharded-adversary-agent", "sharded"),
    ("sharded-adversary-counts", "sharded"),
)

_PROBE = (
    "import sys, time\n"
    "before = len(sys.modules)\n"
    "start = time.perf_counter()\n"
    "import repro\n"
    "elapsed = time.perf_counter() - start\n"
    "print(len(sys.modules) - before, int('scipy' in sys.modules), repr(elapsed))\n"
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def sub_seed(workload: str, seed: int, index: int) -> int:
    """The spec seed of pass (or job) ``index``: a pure function of the run seed."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).hexdigest()
    return int(digest[:8], 16)


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0–100), linearly interpolated."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def results_digest(records) -> str:
    """sha256 over each record's ``(cell_id, times, stopped)``, in order."""
    rows = [
        [r.cell_id, [int(t) for t in r.times], [bool(s) for s in r.stopped]]
        for r in records
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def cell_latencies(records) -> "list[float]":
    """The runner's own ``wall_time_s`` of each freshly simulated record."""
    return [r.wall_time_s for r in records if r.ok and not r.cache_hit]


def node_rounds(records) -> float:
    """Node updates simulated by the fresh (not cached) records.

    A synchronous round updates all ``n`` nodes; an asynchronous tick
    updates one.
    """
    work = 0.0
    for record in records:
        if record.cache_hit or not record.ok:
            continue
        replica_time = float(sum(int(t) for t in record.times))
        work += replica_time * (record.params["n"] if record.unit == "rounds" else 1)
    return work


def reference_s() -> float:
    """Best of three timings of fixed interpreter and small-array work.

    No repro code runs in it, so only the box's speed moves it.  That
    speed shifts by up to half between states that last from seconds to
    minutes, and every CPU-bound timing shifts with it; see
    :meth:`Run.at_reference_speed`.
    """
    import numpy

    best = float("inf")
    for _ in range(3):
        rng = numpy.random.default_rng(0)
        start = time.perf_counter()
        total = 0
        for i in range(30000):
            total += i * i % 7
        for _ in range(200):
            numpy.bincount(rng.integers(0, 8, 128), minlength=8)
        best = min(best, time.perf_counter() - start)
    return best


def peak_rss_mb() -> float:
    """This process's peak resident set so far, in MB (Linux reports kB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """One benchmark run: arguments, scratch space, checks and spans."""

    def __init__(self, args, work_dir: str, out_dir: str):
        self.args = args
        self.workload = args.workload
        self.seed = args.seed
        self.toy = args.toy
        self.traced = bool(args.trace)
        self.work_dir = work_dir
        self.out_dir = out_dir
        self.units = 0          # cells or jobs attempted
        self.failed_units = 0   # ... that failed, timed out or missed a check
        self.checks: "list[tuple[str, bool]]" = []
        self.tracer = tracing.Tracer()
        self.digest_records: list = []
        self.digest: "str | None" = None
        #: Raw samples behind the metrics, written out with the results.
        self.samples: "dict[str, list]" = collections.defaultdict(list)
        self._paths = 0

    # -- bookkeeping -------------------------------------------------------

    def check(self, name: str, ok: bool) -> None:
        self.checks.append((name, bool(ok)))
        if not ok:
            print(f"check failed: {name}", file=sys.stderr)

    def check_accounting(self, summary: dict) -> None:
        """Layer self times plus ``unaccounted`` must add up to the traced wall."""
        accounted = sum(summary["self"].values()) + summary["unaccounted"]
        self.check("layer self times + unaccounted == traced wall",
                   abs(accounted - summary["wall"]) <= 1e-6 * max(1.0, summary["wall"]))

    def count_units(self, records, *, expected: int) -> None:
        """Attempted units (``expected``) and those not ok, all stopped."""
        self.units += expected
        good = sum(1 for r in records if r.ok and bool(r.stopped.all()))
        self.failed_units += expected - good

    @property
    def attempted(self) -> int:
        return self.units + len(self.checks)

    @property
    def failed(self) -> int:
        return self.failed_units + sum(1 for _name, ok in self.checks if not ok)

    def fresh_path(self, name: str) -> str:
        self._paths += 1
        return os.path.join(self.work_dir, f"{self._paths:04d}-{name}")

    def passes(self) -> int:
        """Scaling passes / grid cycles: ``--seconds`` worth of work."""
        if self.toy:
            return 1
        return max(2, round(self.args.seconds / CYCLE_S))

    def at_reference_speed(self, measure):
        """Call ``measure()`` between two :func:`reference_s` timings.

        Returns ``(result, scale)``: ``scale`` is ``REFERENCE_S`` over the
        mean of the two timings, and a CPU-bound time measured inside
        ``measure`` times ``scale`` is that time at the reference speed.
        The reference times go to the run's samples.
        """
        before = reference_s()
        result = measure()
        reference = (before + reference_s()) / 2
        self.samples["reference_s"].append(reference)
        return result, REFERENCE_S / reference

    def setup_at_reference_speed(self, setup: float) -> float:
        """A raw set-up time at the run's median reference speed.

        Set-up runs once at the start, in child processes, so it is
        scaled by the whole run's reference times rather than by timings
        around it: the box's speed state usually lasts the whole run.
        """
        return setup * REFERENCE_S / statistics.median(self.samples["reference_s"])

    # -- the shared steps ---------------------------------------------------

    def probe_imports(self, count: int = PROBES) -> dict:
        """``count`` fresh interpreters through ``import repro`` (2 if toy).

        Returns the setup times (parent-measured, spawn to exit) and the
        import counts, which must repeat exactly across probes.
        """
        if self.toy:
            count = 2
        setups, imports, modules, scipy = [], [], set(), set()
        for _ in range(count):
            start = time.perf_counter()
            done = subprocess.run(
                [sys.executable, "-c", _PROBE], cwd=ROOT, env=child_env(),
                capture_output=True, text=True, timeout=120,
            )
            setups.append(time.perf_counter() - start)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                raise RuntimeError("import probe failed")
            mods, has_scipy, elapsed = done.stdout.split()
            modules.add(int(mods))
            scipy.add(int(has_scipy))
            imports.append(float(elapsed))
        self.check("import counts repeat across probes", len(modules) == len(scipy) == 1)
        self.samples["setup_s"] = setups
        return {
            "setup_s": statistics.median(setups),
            "import.s": statistics.median(imports),
            "import.modules": min(modules),
            "import.scipy": min(scipy),
        }

    def check_digest(self) -> None:
        """Compare the run's results digest with the committed one.

        Applies to the default seed at the committed ``--seconds`` (the
        digest covers every pass), or to any run given ``--expect-digest``.
        """
        digest = results_digest(self.digest_records)
        expected = self.args.expect_digest
        if expected is None and not self.toy:
            with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
                committed = json.load(handle)
            if self.seed == committed["seed"] and self.args.seconds == committed["seconds"]:
                expected = committed["digests"].get(self.workload)
        self.digest = digest
        if expected is not None:
            self.check(f"results digest {digest} == {expected}", digest == expected)

    def study_pass(self, spec, *, workers: int, cache, traced: bool, landings=None):
        """One ``api.study`` call into a fresh journaled store, timed.

        With a ``landings`` list, the time from the call to each record
        landing in the store (the ``progress`` callback) is appended to it.
        """
        from repro import api

        def landed(_cell, _record):
            landings.append(time.perf_counter() - start)

        path = self.fresh_path("store.json")
        patch = tracing.LayerPatch(self.tracer).install() if traced else None
        frame = self.tracer.begin("root") if traced else None
        try:
            start = time.perf_counter()
            store = api.study(spec, store_path=path, workers=workers, cache=cache,
                              progress=None if landings is None else landed)
            wall = time.perf_counter() - start
        finally:
            if traced:
                self.tracer.end(frame)
                patch.uninstall()
        return store, wall


# -- per-layer metrics -------------------------------------------------------


def layer_metrics(summary: dict, *, workers: int, busy_wall: float) -> dict:
    """The per-layer metrics of a :func:`tracing.summarize` summary.

    ``busy_wall`` is the traced wall time the workers were available
    for; ``scheduler.efficiency`` is their execute time over it.
    """
    total, calls, info, own = (
        summary["total"], summary["calls"], summary["info"], summary["self"]
    )
    executed = info.get("execute", [])
    kinds = dict(BACKEND_KINDS)
    hits = sum(1 for miss in info.get("cache.get", []) if miss == 0)
    misses = sum(1 for miss in info.get("cache.get", []) if miss == 1)
    metrics = {
        "compile.s": total.get("compile", 0.0),
        "compile.cells": sum(info.get("compile", [])),
        "resolve.s": total.get("resolve", 0.0),
        "resolve.calls": calls.get("resolve", 0),
        "execute.s": total.get("execute", 0.0),
        "config.builds": len(info.get("config", [])),
        "config.s": total.get("config", 0.0),
        "store.checkpoints": calls.get("store.checkpoint", 0),
        "store.checkpoint_s": total.get("store.checkpoint", 0.0),
        "store.compact_s": total.get("store.compact", 0.0),
        "store.bytes": sum(info.get("store.compact", [])),
        "cache.get_s": total.get("cache.get", 0.0),
        "cache.put_s": total.get("cache.put", 0.0),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "scheduler.busy_s": total.get("execute", 0.0),
        "scheduler.efficiency": (
            total.get("execute", 0.0) / (workers * busy_wall) if busy_wall else 0.0
        ),
    }
    for kind in ("sequential", "ensemble", "kernel"):
        metrics[f"execute.{kind}_s"] = sum(
            seconds
            for (name, backend), seconds in summary["by_info"].items()
            if name == "execute" and kinds.get(backend) == kind
        )
    for name, _kind in BACKEND_KINDS:
        metrics[f"execute.cells.{name}"] = sum(1 for b in executed if b == name)
    unknown = sorted({b for b in executed if b not in kinds})
    if unknown:
        print(f"note: backends outside the metric list ran: {unknown}", file=sys.stderr)
    for layer in ("compile", "resolve", "execute", "config", "store", "cache",
                  "scheduler", "serve"):
        metrics[f"self.{layer}_s"] = own.get(layer, 0.0)
    metrics["trace.wall_s"] = summary["wall"]
    metrics["unaccounted_s"] = summary["unaccounted"]
    return metrics


def _traced_layers(run: Run, probe: dict, *, workers: int, cold_traced: float,
                   traced_total: float, untraced_total: float) -> dict:
    summary = tracing.summarize(run.tracer.spans)
    metrics = layer_metrics(summary, workers=workers, busy_wall=cold_traced)
    metrics.update({k: v for k, v in probe.items() if k.startswith("import.")})
    metrics.update({"serve.submit_s": 0.0, "serve.queue_s": 0.0,
                    "serve.tail_s": 0.0, "serve.results_s": 0.0})
    metrics["trace.overhead"] = traced_total / untraced_total - 1.0
    metrics.update(untraced_layers(run, run.samples["cell_s"]))
    run.check_accounting(summary)
    return metrics


def untraced_layers(run: Run, cell_s: "list[float]") -> dict:
    """Per-layer metrics taken from the untraced passes or jobs, raw.

    ``cell_p50_s`` / ``cell_p90_s``: percentiles of the fresh records'
    ``wall_time_s``, the runner's resolve + execute time per cell.
    ``reference_s``: the box's speed, the run's median :func:`reference_s`
    time.
    """
    return {
        "cell_p50_s": percentile(cell_s, 50),
        "cell_p90_s": percentile(cell_s, 90),
        "reference_s": statistics.median(run.samples["reference_s"]),
    }


# -- the study workloads: scaling and grid ------------------------------------


def scaling_spec(seed: int, toy: bool):
    """The paper's separation grid at the largest sizes this box runs in seconds."""
    from repro.study import StudySpec

    return StudySpec(
        name="perfbench-scaling",
        seed=seed,
        repetitions=2 if toy else 5,
        axes={
            "process": ["3-majority", "2-choices", "voter"],
            "n": [32, 64] if toy else [256, 512, 1024, 2048],
            "workload": ["singletons"],
            "stop": ["consensus"],
            "backend": ["auto"],
            "rng_mode": ["per-replica"],
        },
    )


def grid_spec(seed: int, toy: bool):
    """About 100 small cells across every process, start and scheduler."""
    from repro.study import StudySpec

    processes = ["3-majority", "2-choices", "voter", "undecided-dynamics", "2-median"]
    return StudySpec(
        name="perfbench-grid",
        seed=seed,
        repetitions=2 if toy else 3,
        axes={
            "process": processes[:2] if toy else processes,
            "n": [16, 24] if toy else [16, 24, 32, 48, 64],
            "workload": ["singletons", {"name": "balanced", "kwargs": {"k": 2}}],
            "scheduler": ["synchronous", "asynchronous"],
            "stop": ["consensus"],
            "backend": ["auto"],
            "rng_mode": ["per-replica"],
        },
    )


def _study_workload(run: Run, spec_for, *, workers: int, cold_cache: bool):
    """Cycles of one cold pass and ``WARM_PASSES`` warm passes of its spec.

    Each cycle's spec has its own seed.  With ``cold_cache`` the cold pass
    runs over a fresh ``ResultCache`` and the warm passes replay it (grid);
    without, the cold pass runs cache-off and the warm passes replay a
    cache filled from its store outside any timed section (scaling).
    Traced runs repeat every pass traced, right after its untraced twin.
    Untraced pass times are taken at the reference speed.
    """
    from repro.study import ResultCache

    def cold_pass(spec, traced, landings=None):
        cache = ResultCache(run.fresh_path("cache")) if cold_cache else False
        store, wall = run.study_pass(spec, workers=workers, cache=cache, traced=traced,
                                     landings=landings)
        if not cold_cache:
            cache = ResultCache(run.fresh_path("cache"))
            for record in store.records():
                cache.put(record)
        return store, wall, cache

    probe = run.probe_imports()
    samples = run.samples
    traced_cold = traced_total = untraced_total = 0.0
    for index in range(run.passes()):
        spec = spec_for(sub_seed(run.workload, run.seed, index), run.toy)
        landings = []
        (store, wall, cache), scale = run.at_reference_speed(
            lambda: cold_pass(spec, traced=False, landings=landings)
        )
        records = store.records()
        run.count_units(records, expected=spec.num_cells())
        run.check(f"cycle {index}: cold pass simulated every cell",
                  not any(r.cache_hit for r in records))
        run.digest_records += records
        samples["cold_wall_s"].append(wall * scale)
        samples["landing_s"] += [t * scale for t in landings]
        samples["node_rounds"].append(node_rounds(records))
        samples["cells"].append(len(records))
        samples["cell_s"] += cell_latencies(records)
        untraced_total += wall
        if run.traced:
            t_store, t_wall, t_cache = cold_pass(spec, traced=True)
            run.check(f"cycle {index}: traced results equal untraced",
                      t_store.results_equal(store))
            traced_cold += t_wall
            traced_total += t_wall
        for _ in range(WARM_PASSES):
            (rerun, warm_wall), scale = run.at_reference_speed(
                lambda: run.study_pass(spec, workers=workers, cache=cache, traced=False)
            )
            run.check(f"cycle {index}: warm pass equals the cold pass, all hits",
                      rerun.results_equal(store)
                      and all(r.cache_hit for r in rerun.records()))
            samples["warm_wall_s"].append(warm_wall * scale)
            untraced_total += warm_wall
            if run.traced:
                _rerun, t_warm = run.study_pass(spec, workers=workers,
                                                cache=t_cache, traced=True)
                traced_total += t_warm
    run.check_digest()
    cold_total = sum(samples["cold_wall_s"])
    e2e = {
        "setup_s": run.setup_at_reference_speed(probe["setup_s"]),
        "wall_s": cold_total / len(samples["cold_wall_s"]),
        "node_rounds_per_s": sum(samples["node_rounds"]) / cold_total,
        "cells_per_s": sum(samples["cells"]) / cold_total,
        "warm_wall_s": statistics.median(samples["warm_wall_s"]),
        # A study user waits for each cell's result: the call to its landing.
        "job_p50_s": percentile(samples["landing_s"], 50),
        "job_p90_s": percentile(samples["landing_s"], 90),
        "peak_rss_mb": peak_rss_mb(),
    }
    layers = None
    if run.traced:
        layers = _traced_layers(run, probe, workers=workers, cold_traced=traced_cold,
                                traced_total=traced_total, untraced_total=untraced_total)
    return e2e, layers


def run_scaling(run: Run) -> "tuple[dict, dict]":
    """The headline study: workers=1, cache off; warm reruns replay it."""
    return _study_workload(run, scaling_spec, workers=1, cold_cache=False)


def run_grid(run: Run) -> "tuple[dict, dict]":
    """The wide small-n grid: workers=2 over a cold, then warm, cache."""
    return _study_workload(run, grid_spec, workers=GRID_WORKERS, cold_cache=True)


# -- daemon ------------------------------------------------------------------


def daemon_jobs(run: Run) -> int:
    return 10 if run.toy else max(100, round(10 * run.args.seconds))


def daemon_spec(run: Run, index: int):
    """Job ``index``; every fifth job is a renamed copy of the one 4 back.

    A job's three cells take about 2, 5 and 10 ms, so the median cell
    lies inside the middle (``2-median``) cluster.  With an even number
    of cell kinds it would lie in the gap between two clusters and jump
    between them from run to run.
    """
    from repro.study import StudySpec

    base = index - 4 if index % 5 == 4 else index
    name = f"perfbench-daemon-{base}"
    if base != index:
        name += f" (repeat as job {index})"
    return StudySpec(
        name=name,
        seed=sub_seed("daemon", run.seed, base),
        repetitions=2 if run.toy else 3,
        axes={
            "process": ["3-majority", "2-median", "2-choices"],
            "n": [32] if run.toy else [128],
            "rng_mode": ["per-replica"],
        },
    )


class Daemon:
    """A ``repro serve`` subprocess on a fresh state dir, ready to serve.

    ``setup_s`` is spawn until the first ``GET /jobs`` is answered.
    With ``spans_path`` the daemon runs under ``serve_traced.py``.
    """

    def __init__(self, run: Run, spans_path: "str | None" = None):
        from repro.serve import ServeClient, ServeError

        args = ["serve", "--port", "0", "--state-dir", run.fresh_path("state")]
        if spans_path is None:
            command = [sys.executable, "-m", "repro"] + args
        else:
            command = [sys.executable, os.path.join(HERE, "serve_traced.py"),
                       spans_path] + args
        self._stderr = open(run.fresh_path("serve.err"), "w", encoding="utf-8")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=self._stderr, text=True,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
            line = self.proc.stdout.readline() if ready else ""
            match = re.search(r"listening on (http://\S+)", line)
            if match is None:
                raise RuntimeError(f"daemon did not announce its address: {line!r}")
            self.url = match.group(1)
            client = ServeClient(self.url, timeout=10.0)
            deadline = time.monotonic() + 60.0
            while True:
                try:
                    client.jobs()
                    break
                except ServeError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.002)
            self.setup_s = time.perf_counter() - start
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident set (``VmHWM``), in MB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (graceful) and wait; SIGKILL after 60 s."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()


def _run_jobs(run: Run, daemon: Daemon, traced: bool) -> "list[dict]":
    """The closed loop: submit, follow ``/events`` to ``done``, fetch results."""
    from repro.serve import ServeClient, ServeError

    def span(name):
        return run.tracer.span(name) if traced else contextlib.nullcontext()

    client = ServeClient(daemon.url, timeout=60.0)
    jobs = []
    root = run.tracer.begin("root") if traced else None
    try:
        for index in range(daemon_jobs(run)):
            spec = daemon_spec(run, index)
            job = {"index": index, "spec": spec, "store": None}
            jobs.append(job)
            try:
                job["submitted"] = time.perf_counter()
                with span("serve.submit"):
                    view = client.submit(spec)
                job["accepted"] = time.perf_counter()
                job["first_record"] = None
                job["record_walls"] = 0.0
                with span("serve.follow"):
                    for event in client.events(view["id"]):
                        if event["event"] == "record":
                            if job["first_record"] is None:
                                job["first_record"] = time.perf_counter()
                            job["record_walls"] += event["wall_time_s"]
                        elif event["event"] == "done":
                            job["done"] = time.perf_counter()
                            job["state"] = event["job"]["state"]
                with span("serve.results"):
                    job["store"] = client.results_store(view["id"])
                job["fetched"] = time.perf_counter()
            except (ServeError, OSError, KeyError, ValueError) as exc:
                print(f"daemon job {index} failed: {exc!r}", file=sys.stderr)
            if index % 10 == 9:
                # The box's speed, for setup_s, while the daemon is idle.
                run.samples["reference_s"].append(reference_s())
    finally:
        if traced:
            run.tracer.end(root)
    return jobs


def _complete(job) -> bool:
    return job["store"] is not None and job.get("state") == "done" and "done" in job


def _job_checks(run: Run, jobs: list) -> None:
    """Every job done and consensus everywhere; repeats all from cache."""
    by_index = {job["index"]: job for job in jobs}
    for job in jobs:
        records = job["store"].records() if _complete(job) else []
        run.count_units(records, expected=job["spec"].num_cells())
        if not records:
            continue
        if job["index"] % 5 == 4:
            base = by_index[job["index"] - 4]["store"]
            run.check(
                f"daemon job {job['index']}: repeat served from cache, same results",
                base is not None
                and all(r.cache_hit for r in records)
                and len(records) == len(base.records())
                and all(a.same_results(b) for a, b in zip(records, base.records())),
            )


def _daemon_metrics(jobs: list) -> dict:
    done = [job for job in jobs if _complete(job)]
    if not done:
        raise RuntimeError("no daemon job completed")
    latencies = [job["done"] - job["submitted"] for job in done]
    wall = max(job["done"] for job in done) - jobs[0]["submitted"]
    cells = sum(len(job["store"]) for job in done)
    work = sum(node_rounds(job["store"].records()) for job in done)
    repeats = [job["done"] - job["submitted"] for job in done if job["index"] % 5 == 4]
    return {
        "wall_s": wall,
        "node_rounds_per_s": work / wall,
        "cells_per_s": cells / wall,
        "warm_wall_s": statistics.median(repeats),
        "job_p50_s": percentile(latencies, 50),
        "job_p90_s": percentile(latencies, 90),
        "serve.submit_s": statistics.median(j["accepted"] - j["submitted"] for j in done),
        "serve.queue_s": statistics.median(
            (j["first_record"] or j["done"]) - j["submitted"] for j in done
        ),
        "serve.tail_s": statistics.median(
            (j["done"] - j["submitted"]) - j["record_walls"] for j in done
        ),
        "serve.results_s": statistics.median(j["fetched"] - j["done"] for j in done),
    }


def run_daemon(run: Run) -> "tuple[dict, dict]":
    """A closed loop of one client against a fresh ``repro serve``.

    Untraced: the last of ``SPAWNS`` daemons serves the jobs.  Traced:
    one untraced daemon and then one traced daemon run the same jobs,
    the first for ``trace.overhead``.
    """
    from repro import api

    probe = run.probe_imports() if run.traced else None
    setups = []
    for _ in range(1 if run.traced else SPAWNS - 1):
        daemon = Daemon(run)
        setups.append(daemon.setup_s)
        daemon.stop()
    daemon = Daemon(run)
    setups.append(daemon.setup_s)
    try:
        jobs = _run_jobs(run, daemon, traced=False)
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    _job_checks(run, jobs)
    first = jobs[0]
    if _complete(first):
        local = api.study(first["spec"])
        run.check("daemon job 0 equals the same spec run in-process",
                  local.results_equal(first["store"]))
    run.digest_records = [
        record for job in jobs if _complete(job) for record in job["store"].records()
    ]
    run.check_digest()
    metrics = _daemon_metrics(jobs)
    run.samples["job_s"] = [j["done"] - j["submitted"] for j in jobs if _complete(j)]
    e2e = {key: metrics[key] for key in (
        "wall_s", "node_rounds_per_s", "cells_per_s", "warm_wall_s", "job_p50_s",
        "job_p90_s",
    )}
    e2e["setup_s"] = run.setup_at_reference_speed(statistics.median(setups))
    e2e["peak_rss_mb"] = rss
    layers = None
    if run.traced:
        spans_path = os.path.join(run.out_dir, f"spans-daemon-server-seed{run.seed}.json")
        traced_daemon = Daemon(run, spans_path=spans_path)
        try:
            traced_jobs = _run_jobs(run, traced_daemon, traced=True)
        finally:
            traced_daemon.stop()
        run.check("traced daemon results equal untraced", all(
            _complete(a) and _complete(b) and a["store"].results_equal(b["store"])
            for a, b in zip(jobs, traced_jobs)
        ))
        traced_metrics = _daemon_metrics(traced_jobs)
        server = tracing.summarize(tracing.load_spans(spans_path))
        client = tracing.summarize(run.tracer.spans)
        for key in ("self", "wall", "unaccounted"):
            server[key] = client[key]
        layers = layer_metrics(server, workers=1, busy_wall=traced_metrics["wall_s"])
        layers.update({k: v for k, v in probe.items() if k.startswith("import.")})
        layers.update({k: v for k, v in traced_metrics.items() if k.startswith("serve.")})
        layers["trace.overhead"] = traced_metrics["wall_s"] / metrics["wall_s"] - 1.0
        layers.update(untraced_layers(run, [
            t for job in jobs if _complete(job) for t in cell_latencies(job["store"].records())
        ]))
        run.check_accounting(client)
    return e2e, layers


WORKLOADS = {"scaling": run_scaling, "grid": run_grid, "daemon": run_daemon}
