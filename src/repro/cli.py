"""Command-line interface: ``python -m repro <command>``.

Four subcommands, all thin shells over the public :mod:`repro.api`
facade (everything they do is a few lines of library calls, shown in
``examples/``):

``simulate``
    Run one process from a chosen workload and print the outcome (and,
    with ``--trace``, the remaining-colors trajectory).

``sweep``
    A consensus-time scaling sweep over ``n`` for one process, with a
    power-law fit — the quick-look version of benchmark E1/E3, via
    :func:`repro.api.sweep`.  With ``--output`` the sweep is journaled
    into a study store there, which ``study report`` renders; an
    existing store is refused, not overwritten.
    The execution strategy is any runtime registry backend
    (``--backend``), and the model axes are plan fields:
    ``--scheduler asynchronous`` sweeps the one-node-per-tick model,
    ``--adversary plant-invalid --budget 4`` sweeps §5
    rounds-to-stabilisation under a dynamic adversary.

``study``
    The declarative suite runner: ``study run spec.toml`` executes a
    :class:`~repro.study.StudySpec` one cell after another and
    checkpoints a provenance-carrying result store after every cell (a
    spec's ``[parallel]`` table is accepted and ignored); ``--cache`` /
    ``--no-cache`` controls the shared content-addressed result cache;
    ``study resume`` completes an interrupted store bit-for-bit;
    ``study validate`` compiles a spec's whole grid without running it;
    ``study report`` renders a saved store without re-simulating;
    ``study cache stats`` / ``study cache gc`` inspect and bound the
    shared cache.  The service verbs — ``study submit`` / ``status`` /
    ``watch`` / ``results`` / ``cancel`` — talk to a running daemon
    over its JSON wire protocol (``--url``, default
    ``$REPRO_SERVE_URL`` or ``http://127.0.0.1:8321``).

``serve``
    The study-execution daemon (:mod:`repro.serve`): accepts specs over
    HTTP, queues them through a single-writer executor, streams
    progress, and survives kill/restart on the same ``--state-dir``
    with bit-for-bit resume.

``counterexample``
    Print the Appendix-B report (the exact ``7/12`` computation).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from . import api
from .analysis import three_majority_consensus_upper
from .core.hierarchy import appendix_b_counterexample, equation_24_terms
from .engine import MetricRecorder
from .engine.plan import RNG_MODES, SCHEDULERS
from .engine.runtime import backend_choices
from .experiments import Table
from .faults import parse_fault_cli
from .processes import available_processes
from .study import (
    ADVERSARY_NAMES,
    journal_path,
    load_spec,
    load_study_store,
    study_report,
)

__all__ = ["main", "build_parser"]

#: The daemon's conventional port (any free port works; ``--port 0``
#: binds an ephemeral one and announces it on stdout).
DEFAULT_SERVE_PORT = 8321


def _serve_base_url(args: argparse.Namespace) -> str:
    if args.url:
        return args.url
    return os.environ.get(
        "REPRO_SERVE_URL", f"http://127.0.0.1:{DEFAULT_SERVE_PORT}"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Ignore or Comply? On Breaking Symmetry in "
            "Consensus' (PODC 2017)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="run one process to consensus")
    simulate.add_argument("process", help=f"one of: {', '.join(available_processes())}")
    simulate.add_argument("--nodes", "-n", type=int, default=1024)
    simulate.add_argument(
        "--colors", "-k", type=int, default=None,
        help="initial number of colors (default: n, i.e. leader election)",
    )
    simulate.add_argument("--bias", type=int, default=0, help="initial bias (needs -k)")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--max-rounds", type=int, default=None)
    simulate.add_argument("--trace", action="store_true", help="print the trajectory")

    sweep = sub.add_parser("sweep", help="consensus-time scaling sweep over n")
    sweep.add_argument("process", help=f"one of: {', '.join(available_processes())}")
    sweep.add_argument("--min-n", type=int, default=256)
    sweep.add_argument("--max-n", type=int, default=2048)
    sweep.add_argument("--repetitions", "-r", type=int, default=3)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument(
        "--output", "-o", default=None,
        help=(
            "write the sweep's study store here (read it with `repro study "
            "report`); refuses to overwrite an existing store"
        ),
    )
    sweep.add_argument(
        "--backend",
        default="ensemble-auto",
        choices=list(backend_choices()),
        help=(
            "execution strategy, resolved through the runtime's backend "
            "registry (default: ensemble-auto, the lock-step vectorized "
            "family); the *-auto aliases pick within a family by the "
            "registry's cost model, and the sequential names are the "
            "bit-for-bit reference paths"
        ),
    )
    sweep.add_argument(
        "--scheduler",
        default="synchronous",
        choices=list(SCHEDULERS),
        help=(
            "scheduling model: synchronous rounds (the paper's), or the "
            "asynchronous one-node-per-tick companion model (the sweep "
            "then measures first-passage ticks; predictions are scaled "
            "by n to match)"
        ),
    )
    sweep.add_argument(
        "--colors", "-k",
        type=int,
        default=None,
        help="balanced k-color start (default: n singleton colors)",
    )
    sweep.add_argument(
        "--adversary",
        default=None,
        choices=list(ADVERSARY_NAMES),
        help=(
            "run the §5 robust model: corrupt up to --budget nodes per "
            "round with this strategy and measure rounds until a stable "
            "almost-all consensus regime"
        ),
    )
    sweep.add_argument(
        "--budget",
        type=int,
        default=None,
        help=(
            "adversary corruption budget F per round (default: the "
            "[BCN+16] tolerance scale for each sweep point)"
        ),
    )
    sweep.add_argument(
        "--rng-mode",
        default="batched",
        choices=list(RNG_MODES),
        help=(
            "randomness regime: batched (fastest) or per-replica "
            "(reproduces the sequential reference streams bit-for-bit)"
        ),
    )
    sweep.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help=(
            "inject node faults each round: 'crash:p=0.01' (crash-stop), "
            "'crash:p=0.01,recover=0.1' (crash-recovery), "
            "'loss:p=0.05' (message loss), 'byzantine:p=0.02' (hostile "
            "rewrites; add color=C for a fixed hostile color); add "
            "start=/stop= to window the injection (synchronous scheduler "
            "only)"
        ),
    )
    sweep.add_argument(
        "--loss",
        type=float,
        default=None,
        metavar="P",
        help="per-round message-loss probability (merges with --faults)",
    )

    study = sub.add_parser(
        "study", help="run / resume / report declarative study specs"
    )
    study_sub = study.add_subparsers(dest="study_command", required=True)

    # The options `study run` and `study resume` share.
    run_options = argparse.ArgumentParser(add_help=False)
    run_options.add_argument("spec", help="path to a StudySpec TOML file")
    run_options.add_argument(
        "--store", "-o", default=None,
        help="result store path (default: <spec>.store.json next to the spec)",
    )
    run_options.add_argument(
        "--max-cells", type=int, default=None,
        help="run at most this many new cells, then checkpoint and exit",
    )
    run_options.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help=(
            "wall-clock budget per cell attempt; a cell exceeding it is "
            "killed and recorded as status=timeout (overrides the spec's "
            "[execution] table)"
        ),
    )
    run_options.add_argument(
        "--max-attempts", type=int, default=None, metavar="N",
        help=(
            "total attempts per cell for transient/unknown errors "
            "(overrides the spec's [execution] table; default 2)"
        ),
    )
    run_options.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=None,
        help=(
            "consult/populate the shared content-addressed result cache "
            "($REPRO_CACHE_DIR, default ~/.cache/repro); --no-cache forces "
            "it off even for a spec whose [cache] table enables it "
            "(default: the spec's table, else off)"
        ),
    )
    run_options.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="use DIR as the result cache (implies --cache)",
    )
    run_options.add_argument(
        "--quiet", action="store_true", help="suppress the final report table"
    )

    run = study_sub.add_parser(
        "run", parents=[run_options],
        help="execute a StudySpec TOML and checkpoint its result store",
    )
    run.add_argument(
        "--resume", action="store_true",
        help="continue into an existing store instead of refusing to clobber it",
    )
    study_sub.add_parser(
        "resume", parents=[run_options],
        help="complete an interrupted study store bit-for-bit",
    )

    report = study_sub.add_parser(
        "report", help="render a saved study store (no simulation)"
    )
    report.add_argument("store", help="path to a study store JSON file")

    validate = study_sub.add_parser(
        "validate", help="compile a spec's whole grid without running it"
    )
    validate.add_argument("spec", help="path to a StudySpec TOML file")
    validate.add_argument(
        "--cells", action="store_true", help="also list every compiled cell"
    )

    def _serve_url(sub_parser):
        sub_parser.add_argument(
            "--url", default=None, metavar="URL",
            help=(
                "daemon address (default: $REPRO_SERVE_URL, else "
                f"http://127.0.0.1:{DEFAULT_SERVE_PORT})"
            ),
        )

    submit = study_sub.add_parser(
        "submit", help="submit a spec to a running repro serve daemon"
    )
    submit.add_argument("spec", help="path to a StudySpec TOML file")
    submit.add_argument(
        "--watch", action="store_true",
        help="stay attached and stream progress until the job finishes",
    )
    _serve_url(submit)

    status = study_sub.add_parser("status", help="one job's state and cell counts")
    status.add_argument("job", help="job id (the spec_hash from submit)")
    _serve_url(status)

    watch = study_sub.add_parser(
        "watch", help="stream a job's progress events until it finishes"
    )
    watch.add_argument("job", help="job id (the spec_hash from submit)")
    _serve_url(watch)

    results = study_sub.add_parser(
        "results", help="fetch a job's result store from the daemon"
    )
    results.add_argument("job", help="job id (the spec_hash from submit)")
    results.add_argument(
        "--output", "-o", default=None,
        help="save the store as JSON here instead of rendering the report",
    )
    _serve_url(results)

    cancel = study_sub.add_parser("cancel", help="cancel a queued or running job")
    cancel.add_argument("job", help="job id (the spec_hash from submit)")
    _serve_url(cancel)

    cache = study_sub.add_parser(
        "cache", help="inspect / garbage-collect the shared result cache"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser(
        "stats", help="entries, bytes, and the hit rate since the last gc"
    )
    cache_stats.add_argument(
        "--dir", default=None, metavar="DIR",
        help="cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    cache_gc = cache_sub.add_parser(
        "gc", help="expire old entries and bound the cache size"
    )
    cache_gc.add_argument(
        "--max-age", type=float, default=None, metavar="SECONDS",
        help="drop entries not used for more than this many seconds",
    )
    cache_gc.add_argument(
        "--max-bytes", type=int, default=None, metavar="BYTES",
        help="evict least-recently-used entries down to this many bytes",
    )
    cache_gc.add_argument("--dir", default=None, metavar="DIR")

    serve = sub.add_parser(
        "serve", help="run the study-execution daemon (see repro.serve)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=DEFAULT_SERVE_PORT,
                       help=f"listen port (0 = ephemeral; default {DEFAULT_SERVE_PORT})")
    serve.add_argument(
        "--state-dir", default="repro-serve", metavar="DIR",
        help=(
            "durable service state: the job journal, one store per job, "
            "and the daemon's result cache (default: ./repro-serve); a "
            "restarted daemon on the same dir resumes in-flight jobs "
            "bit-for-bit"
        ),
    )
    serve.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=True,
        help=(
            "keep a result cache inside the state dir so resubmitted "
            "specs replay at 100%% hits (default: on)"
        ),
    )
    serve.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="use DIR as the cache instead of <state-dir>/cache")
    serve.add_argument(
        "--verbose", action="store_true", help="log each HTTP request"
    )

    sub.add_parser("counterexample", help="print the Appendix-B 7/12 report")
    return parser


def _workload_value(args: argparse.Namespace) -> dict:
    """The CLI's -n/-k/--bias flags as a declarative workload value."""
    bias = getattr(args, "bias", 0)
    if args.colors is None:
        if bias:
            raise SystemExit("--bias requires --colors")
        return {"name": "singletons", "kwargs": {}}
    if bias:
        return {"name": "biased", "kwargs": {"k": args.colors, "bias": bias}}
    return {"name": "balanced", "kwargs": {"k": args.colors}}


def _cmd_simulate(args: argparse.Namespace) -> int:
    recorder = MetricRecorder(names=("num_colors", "max_support")) if args.trace else None
    result = api.simulate(
        args.process,
        n=args.nodes,
        workload=_workload_value(args),
        seed=args.seed,
        max_rounds=args.max_rounds,
        recorder=recorder,
    )
    initial = result.plan.initial
    print(
        f"{result.plan.spawn_process().name}: consensus after "
        f"{int(result.times[0])} {result.unit} "
        f"(n={initial.num_nodes}, start colors={initial.num_colors}, "
        f"backend={result.backend})"
    )
    if recorder is not None:
        table = Table(title="trajectory", columns=["round", "colors", "max support"])
        data = recorder.as_dict()
        stride = max(1, len(recorder) // 20)
        for i in range(0, len(recorder), stride):
            table.add_row(int(data["rounds"][i]), int(data["num_colors"][i]), int(data["max_support"][i]))
        print(table.render())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.min_n < 2 or args.max_n < args.min_n:
        raise SystemExit("need 2 <= min-n <= max-n")
    if args.colors is not None and args.colors < 2:
        raise SystemExit("--colors must be at least 2")
    try:
        faults = parse_fault_cli(args.faults, loss=args.loss)
    except ValueError as exc:
        raise SystemExit(f"bad --faults/--loss value: {exc}") from exc
    n_values = [args.min_n]
    while n_values[-1] * 2 <= args.max_n:
        n_values.append(n_values[-1] * 2)

    workload = _workload_value(args)
    start = (
        "n distinct colors"
        if workload["name"] == "singletons"
        else f"{args.colors} balanced colors"
    )

    quantity, predicted_label = "consensus time", "Thm-4 scale"
    # Ticks perform n adoption draws per synchronous-round equivalent, so
    # the paper-scale prediction column is multiplied by n under the
    # asynchronous scheduler.
    tick_scale = (
        (lambda n: n) if args.scheduler == "asynchronous" else (lambda n: 1)
    )
    if args.scheduler == "asynchronous":
        quantity, predicted_label = "consensus ticks", "Thm-4 scale × n"
    adversary = None
    if args.adversary is not None:
        # Declarative §5 scenario; a missing budget resolves to the
        # [BCN+16] tolerance scale per sweep point at compile time.
        adversary = {"name": args.adversary, "budget": args.budget}
        quantity = f"rounds to a stable valid regime vs {args.adversary}"
        predicted_label = "Thm-4 scale"

    try:
        result = api.sweep(
            args.process,
            n_values,
            repetitions=args.repetitions,
            seed=args.seed,
            workload=workload,
            scheduler=args.scheduler,
            adversary=adversary,
            faults=faults,
            backend=args.backend,
            rng_mode=args.rng_mode,
            predicted=lambda n: three_majority_consensus_upper(n) * tick_scale(n),
            name=f"{quantity} of {args.process} from {start}",
            # Adversarial runs can stall (that is the phenomenon under
            # study); keep their horizon at the §5 runner's default instead
            # of the sweep's generous consensus budget.
            max_rounds=50_000 if adversary is not None else 10**7,
            store_path=args.output,
        )
    except (OSError, KeyError, TypeError, ValueError) as exc:
        # Backend/axis mismatches surface as compile-time or runtime
        # rejections, and an unwritable --output before the first cell;
        # present them as usage errors, not tracebacks.
        raise SystemExit(f"cannot run this sweep: {exc}") from exc
    print(result.to_table(predicted_label=predicted_label).render())
    if args.output:
        print(f"study store saved to {args.output}")
    return 0


def _default_store_path(spec_path: str) -> str:
    stem, _ = os.path.splitext(spec_path)
    return f"{stem}.store.json"


def _progress_printer(total: int):
    def progress(cell, record) -> None:
        if record.status == "timeout":
            error = record.error or {}
            print(
                f"[{cell.index + 1}/{total}] {cell.label()}: TIMEOUT — "
                f"exceeded deadline_s={error.get('deadline_s')} "
                f"({record.wall_time_s:.2f}s; resume to retry)"
            )
            return
        if not record.ok:
            error = record.error or {}
            print(
                f"[{cell.index + 1}/{total}] {cell.label()}: FAILED after "
                f"{error.get('attempts', '?')} attempt(s) — "
                f"{error.get('type', 'Error')}: {error.get('message', '')} "
                f"({record.wall_time_s:.2f}s)"
            )
            return
        backend = record.resolved_backend
        if record.cache_hit:
            backend += " (cached)"
        if record.degraded_from:
            backend += f" (degraded from {record.degraded_from})"
        print(
            f"[{cell.index + 1}/{total}] {cell.label()}: "
            f"mean {float(record.times.mean()):.1f} {record.unit} "
            f"({backend}, {record.wall_time_s:.2f}s)"
        )

    return progress


def _cmd_study_cache(args: argparse.Namespace) -> int:
    from .study import ResultCache

    cache = ResultCache(args.dir)
    if args.cache_command == "stats":
        stats = cache.stats()
        rate = stats["hit_rate"]
        rate_text = f"{rate:.1%}" if rate is not None else "n/a (no lookups)"
        print(f"cache dir : {stats['dir']}")
        print(f"entries   : {stats['entries']}")
        print(f"bytes     : {stats['bytes']}")
        print(
            f"hit rate  : {rate_text} "
            f"({stats['hits']} hits / {stats['misses']} misses since last gc)"
        )
        return 0
    swept = cache.gc(max_age_s=args.max_age, max_bytes=args.max_bytes)
    print(
        f"gc removed {swept['removed']} entr"
        f"{'y' if swept['removed'] == 1 else 'ies'}; "
        f"{swept['entries']} kept ({swept['bytes']} bytes); "
        "hit/miss counters reset"
    )
    return 0


def _cmd_study_validate(args: argparse.Namespace) -> int:
    try:
        summary = api.validate(args.spec)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise SystemExit(f"invalid spec: {exc}") from exc
    print(
        f"{summary['name']}: {summary['num_cells']} cells x "
        f"{summary['repetitions']} repetitions (spec_hash {summary['spec_hash']})"
    )
    if args.cells:
        for cell in summary["cells"]:
            print(f"  [{cell['index']}] {cell['cell_id']}  {cell['label']}")
    return 0


def _print_job(view: dict) -> None:
    counts = view["counts"]
    done = counts["ok"] + counts["failed"] + counts["timeout"]
    line = (
        f"job {view['id']} ({view['name']}): {view['state']} — "
        f"{done}/{view['num_cells']} cells"
    )
    detail = [
        f"{counts[key]} {key}"
        for key in ("failed", "timeout", "cached", "degraded")
        if counts.get(key)
    ]
    if detail:
        line += f" ({', '.join(detail)})"
    if view.get("error"):
        line += f" — {view['error']}"
    print(line)


def _print_event(event: dict, total: int) -> None:
    index = event["index"] + 1
    if event["status"] != "ok":
        print(f"[{index}/{total}] cell {event['cell_id']}: {event['status'].upper()} "
              f"({event['wall_time_s']:.2f}s; resubmit to retry)")
        return
    backend = event["backend"]
    if event["cache_hit"]:
        backend += " (cached)"
    if event["degraded_from"]:
        backend += f" (degraded from {event['degraded_from']})"
    print(
        f"[{index}/{total}] cell {event['cell_id']}: "
        f"mean {event['mean']:.1f} {event['unit']} "
        f"({backend}, {event['wall_time_s']:.2f}s)"
    )


def _cmd_study_serve_verb(args: argparse.Namespace) -> int:
    from .serve import ServeClient, ServeError

    client = ServeClient(_serve_base_url(args))
    try:
        if args.study_command == "submit":
            try:
                spec = load_spec(args.spec)
            except (OSError, TypeError, ValueError) as exc:
                raise SystemExit(f"cannot load spec: {exc}") from exc
            view = client.submit(spec)
            verb = "attached to" if view["attached"] else "submitted"
            print(f"{verb} job {view['id']} ({view['state']}, "
                  f"{view['num_cells']} cells)")
            if not args.watch:
                return 0
            args.job = view["id"]
        if args.study_command in ("watch", "submit"):
            total = client.status(args.job)["num_cells"]
            final = client.wait(args.job, progress=lambda e: _print_event(e, total))
            _print_job(final)
            return 0 if final["state"] == "done" else 1
        if args.study_command == "status":
            _print_job(client.status(args.job))
            return 0
        if args.study_command == "cancel":
            _print_job(client.cancel(args.job))
            return 0
        # results
        payload = client.results(args.job)
        if args.output:
            from .study import StudyStore

            StudyStore.from_dict(payload["store"]).save(args.output)
            print(f"store saved to {args.output} (job state: {payload['state']})")
            return 0
        from .study import StudyStore

        print(study_report(StudyStore.from_dict(payload["store"])).render())
        return 0
    except ServeError as exc:
        raise SystemExit(f"daemon error: {exc}") from exc


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import serve

    cache = args.cache
    if args.cache_dir is not None and cache is not False:
        cache = args.cache_dir
    return serve(
        host=args.host,
        port=args.port,
        state_dir=args.state_dir,
        cache=cache,
        verbose=args.verbose,
    )


def _cmd_study(args: argparse.Namespace) -> int:
    if args.study_command == "cache":
        return _cmd_study_cache(args)
    if args.study_command == "validate":
        return _cmd_study_validate(args)
    if args.study_command in ("submit", "status", "watch", "results", "cancel"):
        return _cmd_study_serve_verb(args)
    if args.study_command == "report":
        try:
            store = load_study_store(args.store)
        except (OSError, KeyError, ValueError) as exc:
            raise SystemExit(f"cannot load store: {exc}") from exc
        print(study_report(store).render())
        return 0
    try:
        spec = load_spec(args.spec)
    except (OSError, TypeError, ValueError) as exc:
        raise SystemExit(f"cannot load spec: {exc}") from exc
    store_path = args.store or _default_store_path(args.spec)
    resume = args.study_command == "resume" or args.resume
    if (
        args.study_command == "resume"
        and not os.path.exists(store_path)
        and not os.path.exists(journal_path(store_path))
    ):
        raise SystemExit(
            f"no store to resume at {store_path} (run `repro study run` first)"
        )
    cache = args.cache
    if args.cache_dir is not None and cache is not False:
        cache = args.cache_dir
    try:
        store = api.study(
            spec,
            store_path=store_path,
            resume=resume,
            max_cells=args.max_cells,
            progress=_progress_printer(spec.num_cells()),
            max_attempts=args.max_attempts,
            deadline_s=args.deadline,
            cache=cache,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SystemExit(f"cannot run this study: {exc}") from exc
    broken = store.failed()
    timeouts = sum(1 for r in broken if r.status == "timeout")
    failed, total = len(broken), spec.num_cells()
    done = len(store) - failed
    if failed:
        breakdown = f"{failed - timeouts} failed"
        if timeouts:
            breakdown += f", {timeouts} timed out"
        state = (
            f"{done}/{total} cells ok, {breakdown} "
            "(resume to retry the failures)"
        )
    elif done == total:
        state = "complete"
    elif store.interrupted:
        # A graceful SIGTERM/SIGINT: the cell in flight was checkpointed
        # and the journal compacted, so this is a clean exit, not a crash.
        state = (
            f"{done}/{total} cells — interrupted, checkpoint intact "
            "(`repro study resume` continues bit-for-bit)"
        )
    else:
        state = f"{done}/{total} cells (resumable)"
    hits = sum(1 for record in store.records() if record.cache_hit)
    if hits:
        state += f" ({hits} cell{'s' if hits != 1 else ''} from cache)"
    print(f"store saved to {store_path} — {state}")
    if not args.quiet:
        print(study_report(store).render())
    return 0


def _cmd_counterexample() -> int:
    report = appendix_b_counterexample()
    terms = " + ".join(str(t) for t in equation_24_terms())
    print("Appendix B (exact rational arithmetic):")
    print(f"  inputs      x̃ = {tuple(map(str, report.x_upper))} ⪰ x = {tuple(map(str, report.x_lower))}: {report.inputs_comparable}")
    print(f"  α⁴ᴹ(x̃)     = {tuple(map(str, report.alpha_upper))}")
    print(f"  α³ᴹ(x)[0]  = {terms} = {report.top_mass_lower}   (Equation 24)")
    print(f"  α⁴ᴹ(x̃) ⪰ α³ᴹ(x): {report.images_majorize}  →  Lemma-1 hypothesis fails: {report.lemma1_hypothesis_fails()}")
    return 0


def main(argv: "Sequence[str] | None" = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "study":
        return _cmd_study(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "counterexample":
        return _cmd_counterexample()
    raise SystemExit(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
