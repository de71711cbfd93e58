"""Command-line interface: run any experiment from the shell.

Usage::

    python -m repro list
    python -m repro run fig13 --users 4,16 --repetitions 2
    python -m repro run fig19 --engine sqlserver --n-clients 16
    python -m repro run fig7 --telemetry out/fig7
    python -m repro stats out/fig7
    python -m repro explain out/fig7 --action-only
    python -m repro compare --workload q6 --clients 16
    python -m repro verify --json
    python -m repro cache stats

``run`` executes one figure/extension harness and prints its table; with
``--telemetry DIR`` it records metrics, spans and decision provenance
and exports them to ``DIR``.  ``stats`` summarises a recorded metrics
snapshot and, when the directory holds a decision log, each tenant's
controller health (convergence to LONC, oscillation, allocation lag);
``explain`` replays the decision-provenance log — the full causal chain
(sample -> guard -> action) behind every mask change.  ``compare`` is a
quick four-way mode comparison on one query; ``verify`` runs the static
checks of the PrT-net model (exit 0 clean, 1 on findings) — the CI
gate.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
from collections.abc import Callable
from pathlib import Path

from .analysis.report import render_table
from .db.clients import repeat_stream
from .errors import ReproError
from .experiments import (ablations, ext_mixed_oltp, ext_morsel,
                          ext_multi_tenant, ext_predicate_aware, ext_sla,
                          fig04_microbench, fig05_migration_os,
                          fig06_tomograph, fig07_state_transitions,
                          fig13_scheduling, fig14_memory,
                          fig15_selectivity, fig16_migration_modes,
                          fig17_strategies, fig18_stable_phases,
                          fig19_mixed_phases, fig20_energy, overhead)
from .experiments.common import build_system

#: name -> (runner, description).  Every runner returns an object with
#: ``table()``.
EXPERIMENTS: dict[str, tuple[Callable, str]] = {
    "fig4": (fig04_microbench.run,
             "Q6 microbenchmark vs concurrent clients"),
    "fig5": (fig05_migration_os.run, "OS thread migration map"),
    "fig6": (fig06_tomograph.run, "Tomograph of Q6's workers"),
    "fig7": (fig07_state_transitions.run,
             "state transitions + core staircase"),
    "fig13": (fig13_scheduling.run, "scheduling metrics vs users"),
    "fig14": (fig14_memory.run, "memory metrics at high concurrency"),
    "fig15": (fig15_selectivity.run, "L3 misses vs selectivity"),
    "fig16": (fig16_migration_modes.run, "migration maps per mode"),
    "fig17": (fig17_strategies.run, "CPU-load vs HT/IMC strategies"),
    "fig18": (fig18_stable_phases.run, "stable-phases workload"),
    "fig19": (fig19_mixed_phases.run, "mixed-phases per-query results"),
    "fig20": (fig20_energy.run, "per-query energy accounting"),
    "overhead": (overhead.run, "controller token-flow overhead"),
    "sla": (ext_sla.run, "extension: traffic-SLA governor"),
    "oltp": (ext_mixed_oltp.run, "extension: mixed OLAP/OLTP"),
    "multi-tenant": (ext_multi_tenant.run,
                     "extension: two controllers, one machine"),
    "predicate-aware": (ext_predicate_aware.run,
                        "extension: predicate-aware worker sizing"),
    "morsel": (ext_morsel.run,
               "extension: morsel-driven engine x the mechanism"),
    "ablation-thresholds": (ablations.thresholds,
                            "ablation: threshold sweep"),
    "ablation-strategies": (ablations.strategies,
                            "ablation: strategy comparison"),
    "ablation-parallelism": (ablations.elastic_parallelism,
                             "ablation: elastic parallelism"),
    "ablation-autonuma": (ablations.autonuma,
                          "ablation: AutoNUMA page migration"),
}

#: CLI option -> runner kwarg, with a parser for the string value
_OPTION_SPECS = {
    "users": ("users", lambda s: tuple(int(v) for v in s.split(","))),
    "repetitions": ("repetitions", int),
    "n_clients": ("n_clients", int),
    "queries_per_client": ("queries_per_client", int),
    "engine": ("engine", str),
    "scale": ("scale", float),
    "sim_scale": ("sim_scale", float),
    "seed": ("seed", int),
    "budget_fraction": ("budget_fraction", float),
}


def _positive_int(text: str) -> int:
    """argparse ``type``: an integer >= 1 (anything else exits 2)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Elastic multi-core allocation for database "
                     "systems (ICDE 2018) - experiment runner"))
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run.add_argument("--telemetry", metavar="DIR", default=None,
                     help="record telemetry and export it to DIR "
                          "(metrics.jsonl, trace.json, decisions.jsonl)")
    run.add_argument("--parallel", type=int, default=1, metavar="N",
                     help="fan independent experiment cells across N "
                          "worker processes (results are identical to "
                          "a serial run; experiments without a cell "
                          "plan fall back to serial)")
    run.add_argument("--profile", action="store_true",
                     help="run under cProfile: writes "
                          "profile_<experiment>.pstats and prints the "
                          "top-20 cumulative functions (forces a "
                          "serial, uncached run)")
    run.add_argument("--no-cache", action="store_true",
                     help="re-run every cell instead of replaying "
                          "cached results")
    for option in _OPTION_SPECS:
        run.add_argument(f"--{option.replace('_', '-')}", dest=option,
                         default=None)

    cache = sub.add_parser(
        "cache",
        help="inspect or clear the content-addressed result cache")
    cache.add_argument("action", choices=("stats", "clear"))
    cache.add_argument("--dir", default=None, metavar="DIR",
                       help="cache directory (default .repro-cache/ or "
                            "$REPRO_CACHE_DIR)")

    stats = sub.add_parser(
        "stats", help="summarise a recorded telemetry directory")
    stats.add_argument("path",
                       help="telemetry directory (or a metrics.jsonl "
                            "file) written by run --telemetry")
    stats.add_argument("--tenant", default=None,
                       help="only this tenant's per-tenant instruments "
                            "(controller.*, cpuset.*, petrinet.*) and "
                            "controller-health row")

    explain = sub.add_parser(
        "explain",
        help="replay the decision provenance of a recorded run")
    explain.add_argument("path",
                         help="telemetry directory (or a "
                              "decisions.jsonl file) written by "
                              "run --telemetry")
    explain.add_argument("--tick", type=int, default=None,
                         help="explain one controller tick only")
    explain.add_argument("--tenant", default=None,
                         help="only decisions taken by this tenant's "
                              "controller")
    explain.add_argument("--state", default=None,
                         choices=("Idle", "Stable", "Overload"),
                         help="only decisions in this performance state")
    explain.add_argument("--action-only", action="store_true",
                         help="only decisions that changed the mask")
    explain.add_argument("--limit", type=_positive_int, default=None,
                         help="show at most N decisions (from the end)")
    explain.add_argument("--json", action="store_true",
                         help="machine-readable records on stdout")

    compare = sub.add_parser(
        "compare", help="quick four-way mode comparison on one query")
    compare.add_argument("--workload", default="q6",
                         help="registered query name (default q6)")
    compare.add_argument("--clients", type=int, default=16)
    compare.add_argument("--repetitions", type=int, default=3)
    compare.add_argument("--engine", default="monetdb",
                         choices=("monetdb", "sqlserver", "morsel"))

    verify = sub.add_parser(
        "verify",
        help="static checks of the PrT-net model (the CI gate)")
    verify.add_argument("--json", action="store_true",
                        help="machine-readable report on stdout")
    verify.add_argument("--strategy", default="all",
                        choices=("all", "cpu_load", "ht_imc",
                                 "useful_load"),
                        help="which strategy's thresholds to verify")
    verify.add_argument("--th-min", type=float, default=None)
    verify.add_argument("--th-max", type=float, default=None)
    verify.add_argument("--n-total", type=int, default=16,
                        help="machine core count (default 16)")
    verify.add_argument("--min-cores", type=int, default=1)
    verify.add_argument("--initial-cores", type=int, default=None,
                        help="cores held at start (default: --min-cores)")
    verify.add_argument("--grid", type=int, default=101,
                        help="uniform metric probes on top of the "
                             "breakpoints (default 101)")
    verify.add_argument("--fixture", default=None,
                        help="PATH[:FUNC] of a python file whose FUNC "
                             "(default 'build') returns the model to "
                             "verify instead of the shipped one")
    return parser


def _runner_kwargs(args: argparse.Namespace, runner: Callable) -> dict:
    """Translate the shared experiment options into runner kwargs."""
    kwargs = {}
    for option, (kwarg, parse) in _OPTION_SPECS.items():
        raw = getattr(args, option, None)
        if raw is None:
            continue
        if kwarg not in runner.__code__.co_varnames:
            raise ReproError(
                f"{args.experiment} does not accept --"
                f"{option.replace('_', '-')}")
        kwargs[kwarg] = parse(raw)
    return kwargs


def _run_experiment(args: argparse.Namespace) -> str:
    runner, _ = EXPERIMENTS[args.experiment]
    kwargs = _runner_kwargs(args, runner)
    note = ""
    parallel = getattr(args, "parallel", 1) or 1
    telemetry = getattr(args, "telemetry", None)
    profile = getattr(args, "profile", False)
    if profile and telemetry is not None:
        raise ReproError("--profile and --telemetry are mutually "
                         "exclusive")
    if parallel > 1:
        if parallel > 64:
            raise ReproError("--parallel accepts at most 64 workers")
        if telemetry is not None:
            # telemetry hooks the process-wide recorder; worker
            # processes would record into the void
            note = ("note: --telemetry records in-process; running "
                    "serially\n")
        elif "parallel" not in runner.__code__.co_varnames:
            note = (f"note: {args.experiment} has no parallel cell "
                    f"plan; running serially\n")
        else:
            kwargs["parallel"] = parallel

    from .runner import cache as cache_mod
    from .runner import pool as pool_mod

    use_cache = not getattr(args, "no_cache", False)
    if profile:
        if kwargs.pop("parallel", None):
            note += "note: --profile forces a serial run\n"
        use_cache = False
    if telemetry is not None:
        # replayed cells execute no simulation, so they would record
        # nothing — a telemetry run must simulate every cell
        use_cache = False
    cache_mod.configure(cache_mod.ResultCache() if use_cache else None)
    fanned_out = kwargs.get("parallel", 1) > 1
    try:
        if profile:
            return note + _profile_run(args.experiment, runner, kwargs)
        if telemetry is None:
            output = note + runner(**kwargs).table()
            if fanned_out:
                output += _pool_summary(pool_mod.last_pool_stats())
            return output
        from .obs import Recorder, export_run, install, uninstall

        recorder = Recorder()
        install(recorder)
        try:
            result = runner(**kwargs)
        finally:
            uninstall()
        paths = export_run(recorder, telemetry)
        exported = "\n".join(f"  {p}" for p in paths.values())
        return (f"{note}{result.table()}\n\ntelemetry written to:\n"
                f"{exported}")
    finally:
        cache_mod.configure(None)


def _pool_summary(stats) -> str:
    """One-line pool telemetry after a ``--parallel`` run."""
    if stats is None or not stats.workers:
        return ""
    return (f"\npool (last fan-out): {stats.workers} worker(s), "
            f"utilisation {stats.mean_utilisation():.0%}, "
            f"{stats.ipc_bytes_shipped:,} B shipped over IPC, "
            f"{stats.shm_bytes:,} B of atoms mapped once per worker")


def _profile_run(name: str, runner: Callable, kwargs: dict) -> str:
    """Run one experiment under cProfile; dump stats, print the top-20."""
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = runner(**kwargs)
    finally:
        profiler.disable()
    out = Path(f"profile_{name}.pstats")
    profiler.dump_stats(out)
    stream = io.StringIO()
    pstats.Stats(profiler, stream=stream) \
        .sort_stats("cumulative").print_stats(20)
    return (f"{result.table()}\n\nprofile written to {out}\n"
            f"{stream.getvalue().rstrip()}")


def _run_cache(args: argparse.Namespace) -> str:
    from .runner.cache import ResultCache

    store = ResultCache(directory=args.dir)
    if args.action == "clear":
        return (f"cleared {store.clear()} cached result(s) from "
                f"{store.directory}")
    counts = store.stats()
    rows = [[name, counts[name]]
            for name in ("hits", "misses", "stored", "entries", "bytes")]
    return render_table(["counter", "value"], rows,
                        title=f"result cache @ {counts['directory']}")


def _run_stats(args: argparse.Namespace) -> str:
    from .obs import (DECISIONS_JSONL, METRICS_JSONL, analyze_decisions,
                      load_decisions, load_metrics_jsonl, stats_table)

    path = Path(args.path)
    if path.is_dir():
        path = path / METRICS_JSONL
    if not path.exists():
        raise ReproError(f"no metrics snapshot at {path}")
    output = stats_table(load_metrics_jsonl(path), title=str(path),
                         tenant=args.tenant)
    decisions_path = path.parent / DECISIONS_JSONL
    if not decisions_path.exists():
        return output
    health = analyze_decisions(load_decisions(decisions_path)).snapshot()
    rows = [[tenant, h["decisions"], "yes" if h["converged"] else "no",
             _or_dash(h["convergence_time"]), h["divergences"],
             h["oscillation"], h["flapping"], _or_dash(h["mean_lag"])]
            for tenant, h in health.items()
            if args.tenant in (None, tenant)]
    if not rows:
        return output
    return output + "\n\n" + render_table(
        ["tenant", "decisions", "converged", "converge s", "divergences",
         "oscillation", "flapping", "mean lag"],
        rows, title=f"controller health ({decisions_path})")


def _or_dash(value):
    return "-" if value is None else value


def _run_explain(args: argparse.Namespace) -> str:
    from .obs import DECISIONS_JSONL, explain_decision, load_decisions

    path = Path(args.path)
    if path.is_dir():
        path = path / DECISIONS_JSONL
    if not path.exists():
        raise ReproError(f"no decision log at {path}")
    decisions = load_decisions(path)
    if args.tenant is not None:
        decisions = [d for d in decisions if d.tenant == args.tenant]
    if args.tick is not None:
        decisions = [d for d in decisions if d.tick == args.tick]
        if not decisions:
            raise ReproError(f"no decision recorded for tick {args.tick}")
    if args.state is not None:
        decisions = [d for d in decisions if d.state == args.state]
    if args.action_only:
        decisions = [d for d in decisions if d.action is not None]
    total = len(decisions)
    if args.limit is not None:
        decisions = decisions[-args.limit:]
    if args.json:
        import dataclasses
        import json
        return "\n".join(json.dumps(dataclasses.asdict(d))
                         for d in decisions)
    if not decisions:
        return "(no matching decisions)"
    blocks = [explain_decision(d) for d in decisions]
    if total > len(decisions):
        blocks.insert(0, f"... {total - len(decisions)} earlier "
                         f"decisions elided (--limit)")
    return "\n\n".join(blocks)


def _run_compare(args: argparse.Namespace) -> str:
    rows = []
    for mode in (None, "dense", "sparse", "adaptive"):
        sut = build_system(engine=args.engine, mode=mode)
        sut.mark()
        workload = sut.run_clients(
            args.clients, repeat_stream(args.workload, args.repetitions))
        cores = (sut.controller.lonc.report().mean_cores
                 if sut.controller else float(sut.os.topology.n_cores))
        rows.append([sut.label, workload.throughput,
                     workload.mean_latency(), sut.ht_imc_ratio(),
                     sut.delta("migrations"), cores])
    return render_table(
        ["config", "queries/s", "mean lat s", "HT/IMC", "migrations",
         "mean cores"],
        rows,
        title=(f"{args.workload}, {args.clients} clients on "
               f"{args.engine}"))


#: strategy name -> (default th_min, default th_max, metric domain)
_VERIFY_STRATEGIES = {
    "cpu_load": (10.0, 70.0, (0.0, 100.0)),
    "useful_load": (10.0, 70.0, (0.0, 100.0)),
    "ht_imc": (0.1, 0.4, (0.0, 1.0)),
}


def _load_fixture(spec: str):
    """Load ``PATH[:FUNC]`` and call FUNC (default ``build``)."""
    path, func_name = Path(spec), "build"
    if not path.exists() and ":" in spec:
        path_text, _, func_name = spec.rpartition(":")
        path = Path(path_text)
    if not path.exists():
        raise ReproError(f"fixture file {spec!r} not found")
    module_spec = importlib.util.spec_from_file_location(
        "repro_verify_fixture", path)
    if module_spec is None or module_spec.loader is None:
        raise ReproError(f"cannot load fixture {path}")
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    builder = getattr(module, func_name or "build", None)
    if builder is None:
        raise ReproError(
            f"fixture {path} defines no {func_name or 'build'}()")
    return builder()


def _run_verify(args: argparse.Namespace) -> int:
    from .config import preflight_defects
    from .core.model import PerformanceModel
    from .verify import (Finding, VerificationReport,
                         verify_performance_model)

    reports = []
    if args.fixture is not None:
        model = _load_fixture(args.fixture)
        reports.append(verify_performance_model(
            model, grid=args.grid, subject=f"fixture {args.fixture}"))
    else:
        names = (list(_VERIFY_STRATEGIES) if args.strategy == "all"
                 else [args.strategy])
        initial_cores = (args.min_cores if args.initial_cores is None
                         else args.initial_cores)
        for name in names:
            th_min, th_max, domain = _VERIFY_STRATEGIES[name]
            if args.th_min is not None:
                th_min, domain = args.th_min, None
            if args.th_max is not None:
                th_max, domain = args.th_max, None
            subject = (f"{name}(th_min={th_min}, th_max={th_max}, "
                       f"n_total={args.n_total})")
            defects = preflight_defects(
                th_min, th_max, args.min_cores, initial_cores,
                args.n_total)
            if defects:
                report = VerificationReport(subject=subject)
                report.extend("model-config", [
                    Finding("model-config", message)
                    for message in defects])
                reports.append(report)
                continue
            model = PerformanceModel(
                th_min, th_max, args.n_total, n_min=args.min_cores,
                initial_cores=initial_cores)
            if domain is not None:
                model.metric_domain = domain
            reports.append(verify_performance_model(
                model, grid=args.grid, subject=subject))
    ok = all(report.ok for report in reports)
    if args.json:
        import json
        print(json.dumps(
            {"ok": ok, "reports": [r.as_dict() for r in reports]},
            indent=2))
    else:
        for report in reports:
            print(report.render())
        print(f"verification {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            rows = [[name, description]
                    for name, (_, description) in sorted(
                        EXPERIMENTS.items())]
            print(render_table(["experiment", "description"], rows))
        elif args.command == "run":
            print(_run_experiment(args))
        elif args.command == "cache":
            print(_run_cache(args))
        elif args.command == "stats":
            print(_run_stats(args))
        elif args.command == "explain":
            print(_run_explain(args))
        elif args.command == "verify":
            return _run_verify(args)
        else:
            print(_run_compare(args))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover - module execution path
    sys.exit(main())
