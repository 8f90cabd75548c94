"""Command-line interface.

Subcommands::

    repro simulate --out runs/trace                    # simulate into a store
    repro --jobs 4 simulate --out runs/trace           # 4 segments, 4 workers
    repro --jobs 4 experiment all                      # parallel fan-out
    repro characterize --preset default                # figs 1-8 stats
    repro evaluate --preset default --split DS1 --model gbdt
    repro experiment fig10 table2 ...                  # named artifacts
    repro experiment all                               # the full sweep
    repro faults --intensities 0,0.1,0.25 --seed 7     # degradation curve
    repro simulate --out t --scenario regime-change    # scripted cluster life
    repro serve-replay --registry runs/registry        # online-path replay
    repro serve-replay --registry r --chaos 0.25       # chaos replay
    repro serve-replay --registry r --drift            # drift-guarded retrains
    repro resilience --intensities 0,0.25 --seed 7     # availability curve
    repro registry verify --registry runs/registry     # checksum audit
    repro registry rollback --registry r --to 2        # re-point the head
    repro simulate --out runs/trace --resume           # finish a killed run
    repro store verify --store runs/trace              # checksum audit
    repro store recover --store runs/trace             # heal bad segments
    repro store inject --store runs/trace --kind torn  # disk-fault drill
    repro store digest --store runs/trace              # streamed digest
    repro store features --store runs/trace            # out-of-core features
    repro --obs on --obs-snapshot obs.json simulate --out runs/trace
    repro obs report obs.json                          # render a snapshot
    repro obs diff before.json after.json              # compare two

The top-level ``--strict`` flag escalates every degraded-data repair
(corrupt cache entry, quarantined segment, sanitizer fix-up, ...) into a
typed :class:`~repro.utils.errors.DegradedDataError` with exit status 1,
for pipelines that must fail loudly rather than self-heal.

Every trace on disk is a segment store (:mod:`repro.store`): the
``simulate`` output and the preset-keyed trace cache that the other
subcommands share (see ``repro.experiments.runner.default_cache_dir``).
Library failures (:class:`~repro.utils.errors.ReproError`) exit with
status 1 and a one-line message on stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import sys
import time
import warnings

from repro.experiments import EXPERIMENTS, ExperimentContext, run_experiment
from repro.experiments.registry import run_experiments
from repro.experiments.faults_experiment import DEFAULT_INTENSITIES, run_faults
from repro.experiments.resilience_experiment import (
    DEFAULT_INTENSITIES as RESILIENCE_INTENSITIES,
    run_resilience,
)
from repro.experiments.presets import PRESETS, preset_config
from repro.scenarios import scenario_preset, scenario_preset_names
from repro.obs import (
    configure as obs_configure,
    diff_snapshots,
    get_registry,
    load_snapshot,
    render_diff,
    render_report,
    write_snapshot,
)
from repro.utils.errors import (
    DegradedDataError,
    DegradedDataWarning,
    ReproError,
    ValidationError,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GPU SBE prediction reproduction (DSN 2018)",
    )
    parser.add_argument(
        "--preset",
        default="default",
        choices=sorted(PRESETS),
        help="simulation scale preset",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="do not read/write the on-disk trace cache",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for sharded simulation and experiment "
        "fan-out (results are bit-identical to --jobs 1)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="escalate every degraded-data repair (corrupt cache entry, "
        "quarantined segment, ...) into a typed error with exit 1 "
        "instead of warning and self-healing",
    )
    parser.add_argument(
        "--obs",
        default=None,
        choices=["on", "off", "sample"],
        help="observability recording mode for this run (default: the "
        "REPRO_OBS environment variable, then 'on'); instrumentation "
        "is digest-neutral in every mode",
    )
    parser.add_argument(
        "--obs-snapshot",
        default=None,
        metavar="PATH",
        help="after the command finishes, write the obs metrics snapshot "
        "(JSON, with its deterministic digest) to PATH",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser(
        "simulate", help="simulate the preset's trace into a segment store"
    )
    sim.add_argument("--out", required=True, help="store directory")
    sim.add_argument(
        "--segments",
        type=int,
        default=None,
        metavar="N",
        help="segment count (default: the --jobs value; clamped to the "
        "machine's cabinet rows; the trace is bit-identical to a serial run)",
    )
    sim.add_argument(
        "--scenario",
        default=None,
        choices=sorted(scenario_preset_names()),
        help="script cluster life over the trace (seasonal drift, "
        "maintenance, SBE storms, ...); omitted = bit-identical to "
        "today's output",
    )
    sim.add_argument(
        "--resume",
        action="store_true",
        help="resume a killed run from its journal (bit-identical result)",
    )
    sim.add_argument(
        "--crash-after-segments",
        type=int,
        default=None,
        metavar="K",
        help="simulate a crash after K segment commits (resume test hook)",
    )

    sub.add_parser("characterize", help="run the characterization experiments")

    ev = sub.add_parser("evaluate", help="train and evaluate one predictor")
    ev.add_argument("--split", default="DS1")
    ev.add_argument(
        "--model",
        default="gbdt",
        choices=["lr", "gbdt", "svm", "nn", "basic_a", "basic_b", "basic_c", "random"],
    )

    ex = sub.add_parser("experiment", help="run named experiments (or 'all')")
    ex.add_argument("ids", nargs="+", help=f"ids from {sorted(EXPERIMENTS)} or 'all'")

    fa = sub.add_parser(
        "faults", help="fault-injection degradation sweep (F1 vs intensity)"
    )
    fa.add_argument(
        "--intensities",
        default=None,
        help="comma-separated fault intensities in [0,1] "
        f"(default: {','.join(str(x) for x in DEFAULT_INTENSITIES)})",
    )
    fa.add_argument(
        "--seed", type=int, default=0, help="fault-injection seed (not the trace seed)"
    )
    fa.add_argument("--split", default="DS1")
    fa.add_argument("--model", default="gbdt", choices=["lr", "gbdt", "svm", "nn"])

    sv = sub.add_parser(
        "serve-replay",
        help="replay the trace through the online serving path "
        "(registry + streaming features + micro-batch scoring)",
    )
    sv.add_argument(
        "--registry", required=True, help="model registry root directory"
    )
    sv.add_argument("--split", default="DS1")
    sv.add_argument("--model", default="gbdt", choices=["lr", "gbdt", "svm", "nn"])
    sv.add_argument(
        "--batch-size", type=int, default=256, help="scorer micro-batch size"
    )
    sv.add_argument(
        "--flush-deadline",
        type=float,
        default=30.0,
        help="max event-time minutes a row may wait before scoring",
    )
    sv.add_argument(
        "--retrain-every",
        type=float,
        default=None,
        help="periodic retrain cadence in days (off by default)",
    )
    sv.add_argument(
        "--retrain-window-days",
        type=float,
        default=None,
        metavar="DAYS",
        help="restrict every refit to rows resolved within this sliding "
        "window (default: all rows since start)",
    )
    sv.add_argument(
        "--drift",
        action="store_true",
        help="arm the drift detectors and the guarded-retrain governor "
        "(holdout validation + automatic rollback)",
    )
    sv.add_argument("--seed", type=int, default=0, help="stage-2 model seed")
    sv.add_argument(
        "--fast", action="store_true", help="reduced-capacity stage-2 model"
    )
    sv.add_argument(
        "--sanitize",
        action="store_true",
        help="run the fault sanitizer on the trace before replay",
    )
    sv.add_argument(
        "--chaos",
        type=float,
        default=None,
        metavar="INTENSITY",
        help="serve-layer chaos intensity in [0,1] (off by default)",
    )
    sv.add_argument(
        "--chaos-seed", type=int, default=0, help="chaos-plan seed"
    )
    sv.add_argument(
        "--checkpoint-dir",
        default=None,
        help="commit resumable replay state under this directory",
    )
    sv.add_argument(
        "--checkpoint-every",
        type=int,
        default=2000,
        metavar="EVENTS",
        help="events between checkpoints (with --checkpoint-dir)",
    )
    sv.add_argument(
        "--resume",
        action="store_true",
        help="resume from the newest checkpoint under --checkpoint-dir",
    )
    sv.add_argument(
        "--crash-after",
        type=int,
        default=None,
        metavar="EVENTS",
        help="simulate a crash after this many events (resume test hook)",
    )

    gw = sub.add_parser(
        "gateway",
        help="fleet gateway load run (sharded scoring, alarms, zero-drop)",
    )
    gw.add_argument(
        "--shards",
        default=None,
        help="comma-separated shard counts to sweep (default: 1,2,4)",
    )
    gw.add_argument(
        "--clients", type=int, default=3, help="synthetic fleet clients"
    )
    gw.add_argument(
        "--chaos",
        type=float,
        default=0.25,
        metavar="INTENSITY",
        help="chaos intensity for the degraded leg (0 disables it)",
    )
    gw.add_argument("--chaos-seed", type=int, default=7, help="chaos-plan seed")
    gw.add_argument("--split", default="DS1")
    gw.add_argument("--model", default="gbdt", choices=["lr", "gbdt", "svm", "nn"])
    gw.add_argument(
        "--batch-size", type=int, default=64, help="per-shard micro-batch size"
    )

    rs = sub.add_parser(
        "resilience",
        help="serving availability vs chaos-intensity sweep",
    )
    rs.add_argument(
        "--intensities",
        default=None,
        help="comma-separated chaos intensities in [0,1] "
        f"(default: {','.join(str(x) for x in RESILIENCE_INTENSITIES)})",
    )
    rs.add_argument(
        "--seed", type=int, default=0, help="chaos-plan and model seed"
    )
    rs.add_argument("--split", default="DS1")
    rs.add_argument("--model", default="gbdt", choices=["lr", "gbdt", "svm", "nn"])

    rg = sub.add_parser(
        "registry", help="inspect or repair a model registry"
    )
    rg.add_argument("action", choices=["verify", "rollback"], help="what to do")
    rg.add_argument(
        "--registry", required=True, help="model registry root directory"
    )
    rg.add_argument("--name", default="twostage", help="registered model name")
    rg.add_argument(
        "--to",
        type=int,
        default=None,
        metavar="VERSION",
        help="target version for 'rollback' (checksum-verified before "
        "the head pointer moves)",
    )

    st = sub.add_parser(
        "store", help="audit, repair or read a trace store written by simulate"
    )
    sta = st.add_subparsers(dest="store_command", required=True)
    for name, help_text in (
        ("verify", "checksum-verify every segment (exit 1 on damage)"),
        ("recover", "re-simulate and rewrite damaged segments in place"),
        ("digest", "print the streamed content digest of the store"),
        ("features", "build the feature matrix out of core from the store"),
    ):
        action = sta.add_parser(name, help=help_text)
        action.add_argument("--store", required=True, help="store directory")
    s_inj = sta.add_parser(
        "inject", help="inject a seeded disk fault into a committed store"
    )
    s_inj.add_argument("--store", required=True, help="store directory")
    s_inj.add_argument(
        "--kind",
        required=True,
        choices=["torn", "bitflip", "missing", "stale_manifest"],
        help="failure mode to inject",
    )
    s_inj.add_argument("--seed", type=int, default=0, help="fault seed")
    s_inj.add_argument(
        "--segment", type=int, default=None, help="victim segment (default: seeded)"
    )
    s_inj.add_argument(
        "--fraction",
        type=float,
        default=None,
        help="truncation fraction for --kind torn (default: seeded)",
    )

    ob = sub.add_parser(
        "obs", help="inspect observability snapshots (--obs-snapshot output)"
    )
    oba = ob.add_subparsers(dest="obs_command", required=True)
    o_rep = oba.add_parser(
        "report", help="render one snapshot as a human-readable table"
    )
    o_rep.add_argument("snapshot", help="snapshot JSON path")
    o_rep.add_argument(
        "--events",
        type=int,
        default=20,
        metavar="N",
        help="max structured events to print (default: 20)",
    )
    o_diff = oba.add_parser(
        "diff",
        help="compare two snapshots series-by-series "
        "(exit 0 if identical, 1 if they differ)",
    )
    o_diff.add_argument("before", help="baseline snapshot JSON path")
    o_diff.add_argument("after", help="comparison snapshot JSON path")
    return parser


def _parse_intensities(
    raw: str | None, default: tuple[float, ...] = DEFAULT_INTENSITIES
) -> tuple[float, ...]:
    """Parse the ``--intensities`` comma list, validating the range."""
    if raw is None:
        return default
    try:
        values = tuple(float(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise ValidationError(f"invalid --intensities value: {raw!r}") from None
    if not values or any(not 0.0 <= v <= 1.0 for v in values):
        raise ValidationError(
            f"--intensities must be numbers in [0, 1], got {raw!r}"
        )
    return values


def _dispatch_store(args: argparse.Namespace) -> int:
    """Run one ``repro store`` action; may raise :class:`ReproError`."""
    from repro.features.builder import build_features_from_store
    from repro.store import (
        DiskFaultSpec,
        SegmentedTraceStore,
        inject_disk_fault,
        store_trace_digest,
    )

    strict = bool(args.strict)
    store = SegmentedTraceStore(args.store)
    if args.store_command == "verify":
        statuses = store.verify()
        for status in statuses:
            print(status)
        broken = sum(status.status != "ok" for status in statuses)
        print(f"{len(statuses)} segment(s), {len(statuses) - broken} ok, {broken} broken")
        return 1 if broken else 0
    if args.store_command == "recover":
        for status in store.recover(strict=strict):
            print(status)
        return 0
    if args.store_command == "inject":
        event = inject_disk_fault(
            store,
            DiskFaultSpec(
                args.kind,
                seed=args.seed,
                segment=args.segment,
                fraction=args.fraction,
            ),
        )
        print(event)
        return 0
    if args.store_command == "digest":
        print(store_trace_digest(store, strict=strict))
        return 0
    if args.store_command == "features":
        features = build_features_from_store(store, strict=strict)
        positives = int(features.y.sum())
        print(
            f"{features.num_samples} rows x {features.X.shape[1]} features "
            f"({positives} positive) from {store.num_segments} segment(s)"
        )
        return 0
    return 2  # pragma: no cover - argparse enforces the action set


def _simulate(args: argparse.Namespace, jobs: int) -> int:
    """Simulate the preset's trace into the store at ``--out``."""
    import dataclasses

    from repro.store import simulate_trace_to_store

    started = time.perf_counter()
    config = preset_config(args.preset)
    if args.scenario is not None:
        config = dataclasses.replace(config, scenario=scenario_preset(args.scenario))
    store = simulate_trace_to_store(
        config,
        args.out,
        segments=args.segments if args.segments is not None else jobs,
        jobs=jobs,
        resume=args.resume,
        crash_after_segments=args.crash_after_segments,
    )
    print(
        f"simulated {store.num_samples} samples over "
        f"{config.duration_days:.0f} days into {store.num_segments} "
        f"segment(s) in {time.perf_counter() - started:.0f}s -> {store.root}"
    )
    return 0


def _dispatch_obs(args: argparse.Namespace) -> int:
    """Run one ``repro obs`` action; may raise :class:`ReproError`."""
    if args.obs_command == "report":
        snapshot = load_snapshot(args.snapshot)
        print(render_report(snapshot, events_limit=args.events))
        return 0
    if args.obs_command == "diff":
        before = load_snapshot(args.before)
        after = load_snapshot(args.after)
        print(render_diff(before, after))
        return 1 if diff_snapshots(before, after) else 0
    return 2  # pragma: no cover - argparse enforces the action set


def _dispatch(args: argparse.Namespace) -> int:
    """Run the selected subcommand; may raise :class:`ReproError`."""
    jobs = max(1, int(getattr(args, "jobs", 1)))
    if args.command == "obs":
        return _dispatch_obs(args)
    if args.command == "store":
        return _dispatch_store(args)
    if args.command == "simulate":
        return _simulate(args, jobs)
    context = ExperimentContext(
        args.preset,
        use_disk_cache=not args.no_cache,
        jobs=jobs,
        strict=args.strict,
    )

    if args.command == "characterize":
        for experiment_id in ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8"):
            print(run_experiment(experiment_id, context))
            print()
        return 0

    if args.command == "evaluate":
        if args.model in ("basic_a", "basic_b", "basic_c", "random"):
            result = context.basic(args.split, args.model)
        else:
            result = context.twostage(args.split, args.model)
        print(
            f"{result.predictor} on {result.split}: "
            f"F1={result.f1:.3f} precision={result.precision:.3f} "
            f"recall={result.recall:.3f} (trained in {result.train_seconds:.1f}s)"
        )
        return 0

    if args.command == "experiment":
        ids = list(EXPERIMENTS) if args.ids == ["all"] else args.ids
        for result in run_experiments(
            ids,
            preset=args.preset,
            jobs=jobs,
            use_disk_cache=not args.no_cache,
            strict=args.strict,
        ):
            print(result)
            print()
        return 0

    if args.command == "serve-replay":
        from repro.serve import DriftConfig, serve_replay
        from repro.serve.resilience import ChaosPlan

        chaos = (
            None
            if args.chaos is None
            else ChaosPlan(intensity=args.chaos, seed=args.chaos_seed)
        )
        report = serve_replay(
            context.trace,
            args.registry,
            splits=context.preset_splits(),
            split=args.split,
            model=args.model,
            batch_size=args.batch_size,
            flush_deadline_minutes=args.flush_deadline,
            retrain_every_days=args.retrain_every,
            retrain_window_days=args.retrain_window_days,
            drift=DriftConfig() if args.drift else None,
            random_state=args.seed,
            fast=args.fast,
            sanitize=args.sanitize,
            chaos=chaos,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every_events=args.checkpoint_every,
            resume=args.resume,
            crash_after_events=args.crash_after,
            strict=args.strict,
        )
        print(report)
        return 0

    if args.command == "gateway":
        from repro.experiments.gateway_experiment import (
            DEFAULT_SHARD_COUNTS,
            run_gateway,
        )

        if args.shards is None:
            shard_counts = DEFAULT_SHARD_COUNTS
        else:
            try:
                shard_counts = tuple(
                    int(part) for part in args.shards.split(",") if part.strip()
                )
            except ValueError:
                raise ValidationError(
                    f"invalid --shards value: {args.shards!r}"
                ) from None
            if not shard_counts or any(n < 1 for n in shard_counts):
                raise ValidationError(
                    f"--shards must be positive integers, got {args.shards!r}"
                )
        result = run_gateway(
            context,
            shard_counts=shard_counts,
            clients=args.clients,
            chaos_intensity=args.chaos,
            seed=args.chaos_seed,
            model=args.model,
            split=args.split,
            batch_size=args.batch_size,
        )
        print(result)
        return 0

    if args.command == "resilience":
        result = run_resilience(
            context,
            intensities=_parse_intensities(
                args.intensities, RESILIENCE_INTENSITIES
            ),
            seed=args.seed,
            model=args.model,
            split=args.split,
        )
        print(result)
        return 0

    if args.command == "registry":
        from repro.serve import ModelRegistry

        if args.action == "rollback":
            if args.to is None:
                raise ValidationError("registry rollback requires --to VERSION")
            entry = ModelRegistry(args.registry).rollback(args.name, args.to)
            print(f"{args.name}: head -> v{entry.version:04d} (verified ok)")
            return 0
        statuses = ModelRegistry(args.registry).verify(args.name)
        if not statuses:
            print(f"{args.name}: no version directories")
            return 0
        broken = 0
        for version, status in statuses:
            print(f"{args.name}/v{version:04d}  {status}")
            broken += status != "ok"
        print(
            f"{len(statuses)} version(s), {len(statuses) - broken} ok, "
            f"{broken} broken"
        )
        return 1 if broken else 0

    if args.command == "faults":
        result = run_faults(
            context,
            intensities=_parse_intensities(args.intensities),
            seed=args.seed,
            model=args.model,
            split=args.split,
            jobs=jobs,
        )
        print(result)
        return 0

    return 2  # pragma: no cover - argparse enforces the command set


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Library errors surface as a single stderr line and exit status 1;
    programming errors still propagate with a traceback.
    """
    args = build_parser().parse_args(argv)
    if args.obs is not None:
        obs_configure(args.obs)
    try:
        if args.strict:
            # Escalate every degraded-data repair into a typed error:
            # under --strict the pipeline must fail loudly, never heal.
            with warnings.catch_warnings():
                warnings.simplefilter("error", DegradedDataWarning)
                try:
                    code = _dispatch(args)
                except DegradedDataWarning as exc:
                    raise DegradedDataError(str(exc)) from exc
        else:
            code = _dispatch(args)
        if args.obs_snapshot is not None:
            write_snapshot(
                args.obs_snapshot,
                get_registry(),
                run={
                    "command": args.command,
                    "preset": args.preset,
                    "jobs": args.jobs,
                    # Worker count is execution config, not run content:
                    # --jobs 1 and --jobs 2 must produce the same digest.
                    "wall_fields": ["jobs"],
                },
            )
            print(f"obs snapshot -> {args.obs_snapshot}", file=sys.stderr)
        return code
    except ReproError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
