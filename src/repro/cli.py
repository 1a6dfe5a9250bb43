"""Command-line interface: regenerate paper figures or run one experiment.

Examples::

    tape-jukebox figure 6 --horizon 200000 --jobs 8 --cache-dir ~/.cache/tj
    tape-jukebox sweep --scheduler fifo --jobs 4 --progress
    tape-jukebox run --scheduler envelope-max-bandwidth --replicas 9 \\
        --layout vertical --start-position 1.0 --queue 60
    tape-jukebox list

The ``sweep``, ``figure``, and ``run`` subcommands share one campaign
parser fragment: ``--jobs N`` fans simulations out over N worker
processes, ``--cache-dir`` enables the content-addressed result cache
(default: ``$REPRO_CACHE_DIR`` when set), ``--no-cache`` disables it,
and ``--progress`` prints one line per finished point to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .api import run
from .core.registry import scheduler_names
from .experiments.config import ExperimentConfig
from .experiments.figures import FIGURES
from .layout.placement import Layout
from .report.text import format_figure


def _campaign_parent() -> argparse.ArgumentParser:
    """The shared ``--jobs/--cache-dir/--no-cache/--progress`` fragment."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("campaign execution")
    group.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the campaign (default: 1, serial)",
    )
    group.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed result cache directory "
        "(default: $REPRO_CACHE_DIR when set, else caching off)",
    )
    group.add_argument(
        "--no-cache", action="store_true",
        help="disable the result cache even when a directory is configured",
    )
    group.add_argument(
        "--progress", action="store_true",
        help="print one line per finished campaign point to stderr",
    )
    group.add_argument(
        "--point-timeout", type=float, default=None, metavar="S",
        help="wall-clock budget per executed point (s); a point that "
        "exceeds it becomes an error record instead of hanging the batch",
    )
    group.add_argument(
        "--journal", default=None, metavar="FILE",
        help="durable campaign journal (JSONL); default: "
        "<cache-dir>/campaign-journal.jsonl when a cache dir is in effect",
    )
    group.add_argument(
        "--no-journal", action="store_true",
        help="disable the campaign journal even when a cache dir is set",
    )
    group.add_argument(
        "--resume", action="store_true",
        help="resume from the journal: skip points it marked done "
        "(served from the cache) and requeue the ones left in flight",
    )
    group.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="attempts per point for transient failures (killed or "
        "stalled workers, wall-clock timeouts; default: 3)",
    )
    group.add_argument(
        "--abort-after", type=int, default=None, metavar="N",
        help="stop the campaign after N consecutive point failures "
        "instead of grinding through a doomed grid",
    )
    group.add_argument(
        "--profile", action="store_true",
        help="profile with cProfile: `run` prints the top cumulative "
        "functions; campaign points dump per-point .prof files",
    )
    group.add_argument(
        "--profile-dir", default="profiles", metavar="DIR",
        help="directory for per-point .prof dumps (default: ./profiles)",
    )
    group.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="capture a structured trace per executed point (cache hits "
        "excluded): <digest>.trace.json (Chrome/Perfetto) + "
        "<digest>.summary.json",
    )
    return parent


def _campaign_from_args(args: argparse.Namespace):
    """Build the :class:`~repro.campaign.Campaign` the subcommand uses."""
    from .campaign import Campaign, ProgressPrinter

    cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR") or None
    if args.no_cache:
        cache_dir = None
    journal = None
    if not args.no_journal:
        if args.journal:
            journal = args.journal
        elif cache_dir:
            journal = os.path.join(cache_dir, "campaign-journal.jsonl")
    if args.resume and journal is None:
        raise SystemExit(
            "--resume needs a journal: pass --journal FILE or a cache dir "
            "(--cache-dir / $REPRO_CACHE_DIR), and drop --no-journal"
        )
    return Campaign(
        jobs=args.jobs,
        cache_dir=cache_dir,
        progress=ProgressPrinter() if args.progress else None,
        point_timeout_s=args.point_timeout,
        journal_path=journal,
        resume=args.resume,
        max_attempts=args.max_attempts,
        abort_after=args.abort_after,
        profile_dir=args.profile_dir if args.profile else None,
        trace_dir=args.trace_dir,
    )


def _print_campaign_stats(campaign) -> None:
    """Summarize the campaign's last submission on stderr (``--progress``)."""
    stats = getattr(campaign, "last_stats", None)
    if stats is None:
        return
    print(
        f"campaign: {stats.unique} unique of {stats.submitted} submitted | "
        f"{stats.cache_hits} cache hits | {stats.executed} executed | "
        f"{stats.retried} retried | {stats.failures} failures | "
        f"{stats.duration_s:.2f}s wall",
        file=sys.stderr,
    )


def _campaign_epilogue(campaign, args, error=None) -> int:
    """Shared exit path for campaign commands: stats, failures, code.

    A campaign that finished with failed points exits nonzero with a
    one-line summary (and the journal path when there is one) instead
    of passing silently to the shell.
    """
    if args.progress:
        _print_campaign_stats(campaign)
    stats = campaign.last_stats
    failures = stats.failures if stats is not None else 0
    if error is not None and failures == 0:
        failures = 1
    if failures == 0:
        return 0
    total = stats.unique if stats is not None else failures
    aborted = (
        " (aborted by the consecutive-failure breaker)"
        if stats is not None and stats.aborted
        else ""
    )
    journal = (
        f"; journal: {campaign.journal_path}" if campaign.journal_path else ""
    )
    print(
        f"campaign failed: {failures} of {total} point(s) did not "
        f"complete{aborted}{journal}",
        file=sys.stderr,
    )
    return 1


def _interrupted_exit(campaign) -> int:
    """Exit path after Ctrl-C: print the resume hint, return 130."""
    if campaign.journal_path:
        print(
            "interrupted; rerun the same command with --resume to continue "
            f"(journal: {campaign.journal_path})",
            file=sys.stderr,
        )
    else:
        print(
            "interrupted; rerun with --cache-dir or --journal to make "
            "campaigns resumable",
            file=sys.stderr,
        )
    return 130


def _non_negative_int(text: str) -> int:
    """argparse type: an integer that is at least zero."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scheduler", default="dynamic-max-bandwidth")
    parser.add_argument("--layout", choices=("horizontal", "vertical"), default="horizontal")
    parser.add_argument("--percent-hot", type=float, default=10.0)
    parser.add_argument("--percent-requests-hot", type=float, default=40.0)
    parser.add_argument("--replicas", type=int, default=0)
    parser.add_argument("--start-position", type=float, default=0.0)
    parser.add_argument("--block-mb", type=float, default=16.0)
    parser.add_argument("--tapes", type=int, default=10)
    parser.add_argument("--queue", type=int, default=None, help="closed-queueing length")
    parser.add_argument(
        "--interarrival", type=float, default=None, help="open-queueing mean (s)"
    )
    parser.add_argument("--horizon", type=float, default=400_000.0)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--technology", choices=("helical", "serpentine"), default="helical"
    )


def _config_from_args(args: argparse.Namespace, queue=None) -> ExperimentConfig:
    if queue is None:
        queue = args.queue
    interarrival = getattr(args, "interarrival", None)
    if queue is None and interarrival is None:
        queue = 60
    return ExperimentConfig(
        scheduler=args.scheduler,
        layout=Layout(args.layout),
        percent_hot=args.percent_hot,
        percent_requests_hot=args.percent_requests_hot,
        replicas=args.replicas,
        start_position=args.start_position,
        block_mb=args.block_mb,
        tape_count=args.tapes,
        queue_length=queue,
        mean_interarrival_s=interarrival,
        horizon_s=args.horizon,
        seed=args.seed,
        drive_technology=args.technology,
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="tape-jukebox",
        description="Tape jukebox scheduling & replication simulator "
        "(Hillyer/Rastogi/Silberschatz, ICDE 1999 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    campaign_parent = _campaign_parent()

    figure_parser = subparsers.add_parser(
        "figure", help="regenerate a paper figure", parents=[campaign_parent]
    )
    figure_parser.add_argument("figure_id", choices=sorted(FIGURES))
    figure_parser.add_argument("--horizon", type=float, default=None)
    figure_parser.add_argument(
        "--format", choices=("text", "csv", "markdown"), default="text"
    )
    figure_parser.add_argument(
        "--plot", action="store_true", help="append an ASCII throughput/delay plot"
    )

    gap_parser = subparsers.add_parser(
        "gap",
        help=(
            "measure each heuristic's mean response against the "
            "per-batch-optimal exact-batch baseline (ratios below 1 are possible)"
        ),
        parents=[campaign_parent],
    )
    gap_parser.add_argument(
        "--horizon", type=float, default=None, metavar="S",
        help="simulated seconds per scenario (default: 200000)",
    )
    gap_parser.add_argument(
        "--queues", default="20,60,100", metavar="N,N,...",
        help="closed-queue lengths for the queue-sweep scenarios",
    )
    gap_parser.add_argument(
        "--schedulers", default=None, metavar="NAME,...",
        help="schedulers to measure (default: the paper's four families; "
        "'all' adds the LTSP approximation policies)",
    )
    gap_parser.add_argument(
        "--baseline", default=None, metavar="NAME",
        help="baseline scheduler ratios are measured against "
        "(default: exact-batch)",
    )
    gap_parser.add_argument(
        "--scenarios", default=None, metavar="KEY,...",
        help="restrict to these scenario keys (default: the full matrix)",
    )
    gap_parser.add_argument(
        "--json", action="store_true",
        help="emit the report as JSON instead of a table",
    )

    run_parser = subparsers.add_parser(
        "run", help="run a single experiment", parents=[campaign_parent]
    )
    _add_run_arguments(run_parser)
    run_parser.add_argument(
        "--trace",
        type=_non_negative_int,
        default=0,
        metavar="N",
        help="print the first N drive operations after the run",
    )

    sweep_parser = subparsers.add_parser(
        "sweep",
        help="trace one parametric curve over queue lengths",
        parents=[campaign_parent],
    )
    _add_run_arguments(sweep_parser)
    sweep_parser.add_argument(
        "--queues",
        default="20,40,60,80,100,120,140",
        help="comma-separated closed-queueing lengths",
    )

    lifecycle_parser = subparsers.add_parser(
        "lifecycle", help="plan layouts for the Section 4.8 filling lifecycle"
    )
    lifecycle_parser.add_argument("--tapes", type=int, default=10)
    lifecycle_parser.add_argument("--capacity-mb", type=float, default=7 * 1024.0)
    lifecycle_parser.add_argument("--percent-hot", type=float, default=10.0)
    lifecycle_parser.add_argument(
        "--fills", default="0.3,0.5,0.7,0.9,1.0",
        help="comma-separated fill fractions",
    )

    chaos_parser = subparsers.add_parser(
        "chaos", help="run an experiment under fault injection"
    )
    _add_run_arguments(chaos_parser)
    chaos_parser.add_argument(
        "--media-error-rate", type=float, default=0.01,
        help="per-read transient soft-error probability",
    )
    chaos_parser.add_argument(
        "--bad-replica-rate", type=float, default=0.0,
        help="probability a stored copy sits in a permanently bad region",
    )
    chaos_parser.add_argument(
        "--robot-pick-error-rate", type=float, default=0.0,
        help="per-pick robot failure probability",
    )
    chaos_parser.add_argument(
        "--drive-mtbf", type=float, default=None,
        help="mean time between drive failures (s); unset = no failures",
    )
    chaos_parser.add_argument(
        "--drive-mttr", type=float, default=3600.0,
        help="mean drive repair time (s)",
    )
    chaos_parser.add_argument(
        "--fault-seed", type=int, default=7, help="seed for the fault streams"
    )
    chaos_parser.add_argument(
        "--max-attempts", type=int, default=3,
        help="read attempts before a transient fault escalates",
    )
    chaos_parser.add_argument(
        "--base-backoff", type=float, default=2.0,
        help="first retry backoff (s); doubles per retry",
    )
    chaos_parser.add_argument(
        "--compare-replicas", default=None, metavar="NR,NR,...",
        help="rerun at each replication degree and tabulate availability",
    )

    qos_parser = subparsers.add_parser(
        "qos", help="run an experiment under overload control and report SLOs"
    )
    _add_run_arguments(qos_parser)
    qos_parser.add_argument(
        "--deadline", type=float, default=None, metavar="S",
        help="per-request TTL (s); requests not delivered in time expire",
    )
    qos_parser.add_argument(
        "--admission", choices=("unbounded", "bounded-queue", "token-bucket"),
        default="unbounded", help="admission policy at the pending-list boundary",
    )
    qos_parser.add_argument(
        "--max-pending", type=int, default=None, metavar="N",
        help="bounded-queue policy: shed arrivals beyond N pending requests",
    )
    qos_parser.add_argument(
        "--rate-limit", type=float, default=None, metavar="R",
        help="token-bucket policy: sustained admission rate (requests/s)",
    )
    qos_parser.add_argument(
        "--burst", type=int, default=1,
        help="token-bucket policy: bucket depth (default: 1)",
    )
    qos_parser.add_argument(
        "--starvation-age", type=float, default=None, metavar="S",
        help="force-promote requests older than S seconds into the next sweep",
    )
    qos_parser.add_argument(
        "--watchdog-stall", type=float, default=None, metavar="S",
        help="trip the circuit breaker after S seconds without a completed "
        "sweep while requests are pending",
    )
    qos_parser.add_argument(
        "--storm-faults", type=int, default=None, metavar="N",
        help="trip the circuit breaker after N faults with no intervening "
        "completed sweep",
    )
    qos_parser.add_argument(
        "--resume-pending", type=int, default=None, metavar="N",
        help="close a tripped breaker once the pending list drains to N",
    )
    qos_parser.add_argument(
        "--csv", action="store_true",
        help="emit the SLO accounting as one CSV row instead of a table",
    )

    trace_parser = subparsers.add_parser(
        "trace",
        help="run one experiment with structured tracing and export the trace",
    )
    _add_run_arguments(trace_parser)
    trace_parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="write a Chrome trace-event JSON file (open at ui.perfetto.dev)",
    )
    trace_parser.add_argument(
        "--jsonl", default=None, metavar="FILE",
        help="write the full structured trace as JSON Lines",
    )
    trace_parser.add_argument(
        "--summary-json", default=None, metavar="FILE",
        help="write the aggregated trace summary as JSON (trace_diff input)",
    )
    trace_parser.add_argument(
        "--max-requests", type=int, default=None, metavar="N",
        help="cap per-request async spans in the Chrome export to N requests",
    )
    trace_parser.add_argument(
        "--media-error-rate", type=float, default=0.0,
        help="per-read transient soft-error probability (adds fault spans)",
    )
    trace_parser.add_argument(
        "--bad-replica-rate", type=float, default=0.0,
        help="probability a stored copy sits in a permanently bad region",
    )
    trace_parser.add_argument(
        "--fault-seed", type=int, default=7, help="seed for the fault streams"
    )
    trace_parser.add_argument(
        "--deadline", type=float, default=None, metavar="S",
        help="per-request TTL (s); expired requests show up as an outcome",
    )
    trace_parser.add_argument(
        "--starvation-age", type=float, default=None, metavar="S",
        help="force-promote requests older than S seconds (forced decisions)",
    )

    cache_parser = subparsers.add_parser(
        "cache", help="inspect or clean the content-addressed result cache"
    )
    cache_parser.add_argument(
        "action", choices=("clean", "stats"),
        help="clean: remove orphaned temp files left by crashed writers "
        "and list quarantined (*.corrupt) entries; stats: entry counts",
    )
    cache_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache directory (default: $REPRO_CACHE_DIR)",
    )

    subparsers.add_parser("list", help="list available schedulers")

    args = parser.parse_args(argv)

    if args.command == "cache":
        from .campaign import ResultCache

        cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR") or None
        if not cache_dir:
            raise SystemExit(
                "cache: provide --cache-dir or set $REPRO_CACHE_DIR"
            )
        cache = ResultCache(cache_dir, sweep_orphans=False)
        corrupt = cache.corrupt_entries()
        if args.action == "clean":
            removed = cache.clean()
            print(
                f"removed {removed} orphaned temp file(s) under {cache.root}"
            )
        else:
            print(f"{len(cache)} cached result(s) under {cache.root}")
        if corrupt:
            print(f"{len(corrupt)} quarantined corrupt entrie(s):")
            for path in corrupt:
                print(f"  {path}")
        return 0

    if args.command == "list":
        print("schedulers:")
        for name in scheduler_names():
            print(f"  {name}")
        return 0

    if args.command == "figure":
        from .campaign import CampaignPointError

        campaign = _campaign_from_args(args)
        generator = FIGURES[args.figure_id]
        try:
            if args.figure_id == "10a" or args.horizon is None:
                data = generator(campaign=campaign)
            else:
                data = generator(horizon_s=args.horizon, campaign=campaign)
        except KeyboardInterrupt:
            return _interrupted_exit(campaign)
        except CampaignPointError as error:
            print(f"error: {error}", file=sys.stderr)
            return _campaign_epilogue(campaign, args, error=error) or 1
        if args.format == "csv":
            from .report.export import figure_to_csv

            print(figure_to_csv(data), end="")
        elif args.format == "markdown":
            from .report.export import figure_to_markdown

            print(figure_to_markdown(data))
        else:
            print(format_figure(data))
        if args.plot:
            from .report.plot import plot_throughput_delay

            print(plot_throughput_delay(data))
        return _campaign_epilogue(campaign, args)

    if args.command == "gap":
        from .analysis.gap import (
            APPROX_POLICIES,
            DEFAULT_BASELINE,
            GAP_HORIZON_S,
            PAPER_HEURISTICS,
            compute_gap,
            gap_scenarios,
        )
        from .campaign import CampaignPointError
        from .report.text import format_gap_report

        campaign = _campaign_from_args(args)
        horizon_s = args.horizon if args.horizon is not None else GAP_HORIZON_S
        queue_lengths = [int(piece) for piece in args.queues.split(",") if piece]
        scenarios = list(gap_scenarios(horizon_s, queue_lengths))
        if args.scenarios:
            wanted = [piece for piece in args.scenarios.split(",") if piece]
            known = {scenario.key: scenario for scenario in scenarios}
            unknown = [key for key in wanted if key not in known]
            if unknown:
                raise SystemExit(
                    f"gap: unknown scenario(s) {', '.join(unknown)}; "
                    f"known: {', '.join(known)}"
                )
            scenarios = [known[key] for key in wanted]
        if args.schedulers is None:
            schedulers = None
        elif args.schedulers == "all":
            schedulers = PAPER_HEURISTICS + APPROX_POLICIES
        else:
            schedulers = tuple(
                piece for piece in args.schedulers.split(",") if piece
            )
        baseline = args.baseline or DEFAULT_BASELINE
        try:
            report = compute_gap(
                scenarios=scenarios,
                schedulers=schedulers,
                baseline=baseline,
                campaign=campaign,
            )
        except KeyboardInterrupt:
            return _interrupted_exit(campaign)
        except CampaignPointError as error:
            print(f"error: {error}", file=sys.stderr)
            return _campaign_epilogue(campaign, args, error=error) or 1
        if args.json:
            import json

            payload = {
                "baseline": report.baseline,
                "horizon_s": horizon_s,
                "rows": [
                    {
                        "scenario": row.scenario.key,
                        "description": row.scenario.description,
                        "baseline_mean_s": row.baseline_mean_s,
                        "ratios": {
                            cell.scheduler: cell.ratio for cell in row.cells
                        },
                    }
                    for row in report.rows
                ],
            }
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(format_gap_report(report))
        return _campaign_epilogue(campaign, args)

    if args.command == "lifecycle":
        from .layout.lifecycle import LifecyclePlanner
        from .report.text import format_table

        planner = LifecyclePlanner(
            tape_count=args.tapes,
            capacity_mb=args.capacity_mb,
            percent_hot=args.percent_hot,
        )
        fills = [float(piece) for piece in args.fills.split(",") if piece]
        rows = []
        for plan in planner.schedule(fills):
            rows.append(
                (
                    f"{plan.base_utilization:.0%}",
                    plan.stage.value,
                    plan.spec.layout.value,
                    plan.replicas,
                    f"SP-{plan.spec.start_position:g}",
                )
            )
        print(
            format_table(("fill", "stage", "layout", "replicas", "hot_run"), rows)
        )
        return 0

    if args.command == "sweep":
        from .campaign import CampaignPointError
        from .experiments.sweeps import queue_sweep
        from .report.text import format_parametric_series

        campaign = _campaign_from_args(args)
        queue_lengths = [int(piece) for piece in args.queues.split(",") if piece]
        base = _config_from_args(args, queue=queue_lengths[0])
        try:
            points = queue_sweep(base, queue_lengths, campaign=campaign)
        except KeyboardInterrupt:
            return _interrupted_exit(campaign)
        except CampaignPointError as error:
            print(f"error: {error}", file=sys.stderr)
            return _campaign_epilogue(campaign, args, error=error) or 1
        print(format_parametric_series(args.scheduler, points))
        return _campaign_epilogue(campaign, args)

    if args.command == "chaos":
        from .faults.config import FaultConfig
        from .faults.retry import RetryPolicy
        from .report.text import format_table

        fault_config = FaultConfig(
            media_error_rate=args.media_error_rate,
            bad_replica_rate=args.bad_replica_rate,
            robot_pick_error_rate=args.robot_pick_error_rate,
            drive_mtbf_s=args.drive_mtbf,
            drive_mttr_s=args.drive_mttr,
            seed=args.fault_seed,
            retry=RetryPolicy(
                max_attempts=args.max_attempts, base_backoff_s=args.base_backoff
            ),
        )
        base = _config_from_args(args).with_(faults=fault_config)
        if args.compare_replicas:
            degrees = [
                int(piece) for piece in args.compare_replicas.split(",") if piece
            ]
            rows = []
            for replicas in degrees:
                report = run(base.with_(replicas=replicas)).report
                rows.append(
                    (
                        f"NR-{replicas}",
                        report.completed,
                        report.failed_requests,
                        f"{report.served_fraction:.4f}",
                        report.failovers,
                        report.retries,
                        f"{report.mean_response_s:.1f}",
                    )
                )
            print(
                format_table(
                    (
                        "replicas", "completed", "failed", "served_frac",
                        "failovers", "retries", "mean_resp_s",
                    ),
                    rows,
                )
            )
            return 0
        result = run(base)
        print(result.config.describe())
        print(result.report)
        report = result.report
        fault_rows = [
            (kind, count) for kind, count in sorted(report.fault_counts.items())
        ]
        fault_rows.append(("retries", report.retries))
        fault_rows.append(("failovers", report.failovers))
        fault_rows.append(("failed requests", report.failed_requests))
        print(format_table(("fault", "count"), fault_rows))
        print(f"served fraction: {report.served_fraction:.4f}")
        if report.drive_failures:
            print(
                f"drive failures: {report.drive_failures} "
                f"(mean repair {report.mean_repair_s:.0f} s)"
            )
        return 0

    if args.command == "qos":
        from .qos.config import QoSConfig
        from .report.text import format_slo_report

        qos_config = QoSConfig(
            deadline_s=args.deadline,
            admission=args.admission,
            max_pending=args.max_pending,
            rate_limit_per_s=args.rate_limit,
            burst=args.burst,
            starvation_age_s=args.starvation_age,
            watchdog_stall_s=args.watchdog_stall,
            storm_fault_threshold=args.storm_faults,
            resume_pending=args.resume_pending,
        )
        result = run(_config_from_args(args).with_(qos=qos_config))
        if args.csv:
            from .report.export import slo_to_csv

            print(slo_to_csv([result]), end="")
            return 0
        print(result.config.describe())
        print(result.report)
        print(format_slo_report(result.report))
        return 0

    if args.command == "trace":
        import json

        from .obs import (
            Tracer,
            TraceSummary,
            write_chrome_trace,
            write_jsonl,
        )
        from .report.text import format_trace_summary

        config = _config_from_args(args)
        if args.media_error_rate > 0.0 or args.bad_replica_rate > 0.0:
            from .faults.config import FaultConfig

            config = config.with_(
                faults=FaultConfig(
                    media_error_rate=args.media_error_rate,
                    bad_replica_rate=args.bad_replica_rate,
                    seed=args.fault_seed,
                )
            )
        if args.deadline is not None or args.starvation_age is not None:
            from .qos.config import QoSConfig

            config = config.with_(
                qos=QoSConfig(
                    deadline_s=args.deadline,
                    starvation_age_s=args.starvation_age,
                )
            )
        obs = Tracer()
        result = run(config, obs=obs)
        print(result.config.describe())
        print(result.report)
        summary = TraceSummary.from_tracer(obs, warmup_s=config.warmup_s)
        print(format_trace_summary(summary))
        if args.out:
            payload = write_chrome_trace(
                obs, args.out, max_requests=args.max_requests
            )
            print(
                f"chrome trace written to {args.out} "
                f"({len(payload['traceEvents'])} events); "
                "open it at https://ui.perfetto.dev",
                file=sys.stderr,
            )
        if args.jsonl:
            count = write_jsonl(obs, args.jsonl)
            print(
                f"jsonl trace written to {args.jsonl} ({count} records)",
                file=sys.stderr,
            )
        if args.summary_json:
            with open(args.summary_json, "w", encoding="utf-8") as handle:
                json.dump(summary.to_dict(), handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"summary written to {args.summary_json}", file=sys.stderr)
        return 0

    config = _config_from_args(args)
    if args.trace:
        from .obs import Tracer
        from .report.text import format_drive_spans

        tracer = Tracer(max_drive_spans=args.trace)
        result = run(config, obs=tracer)
        print(result.config.describe())
        print(result.report)
        print(format_drive_spans(tracer.drive_spans, tracer.dropped_drive_spans))
        return 0

    if args.profile:
        import cProfile
        import pstats

        from .campaign.hashing import config_digest

        profiler = cProfile.Profile()
        result = profiler.runcall(run, config)
        print(result.config.describe())
        print(result.report)
        os.makedirs(args.profile_dir, exist_ok=True)
        prof_path = os.path.join(
            args.profile_dir, f"{config_digest(config)[:16]}.prof"
        )
        profiler.dump_stats(prof_path)
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.sort_stats("cumulative").print_stats(25)
        print(f"profile written to {prof_path}", file=sys.stderr)
        return 0

    from .campaign import CampaignPointError

    campaign = _campaign_from_args(args)
    try:
        result = campaign.submit([config]).require(config)
    except KeyboardInterrupt:
        return _interrupted_exit(campaign)
    except CampaignPointError as error:
        print(f"error: {error}", file=sys.stderr)
        return _campaign_epilogue(campaign, args, error=error) or 1
    print(result.config.describe())
    print(result.report)
    return _campaign_epilogue(campaign, args)


if __name__ == "__main__":  # pragma: no cover - module execution guard
    sys.exit(main())
