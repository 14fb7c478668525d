"""Command-line interface: every ``python -m repro`` subcommand on one parser.

Usage::

    python -m repro list                 # every subcommand
    python -m repro table1
    python -m repro fig3 [--seed 7]
    python -m repro fig9 --seed 1 --jobs 4    # parallel sweep points
    python -m repro all                  # everything (several minutes)
    python -m repro ablations            # design-choice ablations
    python -m repro fig5 --engine detailed    # override the engine
    python -m repro parity --scenario steady_audience   # cross-engine check
    python -m repro run --engine ode          # 1M users in seconds (repro.model.meanfield)
    python -m repro campaign run spec.json --jobs 4   # see repro.campaign
    python -m repro check src/                # determinism lint (repro.check)
    python -m repro profile fig3              # cProfile hot spots + Chrome trace
    python -m repro watch m.jsonl             # live view of a metrics feed

Each figure command runs the corresponding experiment at the default
benchmark scale and prints the rendered tables/series.

``--engine NAME`` overrides the engine an experiment runs on; the
choices come from the backend registry
(:func:`repro.runtime.backends.available_engines`).  Each experiment
has a sensible default: protocol figures use the event-driven engine,
population-scale figures the fluid one.  Experiments that are
engine-specific (table1, fig4, model, convergence) ignore the flag.

Observability (figure commands, ``ablations``, ``all``)::

    python -m repro fig6 --metrics-out m.jsonl --trace-out t.json --progress

``--metrics-out`` streams registry snapshots as JSONL and writes a run
manifest sidecar (``m.manifest.json``: seed, config hash, git rev, wall
time, peak RSS); ``--trace-out`` writes Chrome ``trace_event`` JSON
loadable in Perfetto; ``--progress`` prints a heartbeat line to stderr.

``--rng-sanitize {strict,warn}`` turns on the seed-discipline sanitizer
(:mod:`repro.sim.rng`): named streams count their draws and undeclared
streams / out-of-owner draws surface as obs counters (strict mode
raises).  Equivalent to setting ``REPRO_RNG_SANITIZE``.

``--log-spill DIR`` makes every telemetry :class:`~repro.telemetry.server.
LogServer` spill its log lines to gzip-compressed chunks under ``DIR``
instead of keeping them in RAM (:mod:`repro.telemetry.sink`), bounding
log-side memory at production volumes.  Spilling only relocates storage;
figures and tables are byte-identical, so the flag never enters campaign
run keys.  Equivalent to setting ``REPRO_LOG_SPILL``.

Every subcommand's handler lives in its own module and is imported only
when that subcommand runs.  :func:`main` maps every outcome to one exit
code; the README's "Command line" table states the contract.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import inspect
import os
import sys
import time
from typing import Callable, Dict, List

import repro.obs as obs
from repro.experiments import EXPERIMENTS
from repro.experiments.ablations import (
    ablate_cooldown,
    ablate_delivery_mode,
    ablate_mcache_policy,
    ablate_offset_mode,
    ablate_parent_choice,
    ablate_substreams,
)
from repro.runtime.backends import BackendStartupError, available_engines
from repro.runtime.parity import _preset_scenarios

__all__ = ["main", "EXPERIMENTS", "ABLATIONS"]

ABLATIONS: Dict[str, Callable] = {
    "offset": ablate_offset_mode,
    "parent-choice": ablate_parent_choice,
    "mcache": ablate_mcache_policy,
    "cooldown": ablate_cooldown,
    "substreams": ablate_substreams,
    "delivery-mode": ablate_delivery_mode,
}


def _run_one(name: str, fn: Callable, *, seed: int, jobs: int = 1,
             engine=None, quiet: bool = False) -> None:
    """Run one experiment, passing ``seed``/``jobs``/``engine`` by keyword
    to a function that declares them (``engine`` only when overridden, so
    the experiment's own default applies otherwise)."""
    t0 = time.perf_counter()  # repro: noqa[DET002] CLI elapsed-time display only
    params = inspect.signature(fn).parameters
    offered = {"seed": seed, "jobs": jobs, "engine": engine}
    result = fn(**{key: value for key, value in offered.items()
                   if key in params and value is not None})
    elapsed = time.perf_counter() - t0  # repro: noqa[DET002] CLI elapsed-time display only
    if not quiet:
        print(result.render())
        print(f"[{name}: {elapsed:.1f} s]")
        print()


def _obs_session(args):
    """The observability session for this invocation (a null context when
    no obs flag was given)."""
    if not (args.metrics_out or args.trace_out or args.progress):
        return contextlib.nullcontext()
    return obs.session(
        metrics_path=args.metrics_out,
        trace_path=args.trace_out,
        progress=args.progress,
        scenario=args.command,
        seed=args.seed,
    )


def _cmd_experiments(args) -> int:
    """One figure command, ``ablations`` or ``all``."""
    if args.rng_sanitize:
        # via the environment so forked campaign/sweep workers inherit it
        os.environ["REPRO_RNG_SANITIZE"] = args.rng_sanitize
    if args.log_spill:
        # same environment route: sweep workers inherit the spill root;
        # spilling only moves log storage, so it never enters a run key
        from repro.telemetry.sink import SPILL_ENV_VAR

        os.environ[SPILL_ENV_VAR] = args.log_spill
    if args.command == "all":
        table = EXPERIMENTS
    elif args.command == "ablations":
        table = ABLATIONS
    else:
        table = {args.command: EXPERIMENTS[args.command]}
    with _obs_session(args):
        for name, fn in table.items():
            _run_one(name, fn, seed=args.seed, jobs=args.jobs,
                     engine=args.engine, quiet=args.quiet)
    return 0


def _cmd_list(args) -> int:
    print("\n".join(args.commands))
    return 0


def _engine_list(value: str) -> List[str]:
    """``parity --engines``: two or three distinct registered engines."""
    names = list(dict.fromkeys(e.strip() for e in value.split(",")
                               if e.strip()))
    unknown = [e for e in names if e not in available_engines()]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown engine(s) {', '.join(unknown)}; "
            f"choose from: {', '.join(available_engines())}")
    if not 2 <= len(names) <= 3:
        raise argparse.ArgumentTypeError(
            "needs two or three distinct engine names")
    return names


class _Parser(argparse.ArgumentParser):
    """A usage error is one ``error:`` line on stderr and exit status 2."""

    def error(self, message):
        self.exit(2, f"error: {self.prog}: {message}\n")


def _summary(fn: Callable) -> str:
    """The first paragraph of ``fn``'s docstring, on one line."""
    return " ".join((fn.__doc__ or "").strip().split("\n\n")[0].split())


def _build_parser() -> argparse.ArgumentParser:
    """The one command tree; each ``handler`` is a ``module:function``
    reference, imported when its subcommand is dispatched."""
    engines = available_engines()
    parser = _Parser(
        prog="python -m repro",
        description="Regenerate tables/figures of the Coolstreaming "
                    "measurement study (ICPP 2007).",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="COMMAND")

    seeded = _Parser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0,
                        help="root random seed (default 0)")
    figure = _Parser(add_help=False, parents=[seeded])
    figure.add_argument("--jobs", type=int, default=1,
                        help="worker processes for sweep experiments "
                             "(fig9; default 1 = in-process)")
    figure.add_argument("--engine", choices=engines, default=None,
                        help="override the simulation engine (default: "
                             "each experiment's documented default)")
    figure.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write a JSONL metrics time series (plus a "
                             "*.manifest.json run manifest sidecar)")
    figure.add_argument("--trace-out", metavar="PATH", default=None,
                        help="write a Chrome trace_event JSON file "
                             "(open in chrome://tracing or Perfetto)")
    figure.add_argument("--progress", action="store_true",
                        help="print a periodic heartbeat line to stderr")
    figure.add_argument("--rng-sanitize", choices=("strict", "warn"),
                        default=None, metavar="MODE",
                        help="enable the RNG seed-discipline sanitizer "
                             "(strict raises on violations, warn records "
                             "them; equivalent to REPRO_RNG_SANITIZE)")
    figure.add_argument("--log-spill", metavar="DIR", default=None,
                        help="spill telemetry logs to gzip chunks under DIR "
                             "instead of holding them in memory (equivalent "
                             "to REPRO_LOG_SPILL; never affects results)")
    figure.add_argument("--quiet", action="store_true",
                        help="suppress rendered tables/series on stdout")

    figures = {**{name: _summary(fn) for name, fn in EXPERIMENTS.items()},
               "ablations": "every design-choice ablation",
               "all": "every experiment above, in order"}
    for name, text in figures.items():
        sub.add_parser(name, parents=[figure], help=text).set_defaults(
            handler="repro.experiments.cli:_cmd_experiments")
    # `list` has always accepted (and ignored) the figure flags
    p_list = sub.add_parser("list", parents=[figure],
                            help="print every subcommand")

    p = sub.add_parser(
        "run", parents=[seeded],
        help="one scenario on one engine, raw population metrics",
        description="Run one scenario on one engine and print the "
                    "population metrics (defaults sized for the 1M-user "
                    "mean-field demonstration).")
    p.add_argument("--engine", choices=engines, default="ode",
                   help="simulation engine (default ode)")
    p.add_argument("--users", type=int, default=1_000_000,
                   help="expected audience size for the synthetic "
                        "steady scenario (default 1000000)")
    p.add_argument("--horizon", type=float, default=300.0,
                   help="virtual horizon in seconds (default 300)")
    p.add_argument("--servers", type=int, default=24,
                   help="dedicated servers (default 24, the "
                        "deployment's count)")
    p.add_argument("--scenario", default=None,
                   help="named preset instead of the synthetic "
                        "steady audience (one of the parity presets)")
    p.set_defaults(handler="repro.experiments.run_cli:cmd_run")

    p = sub.add_parser(
        "parity", parents=[seeded],
        help="one scenario on two or three engines, compared",
        description="Run one scenario on two or three engines and compare "
                    "paper-level metrics within calibrated tolerances.")
    p.add_argument("--scenario", default="steady_audience",
                   choices=sorted(_preset_scenarios()),
                   help="scenario preset (default steady_audience)")
    p.add_argument("--engines", type=_engine_list, default="detailed,fast",
                   metavar="A,B[,C]",
                   help="comma-separated engines to compare "
                        f"(from: {', '.join(engines)}; "
                        "default detailed,fast)")
    p.add_argument("--tol-peak", type=float, default=None, metavar="F",
                   help="relative tolerance for peak concurrent users")
    p.add_argument("--tol-continuity", type=float, default=None,
                   metavar="F",
                   help="relative tolerance for mean continuity")
    p.add_argument("--tol-retry", type=float, default=None, metavar="F",
                   help="relative tolerance for retry-session fraction")
    p.set_defaults(handler="repro.runtime.parity:cmd_parity")

    p = sub.add_parser(
        "campaign", help="run/status/clean experiment campaigns",
        description="Parallel experiment campaigns with content-addressed "
                    "result caching and crash-safe resume.")
    campaign = p.add_subparsers(dest="campaign_command", required=True,
                                metavar="COMMAND")
    store_help = "result store directory (default .campaign)"
    p = campaign.add_parser("run", help="execute a campaign spec")
    p.add_argument("spec", help="JSON campaign spec file")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: cpu count; "
                        "1 = in-process)")
    p.add_argument("--store", default=None, help=store_help)
    p.add_argument("--force", action="store_true",
                   help="re-execute runs even when cached")
    p.add_argument("--resume", action="store_true",
                   help="continue a previously journalled campaign "
                        "(error if none exists)")
    p.add_argument("--timeout", type=float, default=None, metavar="S",
                   help="per-run wall-clock timeout in seconds")
    p.add_argument("--retries", type=int, default=2,
                   help="max retries for transient failures "
                        "(default %(default)s)")
    p.add_argument("--backoff", type=float, default=0.5, metavar="S",
                   help="base of the exponential retry backoff "
                        "(default %(default)ss)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the figure-ready campaign JSON artifact")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="write a JSONL metrics time series (plus "
                        "*.manifest.json sidecar); view live with "
                        "'python -m repro watch PATH'")
    p.add_argument("--progress", action="store_true",
                   help="print campaign heartbeat lines to stderr")
    p.add_argument("--log-spill", default=None, metavar="DIR",
                   help="spill every run's telemetry log to gzip chunks "
                        "under DIR (storage-only; never enters run keys; "
                        "overrides the spec's 'log_spill' key)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the per-run table on stdout")
    p.set_defaults(handler="repro.campaign.cli:cmd_run")
    p = campaign.add_parser("status", help="show journalled campaigns")
    p.add_argument("--store", default=None, help=store_help)
    p.add_argument("--follow", action="store_true",
                   help="re-poll the journal until every campaign "
                        "reaches a terminal state")
    p.add_argument("--interval", type=float, default=2.0, metavar="S",
                   help="poll interval with --follow "
                        "(default %(default)ss)")
    p.set_defaults(handler="repro.campaign.cli:cmd_status")
    p = campaign.add_parser("clean", help="drop the store and journal")
    p.add_argument("--store", default=None, help=store_help)
    p.set_defaults(handler="repro.campaign.cli:cmd_clean")

    p = sub.add_parser(
        "check", help="static contract analysis (repro.check)",
        description="AST-based static contract analysis for the repro "
                    "codebase (determinism, async-safety, telemetry "
                    "schema conformance).")
    p.add_argument("paths", nargs="*", default=["src"],
                   help="files or directories to check (default: src)")
    # --format is the historical spelling; both write the same dest
    p.add_argument("--output", "--format", dest="output",
                   choices=("text", "json", "sarif"), default="text",
                   help="output format (default text)")
    p.add_argument("--cache", metavar="DIR", default=None,
                   help="content-hash result cache directory "
                        "(unchanged files skip parsing entirely)")
    p.add_argument("--select", metavar="RULES", default=None,
                   help="comma-separated rule ids to run exclusively")
    p.add_argument("--ignore", metavar="RULES", default=None,
                   help="comma-separated rule ids to skip")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalog and exit")
    p.set_defaults(handler="repro.check.cli:cmd_check")

    p = sub.add_parser(
        "profile", parents=[seeded],
        help="an experiment under cProfile: hot spots + Chrome trace",
        description="Run an experiment under cProfile: print a hot-spot "
                    "table and write a Chrome trace (repro.obs exporter).")
    p.add_argument("experiment", choices=sorted(EXPERIMENTS),
                   help="experiment to profile")
    p.add_argument("--engine", choices=engines, default=None,
                   help="override the experiment's engine; for the "
                        "vectorized engines (fast, ode) also print a "
                        "per-step-phase timing breakdown")
    p.add_argument("--top", type=int, default=25,
                   help="rows in the hot-spot table (default 25)")
    p.add_argument("--sort", choices=("tottime", "cumtime", "ncalls"),
                   default="tottime",
                   help="hot-spot table sort key (default tottime)")
    p.add_argument("--trace-out", metavar="PATH", default=None,
                   help="Chrome trace output path (default "
                        "profile_<experiment>.trace.json)")
    p.add_argument("--stats-out", metavar="PATH", default=None,
                   help="also dump raw pstats data to PATH")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the experiment's own rendered output")
    p.set_defaults(handler="repro.experiments.profile:cmd_profile")

    p = sub.add_parser(
        "watch", help="live view of a metrics feed",
        description="Render the metrics JSONL feed of a running run or "
                    "campaign (written by --metrics-out).")
    p.add_argument("feed", help="metrics JSONL path to tail")
    p.add_argument("--once", action="store_true",
                   help="render the latest snapshot and exit")
    p.add_argument("--interval", type=float, default=1.0,
                   metavar="S", help="poll interval (default 1s)")
    p.add_argument("--timeout", type=float, default=None, metavar="S",
                   help="give up after S seconds without progress "
                        "(default: wait forever)")
    p.set_defaults(handler="repro.obs.watch:cmd_watch")

    p_list.set_defaults(handler="repro.experiments.cli:_cmd_list",
                        commands=list(sub.choices))
    return parser


def main(argv=None) -> int:
    """``python -m repro``: parse, dispatch, and return the exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error (2) or --help (0)
        return int(exc.code or 0)
    module, _, handler = args.handler.partition(":")
    try:
        return getattr(importlib.import_module(module), handler)(args)
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    except BackendStartupError as exc:
        print(f"error: backend startup: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {args.command}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
