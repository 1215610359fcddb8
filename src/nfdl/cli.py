"""Command-line front end: run scenarios, compare message costs, configure.

Subcommands:

* ``run`` - simulate a scenario from a file or from inline flags, never both;
  write trace files and metric CSVs, one repetition per seed offset.
* ``compare-cost`` - measure steady-state heartbeats per interval for the
  single-leader protocol and the all-pairs baseline against their analytic
  predictions.
* ``configure`` - derive (eta, alpha) from QoS requirements, with alpha
  floored at eight delay standard deviations, or audit a given pair in
  validation mode, read as a scenario file's ``config`` keys.

Success exits 0.  Invalid input (a ``ScenarioError``, an
``InfeasibleRequirementsError`` or a ``ClockRewindError``) exits 2, and an
environment error (an ``OSError`` or a ``StorageError``) exits 1, each named
in one ``error: ...`` line on stderr.  Any other exception is a bug in the
program and propagates with its traceback.  :func:`exit_code` holds that
rule, and the two campaign scripts under ``scripts/`` run their ``main``
through it too.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import experiments, qos, simnet
from .protocol import ProtocolConfig
from .stable_store import ClockRewindError, FileStore, StorageError


_NET = simnet.NetworkModel()
# The inline scenario flags' defaults; None leaves the file key's own.  On
# the command line each flag defaults to None, so that one given beside
# --scenario is seen.
_INLINE_DEFAULTS = {
    "procs": 5, "eta_ms": experiments.ETA_MS, "alpha_ms": experiments.ALPHA_MS,
    "window_n": None, "loss_prob": _NET.loss_prob, "delay_mean_ms": _NET.delay_mean,
    "delay_var_ms2": _NET.delay_var, "delay_dist": None, "seed": 0, "duration_ms": 60_000,
    "algo": None, "high_priority": None,
}


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", type=Path,
                   help="scenario JSON file; cannot be combined with the flags below")
    p.add_argument("--procs", type=int, help="number of processes")
    p.add_argument("--eta-ms", type=int, help="heartbeat interval")
    p.add_argument("--alpha-ms", type=int, help="safety margin")
    p.add_argument("--window-n", type=int, help="estimator window size")
    p.add_argument("--loss-prob", type=float, help="per-message loss probability")
    p.add_argument("--delay-mean-ms", type=float, help="mean link delay")
    p.add_argument("--delay-var-ms2", type=float, help="link delay variance")
    p.add_argument("--delay-dist", choices=simnet.DELAY_DISTS,
                   help="delay law (default: constant when variance is 0, else normal)")
    p.add_argument("--seed", type=int, help="base RNG seed")
    p.add_argument("--duration-ms", type=int, help="simulated time")
    p.add_argument("--algo", choices=("nfdl", "nfde-pair", "naive"),
                   help="protocol to simulate")
    p.add_argument("--high-priority", type=int, metavar="PID",
                   help="pin PID as a boosted leader, re-elected right after recovery")


def _keys(**keys) -> dict:
    """A file object of the flags' keys; a None value leaves its key out."""
    return {key: value for key, value in keys.items() if value is not None}


def _config_keys(args) -> dict:
    return _keys(eta_ms=args.eta_ms, alpha_ms=args.alpha_ms, window_n=args.window_n)


def _network_keys(args) -> dict:
    """The file's network object of the link flags; the delay law is
    ``--delay-dist``, by default constant when the variance is 0, else normal."""
    dist = args.delay_dist or ("constant" if args.delay_var_ms2 == 0 else "normal")
    return {"loss_prob": args.loss_prob, "delay_mean_ms": args.delay_mean_ms,
            "delay_var_ms2": args.delay_var_ms2, "delay_dist": dist}


def _scenario_from_args(args) -> simnet.Scenario:
    given = [dest for dest in _INLINE_DEFAULTS if getattr(args, dest) is not None]
    if args.scenario is not None:
        if given:
            flag = "--" + given[0].replace("_", "-")
            raise simnet.ScenarioError(flag, "cannot be combined with --scenario")
        if not args.scenario.exists():
            raise simnet.ScenarioError("scenario", f"no such file: {args.scenario}")
        return simnet.Scenario.load(args.scenario)
    vars(args).update({d: v for d, v in _INLINE_DEFAULTS.items() if d not in given})
    # Read as a file's keys, so that an error names the key.
    algo = {"naive": "naive-reduction"}.get(args.algo, args.algo)
    return simnet.Scenario.from_dict(_keys(
        n_processes=args.procs, algorithm=algo, config=_config_keys(args),
        network=_network_keys(args), duration_ms=args.duration_ms, seed=args.seed,
        high_priority=args.high_priority,
    ))


def _requirement_keys(args) -> dict:
    """The requirement flags given, as keys ``t_d_max_ms`` and the like."""
    return _keys(**{key: getattr(args, key) for key in experiments.REQUIREMENTS})


def cmd_run(args) -> int:
    scenario = _scenario_from_args(args)
    if args.reps < 1:
        raise simnet.ScenarioError("--reps", f"must be >= 1, got {args.reps}")
    # Check the last repetition's seed too before anything is written.
    replace(scenario, seed=scenario.seed + args.reps - 1).validate()
    # Any requirement flag adds the reports' bound columns; the suite's
    # operating point supplies the requirements not given.
    given = _requirement_keys(args)
    reqs = (simnet.load(qos.QosRequirements, {**experiments.REQUIREMENTS, **given})
            if given else None)
    # The repetitions share one state dir, opened before --out is made.
    store = FileStore(args.state_dir) if args.state_dir else None
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    reports = []
    for rep in range(args.reps):
        rep_scenario = replace(scenario, seed=scenario.seed + rep)
        trace = simnet.stream_run(rep_scenario, out / f"trace_{rep:03d}.log", store=store)
        try:
            report = qos.build_report(trace)
        except qos.NoTrueLeaderError:
            report = None
        if report is not None:
            reports.append(report)
            if args.format in ("csv", "both"):
                qos.write_lines(
                    qos.metrics_csv_lines(report), out / f"metrics_{rep:03d}.csv"
                )
    if reports:
        if args.format in ("csv", "both"):
            qos.write_lines(qos.summary_csv_lines(reports, reqs), out / "summary.csv")
        if args.format in ("txt", "both"):
            qos.write_lines(qos.text_report_lines(reports, reqs), out / "report.txt")
    print(f"wrote {args.reps} trace(s) and {len(reports)} metric report(s) to {out}")
    return 0


def cmd_compare_cost(args) -> int:
    config = simnet.load(ProtocolConfig, _config_keys(args), "config")
    rows = experiments.measure_cost(args.procs, args.duration_ms, config, args.seed)
    print(experiments.COST_TABLE_HEADER)
    for row in rows:
        print(experiments.cost_table_row(row))
    return 0


def cmd_configure(args) -> int:
    reqs = simnet.load(qos.QosRequirements, _requirement_keys(args))
    network = simnet.load(simnet.NetworkModel, _network_keys(args), "network")
    keys = _config_keys(args)
    if keys:  # validation mode: the pair is read as a file's config keys
        config = simnet.load(ProtocolConfig, keys, "config")
        print(f"validating eta_ms={config.eta} alpha_ms={config.alpha}")
    else:
        config = qos.configure(reqs, network)
        print(f"eta_ms={config.eta} alpha_ms={config.alpha}")
    violations = qos.validate_config(config, reqs)
    print(f"constraint audit vs t_d_max={reqs.t_d_max} ms:")
    if not violations:
        print(f"  ok: eta + alpha = {config.eta + config.alpha} ms <= {reqs.t_d_max} ms, "
              "eta > 0")
        return 0
    for v in violations:
        print(f"  violated: {v}")
    return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfdl",
        description="leader-election simulator and QoS measurement suite",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario and write artifacts")
    _add_scenario_flags(p_run)
    p_run.add_argument("--out", type=Path, required=True, help="output directory")
    p_run.add_argument("--reps", type=int, default=1, help="repetitions (seed = base + i)")
    p_run.add_argument(
        "--format", choices=("csv", "txt", "both"), default="both",
        help="which report formats to write next to the traces",
    )
    p_run.add_argument(
        "--state-dir", type=Path, default=None,
        help="persist zerotime records on disk instead of in memory",
    )
    p_run.add_argument("--t-d-max-ms", type=int,
                       help="detection bound for report bound columns")
    p_run.add_argument("--t-mr-min-ms", type=int)
    p_run.add_argument("--t-m-max-ms", type=int)
    p_run.set_defaults(func=cmd_run)

    p_cost = sub.add_parser(
        "compare-cost", help="measured vs predicted heartbeats per eta"
    )
    p_cost.add_argument("--procs", type=int, required=True)
    p_cost.add_argument("--duration-ms", type=int, default=30_000)
    p_cost.add_argument("--eta-ms", type=int, default=experiments.ETA_MS)
    p_cost.add_argument("--alpha-ms", type=int, default=experiments.ALPHA_MS)
    p_cost.add_argument("--window-n", type=int)
    p_cost.add_argument("--seed", type=int, default=0)
    p_cost.set_defaults(func=cmd_compare_cost)

    p_cfg = sub.add_parser(
        "configure", help="derive (eta, alpha) from requirements, or audit a pair"
    )
    p_cfg.add_argument("--t-d-max-ms", type=int)
    p_cfg.add_argument("--t-mr-min-ms", type=int)
    p_cfg.add_argument("--t-m-max-ms", type=int)
    p_cfg.add_argument("--loss-prob", type=float, default=_NET.loss_prob)
    p_cfg.add_argument("--delay-mean-ms", type=float, default=_NET.delay_mean)
    p_cfg.add_argument("--delay-var-ms2", type=float, default=_NET.delay_var)
    p_cfg.add_argument("--eta-ms", type=int, default=None,
                       help="validation mode: audit this eta instead of deriving")
    p_cfg.add_argument("--alpha-ms", type=int, default=None,
                       help="validation mode: audit this alpha instead of deriving")
    # The requirements default to the measurement suite's operating point.
    # The delay law follows the variance; the estimator window is not audited.
    p_cfg.set_defaults(func=cmd_configure, delay_dist=None, window_n=None,
                       **experiments.REQUIREMENTS)
    return parser


def exit_code(command, *args) -> int:
    """The exit status of ``command(*args)``, which returns its own on
    success.  A named failure is printed as one ``error: ...`` line on
    stderr: invalid input exits 2, an environment error 1.  Any other
    exception, a ``ValueError`` included, is a bug and propagates."""
    try:
        return command(*args)
    except (simnet.ScenarioError, qos.InfeasibleRequirementsError, ClockRewindError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, StorageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return exit_code(args.func, args)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
