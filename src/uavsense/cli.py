"""Command-line front end.

Subcommands:
  simulate    optimize one scenario and optionally write its slot trace
  experiment  run a figure sweep and emit CSV files
  analyze     evaluate the closed-form sensitivity formulas
  validate    audit a previously written trace against the constraints
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import analysis, bench
from .itsso import InfeasibleScenario, ItssoConfig, solution_to_json
from .sensing import SensingParams, min_cooperative_uavs
from .simulator import read_trace, write_trace
from .trajectory import LegInfeasible


def _config_from_args(args) -> bench.ScenarioConfig:
    """The ``--config`` file (or the defaults) with ``--seed``/``--scheme`` applied;
    ``--scheme nc`` derives the non-cooperative variant (``bench.nc_config``)."""
    config = bench.load_config(args.config) if args.config else bench.ScenarioConfig()
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.scheme == "nc":
        return bench.nc_config(config)
    if args.scheme is not None:
        config = replace(config, scheme=args.scheme)
    return config


def _cmd_simulate(args) -> int:
    config = _config_from_args(args)
    scenario = bench.generate_scenario(config)
    itsso_cfg = ItssoConfig(rng_seed=config.seed + bench._ITSSO_SEED_OFFSET)
    solution = bench.run_scheme(scenario, itsso_cfg, record_trace=True)
    print(f"scheme={config.scheme} seed={config.seed} "
          f"M={config.m} N={config.n} K={config.k} q={config.q}")
    print(f"T_max={solution.t_max} slots after {solution.iterations} iterations")
    print("objective history:", " ".join(str(v) for v in solution.history))
    problems = bench.audit_solution(scenario, solution)
    print(f"constraint audit: {'PASS' if not problems else 'FAIL'}")
    for p in problems:
        print("  " + p)
    if args.trace:
        write_trace(solution.outcome.trace, args.trace)
        print(f"trace written to {args.trace}")
    if args.export:
        with open(args.export, "w", encoding="utf-8") as fh:
            fh.write(solution_to_json(solution))
        print(f"solution written to {args.export}")
    return 0 if not problems else 1


def _cmd_experiment(args) -> int:
    result = bench.run_experiment(
        args.id, base=bench.parse_config_text("\n".join(args.set or [])),
        instances=args.instances,
        out_dir=args.out, seed=args.seed, workers=args.workers,
    )
    print(f"experiment {args.id}: {result.manifest}")
    print("scheme,x,mean_Tmax,std_Tmax,n")
    for label, x, mean, std, n in result.rows:
        print(f"{label},{x:g},{mean:.3f},{std:.3f},{n}")
    if args.out:
        print(f"CSV files written to {args.out}")
    return 0


def _cmd_analyze(args) -> int:
    if args.op in ("dtdq", "dtdpr"):
        inp = analysis.SensitivityInputs(
            q=args.q, pr_th=args.pr_th, lam=args.lam,
            n_tasks_per_uav=args.n_i, v_max=args.v_max,
        )
        value = analysis.dTmax_dq(inp) if args.op == "dtdq" else analysis.dTmax_dPRth(inp)
        print(f"{value:.6f}")
    else:  # minq: argparse restricts the choices
        sp = SensingParams(lam=args.lam, pr_th=args.pr_th)
        print(min_cooperative_uavs(args.d0, sp))
    return 0


def _cmd_validate(args) -> int:
    config = _config_from_args(args)
    scenario = bench.generate_scenario(config)
    problems = bench.audit_rows(scenario, read_trace(args.trace))
    if problems:
        print(f"FAIL: {len(problems)} violation(s)")
        for p in problems:
            print("  " + p)
        return 1
    print("PASS: trace satisfies all constraints")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavsense",
        description="Cooperative sensing UAV network: simulator and optimizer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="optimize and simulate one scenario")
    sim.add_argument("--config", help="scenario config file (key = value lines)")
    sim.add_argument("--seed", type=int, help="override the config seed")
    sim.add_argument("--scheme", choices=bench.SCHEMES, help="override the scheme")
    sim.add_argument("--trace", help="write the slot trace CSV here")
    sim.add_argument("--export", help="write the replayable solution JSON here")
    sim.set_defaults(func=_cmd_simulate)

    exp = sub.add_parser("experiment", help="run a figure sweep")
    exp.add_argument("--id", required=True, choices=bench.EXPERIMENT_IDS)
    exp.add_argument("--instances", type=int, default=200)
    exp.add_argument("--out", help="directory for the CSV output")
    exp.add_argument("--seed", type=int, default=1000)
    exp.add_argument("--workers", type=int, default=0,
                     help="process pool size (0 = run inline)")
    exp.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="config override, config-file key syntax")
    exp.set_defaults(func=_cmd_experiment)

    ana = sub.add_parser("analyze", help="closed-form sensitivity values")
    ana.add_argument("--op", required=True, choices=("dtdq", "dtdpr", "minq"))
    table = bench.ScenarioConfig()  # the model's defaults
    ana.add_argument("--q", type=int, default=table.q)
    ana.add_argument("--pr-th", type=float, default=table.sensing.pr_th)
    ana.add_argument("--lam", type=float, default=table.sensing.lam)
    ana.add_argument("--n-i", type=int, default=table.n_per_uav)
    ana.add_argument("--v-max", type=float, default=table.kinematics.v_max)
    ana.add_argument("--d0", type=float, default=table.kinematics.h_min)
    ana.set_defaults(func=_cmd_analyze)

    val = sub.add_parser("validate", help="audit a trace file")
    val.add_argument("--trace", required=True)
    val.add_argument("--config", help="scenario config used to produce the trace")
    val.add_argument("--seed", type=int)
    val.add_argument("--scheme", choices=bench.SCHEMES)
    val.set_defaults(func=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand.  Refused input (a bad value, an infeasible
    scenario, a leg that cannot be planned, a file argument that cannot be
    read or written) exits 2 with one ``error:`` line, as argparse answers a
    bad option."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, InfeasibleScenario, LegInfeasible) as exc:
        parser.error(str(exc))
    except OSError as exc:
        if exc.filename is None:
            raise
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
