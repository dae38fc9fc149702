"""Command-line interface.

Exit codes are part of the contract:

* 0 - success (including an audit that finds the forecasts admissible)
* 2 - the request is infeasible; the report on stdout carries a
      certificate saying why (impossible constraint set, conditioning
      on a zero-mass event, or a dominated forecast system)
* 3 - the input failed to parse or validate, or a flag is malformed
* 4 - the solver, the audit's hull projection or a property trial failed
      to converge

Reports go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

import numpy as np

from . import __version__
from .certainty_factors import divergence_curve
from .coherence import audit_admissibility
from .demos import DEMOS
from .errors import (
    ConstructionError,
    DegenerateConditional,
    InfeasibleConstraint,
    NonConvergence,
    ParseError,
    RelentError,
    ZeroMassEvent,
)
from .scenario import (
    EntropyQuery,
    distribution_block,
    emit_divergence,
    emit_report,
    fmt10,
    parse_file,
    run_queries,
)
from .solver import SolverOptions, maxent_update

#: The deviation each ``relent axioms`` trial may show and still pass, the "1e-8" its
#: report prints.
AXIOM_TOL = 1e-8


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; this interface reserves 2 for
    infeasibility, so flag problems exit 3 instead."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text}")
    return value


def _int_at_least(low: int, complaint: str):
    """argparse type for an integer flag of at least ``low``; ``complaint`` takes the text."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
        if value < low:
            raise argparse.ArgumentTypeError(complaint.format(text))
        return value

    return parse


_positive_int = _int_at_least(1, "must be at least 1, got {}")
_grid_steps = _int_at_least(2, "need at least 2 grid steps, got {}")
_size_at_least_two = _int_at_least(2, "need spaces of at least 2 outcomes, got {}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="relent", description="belief updating by minimum-shift inference")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    update = sub.add_parser("update", help="apply a scenario's constraints to its prior")
    update.add_argument("scenario", help="path to a scenario JSON file")
    defaults = SolverOptions()
    update.add_argument("--tol", type=_positive_float, default=defaults.tol,
                        help="convergence threshold on constraint violation")
    update.add_argument("--max-iter", type=_positive_int, default=defaults.max_iter,
                        help="iteration budget for the dual solver")
    update.add_argument("--units", choices=("nats", "bits"), default="nats",
                        help="units for information values in reports")
    update.set_defaults(func=_cmd_update)

    info = sub.add_parser("info", help="answer a scenario's queries against its prior")
    info.add_argument("scenario", help="path to a scenario JSON file")
    info.add_argument("--units", choices=("nats", "bits"), default="nats")
    info.set_defaults(func=_cmd_info)

    audit = sub.add_parser("audit", help="check a scenario's forecasts for admissibility")
    audit.add_argument("scenario", help="path to a scenario JSON file")
    audit.set_defaults(func=_cmd_audit)

    axioms = sub.add_parser("axioms", help="run seeded partition-consistency trials")
    axioms.add_argument("--trials", type=_positive_int, default=100)
    axioms.add_argument("--seed", type=_int_at_least(0, "must be at least 0, got {}"),
                        default=0)
    axioms.add_argument("--n-max", type=_size_at_least_two, default=10,
                        help="largest sample-space size drawn per trial")
    axioms.set_defaults(func=_cmd_axioms)

    compare = sub.add_parser("compare",
                             help="exact vs certainty-factor posteriors over a certainty grid")
    compare.add_argument("p_h_given_e", type=float,
                         help="P(hypothesis | evidence confirmed)")
    compare.add_argument("p_h_given_not_e", type=float,
                         help="P(hypothesis | evidence refuted)")
    compare.add_argument("--grid-steps", type=_grid_steps, default=11)
    compare.set_defaults(func=_cmd_compare)

    demo = sub.add_parser("demo", help="run a built-in worked example")
    demo.add_argument("name", choices=tuple(DEMOS))
    demo.add_argument("--units", choices=("nats", "bits"), default="nats")
    demo.set_defaults(func=_cmd_demo)

    return parser


def _cmd_update(args: argparse.Namespace) -> int:
    sc = parse_file(args.scenario)
    options = SolverOptions(tol=args.tol, max_iter=args.max_iter)
    report = maxent_update(sc.prior, sc.constraints, options)
    # a query can still fail (conditioning on a zero-mass event), so the
    # whole report is built before any of it is written
    text = emit_report(report, units=args.units)
    if sc.queries:
        text += "\n".join(run_queries(report.posterior, sc.queries, args.units)) + "\n"
    sys.stdout.write(text)
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    sc = parse_file(args.scenario)
    lines = [
        f"outcomes: {len(sc.space)}",
        f"constraints: {len(sc.constraints)}",
        "prior:",
        distribution_block(sc.prior),
    ]
    lines.extend(run_queries(sc.prior, (EntropyQuery(), *sc.queries), args.units))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    sc = parse_file(args.scenario)
    if sc.forecasts is None:
        raise ConstructionError("forecasts.missing", "audit needs a \"forecasts\" section")
    verdict = audit_admissibility(sc.forecasts)
    sys.stdout.write(emit_report(verdict))
    if verdict.admissible:
        return 0
    # a dominated book is an infeasible belief state; the dominating
    # forecasts printed above are the certificate
    print("forecasts are dominated", file=sys.stderr)
    return 2


def _cmd_axioms(args: argparse.Namespace) -> int:
    from .axioms import check_axiom4b, random_reweighting_case  # only this command runs trials

    worst = 0.0
    passed = 0
    for i in range(args.trials):
        rng = np.random.default_rng([args.seed, i])
        prior, part, weights = random_reweighting_case(rng, args.n_max)
        report = check_axiom4b(prior, part, weights, tol=AXIOM_TOL)
        worst = max(worst, report.max_deviation)
        passed += int(report.passed)
    if passed == args.trials:
        sys.stdout.write(f"axiom4b: {passed}/{args.trials} passed, max_deviation ≤ 1e-8\n")
        return 0
    sys.stdout.write(
        f"axiom4b: {passed}/{args.trials} passed, max_deviation = {fmt10(worst)}\n"
    )
    print("property trials failed; see report", file=sys.stderr)
    return 4


def _cmd_compare(args: argparse.Namespace) -> int:
    grid = tuple(float(q) for q in np.linspace(0.0, 1.0, args.grid_steps))
    table = divergence_curve(args.p_h_given_e, args.p_h_given_not_e, grid)
    sys.stdout.write(
        f"P(H|E) = {fmt10(args.p_h_given_e)}, P(H|not E) = {fmt10(args.p_h_given_not_e)}\n"
    )
    sys.stdout.write(emit_divergence(table))
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    sys.stdout.write(DEMOS[args.name](args.units))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        where = ""
        if e.line is not None:
            where = f" at line {e.line}, column {e.column}"
        print(f"parse error{where}: {e}", file=sys.stderr)
        return 3
    except ConstructionError as e:
        print(f"invalid input [{e.code}]: {e}", file=sys.stderr)
        return 3
    except (InfeasibleConstraint, DegenerateConditional, ZeroMassEvent) as e:
        sys.stdout.write("infeasible\n")
        sys.stdout.write(f"certificate: {e}\n")
        print("request is infeasible", file=sys.stderr)
        return 2
    except NonConvergence as e:
        print(f"did not converge: {e}", file=sys.stderr)
        return 4
    except OSError as e:
        print(f"cannot read input: {e}", file=sys.stderr)
        return 3
    except RelentError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
