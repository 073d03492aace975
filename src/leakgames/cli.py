"""Command-line frontend.

Subcommands::

    solve qif <game.json> [--tolerance T] [--max-iter N]    (hidden choice only)
    solve dp <game.json> --mode hidden|visible [--tolerance T] [--max-iter N]
    measure dp-level <channel.json> --adjacency all-pairs|<pairs.json>
    measure vulnerability <channel.json> --prior <p.json> --gain bayes|<g.json>
    build two-millionaires|binary-sum|dp-example|crowds <cfg.json>|ldp [<tables.json>]
    audit <game.json> [--seed S] [--priors N]

``-`` reads standard input, so builders pipe into solvers.  Every
subcommand emits one canonical JSON record on standard output;
``--csv PATH`` additionally writes an entity/value table for plotting.

Exit codes: 0 success, 1 validation error, 2 non-certified solve
(iteration budget exhausted), 3 I/O or parse error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .core import LeakGameError, SolveReport, ValidationError
from .measures import dp_level, posterior_vulnerability
from . import dp, qif
from .audits import audit_game
from . import scenarios
from . import jsonio
from .jsonio import ParseError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NOT_CERTIFIED = 2
EXIT_IO = 3


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} is not allowed")


def _read_json(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc}") from exc
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:  # JSONDecodeError, or a NaN/Infinity literal
        raise ParseError(f"invalid JSON in {path!r}: {exc}") from exc


def _emit(record: dict, csv_path: str | None, csv_rows: list[tuple[str, object]]):
    print(jsonio.canonical_dumps(record))
    if csv_path:
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write("entity,value\n")
            for entity, value in csv_rows:
                fh.write(f"{entity},{value}\n")


def _report_rows(report: SolveReport) -> list[tuple[str, object]]:
    rows: list[tuple[str, object]] = []
    for label, w in zip(
        report.defender_strategy.labels, report.defender_strategy.weights
    ):
        rows.append((f"defender_strategy[{label}]", repr(float(w))))
    if report.attacker_strategy is not None:
        for label, w in zip(
            report.attacker_strategy.labels, report.attacker_strategy.weights
        ):
            rows.append((f"attacker_strategy[{label}]", repr(float(w))))
    rows.append(("value", repr(report.value)))
    rows.append(("iterations", report.iterations))
    rows.append(("certificate_gap", repr(report.certificate_gap)))
    rows.append(("certified", int(report.certified)))
    return rows


def _cmd_solve(args) -> int:
    if args.kind == "qif" and args.mode != "hidden":
        raise ValidationError(f"solve qif solves hidden choice only, not --mode {args.mode}")
    game = jsonio.game_from_dict(_read_json(args.game))
    if args.kind == "qif":
        report = qif.solve_qif(game, tolerance=args.tolerance, max_iter=args.max_iter)
    else:
        if args.mode == "hidden":
            report = dp.solve_dp_hidden(
                game, tolerance=args.tolerance, max_iter=args.max_iter
            )
        else:
            report = dp.solve_dp_visible(game)
    _emit(jsonio.report_to_dict(report), args.csv, _report_rows(report))
    return EXIT_OK if report.certified else EXIT_NOT_CERTIFIED


def _cmd_measure(args) -> int:
    channel = jsonio.channel_from_dict(_read_json(args.channel))
    if args.what == "dp-level":
        if args.adjacency == "all-pairs":
            adj = jsonio.adjacency_from_json("all-pairs")
        else:
            adj = jsonio.adjacency_from_json(_read_json(args.adjacency))
        level = dp_level(channel, adj)
        record = {
            "measure": "dp-level",
            "conforming": math.isfinite(level),
            "dp_level": level if math.isfinite(level) else "inf",
            "units": "nats",
        }
        rows = [("dp_level", "inf" if math.isinf(level) else repr(level))]
    else:
        prior = jsonio.prior_from_json(_read_json(args.prior), channel.inputs)
        if args.gain == "bayes":
            gain = jsonio.gain_from_json("bayes", channel.inputs)
        else:
            gain = jsonio.gain_from_json(_read_json(args.gain), channel.inputs)
        value = posterior_vulnerability(gain, prior, channel)
        record = {"measure": "vulnerability", "posterior_vulnerability": value}
        rows = [("posterior_vulnerability", repr(value))]
    _emit(record, args.csv, rows)
    return EXIT_OK


def _cmd_build(args) -> int:
    if args.what == "two-millionaires":
        game = scenarios.build_two_millionaires()
    elif args.what == "binary-sum":
        game = scenarios.build_binary_sum()
    elif args.what == "dp-example":
        game = scenarios.build_dp_example()
    elif args.what == "crowds":
        if args.config is None:
            raise ParseError("build crowds needs a configuration file")
        config = jsonio.crowds_config_from_dict(_read_json(args.config))
        game = scenarios.build_crowds(config)
    elif args.what == "ldp":
        if args.config is None:
            tables = None
        else:
            tables = jsonio.correlation_tables_from_json(_read_json(args.config))
        game = scenarios.build_ldp_game(
            tables, eps_strong=args.eps_strong, eps_weak=args.eps_weak
        )
    else:  # pragma: no cover - argparse restricts choices
        raise ParseError(f"unknown builder {args.what!r}")
    doc = jsonio.game_to_dict(game)
    rows = [
        ("defender_actions", len(game.defender_actions)),
        ("attacker_actions", len(game.attacker_actions)),
        ("inputs", len(game.inputs)),
        ("outputs", len(game.outputs)),
    ]
    _emit(doc, args.csv, rows)
    return EXIT_OK


def _cmd_audit(args) -> int:
    game = jsonio.game_from_dict(_read_json(args.game))
    result = audit_game(game, seed=args.seed, n_priors=args.priors)
    rows = [(name, int(ok)) for name, ok in sorted(result["checks"].items())]
    _emit(result, args.csv, rows)
    return EXIT_OK if result["ok"] else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leakgames",
        description="Solve and audit zero-sum information-leakage games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="compute an equilibrium strategy")
    p_solve.add_argument("kind", choices=["qif", "dp"])
    p_solve.add_argument("game", help="game JSON file, or - for stdin")
    p_solve.add_argument("--tolerance", type=float, default=None)
    p_solve.add_argument("--max-iter", type=int, default=None)
    p_solve.add_argument("--mode", choices=["hidden", "visible"], default="hidden")
    p_solve.add_argument("--csv", default=None)
    p_solve.set_defaults(func=_cmd_solve)

    p_measure = sub.add_parser("measure", help="evaluate a channel measure")
    p_measure.add_argument("what", choices=["dp-level", "vulnerability"])
    p_measure.add_argument("channel", help="channel JSON file, or - for stdin")
    p_measure.add_argument(
        "--adjacency", default="all-pairs", help='"all-pairs" or a pairs JSON file'
    )
    p_measure.add_argument("--prior", default=None, help="prior JSON file")
    p_measure.add_argument("--gain", default="bayes", help='"bayes" or a gain JSON file')
    p_measure.add_argument("--csv", default=None)
    p_measure.set_defaults(func=_cmd_measure)

    p_build = sub.add_parser("build", help="emit a worked game as JSON")
    p_build.add_argument(
        "what",
        choices=["two-millionaires", "binary-sum", "dp-example", "crowds", "ldp"],
    )
    p_build.add_argument("config", nargs="?", default=None)
    p_build.add_argument("--eps-strong", type=float, default=0.1)
    p_build.add_argument("--eps-weak", type=float, default=2.0)
    p_build.add_argument("--csv", default=None)
    p_build.set_defaults(func=_cmd_build)

    p_audit = sub.add_parser("audit", help="run theorem-shaped checks on a game")
    p_audit.add_argument("game", help="game JSON file, or - for stdin")
    p_audit.add_argument("--seed", type=int, default=0)
    p_audit.add_argument("--priors", type=int, default=50)
    p_audit.add_argument("--csv", default=None)
    p_audit.set_defaults(func=_cmd_audit)
    return parser


def _fill_solver_defaults(args) -> None:
    solver = qif if args.kind == "qif" else dp
    if getattr(args, "tolerance", None) is None:
        args.tolerance = solver.DEFAULT_TOLERANCE
    if getattr(args, "max_iter", None) is None:
        args.max_iter = solver.DEFAULT_MAX_ITER


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "solve":
        _fill_solver_defaults(args)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except LeakGameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main(argv=None) -> int:
    try:
        code = run(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left: discard the rest, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
