"""Command-line interface.

Subcommands: reduce mincol, reduce 3col, verify-sequence, tww-exact,
chromatic, sat, nae, roundtrip.  Each returns a RunReport that `main`
times and prints.  Exit code 0 when all checks pass, 1 when a check
fails (the failing invariant is named in the report), 2 on usage or
input errors.  The TWINWIDTH_BUDGET environment variable overrides the
default oracle node budget where --budget is not given.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from pathlib import Path

from . import formats
from .cnf import CnfFormula, Dialect
from .contraction import verify_d_sequence
from .errors import BudgetExceeded, ParseError, TwinwidthError
from .mincol import (build_mincol, build_mincol_3sequence,
                     mincol_assignment_from_coloring,
                     mincol_coloring_from_assignment)
from .oracles import chromatic_number, exact_twinwidth, is_k_colorable, is_proper, solve_nae, solve_sat
from .report import RunReport
from .threecol import (build_3col, build_3col_4sequence, lift_to_k,
                       threecol_assignment_from_coloring,
                       threecol_coloring_from_assignment)
from .trigraph import edge_count

DEFAULT_BUDGET = 20_000_000


def _budget(args) -> int | None:
    source, budget = "--budget", args.budget
    if budget is None:
        source, env = "TWINWIDTH_BUDGET", os.environ.get("TWINWIDTH_BUDGET", str(DEFAULT_BUDGET))
        try:
            budget = int(env)
        except ValueError:
            raise ParseError(f"TWINWIDTH_BUDGET is not an integer: {env!r}") from None
    if budget < 0:
        raise ParseError(f"{source} must not be negative, got {budget}")
    return budget


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def _maybe_write(path: str | None, render, value) -> None:
    """Write render(value) to path; nothing is rendered when no path is given."""
    if path:
        Path(path).write_text(render(value))


def _read_formula(report: RunReport, path: str, nae: bool) -> CnfFormula:
    dialect = Dialect.NAE_THREE_SAT if nae else Dialect.THREE_SAT
    formula = formats.parse_dimacs_cnf(_read(path), dialect)
    report.add("n", formula.n_vars)
    report.add("m", formula.n_clauses)
    return formula


def _certify(report: RunReport, graph, seq, bound: int, failure: str) -> None:
    """Replay seq on graph and report its width profile; above bound, fail with `failure`."""
    ok, profile = verify_d_sequence(graph, seq, bound)
    report.add("width.max", profile.overall_width)
    report.add("width.argmax_step", profile.argmax_step)
    report.add(f"sequence_ok_at_{bound}", ok)
    if not ok:
        report.fail(failure.format(width=profile.overall_width, bound=bound))


def _build(report: RunReport, args):
    """Build the reduction instance named by args.target and certify its sequence.

    mincol: 3-SAT to the coloring number, width 3.  3col: NAE-3-SAT to
    3-coloring, width 4, lifted to args.k colors when that is given and
    not 3.  Returns the instance, graph, sequence and color budget.
    """
    formula = _read_formula(report, args.cnf, nae=args.target == "3col")
    k = getattr(args, "k", None)
    if args.target == "mincol":
        inst = build_mincol(formula)
        graph, seq, bound, colors = inst.graph, build_mincol_3sequence(inst), 3, inst.color_budget
        report.add("color_budget", colors)
    else:
        inst = build_3col(formula)
        bound = 4
        if k is not None and k != 3:
            graph, seq, colors = *lift_to_k(inst, k), k
            report.add("k", k)
        else:
            graph, seq, colors = inst.graph, build_3col_4sequence(inst), 3
    report.add("N", graph.n)
    report.add("edges", edge_count(graph.black_adj))
    _certify(report, graph, seq, bound, "generated sequence exceeds width {bound}")
    return inst, graph, seq, colors


def _cmd_reduce(args) -> RunReport:
    report = RunReport(f"reduce {args.target} {args.cnf}")
    _, graph, seq, _ = _build(report, args)
    _maybe_write(args.graph, formats.write_trigraph, graph)
    _maybe_write(args.sequence, formats.write_sequence, seq)
    _maybe_write(args.roles, formats.write_roles, graph)
    return report


def _cmd_verify_sequence(args) -> RunReport:
    if args.max_width < 0:
        raise ParseError(f"--max-width must not be negative, got {args.max_width}")
    report = RunReport(f"verify-sequence {args.graph} {args.sequence}")
    g = formats.read_trigraph(_read(args.graph))
    seq = formats.read_sequence(_read(args.sequence))
    report.add("N", g.n)
    report.add("steps", len(seq.steps))
    _certify(report, g, seq, args.max_width, "width {width} exceeds bound {bound}")
    return report


def _cmd_tww_exact(args) -> RunReport:
    report = RunReport(f"tww-exact {args.graph}")
    g = formats.read_trigraph(_read(args.graph))
    report.add("N", g.n)
    try:
        width, seq = exact_twinwidth(g, _budget(args))
    except BudgetExceeded as exc:
        report.skip(f"budget exceeded; twin-width at least {exc.lower}")
        return report
    report.add("twin_width", width)
    ok, _ = verify_d_sequence(g, seq, width)
    if not ok:
        report.fail("witness sequence does not verify at the reported width")
    _maybe_write(args.witness, formats.write_sequence, seq)
    return report


def _cmd_chromatic(args) -> RunReport:
    report = RunReport(f"chromatic {args.graph}")
    g = formats.read_trigraph(_read(args.graph))
    report.add("N", g.n)
    try:
        chi, witness = chromatic_number(g, _budget(args))
    except BudgetExceeded as exc:
        report.skip(f"budget exceeded; bounds [{exc.lower}, {exc.upper}]")
        return report
    report.add("chromatic_number", chi)
    if not is_proper(g, witness):
        report.fail("witness coloring rejected by the propriety checker")
    _maybe_write(args.coloring, formats.write_coloring, witness)
    return report


def _cmd_solve(args) -> RunReport:
    nae = args.command == "nae"
    report = RunReport(f"{args.command} {args.cnf}")
    formula = _read_formula(report, args.cnf, nae)
    model = solve_nae(formula) if nae else solve_sat(formula)
    report.add("satisfiable", model is not None)
    if model is not None:
        report.add("assignment", " ".join(
            str(v if model[v] else -v) for v in sorted(model)))
        _maybe_write(args.assignment, formats.write_assignment, model)
    return report


def _map_back(report: RunReport, key: str, backward, inst, col) -> None:
    """Run a backward map as the check `key`: a coloring it rejects is a FAIL line."""
    try:
        backward(inst, col)
    except TwinwidthError as exc:
        report.fail(f"{key}: {exc}")
    else:
        report.add(key, "ok")


def _cmd_roundtrip(args) -> RunReport:
    mincol = args.target == "mincol"
    report = RunReport(f"roundtrip --{args.target} {args.cnf}")
    budget = _budget(args)
    inst, graph, _, k = _build(report, args)
    if mincol:
        solve, forward, backward = (solve_sat, mincol_coloring_from_assignment,
                                    mincol_assignment_from_coloring)
    else:
        solve, forward, backward = (solve_nae, threecol_coloring_from_assignment,
                                    threecol_assignment_from_coloring)

    model = solve(inst.formula)
    report.add("satisfiable", model is not None)

    chi = None  # mincol with a model: one chromatic search answers both questions
    try:
        if mincol and model is not None:
            chi, witness = chromatic_number(graph, budget)
            colorable = chi <= k
        else:
            colorable, witness = is_k_colorable(graph, k, budget)
    except BudgetExceeded:
        report.skip(f"{k}-colorability oracle over budget")
    else:
        report.add(f"colorable_{k}", colorable)
        if colorable != (model is not None):
            report.fail("oracle colorability verdict disagrees with satisfiability")
        if colorable:
            _map_back(report, "oracle_witness_roundtrip", backward, inst, witness)

    if model is not None:
        col = forward(inst, model)
        if mincol and len(set(col.colors)) != k:
            report.fail("forward coloring does not use exactly 2n colors")
        _map_back(report, "forward_backward_roundtrip", backward, inst, col)
        if mincol and chi is None:
            report.skip("chromatic number oracle over budget")
        elif mincol:
            report.add("chromatic_number", chi)
            if chi != k:
                report.fail("chromatic number differs from the color budget")
    return report


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parse_args gives each call a fresh Namespace."""
    parser = argparse.ArgumentParser(prog="twinwidth")
    sub = parser.add_subparsers(dest="command", required=True)

    reduce_p = sub.add_parser("reduce", help="build a reduction instance")
    reduce_sub = reduce_p.add_subparsers(dest="target", required=True)
    for target in ("mincol", "3col"):
        p = reduce_sub.add_parser(target)
        p.add_argument("cnf")
        p.add_argument("--graph")
        p.add_argument("--sequence")
        p.add_argument("--roles")
        if target == "3col":
            p.add_argument("--k", type=int)
        p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("verify-sequence", help="replay a sequence against a bound")
    p.add_argument("graph")
    p.add_argument("sequence")
    p.add_argument("--max-width", type=int, required=True)
    p.set_defaults(func=_cmd_verify_sequence)

    p = sub.add_parser("tww-exact", help="exact twin-width of a tiny graph")
    p.add_argument("graph")
    p.add_argument("--budget", type=int)
    p.add_argument("--witness")
    p.set_defaults(func=_cmd_tww_exact)

    p = sub.add_parser("chromatic", help="exact chromatic number")
    p.add_argument("graph")
    p.add_argument("--budget", type=int)
    p.add_argument("--coloring")
    p.set_defaults(func=_cmd_chromatic)

    for name in ("sat", "nae"):
        p = sub.add_parser(name, help=f"solve a CNF under {name} semantics")
        p.add_argument("cnf")
        p.add_argument("--assignment")
        p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("roundtrip", help="full build/verify/solve/map pipeline")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--mincol", dest="target", action="store_const", const="mincol")
    group.add_argument("--3col", dest="target", action="store_const", const="3col")
    p.add_argument("cnf")
    p.add_argument("--budget", type=int)
    p.set_defaults(func=_cmd_roundtrip)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        report = args.func(args)
    except (OSError, TwinwidthError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    report.add("wall_time_s", f"{time.perf_counter() - started:.3f}")
    sys.stdout.write(report.render())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
