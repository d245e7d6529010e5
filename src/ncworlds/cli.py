"""Command line interface.

Exit codes: 0 when every check passes, 1 when any check fails, 2 on usage
or parse errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import constraints as cn
from . import iterant as it
from . import skewdiff as sd
from . import suites
from .parser import ParseError, evaluate, parse, print_expr, world
from .quotient import NAMED_SYSTEMS, ReductionError, step_limit
from .scalar import text

# matrix decompose builds n! terms, each a diagonal of n scalars
MAX_DECOMPOSE_N = 8
# level n of the derivative tower has p(n) terms: derivative_tower(30) takes
# about 0.2 s, and `tower --levels 30 --json` 0.7 s (2 cores, CPython 3.11.7)
MAX_TOWER_LEVELS = 30


def build_argparser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ncworlds",
        description="exact non-commutative algebra worlds: reduce expressions "
                    "and verify the discrete-calculus identities",
    )
    sub = top.add_subparsers(dest="command", required=True)

    reduce_p = sub.add_parser("reduce", help="parse an expression and print its normal form")
    reduce_p.add_argument("expr")
    reduce_p.add_argument("--world", default="free", choices=list(NAMED_SYSTEMS))
    reduce_p.add_argument("--max-steps", type=int, default=None)
    reduce_p.add_argument("--json", action="store_true")

    verify_p = sub.add_parser("verify", help="run a verification suite")
    verify_p.add_argument("suite", choices=list(suites.SUITE_NAMES))
    verify_p.add_argument("--seed", type=int, default=0)
    verify_p.add_argument("--trials", type=int, default=100)
    verify_p.add_argument("--length", type=int, default=12)
    verify_p.add_argument("--range", dest="spread", type=int, default=3)
    verify_p.add_argument("--levels", type=int, default=12)
    verify_p.add_argument("--json", action="store_true")

    em_p = sub.add_parser("em-sim", help="run the discrete field model on random series")
    em_p.add_argument("--length", type=int, default=12)
    em_p.add_argument("--seed", type=int, default=0)
    em_p.add_argument("--range", dest="spread", type=int, default=3)
    em_p.add_argument("--trials", type=int, default=100)
    em_p.add_argument("--json", action="store_true")

    tower_p = sub.add_parser("tower", help="print classical derivative-tower levels")
    tower_p.add_argument("--levels", type=int, default=5)
    tower_p.add_argument("--coeff-series", choices=["h-prime", "h-prime-squared"],
                         default=None)
    tower_p.add_argument("--json", action="store_true")

    iterant_p = sub.add_parser("iterant", help="iterant algebra entry points")
    iterant_sub = iterant_p.add_subparsers(dest="iterant_command", required=True)
    iterant_sub.add_parser("demo", help="print the oscillation, quaternion and boost checks")

    matrix_p = sub.add_parser("matrix", help="matrix algebra entry points")
    matrix_sub = matrix_p.add_subparsers(dest="matrix_command", required=True)
    dec = matrix_sub.add_parser("decompose",
                                help="split a JSON matrix into diagonal x permutation terms")
    dec.add_argument("matrix", help='e.g. "[[1, 2], [3, \\"1/2\\"]]"')

    return top


def _emit_reports(reports: list[suites.SuiteReport], as_json: bool) -> int:
    if as_json:
        if len(reports) == 1:
            obj = reports[0].to_json_obj()
        else:
            obj = {
                "status": "pass" if all(r.passed for r in reports) else "fail",
                "suites": [r.to_json_obj() for r in reports],
            }
        print(json.dumps(obj, sort_keys=True))
    else:
        for r in reports:
            header = f"suite {r.suite}"
            if r.seed is not None:
                header += f"  seed={r.seed}"
            print(header)
            for c in r.checks:
                mark = "ok  " if c.status == "pass" else "FAIL"
                line = f"  {mark} {c.id:<34} {c.statement}"
                if c.status != "pass":
                    line += f"\n       residual: {c.residual}"
                print(line)
            for n in r.notes:
                print(f"  note: {n}")
            print(f"  {'pass' if r.passed else 'FAIL'} ({len(r.checks)} checks, "
                  f"{sum(c.elapsed for c in r.checks):.2f}s)")
    return 0 if all(r.passed for r in reports) else 1


def _cmd_reduce(args) -> int:
    expr = parse(args.expr)
    system = world(args.world)
    poly = evaluate(expr, system, step_limit(args.max_steps))
    if args.json:
        print(json.dumps({"input": print_expr(expr), "world": args.world,
                          "normal_form": poly.to_text()}, sort_keys=True))
    else:
        print(poly.to_text())
    return 0


def _require_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError(f"--trials must be at least 1, got {trials}")


def _require_levels(levels: int, least: int = 1) -> None:
    if levels < least:
        raise ValueError(f"--levels takes at least {least}, got {levels}")
    if levels > MAX_TOWER_LEVELS:
        raise ValueError(f"--levels takes at most {MAX_TOWER_LEVELS}, got {levels}")


def _cmd_verify(args) -> int:
    _require_trials(args.trials)
    _require_levels(args.levels, suites.MIN_TOWER_LEVELS)
    options = suites.Options(seed=args.seed, trials=args.trials, length=args.length,
                             spread=args.spread, levels=args.levels)
    reports = suites.run_suite(args.suite, options)
    return _emit_reports(reports, args.json)


def _cmd_em_sim(args) -> int:
    _require_trials(args.trials)
    ids = ("lorentz-force", "divergence-b", "faraday-with-curvature", "ampere-with-waves")
    holds = {name: True for name in ids}
    worst = "0"
    trials = suites.em_trials(random.Random(args.seed), args.trials, args.length,
                              args.spread)
    try:
        for res, _ in trials:
            for name, value in zip(ids, (res.lorentz_force, res.div_b,
                                         res.faraday, res.ampere)):
                zero, text = suites.first_residual([value])
                if not zero:
                    holds[name] = False
                    if worst == "0":
                        worst = text
    except sd.WindowError as exc:
        for name in ids:
            holds[name] = False
        worst = f"error: {exc}"
    obj = {
        "seed": args.seed,
        "trials": args.trials,
        "residual_max": worst,
        "equations": [{"id": name, "holds": holds[name]} for name in ids],
    }
    if args.json:
        print(json.dumps(obj, sort_keys=True))
    else:
        print(f"em-sim: {args.trials} trials, length {args.length}, "
              f"entries in [-{args.spread}, {args.spread}], seed {args.seed}")
        for name in ids:
            print(f"  {'ok  ' if holds[name] else 'FAIL'} {name}")
        print(f"  residual_max: {worst}")
    return 0 if all(holds.values()) else 1


def _cmd_tower(args) -> int:
    _require_levels(args.levels)
    tower = cn.derivative_tower(args.levels)
    series_name = args.coeff_series
    series: list[str] = []
    if series_name == "h-prime":
        series = [str(cn.hprime_coefficient(lvl)) for lvl in tower if lvl.level >= 2]
    elif series_name == "h-prime-squared":
        series = [str(cn.hprime2_coefficient(lvl)) for lvl in tower if lvl.level >= 4]
    if args.json:
        obj = {
            "levels": [{"level": lvl.level, "polynomial": lvl.polynomial.to_text()}
                       for lvl in tower],
        }
        if series_name:
            obj["series"] = {"name": series_name, "values": series}
        print(json.dumps(obj, sort_keys=True))
    else:
        for lvl in tower:
            print(f"theta^({lvl.level}) = {lvl.polynomial.to_text()}")
        if series_name:
            print(f"{series_name}: {', '.join(series)}")
    return 0


def _cmd_iterant_demo() -> int:
    i_view = it.imaginary_iterant()
    print("square root of minus one as a clock:")
    print(f"  i = [-1, 1].eta,  i*i = {(i_view * i_view).to_text()}")
    print(f"  matrix image: {i_view.to_matrix().to_text()}")
    table = it.quaternion_table()
    print("quaternion products (i = eps.eta, j = sqrt(-1) eps-bar, k = sqrt(-1) eta):")
    for a, b, prod in table.products:
        print(f"  {a} * {b} = {prod}")
    print(f"  squares and ijk = -1: {'ok' if table.ok else 'FAIL'}; {table.jk_orientation}")
    k = it.boost_parameter(Fraction(3, 5))
    t2, x2 = it.lorentz_boost(k, 1, 0)
    print(f"lorentz boost at v = 3/5: (t, x) = (1, 0) -> ({t2}, {x2}); "
          f"interval (t-x)(t+x) preserved exactly")
    return 0 if table.ok else 1


def _cmd_matrix_decompose(args) -> int:
    try:
        rows = [[Fraction(str(x)) for x in row] for row in json.loads(args.matrix)]
    except (ValueError, TypeError) as exc:
        raise ValueError(f"matrix argument must be JSON rows of rationals: {exc}") from None
    m = it.Matrix(rows)
    if m.n > MAX_DECOMPOSE_N:
        raise ValueError(f"matrix decompose takes n at most {MAX_DECOMPOSE_N}, got {m.n}")
    dec = it.matrix_decompose(m)
    terms = [{"diagonal": list(map(text, vec)),
              "permutation": [p + 1 for p in perm]}
             for perm, vec in dec.terms()]
    obj = {"n": m.n, "terms": terms,
           "reconstructs": dec.to_matrix() == m}
    print(json.dumps(obj, sort_keys=True))
    return 0 if obj["reconstructs"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_argparser()
    args = parser.parse_args(argv)
    try:
        step_limit()  # a malformed NCWORLDS_MAX_STEPS stops every command
        if args.command == "reduce":
            return _cmd_reduce(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "em-sim":
            return _cmd_em_sim(args)
        if args.command == "tower":
            return _cmd_tower(args)
        if args.command == "iterant":
            return _cmd_iterant_demo()
        if args.command == "matrix":
            return _cmd_matrix_decompose(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReductionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser.error(f"unknown command {args.command!r}")
    return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
