"""Command-line front end: expansions, oracle checks, verification sweeps,
and fiber inspection.

Exit codes: 0 success/verified, 1 mathematical violation found, 2 usage or
parameter error, 3 resource budget exceeded.  The degree budget defaults to
20 and can be overridden through the environment variable ``CSFKIT_MAX_N``
(1 to 64); the oracle keeps its library cap of 30 edges and the worker count
is capped at the CPU count.  All output ordering is deterministic regardless
of the worker count.

``verify`` rejects any flag its suite does not read (``verify.SUITE_TABLE``);
``expand`` and ``oracle-check`` ignore flags a family does not take.  A closed
output pipe (``csfkit expand ... | head -1``) exits 1 with nothing on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .compositions import MAX_MODULUS, format_parts, parse_composition
from .coefficients import (
    WClass,
    classify,
    coeff_c_doubleprime,
    coeff_D,
    fiber,
    psi,
    solve_psqt,
)
from .errors import ResourceLimitError
from .graphs import (
    FAMILIES,
    FAMILY_TABLE,
    build_family_graph,
    expansion_closed_form,
    family_degree,
    csf_pbasis,
)
from .symfunc import first_difference, pvector_to_e
from .verify import SUITES, run_suite

DEFAULT_MAX_N = 20
# triple-deletion instances; each costs six oracle calls on up to 14 edges
MAX_INSTANCE_COUNT = 1000
# the integer flags of expand and oracle-check, in --help order
FAMILY_FLAGS = ("n", "l", "a", "b", "c")
# the integer flags of verify, in --help order; None means not given
VERIFY_FLAGS = ("n", "n_max", "a", "b", "a_max", "b_max", "count", "seed", "workers")

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _n_budget() -> int:
    raw = os.environ.get("CSFKIT_MAX_N", "").strip()
    if not raw:
        return DEFAULT_MAX_N
    try:
        budget = int(raw)
    except ValueError:
        raise ValueError(f"CSFKIT_MAX_N must be an integer, got {raw!r}") from None
    if not 1 <= budget <= MAX_MODULUS:
        raise ValueError(f"CSFKIT_MAX_N must be between 1 and {MAX_MODULUS}, got {budget}")
    return budget


def _family_instance(args: argparse.Namespace) -> tuple:
    """The family's own parameters as given on the command line and their
    degree, checked against the degree budget; other flags are ignored."""
    # in flag order, which the oracle-check OK line prints
    own = FAMILY_TABLE[args.family].params
    params = {key: getattr(args, key) for key in FAMILY_FLAGS if key in own}
    n = family_degree(args.family, **params)
    budget = _n_budget()
    if n > budget:
        raise ResourceLimitError(f"degree {n} exceeds the budget {budget}")
    return params, n


def _emit_grouped(grouped, fmt: str, out) -> None:
    if fmt == "json":
        print(grouped.to_json(indent=2), file=out)
        return
    rows = [(format_parts(lam), str(coef)) for lam, coef in grouped.items_sorted()]
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(("partition", "coefficient"))
        writer.writerows(rows)
        return
    width = max((len(name) for name, _ in rows), default=9)
    print(f"{'partition'.ljust(width)}  coefficient", file=out)
    for name, coef in rows:
        print(f"{name.ljust(width)}  {coef}", file=out)


def cmd_expand(args: argparse.Namespace) -> int:
    params, _ = _family_instance(args)
    # --variant and --form each name forms of one family; others ignore them
    forms = FAMILY_TABLE[args.family].forms
    form = next((f for f in (args.variant, args.form) if f in forms), None)
    expansion = expansion_closed_form(args.family, form=form, **params)
    _emit_grouped(expansion.grouped_by_rho(), args.format, sys.stdout)
    return EXIT_OK


def cmd_oracle_check(args: argparse.Namespace) -> int:
    params, n = _family_instance(args)
    # the oracle's edge guard fires before any closed form is built
    oracle = pvector_to_e(csf_pbasis(build_family_graph(args.family, **params)))
    # check every displayed form of the family's closed formula, in the e-basis
    forms = FAMILY_TABLE[args.family].forms
    for label in forms:
        expansion = expansion_closed_form(args.family, form=label, **params)
        diff = first_difference(expansion.grouped_by_rho(), oracle)
        if diff is not None:
            lam, ours, theirs = diff
            print(
                f"MISMATCH {label} at partition {format_parts(lam)}: "
                f"closed form {ours}, oracle {theirs}"
            )
            return EXIT_VIOLATION
    print(
        f"OK {args.family} {tuple(params.values())}:"
        f" {len(forms)} form(s) match the oracle exactly (n={n})"
    )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.workers is not None and args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    if args.count is not None and args.count < 0:
        raise ValueError(f"--count must be >= 0, got {args.count}")
    if args.count is not None and args.count > MAX_INSTANCE_COUNT:
        raise ResourceLimitError(
            f"--count {args.count} exceeds the limit {MAX_INSTANCE_COUNT}"
        )
    flags = {key: getattr(args, key) for key in VERIFY_FLAGS}
    result = run_suite(args.suite, _n_budget(), **flags)
    if args.format == "json":
        payload = {"suite": result.name, "checked": result.checked,
                   "violations": result.violations, "notes": result.notes}
        print(json.dumps(payload, indent=2))
    else:
        for note in result.notes:
            print(f"note: {note}")
        for violation in result.violations:
            print(f"VIOLATION: {violation}")
    print(f"SUITE {result.name} CHECKED {result.checked} VIOLATIONS {len(result.violations)}")
    return EXIT_OK if result.ok else EXIT_VIOLATION


def cmd_fibers(args: argparse.Namespace) -> int:
    I = parse_composition(args.I)
    a, b = args.a, args.b
    if not (a >= b >= 2):
        raise ValueError(f"clock parameters need a >= b >= 2, got {(a, b)}")
    if I.modulus != a + b + 1:
        raise ValueError(
            f"composition {I} has modulus {I.modulus}, expected a+b+1 = {a + b + 1}"
        )
    kind = classify(I, a)
    sol = solve_psqt(I, b)
    print(f"I = {I}   n = {I.modulus}   (a, b) = ({a}, {b})")
    print(f"class = {kind.wclass.value}   in_A = {'yes' if kind.in_A else 'no'}")
    print(f"p = {sol.p}  s = {sol.s}  q = {sol.q}  t = {sol.t}   q - p = {sol.q - sol.p}")
    print(f"w_I = {I.weight}   D_I = {coeff_D(I, a, b)}")
    if kind.wclass is WClass.W_GT:
        for r, H in enumerate(fiber(I, a, b), start=1):
            print(f"H_{r} = {H}   w = {H.weight}   D = {coeff_D(H, a, b)}")
        print(f"c'' = {coeff_c_doubleprime(I, a, b)}")
    elif kind.wclass is WClass.W_LE:
        print(f"psi(I) = {psi(I, a)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csfkit",
        description=(
            "Exact e-expansions of chromatic symmetric functions for paths, "
            "cycles, tadpoles, cycle-chords, theta graphs and clocks, with "
            "brute-force oracle checks and exhaustive verification sweeps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    expand = sub.add_parser("expand", help="emit a grouped e-expansion")
    expand.add_argument("--family", required=True, choices=FAMILIES)
    for flag in FAMILY_FLAGS:
        expand.add_argument(f"--{flag}", type=int)
    expand.add_argument("--format", choices=("text", "csv", "json"), default="text")
    expand.add_argument("--variant", choices=("c", "c-prime"), default="c",
                        help="theta coefficient variant")
    expand.add_argument("--form", choices=("delta", "theta-sum"), default="delta",
                        help="cycle-chord display form")
    expand.set_defaults(handler=cmd_expand)

    oracle = sub.add_parser(
        "oracle-check", help="compare a closed form with the power-sum oracle"
    )
    oracle.add_argument("--family", required=True, choices=FAMILIES)
    for flag in FAMILY_FLAGS:
        oracle.add_argument(f"--{flag}", type=int)
    oracle.set_defaults(handler=cmd_oracle_check)

    verify = sub.add_parser("verify", help="run a verification sweep")
    verify.add_argument("--suite", required=True, choices=SUITES)
    # each suite's defaults live in its runner in verify.SUITE_TABLE
    help_text = {
        "count": f"random instances for triple-deletion, at most {MAX_INSTANCE_COUNT}",
        "workers": "processes for parameter sweeps, at most the CPU count",
    }
    for key in VERIFY_FLAGS:
        verify.add_argument(f"--{key.replace('_', '-')}", dest=key, type=int,
                            help=help_text.get(key))
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.set_defaults(handler=cmd_verify)

    fibers = sub.add_parser(
        "fibers", help="inspect one composition: class, solver indices, fiber"
    )
    fibers.add_argument("--I", required=True, help="comma-separated parts, e.g. 7,2,2")
    fibers.add_argument("--a", type=int, required=True)
    fibers.add_argument("--b", type=int, required=True)
    fibers.set_defaults(handler=cmd_fibers)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe: send what is still buffered to devnull,
        # so the interpreter's exit flush stays quiet, and exit 1 as Python does
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except ResourceLimitError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
