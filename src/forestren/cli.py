"""Batch command-line surface.

Commands read forest files in the grammar of :mod:`forestren.forest`, run
the pipeline, and print deterministic results on stdout; diagnostics go to
stderr.  Every library error and every file error prints one ``error:``
line and exits 1, except a locality or proper-decoration violation or a
singular Gram system, which exit 2 (as does an argparse usage error, such as
an option the command does not take), and a failed numeric check, which
exits 3.  Exit 0 is success; :func:`run` sends usage errors to ``err`` and
``--help`` to ``out``.  A call imports only what its command runs: the
oracle and numpy for ``quad-check``, and the telescoping reference of
:mod:`forestren.projector`, with its truncated series, for ``germ``; the
other commands compile the region engine and ``PiPoly`` alone.  No command
loads mpmath, since a float rendering is computed with ints, nor
``dataclasses``, since the package defines none.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import redirect_stderr, redirect_stdout
from typing import Optional

from .errors import (
    ConvergenceFailure,
    DomainError,
    ForestrenError,
    LocalityViolation,
    NotProperlyDecorated,
    NumeratorTooLarge,
    ParseError,
    SingularGram,
)
from .forest import parse_forest
from .renorm import (
    MAX_GERM_DEGREE,
    MAX_GERM_TRUNC_EXCESS,
    expand_r1,
    is_similar,
    regularize,
    renormalize,
)


class _CheckFailure(ForestrenError):
    """A cross-check did not hold; maps to exit code 3."""


# Exit codes of the errors that do not exit 1, as the module docstring lists
_EXIT_CODES = {
    NotProperlyDecorated: 2,
    LocalityViolation: 2,
    SingularGram: 2,
    ConvergenceFailure: 3,
    DomainError: 3,
    _CheckFailure: 3,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forestren",
        description="Exact renormalization of branched integrals on decorated rooted forests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    renorm = sub.add_parser("renorm", help="print the renormalized value")
    renorm.add_argument("paths", nargs="+")
    reg = sub.add_parser(
        "regularize", help="print the closed-form regularized symbol"
    )
    reg.add_argument("paths", nargs="+")
    germ = sub.add_parser(
        "germ", help="print the truncated holomorphic projection"
    )
    germ.add_argument("paths", nargs="+")
    sim = sub.add_parser(
        "check-similar", help="decide similarity of two forests"
    )
    sim.add_argument("path1")
    sim.add_argument("path2")
    quad = sub.add_parser(
        "quad-check", help="compare quadrature against the closed form"
    )
    quad.add_argument("paths", nargs="+")

    # Each command declares only the options it reads.
    for p in (renorm, germ, sim):
        p.add_argument(
            "--trunc",
            type=int,
            default=None,
            help=(
                "series truncation degree of the germ output (default: forest"
                " degree + 2); renorm and check-similar only check that it is"
                " at least the forest degree"
            ),
        )
    renorm.add_argument(
        "--format",
        choices=("exact", "float", "both"),
        default="both",
        help="which value renderings to print",
    )
    quad.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for randomized checks",
    )
    for p in (renorm, reg, germ, sim, quad):
        p.add_argument(
            "--explicit",
            action="store_true",
            help="require explicit vector decorations with a Q= line",
        )
    quad.add_argument(
        "--quad-tol",
        type=float,
        default=1e-6,
        help="maximum admissible quadrature relative error",
    )
    return parser


def _load(path: str, explicit_required: bool):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if explicit_required and not text.lstrip().startswith("Q="):
        raise ParseError(f"{path}: --explicit requires a leading Q= line")
    return parse_forest(text)


def _emit(prefix: str, line: str, out) -> None:
    print(f"{prefix}{line}", file=out)


def _run_per_file(args, handler, out) -> None:
    many = len(args.paths) > 1
    for path in args.paths:
        forest, Q = _load(path, args.explicit)
        prefix = f"{path}: " if many else ""
        handler(forest, Q, prefix)


def _cmd_renorm(args, out) -> None:
    def handle(forest, Q, prefix):
        value = renormalize(forest, Q, args.trunc)
        if args.format in ("exact", "both"):
            _emit(prefix, str(value.exact), out)
        if args.format in ("float", "both"):
            _emit(prefix, value.numeric_str(), out)

    _run_per_file(args, handle, out)


def _cmd_regularize(args, out) -> None:
    def handle(forest, Q, prefix):
        reg = regularize(forest, Q)
        _emit(prefix, f"exponent: {reg.exponent}", out)
        factors = ", ".join(str(f) for f in reg.factors)
        _emit(prefix, f"factors: [{factors}]", out)

    _run_per_file(args, handle, out)


def _cmd_germ(args, out) -> None:
    # Only germ runs the telescoping reference.
    from .projector import piplus_expand

    def handle(forest, Q, prefix):
        deg = forest.degree()
        if deg > MAX_GERM_DEGREE:
            raise NumeratorTooLarge(
                f"germ is limited to forests of degree {MAX_GERM_DEGREE},"
                f" not {deg}"
            )
        if args.trunc is not None and args.trunc > deg + MAX_GERM_TRUNC_EXCESS:
            raise NumeratorTooLarge(
                f"germ is limited to truncation {deg + MAX_GERM_TRUNC_EXCESS}"
                f" at degree {deg}, not {args.trunc}"
            )
        frac, ctx = expand_r1(forest, Q, args.trunc)
        _emit(prefix, str(piplus_expand(frac, ctx)), out)

    _run_per_file(args, handle, out)


def _cmd_check_similar(args, out) -> None:
    f1, Q1 = _load(args.path1, args.explicit)
    f2, Q2 = _load(args.path2, args.explicit)
    if not is_similar(f1, Q1, f2, Q2):
        print("NOT-SIMILAR", file=out)
        return
    v1 = renormalize(f1, Q1, args.trunc)
    v2 = renormalize(f2, Q2, args.trunc)
    print("SIMILAR", file=out)
    if v1.exact != v2.exact:
        raise _CheckFailure(
            "similar forests disagree: "
            f"{v1.exact} vs {v2.exact}"
        )
    print(f"values agree: {v1.exact}", file=out)


def _cmd_quad_check(args, out) -> None:
    # Only quadrature needs the oracle and, through it, numpy.
    import random

    from .oracle import admissible_assignment, closed_form_value, quad_tree

    worst = 0.0

    def handle(forest, Q, prefix):
        nonlocal worst
        rng = random.Random(args.seed)
        file_worst = 0.0
        for _ in range(5):
            assign = admissible_assignment(forest, rng)
            for x in (0.5, 1.0, 2.0):
                got = quad_tree(forest, assign, x)
                want = closed_form_value(forest, assign, x)
                err = abs(got - want) / abs(want)
                file_worst = max(file_worst, err)
        worst = max(worst, file_worst)
        _emit(prefix, f"max relative error: {file_worst:.3e}", out)

    _run_per_file(args, handle, out)
    if worst > args.quad_tol:
        raise _CheckFailure(
            f"quadrature error {worst:.3e} exceeds tolerance {args.quad_tol:.1e}"
        )


_COMMANDS = {
    "renorm": _cmd_renorm,
    "regularize": _cmd_regularize,
    "germ": _cmd_germ,
    "check-similar": _cmd_check_similar,
    "quad-check": _cmd_quad_check,
}


def run(argv: Optional[list[str]] = None, out=None, err=None) -> int:
    """Run one CLI invocation; returns the exit code, of usage errors too."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = _build_parser()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        _COMMANDS[args.command](args, out)
    except (ForestrenError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return _EXIT_CODES.get(type(exc), 1)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
