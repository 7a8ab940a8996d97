"""Command-line interface: ``qgelfand verify | eigenvalue | limit``.

Exit codes: 0 all requested checks pass, 1 a verification failed,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from fractions import Fraction

from . import __version__, faults
from .invariants import (closed_form_eigenvalues, classical_eigenvalues,
                         classical_limit_values, require_dominant,
                         shifted_weights)
from .reps import WeightError
from .suite import (SuiteConfig, ConfigError, CHECK_NAMES, run_suite,
                    render_text, render_json, _lam_str)


def _parse_ints(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated "
                                         f"integers, got {text!r}")


def _parse_q0(text):
    try:
        q0 = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a rational NUM or "
                                         f"NUM/DEN, got {text!r}")
    if q0 == 0:
        raise argparse.ArgumentTypeError("q must be nonzero")
    return q0


def _parse_checks(text):
    names = tuple(x for x in text.split(",") if x)
    for name in names:
        if name not in CHECK_NAMES:
            raise argparse.ArgumentTypeError(
                f"unknown check name {name!r}; known: {', '.join(CHECK_NAMES)}")
    return names


def build_parser():
    """The argument parser of all three verbs.  ``main`` builds it once
    per process, on its first call, and reuses it: ``parse_args`` reads
    the parser and writes only the namespace it returns, and every
    default is immutable, so no query sees state from an earlier one."""
    top = argparse.ArgumentParser(
        prog="qgelfand",
        description="Exact verification of quantum Gelfand invariants "
                    "and their eigenvalues.")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--n", type=_parse_ints, default=(2, 3), metavar="LIST",
                   help="matrix sizes to cover (comma-separated, default 2,3)")
    p.add_argument("--N-max", dest="N_max", type=int, default=3,
                   help="largest tensor power of the vector representation")
    p.add_argument("--m-max", dest="m_max", type=int, default=3,
                   help="largest invariant degree")
    p.add_argument("--order", type=int, default=3,
                   help="u-series expansion order")
    p.add_argument("--checks", type=_parse_checks, default=CHECK_NAMES,
                   metavar="LIST", help="only run these categories")
    p.add_argument("--exclude", type=_parse_checks, default=(),
                   metavar="LIST", help="skip these categories")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", metavar="PATH",
                   help="write the report here instead of stdout")
    p.add_argument("--jobs", type=int, default=1, metavar="K",
                   help="accepted for compatibility; checks always "
                        "run serially")
    p.add_argument("--inject-fault", choices=faults.KINDS,
                   default=None, help=argparse.SUPPRESS)

    for name, extra in (("eigenvalue",
                         "print eigenvalues of the quantum Gelfand "
                         "invariants on the given highest weight"),
                        ("limit",
                         "print the classical (q -> 1) eigenvalues")):
        p = sub.add_parser(name, help=extra)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--lambda", dest="lam", type=_parse_ints,
                       required=True, metavar="LIST",
                       help="weight as comma-separated integers")
        p.add_argument("--m", type=int, default=None,
                       help="single invariant degree")
        p.add_argument("--m-max", dest="m_max", type=int, default=3,
                       help="degrees 0..m-max (ignored with --m)")
        if name == "eigenvalue":
            p.add_argument("--eval-q", dest="eval_q", type=_parse_q0,
                           default=None, metavar="NUM/DEN",
                           help="also evaluate exactly at this rational q")
    return top


# The largest q-exponent span an eigenvalue or limit query may reach.
# For degrees up to m the span is bounded from n, lambda and m alone by
#
#     2m (|l_1| + |l_n| + 1) + (n + 2)(n - 1)(l_1 - l_n + 1):
#
# the monomials q^{2 l_k m}, q^0 and the limit's (q - q^-1)^m lie within
# the first term; the common denominator of the weights divides
# prod_{i<j} [l_i - l_j]_q, and each weight's numerator is a product of
# n - 1 q-integers, which together reach the second.  A query above the
# cap exits 2 before anything is built.  Every query with n <= 6, m <= 6
# and |lambda| <= 16 spans at most 1144.  The slowest accepted queries
# are limits with a large m-max on a small weight, which add up
# O(m-max^2) polynomials: ``limit --n 1 --lambda 0 --m-max 750`` takes
# about 5 s on a 2-core Xeon.
MAX_Q_SPAN = 1500


def _q_span(n, ell, m):
    return (2 * m * (abs(ell[0]) + abs(ell[-1]) + 1)
            + (n + 2) * (n - 1) * (ell[0] - ell[-1] + 1))


def _degrees(args, lam):
    """The requested degrees, after the q-span guard."""
    if args.m is not None:
        if args.m < 0:
            raise WeightError(f"degree must be nonnegative, got {args.m}")
        ms = range(args.m, args.m + 1)
    elif args.m_max < 0:
        raise WeightError(f"m-max must be nonnegative, got {args.m_max}")
    else:
        ms = range(args.m_max + 1)
    span = _q_span(args.n, shifted_weights(args.n, lam), ms[-1])
    if span > MAX_Q_SPAN:
        raise ConfigError(f"q-exponent span {span} of degree {ms[-1]} on "
                          f"{_lam_str(lam)} exceeds the cap of {MAX_Q_SPAN}")
    return ms


def cmd_verify(args):
    try:
        config = SuiteConfig(ns=args.n, N_max=args.N_max, m_max=args.m_max,
                             order=args.order, include=args.checks,
                             exclude=args.exclude, jobs=args.jobs,
                             fault=args.inject_fault)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:  # an unwritable --out is refused before the run, not after it
        out = (open(args.out, "w") if args.out
               else contextlib.nullcontext(sys.stdout))
    except OSError as exc:
        print(f"error: cannot write the report to {args.out}: "
              f"{exc.strerror}", file=sys.stderr)
        return 2
    with out as fh:
        report = run_suite(config)
        fh.write(render_json(report) if args.format == "json"
                 else render_text(report))
    return 0 if report["summary"]["fail"] == 0 else 1


def cmd_eigenvalue(args):
    lam = _check_weight(args.n, args.lam)
    ms = _degrees(args, lam)
    for m, value in zip(ms, closed_form_eigenvalues(args.n, lam, ms)):
        line = f"E_{m}{_lam_str(lam)} = {value.render()}"
        if args.eval_q is not None:
            at = value.eval_at(args.eval_q)
            line += f"   [q={args.eval_q}: {at}]"
        print(line)
    return 0


def cmd_limit(args):
    lam = _check_weight(args.n, args.lam)
    ms = _degrees(args, lam)
    code = 0
    for m, via_limit, direct in zip(ms,
                                    classical_limit_values(args.n, lam, ms),
                                    classical_eigenvalues(args.n, lam, ms)):
        line = f"m={m}: {direct}"
        if via_limit != direct:
            line += f"   MISMATCH: q->1 limit gives {via_limit}"
            code = 1
        print(line)
    return code


def _check_weight(n, lam):
    if n < 1:
        raise WeightError(f"n must be positive, got {n}")
    if len(lam) != n:
        raise WeightError(f"weight {lam} has {len(lam)} entries, need {n}")
    require_dominant(n, lam)
    return tuple(lam)


_parser = None


def main(argv=None):
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    handler = {"verify": cmd_verify, "eigenvalue": cmd_eigenvalue,
               "limit": cmd_limit}[args.command]
    try:
        return handler(args)
    except (WeightError, ConfigError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
