"""Command-line front end.

Subcommands: eigen, bounds, identities, scan, certify, figures, theta0.
Everything is deterministic: the same argv produces byte-identical
output.  Exit codes: 0 success, 1 usage error, 2 certification failure,
3 solver failure, 141 (128 + SIGPIPE) when the reader closed standard
output early, as `montspec certify --regime small | head -1` does; that
case prints nothing to standard error.  Only the subcommands that solve
(eigen, identities, scan) load the solver stack and with it numpy and
scipy's compiled LAPACK extension (not the scipy.linalg package; see
tridiag); bounds, certify, figures and theta0 run on the closed-form
modules alone, and only certify loads mpmath.  bounds writes each
table's line as soon as the table is built, so a long k range streams
with flat memory.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict, astuple, fields

from . import bounds as bounds_mod
from . import certify as certify_mod
from .certify import csv_row, csv_table, fmt
from .errors import CertificationError, SolverFailure

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CERTIFICATION = 2
EXIT_SOLVER = 3
EXIT_BROKEN_PIPE = 141


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; remap to the documented 1.
    def error(self, message):
        raise ValueError(message)


def _double_int(name: str):
    """Argument type: an integer `name` that converts to a double, as every
    formula on k and scan's alpha spacing need."""
    def parse(text: str) -> int:
        value = int(text)
        if abs(value) > sys.float_info.max:
            raise argparse.ArgumentTypeError(f"{name} = {text} is past double precision")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="montspec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eigen", help="low eigenvalues of one operator")
    p.add_argument("--k", type=_double_int("k"), required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--count", type=int, default=2)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--format", choices=("human", "json"), default="human")

    p = sub.add_parser("bounds", help="closed-form bounds table")
    p.add_argument("--k", type=_double_int("k"))
    p.add_argument("--k-min", type=_double_int("k"))
    p.add_argument("--k-max", type=_double_int("k"))
    p.add_argument("--format", choices=("human", "json", "csv"), default="human")

    p = sub.add_parser("identities", help="perturbation identity report")
    p.add_argument("--k", type=_double_int("k"), required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--format", choices=("human", "json"), default="human")

    p = sub.add_parser("scan", help="alpha scan of the first two eigenvalues")
    p.add_argument("--k", type=_double_int("k"), required=True)
    p.add_argument("--alpha-min", type=float, required=True)
    p.add_argument("--alpha-max", type=float, required=True)
    p.add_argument("--steps", type=_double_int("steps"), required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("certify", help="closed-form minimum certificates")
    p.add_argument("--regime", choices=("small", "large"), required=True)
    p.add_argument("--k", type=_double_int("k"), default=None)
    p.add_argument("--format", choices=("human", "json"), default="human")

    p = sub.add_parser("figures", help="summary-figure tables as CSV")
    p.add_argument("--which", choices=tuple(certify_mod.FIGURES), required=True)
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("theta0", help="the de Gennes constant")
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--format", choices=("human", "json"), default="human")

    return parser


def _emit(text: str, out_path, stream) -> None:
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out_path}: {exc.strerror or exc}") from exc
    else:
        stream.write(text)


def _cmd_eigen(args, stream) -> int:
    from .eigensolver import solve
    from .operators import OperatorSpec

    res = solve(OperatorSpec(args.k, args.alpha), count=args.count, tol=args.tol)
    if args.format == "json":
        payload = {
            "k": args.k,
            "alpha": args.alpha,
            "eigenvalues": list(res.eigenvalues),
            "tol": args.tol,
            "achieved_tol": res.achieved_tol_estimate,
        }
        stream.write(json.dumps(payload) + "\n")
    else:
        stream.write(f"operator k={args.k} alpha={fmt(args.alpha)}\n")
        for j, lam in enumerate(res.eigenvalues, start=1):
            stream.write(f"lambda{j} = {fmt(lam)}\n")
        stream.write(
            f"achieved_tol_estimate = {fmt(res.achieved_tol_estimate)} "
            f"(requested {fmt(args.tol)})\n"
        )
        stream.write(f"grid n = {res.grid_used.n} on "
                     f"[{fmt(res.grid_used.lower)}, {fmt(res.grid_used.upper)}]\n")
    return EXIT_OK


def _bounds_tables(args):
    """The BoundsTables that args select, each built only when iterated
    to, so that a range streams out with flat memory.  The selection is
    checked first, at both ends of a range (every even k between two
    valid ends is valid), so a bad one writes nothing."""
    ranged = (args.k_min, args.k_max)
    if args.k is not None and ranged == (None, None):
        ks = [args.k]
    elif args.k is None and None not in ranged:
        ks = range(args.k_min + args.k_min % 2, args.k_max + 1, 2)
        if not ks:
            raise ValueError(f"no even k in [{args.k_min}, {args.k_max}]")
    else:
        raise ValueError("bounds needs either --k alone or both --k-min and --k-max")
    for k in (ks[0], ks[-1]):
        bounds_mod._require_even_k(k)
    return map(bounds_mod.bounds_table, ks)


# Column labels are the BoundsTable field names, with the bounds capitalised.
_BOUNDS_LABELS = {"a_k": "A_k", "b_k": "B_k", "b_tilde_k": "B_tilde_k", "c_k": "C_k"}


def _cmd_bounds(args, stream) -> int:
    # each table's line is written as soon as it is built
    tables = _bounds_tables(args)
    if args.format == "json":
        # the bytes of json.dumps of the whole list
        opening = "["
        for t in tables:
            stream.write(opening + json.dumps(asdict(t)))
            opening = ", "
        stream.write("]\n")
        return EXIT_OK
    labels = [_BOUNDS_LABELS.get(f.name, f.name) for f in fields(bounds_mod.BoundsTable)]
    rows = map(astuple, tables)
    if args.format == "csv":
        stream.write(csv_table(labels, []))
        for row in rows:
            stream.write(csv_row(row))
    else:
        for row in rows:
            pairs = (
                f"{name}={'-' if x is None else fmt(x)}"
                for name, x in zip(labels, row)
            )
            stream.write("  ".join(pairs) + "\n")
    return EXIT_OK


def _cmd_identities(args, stream) -> int:
    from .identities import identity_report

    rep = identity_report(args.k, args.alpha, tol=args.tol)
    if args.format == "json":
        stream.write(json.dumps(asdict(rep)) + "\n")
    else:
        stream.write(f"identities for k={rep.k} alpha={fmt(rep.alpha)}\n")
        stream.write(f"fh_integral = {fmt(rep.fh_integral)} (fd oracle {fmt(rep.d1_fd)})\n")
        stream.write(
            f"virial lhs = {fmt(rep.virial_lhs)} rhs = {fmt(rep.virial_rhs)} "
            f"residual = {fmt(abs(rep.virial_lhs - rep.virial_rhs))}\n"
        )
        stream.write(f"d2_exact = {fmt(rep.d2_exact)} (fd oracle {fmt(rep.d2_fd)})\n")
        stream.write(
            f"gap criterion: {fmt(rep.gap_criterion)} margin = {fmt(rep.gap_margin)}\n"
        )
    return EXIT_OK


def _cmd_scan(args, stream) -> int:
    rows = certify_mod.scan(args.k, args.alpha_min, args.alpha_max, args.steps,
                            tol=args.tol)
    _emit(certify_mod.scan_csv(rows), args.out, stream)
    return EXIT_OK


def _certificates_for(args):
    if args.regime == "small":
        ks = [args.k] if args.k is not None else range(2, bounds_mod.SMALL_K_MAX + 1, 2)
        return [certify_mod.certify_small_k(k) for k in ks]
    ks = [args.k] if args.k is not None else [bounds_mod.LARGE_K_MIN, 100, 200]
    return [certify_mod.certify_large_k(k) for k in ks]


def _cmd_certify(args, stream) -> int:
    reports = _certificates_for(args)
    if args.format == "json":
        payload = [
            {
                "k": r.k,
                "regime": r.regime.value,
                "passed": r.passed,
                "checks": [
                    {"name": c.name, "lhs": c.lhs, "rhs": c.rhs,
                     "rel_margin": c.rel_margin, "passed": c.passed}
                    for c in r.checks
                ],
            }
            for r in reports
        ]
        stream.write(json.dumps(payload) + "\n")
    else:
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            stream.write(f"k={r.k} regime={r.regime.value} {status}\n")
            for c in r.checks:
                mark = "ok" if c.passed else "FAILED"
                stream.write(
                    f"  {c.name}: {fmt(c.lhs)} > {fmt(c.rhs)} "
                    f"(rel margin {fmt(c.rel_margin)}) {mark}\n"
                )
    if not all(r.passed for r in reports):
        return EXIT_CERTIFICATION
    return EXIT_OK


def _cmd_figures(args, stream) -> int:
    _emit(certify_mod.figure_csv(args.which), args.out, stream)
    return EXIT_OK


def _cmd_theta0(args, stream) -> int:
    value = bounds_mod.de_gennes_theta0(tol=args.tol)
    if args.format == "json":
        stream.write(json.dumps({"theta0": value, "tol": args.tol}) + "\n")
    else:
        stream.write(f"theta0 = {fmt(value)}\n")
    return EXIT_OK


_COMMANDS = {
    "eigen": _cmd_eigen,
    "bounds": _cmd_bounds,
    "identities": _cmd_identities,
    "scan": _cmd_scan,
    "certify": _cmd_certify,
    "figures": _cmd_figures,
    "theta0": _cmd_theta0,
}


def run(argv=None, stream=None) -> int:
    stream = stream if stream is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = _COMMANDS[args.command](args, stream)
        # a buffered stream meets a closed pipe only when it is flushed
        stream.flush()
        return code
    except BrokenPipeError:
        return EXIT_BROKEN_PIPE
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def main() -> None:
    code = run()
    if code == EXIT_BROKEN_PIPE:
        # what is left in stdout's buffer cannot be written; point the
        # descriptor at devnull so that the interpreter's final flush
        # does not report the broken pipe
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
