"""Command-line front end.

Exit codes: 0 success, 1 usage or parse error, 2 certification failure
(including an exhausted node search).  These are part of the contract so
the tool can anchor shell pipelines and CI checks.
"""

from __future__ import annotations

import argparse
import functools
import sys
from itertools import islice
from typing import Optional, Sequence

from . import serialize, svg
from .errors import KnotforgeError
from .exactpoly import Poly, rat_str, signed_sum
from .knots import build_cn, synthesize
from .pade import pade
from .serialize import SchemaError
from .stieltjes import phi, phi_coefficients

USAGE_EXIT = 1
CERT_EXIT = 2
MAX_SAMPLES = 1_000_000  # export's grid is held in memory, several lists of this length


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later `main`."""
    parser = _Parser(prog="knotforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="synthesize a certified curve", parents=[], add_help=True)
    gen.add_argument("--n", type=int, required=True, metavar="N", help="odd number of crossings")
    grp = gen.add_mutually_exclusive_group()  # explicit nodes run no search
    grp.add_argument("--epsilon", metavar="p/q", help="starting node scale (default 1/4)")
    grp.add_argument("--nodes", metavar="LIST", help="comma-separated explicit nodes, e.g. 1/16,1/8")
    gen.add_argument("--out", metavar="FILE", help="output path (default: stdout)")

    ver = sub.add_parser("verify", help="re-derive every certificate of a stored curve")
    ver.add_argument("file", help="curve JSON file")

    table = sub.add_parser("cn-table", help="print the odd basis C_0..C_max")
    table.add_argument("--max", type=int, default=5, metavar="K")

    phi_cmd = sub.add_parser("phi", help="print exact series coefficients")
    phi_cmd.add_argument("--count", type=int, required=True, metavar="K")

    pade_cmd = sub.add_parser("pade", help="print the [k/l] approximant of the series")
    pade_cmd.add_argument("--k", type=int, required=True, help="numerator degree")
    pade_cmd.add_argument("--l", type=int, required=True, help="denominator degree")

    exp = sub.add_parser("export", help="render a stored curve")
    fmt = exp.add_mutually_exclusive_group(required=True)
    fmt.add_argument("--svg", action="store_true", help="plane projection with crossing gaps")
    fmt.add_argument("--csv", action="store_true", help="sampled t,x,y,z rows")
    exp.add_argument("--samples", type=int, default=1200, metavar="M",
                     help=f"grid points on t in [-2.2, 2.2], 2 to {MAX_SAMPLES} (default: 1200)")
    exp.add_argument("file", help="curve JSON file")
    exp.add_argument("--out", metavar="FILE", help="output path (default: stdout)")
    return parser


class _FileError(Exception):
    """A file that cannot be read or written; `main` reports it and exits 1."""


def _load(path: str) -> object:
    """The JSON document in path; any bytes that do not decode raise _FileError."""
    try:
        return serialize.load_curve(path)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and integers past the digit limit
        raise _FileError(f"cannot read {path}: {exc}") from exc


def _write(text: str, out: Optional[str]) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _FileError(f"cannot write {out}: {exc}") from exc


def _cmd_gen(args) -> int:
    if args.n < 1 or args.n % 2 == 0:
        print(f"knotforge gen: error: --n must be an odd positive integer, got {args.n}",
              file=sys.stderr)
        return USAGE_EXIT
    # the p or p/q rationals of curve files, checked by the same reader: each
    # comma-separated part of --nodes, and --epsilon whole
    read = {}
    for flag, what, parts in (("nodes", "node", args.nodes and args.nodes.split(",")),
                              ("epsilon", "epsilon", args.epsilon and [args.epsilon])):
        try:
            read[flag] = [serialize._rat_from_json(part.strip(), what) for part in parts or ()]
        except SchemaError as exc:
            print(f"knotforge gen: error: bad --{flag}: {exc}", file=sys.stderr)
            return USAGE_EXIT
    try:
        curve, report = synthesize(args.n, epsilon=(read["epsilon"] or [None])[0],
                                   nodes=read["nodes"] or None)
        doc = serialize.curve_to_dict(args.n, curve.plane.x, curve.plane.y, curve.z, report)
    except KnotforgeError as exc:
        print(f"knotforge gen: certification failed: {exc}", file=sys.stderr)
        return CERT_EXIT
    except ValueError as exc:  # bad nodes, or integers past the digit limit of N
        print(f"knotforge gen: error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    _write(serialize.dumps(doc), args.out)
    degs = (3, curve.plane.y.degree, curve.z.degree)
    print(f"N={args.n}: certified curve of degree {degs}, "
          f"epsilon={rat_str(report.epsilon) if report.epsilon is not None else 'n/a'}",
          file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    doc = _load(args.file)
    try:
        ok, lines = serialize.verify_curve(doc)
    except SchemaError as exc:
        print(f"knotforge verify: bad schema: {exc}", file=sys.stderr)
        return USAGE_EXIT
    for line in lines:
        print(line)
    print("VERIFIED" if ok else "NOT VERIFIED")
    return 0 if ok else CERT_EXIT


def _cmd_cn_table(args) -> int:
    if args.max < 0:
        print("knotforge cn-table: error: --max must be >= 0", file=sys.stderr)
        return USAGE_EXIT
    basis = build_cn(args.max)
    for j, (c, coords) in enumerate(zip(basis.cn, basis.cn_w)):
        order = 2 * j + 1
        cofactor = str(Poly(c.coeffs[order:]))
        mono = f"t^{order}" if order > 1 else "t"
        if cofactor != "1":
            mono += f" * ({cofactor})"
        print(f"C_{j} = {mono} = {signed_sum((coords[i], f'W_{i}') for i in range(j, -1, -1))}")
    return 0


def _cmd_phi(args) -> int:
    if args.count < 1:
        print("knotforge phi: error: --count must be >= 1", file=sys.stderr)
        return USAGE_EXIT
    try:
        for n, c in enumerate(islice(phi_coefficients(), args.count), 1):
            print(rat_str(c))
    except ValueError:  # only int -> str conversion raises it: 4,301 digits at phi_3006
        print(f"knotforge phi: error: phi_{n} has an integer of more than "
              f"{sys.get_int_max_str_digits()} digits, the integer digit limit", file=sys.stderr)
        return USAGE_EXIT
    return 0


def _cmd_pade(args) -> int:
    if args.k < 0 or args.l < 0 or args.l > args.k:
        print("knotforge pade: error: need 0 <= l <= k", file=sys.stderr)
        return USAGE_EXIT
    approx = pade(phi, args.k, args.l)
    print("P:", " ".join(rat_str(approx.p.coeff(i)) for i in range(args.k + 1)))
    print("Q:", " ".join(rat_str(approx.q.coeff(i)) for i in range(args.l + 1)))
    return 0


def _cmd_export(args) -> int:
    if not 2 <= args.samples <= MAX_SAMPLES:
        print(f"knotforge export: error: --samples must be between 2 and {MAX_SAMPLES}",
              file=sys.stderr)
        return USAGE_EXIT
    doc = _load(args.file)
    try:
        text = svg.render_svg(doc, args.samples) if args.svg else svg.render_csv(doc, args.samples)
    except SchemaError as exc:
        print(f"knotforge export: bad curve file: {exc}", file=sys.stderr)
        return USAGE_EXIT
    _write(text, args.out)
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "verify": _cmd_verify,
    "cn-table": _cmd_cn_table,
    "phi": _cmd_phi,
    "pade": _cmd_pade,
    "export": _cmd_export,
}


def _join_signed(argv: Sequence[str]) -> list[str]:
    """argv with a value such as "-1/4" after --epsilon or --nodes joined to its flag
    as --flag=-1/4, which argparse would otherwise read as an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--epsilon", "--nodes") and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_signed(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse help/usage paths; exit code already decided
        return int(exc.code) if exc.code is not None else 0
    try:
        return _COMMANDS[args.command](args)
    except _FileError as exc:
        print(f"knotforge {args.command}: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
