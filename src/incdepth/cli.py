"""Command line surface: depth reports, graph exports, generators, checks.

Matrix text format: lines end at CR LF, CR or LF, and one leading byte
order mark is dropped; lines starting with '#' are comments and ignored (as
are blank lines); the first remaining line is 'rows cols'; then exactly
`rows` lines each holding `cols` nonnegative decimal integers separated
by whitespace. Exit codes: 0 success, 1 a requested check failed,
2 input error or a closed stdout, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
from pathlib import Path

from .bigraph import (build_graph, min_even_depth_graph, min_hdepth_graph,
                      min_odd_depth_graph, to_dot)
from .depth import depth_report, inequalities, min_odd_depth_symmetric
from .exactmat import InclusionMatrix, IntMatrix, MatrixError, made
from .symgroup import tower_matrix


class MatrixParseError(MatrixError):
    """Malformed matrix text; the message names the offending line and cell."""


def _data_lines(text: str):
    """(line number, tokens) of each data line. Lines end at CR LF, CR or LF
    only, so a form feed or U+2028 is whitespace inside its line."""
    text = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")
    for number, raw in enumerate(text.split("\n"), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield number, stripped.split()


def _decimal(token: str) -> int:
    """int() of ASCII digits 0-9 after an optional '-'; no '+', '_' or other digits,
    and no more digits than the int-to-str limit. A ValueError ends a cell's diagnostic."""
    digits = token[1:] if token[:1] == "-" else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"is not an integer: {token!r}")
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"has {len(digits)} digits, more than the limit of "
                         f"{sys.get_int_max_str_digits()}") from None


def _parse_grid(text: str):
    """Parse the text format into an IntMatrix plus per-row line numbers."""
    lines = _data_lines(text)
    header = next(lines, None)
    if header is None:
        raise MatrixParseError("empty input: expected a 'rows cols' header")
    line_no, tokens = header
    try:
        rows, cols = map(_decimal, tokens)
    except ValueError:
        raise MatrixParseError(
            f"line {line_no}: malformed header, expected 'rows cols'") from None
    if rows < 1 or cols < 1:
        raise MatrixParseError(
            f"line {line_no}: header dimensions must be positive, got {rows} {cols}")
    grid = []
    row_lines = []
    for i in range(rows):
        entry = next(lines, None)
        if entry is None:
            raise MatrixParseError(
                f"unexpected end of input: expected {rows} rows, found {i}")
        line_no, tokens = entry
        if len(tokens) != cols:
            raise MatrixParseError(
                f"line {line_no}: row {i + 1} has {len(tokens)} entries, "
                f"expected {cols}")
        row = []
        for j, token in enumerate(tokens):
            try:
                value = _decimal(token)
            except ValueError as exc:
                raise MatrixParseError(
                    f"line {line_no}: entry ({i + 1},{j + 1}) {exc}") from None
            if value < 0:
                raise MatrixParseError(
                    f"line {line_no}: negative entry {value} at ({i + 1},{j + 1})")
            row.append(value)
        grid.append(row)
        row_lines.append(line_no)
    extra = next(lines, None)
    if extra is not None:
        raise MatrixParseError(
            f"line {extra[0]}: unexpected content after {rows} matrix rows")
    # the ints and the row widths are checked above, so IntMatrix's scan is not needed
    return made(grid), row_lines


def parse_int_matrix(text: str) -> IntMatrix:
    """Parse matrix text without the inclusion-matrix validity checks."""
    matrix, _ = _parse_grid(text)
    return matrix


def parse_matrix(text: str) -> InclusionMatrix:
    """Parse matrix text into a validated InclusionMatrix."""
    matrix, row_lines = _parse_grid(text)
    try:
        return InclusionMatrix(matrix)
    except MatrixError as exc:
        where = "" if exc.row is None else f"line {row_lines[exc.row]}: "
        raise MatrixParseError(f"{where}{exc}") from None


def render_matrix(m) -> str:
    """Matrix text for an IntMatrix or InclusionMatrix; parse round-trips it."""
    mat = m.matrix if isinstance(m, InclusionMatrix) else m
    lines = [f"{mat.rows} {mat.cols}"]
    lines.extend(" ".join(str(e) for e in row) for row in mat.entries)
    return "\n".join(lines) + "\n"


def fixture_path(name: str) -> Path:
    """Path of a bundled example matrix: s3s4.mat, c2m2.mat or h8_mmt.mat."""
    return Path(__file__).with_name("fixtures") / name


def _read_matrix_text(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    try:
        return Path(source).read_text(encoding="utf-8")
    except OSError as exc:
        raise MatrixError(f"cannot read {source}: {exc}") from None


def _emit(values: dict, as_json: bool) -> None:
    """Print values as indented JSON, or as one 'key: value' line each.

    A value such as q_witness may have more digits than the interpreter's
    int-to-str limit (Python 3.10.7 on) allows. It is printed in full, and
    the limit, which the parser still obeys, is then restored.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if as_json:
            print(json.dumps(values, indent=2))
        else:
            for key, value in values.items():
                print(f"{key}: {value}")
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _flags(methods_agree: dict[str, bool]) -> str:
    return " ".join(f"{k}={'yes' if v else 'NO'}" for k, v in methods_agree.items())


def cmd_compute(args) -> int:
    text = _read_matrix_text(args.matrix)
    if args.symmetric_odd:
        _emit({"min_odd_depth": min_odd_depth_symmetric(parse_int_matrix(text))},
              args.json)
        return 0
    m = parse_matrix(text)
    if args.transpose:
        m = m.transposed()
    values = dict(vars(depth_report(m)))
    if not args.json:
        values["methods_agree"] = _flags(values["methods_agree"])
    _emit(values, args.json)
    return 0


def cmd_graph(args) -> int:
    m = parse_matrix(_read_matrix_text(args.matrix))
    graph = build_graph(m)
    values = {
        "rows": m.rows,
        "cols": m.cols,
        "min_odd_depth": min_odd_depth_graph(graph),
        "min_even_depth": min_even_depth_graph(graph),
        "h_depth": min_hdepth_graph(graph),
    }
    if args.dot is not None:
        dot = to_dot(graph)
        if args.dot == "-":
            sys.stdout.write(dot)
        else:
            try:
                Path(args.dot).write_text(dot, encoding="utf-8")
            except OSError as exc:
                raise MatrixError(f"cannot write {args.dot}: {exc}") from None
    _emit(values, args.json)
    return 0


def cmd_sym(args) -> int:
    n = args.n
    k = args.k if args.k is not None else n - 1
    if n < 2:
        raise MatrixError(f"--n must be at least 2, got {n}")
    if not 1 <= k < n:
        raise MatrixError(f"--k must satisfy 1 <= k < n, got k={k}, n={n}")
    m = tower_matrix(k, n)
    if args.json:
        _emit({"rows": m.rows, "cols": m.cols,
               "entries": [list(row) for row in m.matrix.entries]}, True)
    else:
        sys.stdout.write(render_matrix(m))
    return 0


def cmd_check(args) -> int:
    rep = depth_report(parse_matrix(_read_matrix_text(args.matrix)))
    checks = [*inequalities(rep.depth, rep.depth_transpose, rep.h_depth, rep.spectral_bound),
              ("graph agrees with matrix", rep.all_methods_agree(), _flags(rep.methods_agree))]
    all_pass = all(passed for _, passed, _ in checks)
    if args.json:
        _emit({"checks": [dict(zip(("name", "passed", "detail"), row)) for row in checks],
               "all_pass": all_pass}, True)
    else:
        for name, passed, detail in checks:
            print(f"{'PASS' if passed else 'FAIL'}  {name:<26} ({detail})")
    return 0 if all_pass else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every main call.

    Parsing reads the parser and never changes it, so concurrent calls may
    share it. Each subcommand's handler is looked up by name when main
    runs it, so a cmd_* function patched after the build is still called.
    """
    parser = argparse.ArgumentParser(
        prog="incdepth",
        description="Depth, H-depth and transpose depth of inclusion matrices.")
    sub = parser.add_subparsers(dest="command", required=True)
    compute = sub.add_parser("compute", help="full depth report for a matrix file")
    graph = sub.add_parser("graph",
                           help="graph-method depth values, optional DOT export")
    sym = sub.add_parser("sym",
                         help="symmetric-group inclusion matrix from branching")
    check = sub.add_parser("check",
                           help="run the depth inequality checks on one matrix")
    for p in (compute, graph, sym, check):
        p.add_argument("--json", action="store_true",
                       help="emit JSON instead of text")
    for p in (compute, graph, check):
        p.add_argument("--matrix", required=True, metavar="FILE",
                       help="matrix file in the text format, or - for stdin")

    compute.add_argument("--transpose", action="store_true",
                         help="report on the transpose matrix instead")
    compute.add_argument("--symmetric-odd", action="store_true",
                         dest="symmetric_odd",
                         help="treat the input as a symmetric bracketed square "
                              "M M^t and print its minimum odd depth only")
    graph.add_argument("--dot", metavar="OUTFILE",
                       help="write the bipartite graph as DOT (- for stdout)")
    sym.add_argument("--n", type=int, required=True,
                     help="ambient symmetric group S_n (n >= 2)")
    sym.add_argument("--k", type=int, default=None,
                     help="subgroup S_k (default n-1)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out = sys.stdout
    raw = getattr(out, "buffer", None)
    if isinstance(raw, io.RawIOBase):
        # Under python -u stdout's binary layer is the raw file: a write that
        # a leaving reader cuts short returns a short count, which the text
        # layer drops. A BufferedWriter writes the rest, and so meets the
        # closed pipe.
        sys.stdout = io.TextIOWrapper(io.BufferedWriter(raw), out.encoding, out.errors,
                                      write_through=True)
    try:
        status = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()  # so a closed reader fails here, not at exit
        return status
    except BrokenPipeError as exc:  # the reader left: devnull takes what stdout buffers
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # MatrixError, and UnicodeDecodeError from read_text
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - exit codes over tracebacks
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        if sys.stdout is not out:  # flush to the raw file and leave it open
            sys.stdout.detach().detach()
            sys.stdout = out


if __name__ == "__main__":
    sys.exit(main())
