"""Command line surface: depth reports, graph exports, generators, checks.

Matrix text format: lines starting with '#' are comments and ignored (as
are blank lines); the first remaining line is 'rows cols'; then exactly
`rows` lines each holding `cols` nonnegative decimal integers separated
by whitespace. Exit codes: 0 success, 1 a requested check failed,
2 input error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from importlib import resources
from pathlib import Path

from .bigraph import (build_graph, min_even_depth_graph, min_hdepth_graph,
                      min_odd_depth_graph, to_dot)
from .depth import InclusionMatrix, depth_report, min_odd_depth_symmetric
from .exactmat import IntMatrix, MatrixError
from .symgroup import tower_matrix


class MatrixParseError(MatrixError):
    """Malformed matrix text; the message names the offending line and cell."""


def _data_lines(text: str):
    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield number, stripped.split()


def _parse_grid(text: str):
    """Parse the text format into an IntMatrix plus per-row line numbers."""
    lines = _data_lines(text)
    header = next(lines, None)
    if header is None:
        raise MatrixParseError("empty input: expected a 'rows cols' header")
    line_no, tokens = header
    try:
        rows, cols = map(int, tokens)
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
                value = int(token)
            except ValueError:
                raise MatrixParseError(
                    f"line {line_no}: entry ({i + 1},{j + 1}) is not an "
                    f"integer: {token!r}") from None
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
    return IntMatrix(grid), row_lines


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
    return Path(str(resources.files(__package__) / "fixtures" / name))


def _read_matrix_text(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    try:
        return Path(source).read_text()
    except OSError as exc:
        raise MatrixError(f"cannot read {source}: {exc}") from None


def _emit(values: dict, as_json: bool) -> None:
    """Print values as indented JSON, or as one 'key: value' line each."""
    if as_json:
        print(json.dumps(values, indent=2))
    else:
        for key, value in values.items():
            print(f"{key}: {value}")


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
    values = asdict(depth_report(m))
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
            Path(args.dot).write_text(dot)
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
    m = parse_matrix(_read_matrix_text(args.matrix))
    rep = depth_report(m)
    checks = [
        ("|d - d_H| <= 2",
         abs(rep.depth - rep.h_depth) <= 2,
         f"d={rep.depth} d_H={rep.h_depth}"),
        ("|d(Mt) - d(M)| <= 1",
         abs(rep.depth_transpose - rep.depth) <= 1,
         f"d(Mt)={rep.depth_transpose} d={rep.depth}"),
        ("0 <= d_H - d(Mt) <= 1",
         0 <= rep.h_depth - rep.depth_transpose <= 1,
         f"d_H={rep.h_depth} d(Mt)={rep.depth_transpose}"),
        ("d <= spectral bound",
         rep.depth <= rep.spectral_bound,
         f"d={rep.depth} bound={rep.spectral_bound}"),
        ("d_H is odd",
         rep.h_depth % 2 == 1,
         f"d_H={rep.h_depth}"),
        ("graph agrees with matrix",
         rep.all_methods_agree(),
         _flags(rep.methods_agree)),
    ]
    if args.json:
        _emit({
            "checks": [{"name": name, "passed": passed, "detail": detail}
                       for name, passed, detail in checks],
            "all_pass": all(passed for _, passed, _ in checks),
        }, True)
    else:
        for name, passed, detail in checks:
            print(f"{'PASS' if passed else 'FAIL'}  {name:<26} ({detail})")
    return 0 if all(passed for _, passed, _ in checks) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="incdepth",
        description="Depth, H-depth and transpose depth of inclusion matrices.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit JSON instead of text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", parents=[common],
                       help="full depth report for a matrix file")
    p.add_argument("--matrix", required=True, metavar="FILE",
                   help="matrix file in the text format, or - for stdin")
    p.add_argument("--transpose", action="store_true",
                   help="report on the transpose matrix instead")
    p.add_argument("--symmetric-odd", action="store_true", dest="symmetric_odd",
                   help="treat the input as a symmetric bracketed square "
                        "M M^t and print its minimum odd depth only")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("graph", parents=[common],
                       help="graph-method depth values, optional DOT export")
    p.add_argument("--matrix", required=True, metavar="FILE",
                   help="matrix file in the text format, or - for stdin")
    p.add_argument("--dot", metavar="OUTFILE",
                   help="write the bipartite graph as DOT (- for stdout)")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("sym", parents=[common],
                       help="symmetric-group inclusion matrix from branching")
    p.add_argument("--n", type=int, required=True,
                   help="ambient symmetric group S_n (n >= 2)")
    p.add_argument("--k", type=int, default=None,
                   help="subgroup S_k (default n-1)")
    p.set_defaults(func=cmd_sym)

    p = sub.add_parser("check", parents=[common],
                       help="run the depth inequality checks on one matrix")
    p.add_argument("--matrix", required=True, metavar="FILE",
                   help="matrix file in the text format, or - for stdin")
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # MatrixError, and UnicodeDecodeError from read_text
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - exit codes over tracebacks
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
