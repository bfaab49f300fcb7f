"""Seeded inputs for the three workloads and the checks on their answers.

Every input is a row and column permutation of a fixed matrix: a branching
matrix S_{n-1} <= S_n, a member of a pool of dense random matrices, or a
member of a pool of small random matrices. Permuting rows and columns
changes no depth invariant, no witness q and no spectral bound, so it
changes no field of the report and no byte of `compute --json`. Each op is
therefore checked against the golden answer recorded from the seed code for
its unpermuted matrix (golden.json, written by record_golden.py), and every
seed has golden answers. The seed picks the pool members and permutations.

The pools are fixtures of the benchmark: they are built from fixed seeds
once per process, and their digests are checked against golden.json so that
a change in the generator is not reported as a wrong answer.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")

WORKLOADS = ("branching", "dense_bigint", "small_batch")

# S_{n-1} <= S_n has d = 2n-3 (Burciu-Kadison-Kulshammer, "On subgroup
# depth", IEJA 2011), and the spectral bound is sharp on this family.
BRANCHING_NS = (11, 12, 13)
GOLDEN_BRANCHING_NS = range(4, 14)
# S_4 <= S_5 through the CLI: ends every pass on every workload, so each
# layer, the CLI included, is measured on each workload.
PROBE_N = 5

DENSE_POOL, DENSE_OPS = 8, 2
DENSE_ROWS, DENSE_COLS, DENSE_MAX, DENSE_ZERO = 40, 60, 1000, 0.2

SMALL_POOL, SMALL_OPS = 2048, 1000
SMALL_DIM, SMALL_MAX = 8, 3

# Shrunken sizes for the self-test.
TINY = {"branching": (5, 6, 7), "dense_bigint": 1, "small_batch": 20}

CLI_ARGS = ("compute", "--json", "--matrix", "-")
REPORT_FIELDS = ("rows", "cols", "depth", "depth_transpose", "h_depth",
                 "min_odd_depth", "min_even_depth", "q_witness",
                 "spectral_bound", "methods_agree")


@dataclass(frozen=True)
class Op:
    """One call into incdepth: depth_report on `matrix`, or the CLI on `text`."""

    kind: str          # "report" or "cli"
    key: tuple         # golden entry: ("branching", n), ("dense", i), ("small", i), ("probe",)
    matrix: object = None
    text: str = ""
    shape: str = ""


def render(rows) -> str:
    """The documented matrix text format: a 'rows cols' header, then the rows."""
    lines = [f"{len(rows)} {len(rows[0])}"]
    lines.extend(" ".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


def digest(text: str, length: int = 64) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:length]


def _patch_zero_lines(rng, cells, high: int) -> list[list[int]]:
    """Give every zero row and column one nonzero cell."""
    rows, cols = len(cells), len(cells[0])
    for i in range(rows):
        if not any(cells[i]):
            cells[i][rng.randrange(cols)] = rng.randint(1, high)
    for j in range(cols):
        if not any(cells[i][j] for i in range(rows)):
            cells[rng.randrange(rows)][j] = rng.randint(1, high)
    return cells


def _dense_matrix(index: int) -> list[list[int]]:
    rng = random.Random(f"dense/{index}")
    return _patch_zero_lines(rng, [
        [0 if rng.random() < DENSE_ZERO else rng.randint(1, DENSE_MAX)
         for _ in range(DENSE_COLS)] for _ in range(DENSE_ROWS)], DENSE_MAX)


def _small_pool() -> list[list[list[int]]]:
    rng = random.Random("small")
    pool = []
    for _ in range(SMALL_POOL):
        rows, cols = rng.randint(1, SMALL_DIM), rng.randint(1, SMALL_DIM)
        pool.append(_patch_zero_lines(rng, [
            [rng.randint(0, SMALL_MAX) for _ in range(cols)]
            for _ in range(rows)], SMALL_MAX))
    return pool


class Fixtures:
    """The matrix pools, built once per process and checked against golden.json."""

    def __init__(self, golden: dict | None):
        self.dense = [_dense_matrix(i) for i in range(DENSE_POOL)]
        self.small = _small_pool()
        if golden is None:  # recording the goldens
            return
        if [digest(render(m), 16) for m in self.dense] != golden["dense"]["inputs"]:
            raise RuntimeError("dense pool differs from the one golden.json was recorded on")
        if digest("".join(map(render, self.small))) != golden["small"]["inputs"]:
            raise RuntimeError("small pool differs from the one golden.json was recorded on")


def _permuted(rows, rng) -> list[list[int]]:
    row_order = rng.sample(range(len(rows)), len(rows))
    col_order = rng.sample(range(len(rows[0])), len(rows[0]))
    return [[rows[i][j] for j in col_order] for i in row_order]


def _shape(rows) -> str:
    return f"{len(rows)}x{len(rows[0])}"


def probe_ops(api) -> list[Op]:
    """The probe through the CLI, and the same matrix through depth_report."""
    m = api.branching_matrix(PROBE_N)
    rows = [list(r) for r in m.matrix.entries]
    return [Op("cli", ("probe",), text=render(rows), shape=_shape(rows)),
            Op("report", ("branching", PROBE_N), matrix=m, shape=_shape(rows))]


def build_ops(api, fixtures: Fixtures, workload: str, seed: int,
              tiny: bool = False) -> list[Op]:
    """The workload's inputs for this seed; only these reach the program."""
    rng = random.Random(f"{workload}/{seed}")
    ops = []
    if workload == "branching":
        for n in (TINY[workload] if tiny else BRANCHING_NS):
            rows = _permuted(api.branching_matrix(n).matrix.entries, rng)
            ops.append(Op("report", ("branching", n),
                          matrix=api.InclusionMatrix(rows), shape=_shape(rows)))
    elif workload == "dense_bigint":
        count = TINY[workload] if tiny else DENSE_OPS
        for i in rng.sample(range(DENSE_POOL), count):
            rows = _permuted(fixtures.dense[i], rng)
            ops.append(Op("report", ("dense", i),
                          matrix=api.InclusionMatrix(rows), shape=_shape(rows)))
    elif workload == "small_batch":
        for _ in range(TINY[workload] if tiny else SMALL_OPS):
            i = rng.randrange(SMALL_POOL)
            rows = _permuted(fixtures.small[i], rng)
            ops.append(Op("cli", ("small", i), text=render(rows), shape=_shape(rows)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


def report_fields(rep) -> dict:
    return {k: getattr(rep, k) for k in REPORT_FIELDS}


def golden_entry(golden: dict, key: tuple):
    kind = key[0]
    if kind == "probe":
        return golden["probe"]
    if kind == "branching":
        return golden["branching"][str(key[1])]
    if kind == "dense":
        return golden["dense"]["reports"][key[1]]
    return golden["small"]["outputs"][key[1]]


def check(op: Op, value, golden: dict) -> str | None:
    """None when the answer is right, else what is wrong with it.

    `value` is the DepthReport of a report op, or (exit code, stdout,
    stderr) of a CLI op.
    """
    expected = golden_entry(golden, op.key)
    if op.kind == "report":
        got = {k: getattr(value, k) for k in expected}
        if got != expected:
            return f"report differs from golden: {got}"
        if op.key[0] == "branching":
            return _closed_form(op.key[1], got)
        return None
    code, out, err = value
    if code != 0:
        return f"exit code {code}: {err.strip()}"
    if digest(out, len(expected)) != expected:
        return f"compute --json output differs from golden: {out!r}"
    if op.key == ("probe",):
        return _closed_form(PROBE_N, json.loads(out))
    return None


def _closed_form(n: int, rep: dict) -> str | None:
    if rep["depth"] != 2 * n - 3:
        return f"d(S_{n - 1} <= S_{n}) = {rep['depth']}, expected {2 * n - 3}"
    if rep["spectral_bound"] != rep["depth"]:
        return f"spectral bound {rep['spectral_bound']} is not sharp on S_{n}"
    if not all(rep["methods_agree"].values()):
        return f"methods disagree on S_{n}: {rep['methods_agree']}"
    return None


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())
