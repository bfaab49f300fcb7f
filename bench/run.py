"""incdepth benchmark: time to a full depth report, checked, with per-layer spans.

    python3 bench/run.py --workload branching --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
./src and nowhere else. The run sets up SETUP_ROUNDS times and reports the
median set-up, then makes passes over the workload's inputs until
--seconds have elapsed (at least MIN_PASSES). Each pass ends with one probe
op through the CLI. Every answer is checked. Times are scaled to a nominal
host speed (hostspeed.py). With --trace 0 the last line holds the
end-to-end metrics; with --trace 1 untraced and traced passes alternate and
it holds the per-layer metrics. The exit code is 0 only when every answer
was right.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SOURCE = BENCH_DIR.parent / "src"
SETUP_ROUNDS = 5
MIN_PASSES = 3

# (owner, attribute, span, only directly under this span, keep the result).
# The owner is an attribute of the incdepth package, "" for the package.
# depth_report is wrapped on the package, where the benchmark calls it, and
# in cli, where the CLI looks it up.
TRACED = (
    ("cli", "main", "cli.main", None, False),
    ("cli", "parse_matrix", "cli.parse", None, False),
    ("InclusionMatrix", "__init__", "exactmat.validate", "cli.parse", False),
    ("", "depth_report", "depth.report", None, False),
    ("cli", "depth_report", "depth.report", None, False),
    ("depth", "min_depth", "depth.min_depth", None, False),
    ("depth", "min_hdepth", "depth.min_hdepth", None, False),
    ("bigraph", "build_graph", "bigraph.build", None, False),
    ("bigraph", "min_odd_depth_graph", "bigraph.odd", None, False),
    ("bigraph", "min_even_depth_graph", "bigraph.even", None, False),
    ("bigraph", "min_hdepth_graph", "bigraph.hdepth", None, False),
    ("charpoly", "depth_upper_bound", "charpoly.spectral_bound", None, False),
    ("IntMatrix", "__mul__", "exactmat.gram", "charpoly.spectral_bound", False),
    ("charpoly", "char_poly", "charpoly.char_poly", None, True),
    ("charpoly", "poly_gcd", "charpoly.gcd", None, False),
    ("depth", "has_depth", "depth.witness_q", None, False),
    ("depth", "bracketed_power", "depth.bracketed_power", None, True),
    ("depth", "dominance_q", "exactmat.dominance_q", None, False),
)

# The direct calls depth_report makes; with depth.unattributed_s (its self
# time: invariant checks, the transposition) they sum to depth.report_s.
STAGES = ("depth.min_depth", "depth.min_depth_t", "depth.min_hdepth",
          "bigraph.build", "bigraph.odd", "bigraph.even", "bigraph.hdepth",
          "charpoly.spectral_bound", "depth.witness_q")

# Per-layer seconds per pass: metric -> (span, "total" or "self" time).
LAYER_TIMES = {
    "depth.report_s": ("depth.report", "total"),
    "depth.min_depth_s": ("depth.min_depth", "total"),
    "depth.min_depth_t_s": ("depth.min_depth_t", "total"),
    "depth.min_hdepth_s": ("depth.min_hdepth", "total"),
    "depth.witness_q_s": ("depth.witness_q", "total"),
    "depth.bracketed_power_s": ("depth.bracketed_power", "total"),
    "exactmat.dominance_q_s": ("exactmat.dominance_q", "total"),
    "charpoly.spectral_bound_s": ("charpoly.spectral_bound", "total"),
    "exactmat.gram_s": ("exactmat.gram", "total"),
    "charpoly.char_poly_s": ("charpoly.char_poly", "total"),
    "charpoly.gcd_s": ("charpoly.gcd", "total"),
    "bigraph.build_s": ("bigraph.build", "total"),
    "bigraph.odd_s": ("bigraph.odd", "total"),
    "bigraph.even_s": ("bigraph.even", "total"),
    "bigraph.hdepth_s": ("bigraph.hdepth", "total"),
    "depth.unattributed_s": ("depth.report", "self"),
    "cli.parse_s": ("cli.parse", "total"),
    "exactmat.validate_s": ("exactmat.validate", "total"),
    "cli.overhead_s": ("cli.main", "self"),
}


def fresh_import():
    """Import incdepth from scratch, as a new process would."""
    for name in [m for m in sys.modules if m == "incdepth" or m.startswith("incdepth.")]:
        del sys.modules[name]
    return importlib.import_module("incdepth")


def call(api, op: workloads.Op):
    """Run one op; return its seconds and its value.

    The value is the DepthReport of a report op, or (exit code, stdout,
    stderr) of a CLI op, which reads the matrix text on stdin.
    """
    if op.kind == "report":
        start = perf_counter()
        value = api.depth_report(op.matrix)
        return perf_counter() - start, value
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(op.text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            code = api.cli.main(list(workloads.CLI_ARGS))
            seconds = perf_counter() - start
    finally:
        sys.stdin = stdin
    return seconds, (code, out.getvalue(), err.getvalue())


class Run:
    """One benchmark run: the program, its inputs and the tally of answers."""

    def __init__(self, workload: str, seed: int, golden: dict, tiny: bool):
        self.workload, self.seed, self.golden, self.tiny = workload, seed, golden, tiny
        self.fixtures = workloads.Fixtures(golden)
        self.attempted = 0
        self.failures: list[str] = []

    def checked(self, op: workloads.Op):
        """Run one op and check its answer.

        Returns its seconds and its value, or None in place of a wrong value.
        """
        self.attempted += 1
        try:
            seconds, value = call(self.api, op)
            wrong = workloads.check(op, value, self.golden)
        except (Exception, SystemExit) as exc:  # an op that raises is a failed op
            self.failures.append(f"{op.key}: raised {type(exc).__name__}: {exc}")
            return 0.0, None
        if wrong is not None:
            self.failures.append(f"{op.key}: {wrong}")
            return seconds, None
        return seconds, value

    def setup(self, tracer: Tracer | None = None) -> float:
        """Import, generate and render the inputs, and warm up; return wall seconds."""
        start = perf_counter()
        self.api = fresh_import()
        if tracer is not None:
            tracer.wrap(self.api, "branching_matrix", "symgroup.generate")
        self.ops = workloads.build_ops(self.api, self.fixtures, self.workload,
                                       self.seed, self.tiny)
        warmup = workloads.probe_ops(self.api)
        self.probe = warmup[0]
        for op in warmup:
            self.checked(op)
        return perf_counter() - start

    def one_pass(self):
        """Every input once, then the probe.

        Returns the pass's wall seconds, the same scaled to the nominal host
        speed, the scaled latency of each input's op, and every op's value.
        """
        kernel = [hostspeed.kernel_seconds()]
        wall, since_kernel, latencies, values = 0.0, 0.0, [], []
        for op in self.ops + [self.probe]:
            start = perf_counter()
            seconds, value = self.checked(op)
            elapsed = perf_counter() - start
            wall += elapsed
            since_kernel += elapsed
            values.append(value)
            if op is not self.probe:
                latencies.append(seconds)
            if since_kernel >= hostspeed.CHUNK_S or op is self.probe:
                kernel.append(hostspeed.kernel_seconds())
                since_kernel = 0.0
        factor = hostspeed.scale(kernel)
        return wall, wall * factor, [s * factor for s in latencies], values


def wrap_program(tracer: Tracer, api) -> None:
    for owner, attr, name, under, keep in TRACED:
        tracer.wrap(getattr(api, owner) if owner else api, attr, name, under=under, keep=keep)


def layer_metrics(tracer: Tracer, values: list) -> dict[str, float]:
    """Per-layer seconds and exact counts of one traced pass."""
    for span in tracer.spans:
        if (span.name == "depth.min_depth" and span.parent is not None
                and span.parent.name == "depth.report" and span.arg is not span.parent.arg):
            span.name = "depth.min_depth_t"
    total, own = tracer.times()
    metrics = {metric: (total if kind == "total" else own).get(span, 0.0)
               for metric, (span, kind) in LAYER_TIMES.items()}
    reports = [json.loads(v[1]) if isinstance(v, tuple) else workloads.report_fields(v)
               for v in values if v is not None]
    powers = [m for m in tracer.results("depth.bracketed_power") if m is not None]
    polys = [p for p in tracer.results("charpoly.char_poly") if p is not None]
    metrics.update({
        "depth.stab_steps": sum(r["depth"] + r["depth_transpose"] + (r["h_depth"] + 1) // 2
                                for r in reports),
        "depth.q_bits": max((r["q_witness"].bit_length() for r in reports), default=0),
        "exactmat.power_bits": max((e.bit_length() for m in powers
                                    for row in m.entries for e in row), default=0),
        "charpoly.coeff_bits": max((abs(c).bit_length() for p in polys
                                    for c in p.coeffs), default=0),
        "charpoly.minpoly_degree": sum((r["spectral_bound"] + 1) // 2 for r in reports),
        "bigraph.bfs_calls": sum(2 * r["rows"] + r["cols"] for r in reports),
    })
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False, golden: dict | None = None) -> tuple[dict, list[str]]:
    """Set up, measure for `seconds`, check every answer; return (result, report lines)."""
    if golden is None:
        golden = workloads.load_golden()
    bench = Run(workload, seed, golden, tiny)

    setup_times, generate_times = [], []
    for _ in range(SETUP_ROUNDS):
        tracer = Tracer() if trace else None
        before = hostspeed.kernel_seconds()
        wall = bench.setup(tracer)
        factor = hostspeed.scale([before, hostspeed.kernel_seconds()])
        setup_times.append(wall * factor)
        if tracer is not None:
            tracer.restore()
            generate_times.append(tracer.times()[0].get("symgroup.generate", 0.0) * factor)

    # (wall seconds, scaled seconds) per pass
    plain, traced, latencies, layers, missing = [], [], [], [], []
    deadline = perf_counter() + seconds
    while True:
        if trace and len(plain) > len(traced):
            tracer = Tracer()
            wrap_program(tracer, bench.api)
            try:
                wall, scaled, _, values = bench.one_pass()
            finally:
                tracer.restore()
            traced.append((wall, scaled))
            layers.append(layer_metrics(tracer, values))
            missing = tracer.missing
        else:
            wall, scaled, op_seconds, _ = bench.one_pass()
            plain.append((wall, scaled))
            latencies.extend(op_seconds)
        enough = len(plain) >= MIN_PASSES and (not trace or len(traced) >= MIN_PASSES)
        if enough and perf_counter() >= deadline:
            break

    solve = [scaled for _, scaled in plain]
    op_ms = [s * 1e3 for s in latencies]
    p50 = statistics.median(op_ms)
    p99 = statistics.quantiles(op_ms, n=100, method="inclusive")[98]
    if trace:
        # Every layer metric comes from the median traced pass, so that the
        # stages and depth.unattributed_s add up to its depth.report_s.
        order = sorted(range(len(traced)), key=lambda i: traced[i][1])
        wall, scaled = traced[order[(len(traced) - 1) // 2]]
        metrics = layers[order[(len(traced) - 1) // 2]]
        for name in LAYER_TIMES:
            metrics[name] *= scaled / wall
        metrics["symgroup.generate_s"] = statistics.median(generate_times)
        metrics["trace.solve_s"] = scaled
        metrics["trace.overhead_s"] = scaled - statistics.median(solve)
    else:
        metrics = {
            "solve_s": statistics.median(solve),
            "op_ms.p50": p50,
            "op_ms.p99": p99,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    units = unit_table()
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }

    info = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "inputs": dict(sorted(Counter(op.shape for op in bench.ops).items())),
        "probe": bench.probe.shape, "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "passes": len(plain), "traced_passes": len(traced),
        "op_samples": len(op_ms), "setup_rounds": SETUP_ROUNDS,
    }
    lines = [f"# {json.dumps(info)}"]
    q1, q2, q3 = statistics.quantiles(solve, n=4)
    w1, w2, w3 = statistics.quantiles([wall for wall, _ in plain], n=4)
    lines.append(f"solve_s over {len(plain)} untraced passes: median {q2:.6f}, "
                 f"quartiles {q1:.6f} .. {q3:.6f} s at nominal host speed; "
                 f"wall median {w2:.6f}, quartiles {w1:.6f} .. {w3:.6f} s")
    lines.append(f"op_ms over {len(op_ms)} ops: p50 {p50:.4f}, p99 {p99:.4f}, max {max(op_ms):.4f}"
                 + ("" if len(op_ms) >= 1000 else " (under 1000 ops, p99 is near the max)"))
    lines.append(f"failed_frac {len(bench.failures) / bench.attempted} "
                 f"({len(bench.failures)} of {bench.attempted} ops)")
    lines.extend(f"FAILED {f}" for f in bench.failures[:10])
    if missing:
        lines.append(f"not traced, absent from the program: {', '.join(missing)}")
    for name, metric in result["metrics"].items():
        lines.append(f"{name} {metric['value']} {metric['unit']}")
    return result, lines


def unit_table() -> dict[str, str]:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "incdepth" / "__init__.py").is_file():
        print(f"error: no incdepth package under {SOURCE}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
