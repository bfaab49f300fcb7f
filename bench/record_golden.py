"""Record golden.json: the answers the benchmark checks every op against.

    python3 bench/record_golden.py

Run it on the code whose answers are taken as right (the goldens in the
repository were recorded from the seed code); a later change is checked
against them, so re-recording hides a wrong answer. It stores the full
report of each branching matrix S_{n-1} <= S_n and of each dense pool
matrix, the sha256 prefix of the `compute --json` output of each small pool
matrix and of the probe, and digests of the pools themselves.
"""

from __future__ import annotations

import json
import sys

import run
import workloads
from workloads import digest, render


def cli_output(api, text: str) -> str:
    code, out, err = run.call(api, workloads.Op("cli", ("golden",), text=text))[1]
    if code != 0:
        raise SystemExit(f"compute exited {code} on\n{text}{err}")
    return out


def main() -> int:
    sys.path.insert(0, str(run.SOURCE))
    api = run.fresh_import()
    fixtures = workloads.Fixtures(None)
    probe = workloads.probe_ops(api)[0]
    golden = {
        "probe": digest(cli_output(api, probe.text)),
        "branching": {str(n): workloads.report_fields(api.depth_report(api.branching_matrix(n)))
                      for n in workloads.GOLDEN_BRANCHING_NS},
        "dense": {
            "inputs": [digest(render(m), 16) for m in fixtures.dense],
            "reports": [workloads.report_fields(api.depth_report(api.InclusionMatrix(m)))
                        for m in fixtures.dense],
        },
        "small": {
            "inputs": digest("".join(map(render, fixtures.small))),
            "outputs": [digest(cli_output(api, render(m)), 12) for m in fixtures.small],
        },
    }
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
