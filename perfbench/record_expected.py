#!/usr/bin/env python3
"""Record the outputs the output checks compare against, into expected/.

    python3 perfbench/record_expected.py [purify scan dephase protocols]

Run from the root of a checkout at the commit whose outputs become the
reference. The full 16x16 scan grid runs serially and takes a few
minutes; the montecarlo workload needs no recording, its reference is
computed exactly by reference.py.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads as W  # noqa: E402


def cli_outputs(invocations: list, work: Path) -> list:
    configs = run.write_configs(invocations, work)
    outs = []
    for k, (inv, cfg) in enumerate(zip(invocations, configs)):
        out = work / f"out-{k}"
        subprocess.run([sys.executable, "-m", "pairbath.cli_runner", inv.command,
                        "--config", str(cfg), "--out", str(out)],
                       env=run.child_env(), cwd=ROOT, check=True)
        outs.append(out)
    return outs


def table(path: Path) -> list:
    return W.read_table(path)[1].tolist()


def record(name: str, work: Path) -> dict:
    if name == "purify":
        (out,) = cli_outputs(W.purify_invocations(0), work)
        return {"trajectory": table(out / "trajectory.csv")}
    if name == "scan":
        full = W.scan_config(W.SCAN_FULL, W.SCAN_FULL)
        (out,) = cli_outputs([W.Invocation("scan", full)], work)
        return {"rows": table(out / "scan.csv")}
    if name == "dephase":
        outs = cli_outputs(W.dephase_invocations(0), work)
        return {"runs": [{"final_row": table(out / "trajectory.csv")[-1],
                          "pairs": table(out / "pairs.csv")} for out in outs]}
    verify_out, sense_out = cli_outputs(W.protocols_invocations(0), work)
    preps = W.read_manifest(verify_out)["resolved"]["preparations"]
    return {"verify": table(verify_out / "verify.csv"),
            "m_star": {p: r["m_star"] for p, r in preps.items()},
            "spectroscopy": table(sense_out / "spectroscopy.csv"),
            "coherence": table(sense_out / "coherence.csv")}


def main() -> int:
    names = sys.argv[1:] or ["purify", "scan", "dephase", "protocols"]
    W.EXPECTED.mkdir(exist_ok=True)
    for name in names:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            doc = record(name, Path(tmp))
        (W.EXPECTED / f"{name}.json").write_text(json.dumps(doc) + "\n")
        print(f"recorded {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
