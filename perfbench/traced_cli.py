"""Run one pairbath CLI command with every TARGETS function traced.

    python3 perfbench/traced_cli.py SPAN_DIR run --config run.yaml --out out/

Spans land in SPAN_DIR/spans-<pid>.jsonl, one file per process.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer(Path(sys.argv[1]))
    import pairbath.cli_runner as cli
    tracer.install()
    code = cli.main(sys.argv[2:])
    tracer.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
