"""Time what every CLI invocation pays before it computes anything.

    python3 perfbench/setup_probe.py COMMAND CONFIG

Prints {"import_s": ..., "validate_s": ...}: the import of
pairbath.cli_runner, then load_config + validate_config on CONFIG.
"""

import json
import sys
import time


def main() -> int:
    command, config = sys.argv[1], sys.argv[2]
    t0 = time.perf_counter()
    import pairbath.cli_runner as cli
    t1 = time.perf_counter()
    cli.validate_config(cli.load_config(config), command)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "validate_s": t2 - t1}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
