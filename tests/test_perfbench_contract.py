"""perfbench's --trace 1 reads per-layer timings from spans of named
pairbath functions. This checks, once per suite run, that the names it
wraps exist and that its probes still reach every one it summarizes: a
metric left without spans fails the traced run on an empty median."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# run in a child interpreter, so the tracer's wrappers stay out of this one
SCRIPT = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
import layers
from tracing import Tracer
from pairbath import dynamics_dense as dd

# per_layer makes these direct calls before it installs the tracer, so
# they must not be what gives a span metric its spans
c, tau, _ = layers.dense_bath("dephase", 0)
dd.apply_projection(dd.maximally_mixed(c.n_spins), dd.build_V(c, tau))
tracer = Tracer()   # no out_dir: the spans stay in memory
tracer.install()
for probe in set(layers.PROBES.values()):
    probe(1)
missing = [m for m in layers.SPAN_METRICS if not layers.durations(tracer.spans, m)]
if missing:
    sys.exit("no spans for " + ", ".join(missing))
"""


def test_perfbench_probes_reach_every_span_metric():
    script = SCRIPT.format(bench=str(ROOT / "perfbench"), src=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
