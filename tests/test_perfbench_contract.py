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

# the montecarlo engine itself, not a probe, must give the factored spans
ENGINE_SCRIPT = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
import layers
import workloads as W
from tracing import Tracer
from pairbath import dynamics_dense as dd, dynamics_factored as df

tracer = Tracer()
tracer.install()
c, tau = W.auto_bath(W.CHAIN6)
cfg = dd.ProtocolConfig(omega=c.omega, tau=tau, measurements=2)
n = c.n_spins
df.mixed_state_monte_carlo(c, cfg, samples=4, seed=0, pair_list=[
    (i, j) for i in range(n) for j in range(i + 1, n)])
wanted = ("factored.extend_s", "factored.rdm_s")
missing = [m for m in wanted if not layers.durations(tracer.spans, m)]
if missing:
    sys.exit("no spans for " + ", ".join(missing))
"""


def _run(script: str) -> subprocess.CompletedProcess:
    script = script.format(bench=str(ROOT / "perfbench"), src=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)


def test_perfbench_probes_reach_every_span_metric():
    done = _run(SCRIPT)
    assert done.returncode == 0, done.stderr


def test_perfbench_spans_come_from_the_montecarlo_engine():
    done = _run(ENGINE_SCRIPT)
    assert done.returncode == 0, done.stderr
