"""Spans around calls into pairbath's modules, recorded from outside.

A Tracer replaces the functions named in TARGETS with timing wrappers,
wherever a pairbath module holds a reference to them (so calls through
`from .x import f` names are caught too). Spans stay in memory and are
appended to a JSON-lines file whenever the outermost traced call returns.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from pathlib import Path

# module -> functions timed in a traced run; private names are the
# per-unit entry points the CLI calls in a loop
TARGETS = {
    "pairbath.cli_runner": ("cmd_run", "cmd_scan", "cmd_verify", "cmd_sense",
                            "_scan_point"),
    "pairbath.spin_core": ("branch_propagators",),
    "pairbath.dynamics_dense": ("build_branch_operators", "run_protocol",
                                "purity", "all_pair_rdms"),
    "pairbath.dynamics_factored": ("mixed_state_monte_carlo", "run_factored",
                                   "extend", "success_probability",
                                   "_rdm_unnormalized"),
    "pairbath.analysis": ("detect_pairing", "concurrence"),
    "pairbath.protocols": ("verification_scan", "spectroscopy_scan",
                           "coherence_trace"),
}


class Tracer:
    """Records (name, start, end, parent) spans of wrapped calls."""

    def __init__(self, out_dir: Path | None = None):
        self.out_dir = out_dir
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._pid = os.getpid()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans.append({"id": sid, "parent": parent, "name": name,
                                   "t0": t0, "t1": t1, "pid": self._pid})
                if not self._stack and self.out_dir is not None:
                    self.flush()
        return traced

    def install(self) -> None:
        """Wrap every TARGETS function in every loaded pairbath module."""
        for modname, names in TARGETS.items():
            mod = importlib.import_module(modname)
            for attr in names:
                fn = getattr(mod, attr)
                wrapped = self.wrap(f"{modname.rsplit('.', 1)[1]}.{attr}", fn)
                for loaded in list(sys.modules.values()):
                    if not getattr(loaded, "__name__", "").startswith("pairbath"):
                        continue
                    for key, val in list(vars(loaded).items()):
                        if val is fn:
                            setattr(loaded, key, wrapped)

    def flush(self) -> None:
        if not self.spans:
            return
        path = self.out_dir / f"spans-{self._pid}.jsonl"
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []


def load_spans(out_dir: Path) -> list[dict]:
    spans = []
    for path in sorted(out_dir.glob("spans-*.jsonl")):
        with open(path) as fh:
            spans.extend(json.loads(line) for line in fh)
    return spans
