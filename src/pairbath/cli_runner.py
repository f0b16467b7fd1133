"""YAML-driven command line front end.

Subcommands
-----------
run       single trajectory -> trajectory.csv, pairs.csv, manifest.yaml
scan      omega-tau grid -> scan.csv, manifest.yaml
verify    pulse-sequence verification curves -> verify.csv, manifest.yaml
sense     spectroscopy + coherence comparison -> spectroscopy.csv,
          coherence.csv, manifest.yaml
selftest  acceptance criteria, one PASS/FAIL line each

Exit codes: 0 success, 2 configuration error, 3 trajectory extinction
(a step's conditional probability fell below the extinction floor, for
every engine), 4 memory estimate exceeded.

Tables are comma separated with a single header line, rows in a fixed
deterministic order, and floats printed with 15 significant digits, so a
rerun with the same config and seed is byte-identical. The manifest embeds
the fully normalized config; feeding the manifest back through --config
reproduces the run.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .analysis import concurrence, detect_pairing
from .dynamics_dense import (
    ProtocolConfig,
    all_pair_rdms,
    build_V,
    final_state_by_squaring,
    maximally_mixed,
    purity,
    run_protocol,
)
from .dynamics_factored import (
    mixed_state_monte_carlo,
    reduced_density_matrix,
    run_factored,
)
from .errors import CapacityError, ConfigError, ExtinctionError
from .protocols import (
    FLIP_THRESHOLD,
    PREPARATIONS,
    SpeciesBath,
    SpeciesGroup,
    coherence_trace,
    find_local_maxima,
    require_grid_memory,
    resolves_side_features,
    spectroscopy_scan,
    verification_scan,
)
from .spin_core import (
    CouplingSet,
    chain_geometry,
    dimer_chain_geometry,
    dipolar_couplings,
    effective_coupling,
    optimal_params,
    plane_geometry,
)

_ENGINES = ("dense", "factored", "montecarlo")


# ---------------------------------------------------------------------------
# output formatting
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v)).lower()
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".15g")


def _write_table(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_manifest(out_dir: Path, command: str, cfg: dict, resolved: dict,
                    outputs: dict) -> None:
    doc = {
        "tool": f"pairbath {__version__}",
        "command": command,
        "config": cfg,
        "resolved": resolved,
        "outputs": outputs,
    }
    (out_dir / "manifest.yaml").write_text(
        yaml.safe_dump(doc, sort_keys=False, default_flow_style=False))


# ---------------------------------------------------------------------------
# config loading and validation
# ---------------------------------------------------------------------------

def load_config(path) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(p.read_text())
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        loc = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = getattr(exc, "problem", None) or str(exc)
        raise ConfigError(f"YAML parse error{loc}: {problem}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"top level must be a mapping, got {type(raw).__name__}")
    # a manifest from an earlier run round-trips as a config
    if "tool" in raw and isinstance(raw.get("config"), dict):
        raw = raw["config"]
    return raw


# A field table lists (key, parser, default) in the order of the normalized
# config, which manifest.yaml keeps. A parser takes (value, dotted path,
# error list), returns the normalized value and raises ValueError for a bad
# value; an absent key's default goes through the parser too. Null counts as
# absent only for _REQUIRED and _OMIT keys; elsewhere the parser decides.
_REQUIRED = object()    # absent key is a problem
_OMIT = object()        # absent section stays out of the normalized config


def _walk(raw, table, path: str, errors: list) -> dict | None:
    """Apply a field table to a mapping, appending "path: problem" lines."""
    if not isinstance(raw, dict):
        errors.append(f"{path}: must be a mapping, got {type(raw).__name__}")
        return None
    keys = [key for key, _, _ in table]
    for key in raw:
        if key not in keys:
            errors.append(f"{path}.{key}: unknown key" if path
                          else f"{key}: unknown section")
    out = {}
    for key, parse, default in table:
        sub = f"{path}.{key}" if path else key
        v = raw.get(key)
        if v is None and default in (_REQUIRED, _OMIT):
            if default is _REQUIRED:
                errors.append(f"{sub}: is required")
            continue
        try:
            out[key] = parse(v if key in raw else default, sub, errors)
        except ValueError as exc:
            errors.append(f"{sub}: {exc}")
    return out


def _is_num(v) -> bool:
    """A finite int or float; the bound also rejects nan and huge ints."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _number(gt=None, ge=None, lt=None):
    def parse(v, *_):
        if not _is_num(v):
            raise ValueError(f"must be a finite number, got {v!r}")
        if gt is not None and not v > gt:
            raise ValueError(f"must be > {gt}, got {v}")
        if ge is not None and not v >= ge:
            raise ValueError(f"must be >= {ge}, got {v}")
        if lt is not None and not v < lt:
            raise ValueError(f"must be < {lt}, got {v}")
        return float(v)
    return parse


def _integer(ge: int):
    def parse(v, *_):
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"must be an integer, got {v!r}")
        if v < ge:
            raise ValueError(f"must be >= {ge}, got {v}")
        return v
    return parse


def _choice(*options):
    def parse(v, *_):
        if v not in options:
            raise ValueError(f"must be one of {list(options)}, got {v!r}")
        return v
    return parse


def _or(special, inner):
    """Pass `special` ("auto" or null) through; hand anything else to inner."""
    return lambda v, *args: v if v == special else inner(v, *args)


def _amplitude(v, *_) -> list[float]:
    if _is_num(v):
        return [float(v), 0.0]
    if isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_num, v)):
        return [float(v[0]), float(v[1])]
    raise ValueError(f"must be a finite number or [re, im], got {v!r}")


def _g_rows(v, *_) -> list[list[float]]:
    if (isinstance(v, list) and v
            and all(isinstance(row, (list, tuple)) and len(row) == 3
                    and all(map(_is_num, row)) for row in v)):
        return [[float(x) for x in row] for row in v]
    raise ValueError("must be a nonempty list of finite [gx, gy, gz] rows")


def _box(v, *_) -> list[float]:
    if not (isinstance(v, (list, tuple)) and len(v) == 4 and all(map(_is_num, v))):
        raise ValueError("must be [xlo, xhi, ylo, yhi] with finite entries")
    if not (v[1] > v[0] and v[3] > v[2]):
        raise ValueError(f"describes an empty rectangle: {list(v)}")
    return [float(b) for b in v]


def _preparations(v, *_) -> list[str]:
    options = PREPARATIONS + ("singlet",)
    if not isinstance(v, list) or not v or any(p not in options for p in v):
        raise ValueError(f"must be a nonempty list drawn from {list(options)}")
    return list(v)


def _mapping(table):
    """Parser for a section; a null section takes every default."""
    return lambda v, path, errors: _walk({} if v is None else v, table, path,
                                         errors)


def _grid(**bounds):
    """Parser for a {start, stop, points} grid with stop >= start."""
    table = (("start", _number(**bounds), _REQUIRED),
             ("stop", _number(**bounds), _REQUIRED),
             ("points", _integer(1), _REQUIRED))

    def parse(v, path, errors):
        grid = _walk(v, table, path, errors)
        if grid and "start" in grid and "stop" in grid and grid["stop"] < grid["start"]:
            errors.append(f"{path}.stop: must be >= start, "
                          f"got {grid['stop']} < {grid['start']}")
        return grid
    return parse


_KIND = ("kind", _choice("chain", "dimer_chain", "plane", "explicit"), _REQUIRED)
_GEOMETRIES = {
    "chain": (_KIND,
              ("n", _integer(1), _REQUIRED),
              ("spacing", _number(gt=0), _REQUIRED),
              ("z0", _number(), _REQUIRED),
              ("x0", _number(), 0.0)),
    "dimer_chain": (_KIND,
                    ("n_pairs", _integer(1), _REQUIRED),
                    ("pair_spacing", _number(gt=0), _REQUIRED),
                    ("dimer_gap", _number(gt=0), _REQUIRED),
                    ("z0", _number(), _REQUIRED),
                    ("x0", _number(), 0.0)),
    "plane": (_KIND,
              ("n", _integer(1), _REQUIRED),
              ("box", _box, _REQUIRED),
              ("z0", _number(), _REQUIRED),
              ("seed", _integer(0), _REQUIRED)),
    "explicit": (_KIND,
                 ("g_vectors", _g_rows, _REQUIRED)),
}


def _geometry(v, path, errors):
    """Parser for the geometry section, whose fields depend on its kind."""
    kind = v.get("kind") if isinstance(v, dict) else None
    table = _GEOMETRIES.get(kind) if isinstance(kind, str) else None
    if table is None and isinstance(v, dict):
        v, table = {"kind": kind}, (_KIND,)     # report the kind alone
    return _walk(v, table or (), path, errors)


_SPECIES = (
    ("omega", _number(), _REQUIRED),
    ("g_vectors", _g_rows, _REQUIRED),
    ("preparation", _choice(*PREPARATIONS), "mixed"),
)


def _species(v, path, errors):
    if not isinstance(v, list) or not v:
        raise ValueError("must be a nonempty list of species groups")
    groups = [_walk(sp, _SPECIES, f"{path}[{i}]", errors) for i, sp in enumerate(v)]
    for i, grp in enumerate(groups):
        if (grp and grp.get("preparation") == "paired"
                and len(grp.get("g_vectors", ())) % 2):
            errors.append(f"{path}[{i}].g_vectors: paired preparation needs "
                          f"an even spin count")
    return groups


_CONFIG = (
    ("seed", _integer(0), 0),
    ("geometry", _geometry, _OMIT),
    ("coupling", _mapping((("prefactor", _number(gt=0), 1.0),)), {}),
    ("protocol", _mapping((
        ("omega", _or("auto", _number(ge=0)), "auto"),
        ("tau", _or("auto", _number(gt=0)), "auto"),
        ("units", _choice("absolute", "g_eff"), "absolute"),
        ("measurements", _integer(1), 100),
        ("alpha", _amplitude, [1.0 / math.sqrt(2.0), 0.0]),
        ("beta", _amplitude, [1.0 / math.sqrt(2.0), 0.0]),
        ("dephasing_rate", _number(ge=0), 0.0),
        ("readout_time", _or(None, _number(gt=0)), None),
    )), {}),
    ("engine", _mapping((
        ("name", _choice(*_ENGINES), "dense"),
        ("dense_limit", _integer(1), 12),
        ("samples", _integer(1), 200),
        ("sample_basis", _choice("haar", "z"), "haar"),
        ("initial_state", _choice("polarized", "haar"), "polarized"),
        ("purity_pairs", _integer(1), 256),
    )), {}),
    ("scan", _mapping((
        ("omega", _grid(gt=0), _REQUIRED),
        ("tau", _grid(gt=0), _REQUIRED),
        ("measurements", _integer(1), 40),
    )), _OMIT),
    ("verify", _mapping((
        ("g1", _number(), _REQUIRED),
        ("g2", _number(), _REQUIRED),
        ("omega", _number(gt=0), _REQUIRED),
        ("m_max", _integer(1), 50),
        ("tau_v", _or(None, _number(gt=0)), None),
        ("threshold", _number(gt=0, lt=1), float(FLIP_THRESHOLD)),
        ("preparations", _preparations, ["unpolarized", "singlet"]),
    )), _OMIT),
    ("sense", _mapping((
        ("m", _integer(1), 16),
        ("species", _species, _REQUIRED),
        ("tau_grid", _grid(gt=0), _REQUIRED),
        ("time_grid", _or(None, _grid(ge=0)), None),
        ("omega", _or(None, _number()), None),
        ("epsilon", _or(None, _number()), None),
    )), _OMIT),
)

_COMMAND_SECTIONS = {"run": ("geometry",), "scan": ("geometry", "scan"),
                     "verify": ("verify",), "sense": ("sense",)}


def validate_config(raw: dict, command: str = "run") -> dict:
    """Normalize and validate a raw config mapping for the given command.

    Every problem is collected and reported at once, tagged with the dotted
    path of the offending key. Returns the normalized config with all
    defaults filled in; raises ConfigError if anything is wrong.
    """
    errors: list[str] = []
    norm = _walk(raw, _CONFIG, "", errors)
    required = _COMMAND_SECTIONS.get(command, ())
    for name in required:
        if raw.get(name) is None:
            errors.append(f"{name}: is required for this command")

    sense = norm.get("sense") or {}
    om, eps = sense.get("omega"), sense.get("epsilon")
    if om is not None and eps is not None and not abs(eps) < om:
        # both side resonances pi/(4(omega +- epsilon)) must exist
        errors.append(f"sense.epsilon: must satisfy |epsilon| < omega, "
                      f"got epsilon {eps} with omega {om}")
    prot = norm.get("protocol") or {}
    if "alpha" in prot and "beta" in prot:
        amp2 = sum(x * x for x in prot["alpha"] + prot["beta"])
        if abs(amp2 - 1.0) > 1e-12:
            errors.append(f"protocol.alpha: |alpha|^2 + |beta|^2 must be 1, "
                          f"got {amp2!r}")
    geom = norm.get("geometry") or {}
    n = len(geom.get("g_vectors", ())) or 2 * geom.get("n_pairs", 0) or geom.get("n")
    eng = norm.get("engine") or {}
    limit = eng.get("dense_limit")
    if "geometry" in required and n is not None and limit is not None and n > limit:
        if command == "scan":
            # scan runs the dense engine whatever engine.name says
            errors.append(f"engine.dense_limit: scan runs the dense engine, which "
                          f"is limited to {limit} spins, but the geometry has {n}; "
                          f"raise engine.dense_limit or use fewer spins")
        elif eng.get("name") == "dense":
            errors.append(f"engine.name: dense engine is limited to {limit} "
                          f"spins but the geometry has {n}; raise engine.dense_limit "
                          f"or switch to factored or montecarlo")

    if errors:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))
    return norm


# ---------------------------------------------------------------------------
# scenario assembly
# ---------------------------------------------------------------------------

def _bath_vectors(cfg: dict) -> np.ndarray:
    geom = cfg["geometry"]
    kind = geom["kind"]
    if kind == "explicit":
        return np.asarray(geom["g_vectors"], dtype=float)
    try:
        if kind == "chain":
            g = chain_geometry(geom["n"], geom["spacing"], geom["z0"], geom["x0"])
        elif kind == "dimer_chain":
            g = dimer_chain_geometry(geom["n_pairs"], geom["pair_spacing"],
                                     geom["dimer_gap"], geom["z0"], geom["x0"])
        else:
            g = plane_geometry(geom["n"], tuple(geom["box"]), geom["z0"],
                               geom["seed"])
        return dipolar_couplings(g, cfg["coupling"]["prefactor"]).g_vectors
    except ValueError as exc:
        raise ConfigError(f"geometry: {exc}") from exc


def _resolve_params(cfg: dict, g: np.ndarray) -> tuple[float, float, float]:
    """(omega, tau, g_eff) in absolute units."""
    base = CouplingSet(g, 0.0)
    g_eff = effective_coupling(base)
    prot = cfg["protocol"]
    om, ta = prot["omega"], prot["tau"]
    auto_om = auto_ta = None
    if om == "auto" or ta == "auto":
        try:
            auto_om, auto_ta = optimal_params(base)
        except ValueError as exc:
            raise ConfigError(f"protocol.omega: {exc}") from exc
    if prot["units"] == "g_eff":
        if g_eff == 0.0:
            raise ConfigError("protocol.units: g_eff units are undefined for "
                              "all-zero couplings")
        if om != "auto":
            om = om * g_eff
        if ta != "auto":
            ta = ta / g_eff
    omega = auto_om if om == "auto" else float(om)
    tau = auto_ta if ta == "auto" else float(ta)
    return omega, tau, g_eff


def _protocol_config(cfg: dict, omega: float, tau: float) -> ProtocolConfig:
    prot = cfg["protocol"]
    return ProtocolConfig(
        omega=omega, tau=tau, measurements=prot["measurements"],
        alpha=complex(*prot["alpha"]), beta=complex(*prot["beta"]),
        dephasing_rate=prot["dephasing_rate"],
        readout_time=prot["readout_time"])


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _factored_rows(cum: np.ndarray, purity: float) -> list:
    """Trajectory rows of a cumulative series, conditional p as ratios."""
    cond = cum / np.concatenate([[1.0], cum[:-1]])
    return [(s + 1, cond[s], cum[s], purity) for s in range(len(cum))]


def _pairs_rows(rdms: dict, n: int):
    asg = detect_pairing(rdms, n)
    rows = []
    for m in asg.matches:
        rho = rdms[(m.i, m.j)]
        rho = rho / np.trace(rho).real
        rows.append((m.i, m.j, m.fidelity, m.phase, concurrence(rho)))
    return rows, asg


def cmd_run(cfg: dict, out_dir: Path) -> int:
    g = _bath_vectors(cfg)
    omega, tau, g_eff = _resolve_params(cfg, g)
    c = CouplingSet(g, omega)
    n = c.n_spins
    pcfg = _protocol_config(cfg, omega, tau)
    eng = cfg["engine"]
    purity_estimate = None

    if eng["name"] == "dense":
        traj = run_protocol(maximally_mixed(n), pcfg, c)
        steps = traj.steps
        traj_rows = [(s + 1, traj.conditional_p[s], traj.cumulative_p[s],
                      traj.purity[s]) for s in range(steps)]
        rdms = all_pair_rdms(traj.final_rho, n)
        final_purity = float(traj.purity[-1]) if steps else purity(traj.final_rho)
    elif eng["name"] == "factored":
        if eng["initial_state"] == "haar":
            from .dynamics_factored import _haar_product
            states = _haar_product(np.random.default_rng(cfg["seed"]), n)
        else:
            states = np.tile(np.array([1.0, 0.0], dtype=complex), (n, 1))
        state, cum = run_factored(states, pcfg, c)
        # conditioned pure states stay pure
        traj_rows = _factored_rows(cum, 1.0)
        rdms = {(i, j): reduced_density_matrix(state, i, j)
                for i in range(n) for j in range(i + 1, n)}
        final_purity = 1.0
    else:
        pair_list = [(i, j) for i in range(n) for j in range(i + 1, n)]
        res = mixed_state_monte_carlo(
            c, pcfg, samples=eng["samples"], seed=cfg["seed"],
            pair_list=pair_list, basis=eng["sample_basis"],
            purity_pair_budget=eng["purity_pairs"])
        traj_rows = _factored_rows(res.success_probability, float("nan"))
        if traj_rows:
            rdms = res.pair_rdms
            purity_estimate = float(res.purity_estimate)
        else:
            # extinct at the first step: the pairs of the maximally mixed start
            rdms = {p: np.eye(4, dtype=complex) / 4 for p in pair_list}
            purity_estimate = 2.0 ** -n
        final_purity = purity_estimate

    # every engine stops before its first extinct round
    status = "completed" if len(traj_rows) == pcfg.measurements else "extinct"
    # the last written row's, so a cut run reports the step it ended at
    final_cum = float(traj_rows[-1][2]) if traj_rows else float("nan")
    _write_table(out_dir / "trajectory.csv",
                 ["step", "conditional_p", "cumulative_p", "purity"], traj_rows)
    pair_rows, asg = _pairs_rows(rdms, n)
    _write_table(out_dir / "pairs.csv",
                 ["spin_i", "spin_j", "fidelity", "phase", "concurrence"],
                 pair_rows)

    resolved = {
        "n_spins": int(n),
        "g_eff": float(g_eff),
        "omega": float(omega),
        "tau": float(tau),
        "omega_over_g_eff": float(omega / g_eff) if g_eff else None,
        "tau_times_g_eff": float(tau * g_eff) if g_eff else None,
        "status": status,
        "steps_completed": len(traj_rows),
        "final_purity": final_purity,
        "final_cumulative_p": final_cum,
        "n_pairs_high_fidelity": sum(1 for r in pair_rows if r[2] > 0.9),
        "all_paired": bool(asg.all_paired),
    }
    if purity_estimate is not None:
        resolved["purity_estimate"] = purity_estimate
    _write_manifest(out_dir, "run", cfg, resolved,
                    {"trajectory": "trajectory.csv", "pairs": "pairs.csv"})
    return 3 if status == "extinct" else 0


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def _scan_point(args):
    """(purity, cumulative_p, n_pairs, status) of one grid point.

    The final state comes from V^M by squaring. When the final cumulative
    p is below the extinction floor, stepping decides whether a round went
    extinct and which row was the last one written.
    """
    g_rows, omega, tau, measurements = args
    c = CouplingSet(np.asarray(g_rows, dtype=float), omega)
    cfg = ProtocolConfig(omega=omega, tau=tau, measurements=measurements)
    try:
        rho, cum = final_state_by_squaring(build_V(c, tau), measurements,
                                           cfg.extinction_floor)
    except ExtinctionError:
        # step once the handler is left: until then the exception's
        # traceback keeps the squaring's V and W alive
        rho = None
    if rho is not None:
        pur, status = purity(rho), "completed"
    else:
        traj = run_protocol(maximally_mixed(c.n_spins), cfg, c)
        rho, status = traj.final_rho, traj.status
        cum = float(traj.cumulative_p[-1]) if traj.steps else float("nan")
        pur = float(traj.purity[-1]) if traj.steps else purity(traj.final_rho)
    asg = detect_pairing(all_pair_rdms(rho, c.n_spins), c.n_spins)
    n_pairs = sum(1 for m in asg.matches if m.fidelity > 0.9)
    return pur, cum, n_pairs, status


def _linspace(grid: dict) -> np.ndarray:
    return np.linspace(grid["start"], grid["stop"], grid["points"])


def cmd_scan(cfg: dict, out_dir: Path, threads: int = 1) -> int:
    g = _bath_vectors(cfg)
    base = CouplingSet(g, 0.0)
    g_eff = effective_coupling(base)
    if g_eff == 0.0:
        raise ConfigError("geometry: scan grids are in g_eff units and the "
                          "couplings are all zero")
    sc = cfg["scan"]
    om_rel = _linspace(sc["omega"])
    ta_rel = _linspace(sc["tau"])
    g_rows = tuple(tuple(float(x) for x in row) for row in g)
    tasks = [(g_rows, float(o * g_eff), float(t / g_eff), sc["measurements"])
             for o in om_rel for t in ta_rel]

    # the pool forks every worker on its first task, so start no more than
    # there are tasks and usable cores
    workers = min(threads, len(tasks), len(os.sched_getaffinity(0)))
    if workers > 1:
        # imported here: the pool's modules cost every other command start-up
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as ex:
            # map preserves submission order, so assembly is grid-ordered
            # regardless of worker scheduling
            results = list(ex.map(_scan_point, tasks, chunksize=4))
    else:
        results = [_scan_point(t) for t in tasks]

    rows = [(task[1], task[2], r[0], r[1], r[2])
            for task, r in zip(tasks, results)]
    _write_table(out_dir / "scan.csv",
                 ["omega", "tau", "purity", "cumulative_p", "n_pairs"], rows)

    resolved = {
        "n_spins": int(base.n_spins),
        "g_eff": float(g_eff),
        "omega_grid_relative": [float(x) for x in om_rel],
        "tau_grid_relative": [float(x) for x in ta_rel],
        "omega_grid_absolute": [float(x * g_eff) for x in om_rel],
        "tau_grid_absolute": [float(x / g_eff) for x in ta_rel],
        "measurements": sc["measurements"],
        "points": len(tasks),
        "extinct_points": sum(1 for r in results if r[3] == "extinct"),
    }
    _write_manifest(out_dir, "scan", cfg, resolved, {"scan": "scan.csv"})
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(cfg: dict, out_dir: Path) -> int:
    v = cfg["verify"]
    results = {}
    for prep in v["preparations"]:
        results[prep] = verification_scan(
            v["g1"], v["g2"], v["omega"], tau_v=v["tau_v"], m_max=v["m_max"],
            preparation=prep, threshold=v["threshold"])
    first = next(iter(results.values()))
    header = ["m"] + [f"flip_{p}" for p in v["preparations"]]
    rows = [(m + 1, *(results[p].curve[m] for p in v["preparations"]))
            for m in range(v["m_max"])]
    _write_table(out_dir / "verify.csv", header, rows)

    resolved = {
        "tau_v": float(first.tau_v),
        "threshold": float(first.threshold),
        "preparations": {
            p: {"m_star": r.m_star, "status": r.status,
                "max_probability": float(r.max_probability)}
            for p, r in results.items()
        },
    }
    _write_manifest(out_dir, "verify", cfg, resolved, {"verify": "verify.csv"})
    return 0


# ---------------------------------------------------------------------------
# sense
# ---------------------------------------------------------------------------

def _species_bath(spec: list, retag: str | None = None) -> SpeciesBath:
    return SpeciesBath(tuple(
        SpeciesGroup(sp["omega"], np.asarray(sp["g_vectors"], dtype=float),
                     retag or sp["preparation"])
        for sp in spec))


def cmd_sense(cfg: dict, out_dir: Path) -> int:
    s = cfg["sense"]
    # checked before the grids themselves are built
    time_points = s["time_grid"]["points"] if s["time_grid"] else 0
    require_grid_memory(max(s["tau_grid"]["points"], time_points),
                        sum(len(sp["g_vectors"]) for sp in s["species"]))
    bath = _species_bath(s["species"])
    mixed = _species_bath(s["species"], retag="mixed")
    tau_grid = _linspace(s["tau_grid"])
    scan = spectroscopy_scan(bath, tau_grid, m=s["m"])
    scan_mixed = spectroscopy_scan(mixed, tau_grid, m=s["m"])
    _write_table(out_dir / "spectroscopy.csv", ["tau", "signal", "signal_mixed"],
                 zip(tau_grid, scan.signal, scan_mixed.signal))
    outputs = {"spectroscopy": "spectroscopy.csv"}

    resolved: dict = {"m": s["m"]}
    peaks = find_local_maxima(scan.tau_grid, scan.signal)
    resolved["peaks"] = [[float(t), float(h)] for t, h in peaks]
    peaks_mixed = find_local_maxima(scan_mixed.tau_grid, scan_mixed.signal)
    resolved["peaks_mixed"] = [[float(t), float(h)] for t, h in peaks_mixed]
    if s["omega"] is not None and s["epsilon"] is not None:
        resolved["resolves_side_features"] = bool(
            resolves_side_features(scan, s["omega"], s["epsilon"]))
        resolved["resolves_side_features_mixed"] = bool(
            resolves_side_features(scan_mixed, s["omega"], s["epsilon"]))

    if s["time_grid"] is not None:
        t_grid = _linspace(s["time_grid"])
        ell = coherence_trace(None, bath, t_grid)
        ell_mixed = coherence_trace("mixed", bath, t_grid)
        _write_table(out_dir / "coherence.csv",
                     ["t", "coherence", "coherence_mixed"],
                     zip(t_grid, ell, ell_mixed))
        outputs["coherence"] = "coherence.csv"
        resolved["min_coherence_gap"] = float(np.min(ell - ell_mixed))

    _write_manifest(out_dir, "sense", cfg, resolved, outputs)
    return 0


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def cmd_selftest(indices=None) -> int:
    from .acceptance import _CRITERIA, run_criteria
    known = [idx for idx, _, _ in _CRITERIA]
    unknown = sorted(set(indices or ()) - set(known))
    if unknown:
        raise ConfigError(f"--criteria: no criterion {unknown}, choose from {known}")
    results = run_criteria(indices)
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"criterion {r.index} [{mark}] {r.name}: {r.detail} "
              f"({r.seconds:.1f}s)")
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="YAML scenario file")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--engine", choices=_ENGINES, default=None,
                   help="override engine.name")
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes for scan grids")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pairbath",
        description="measurement-conditioned spin-bath purification")
    parser.add_argument("--version", action="version",
                        version=f"pairbath {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (("run", "single trajectory"),
                        ("scan", "omega-tau grid"),
                        ("verify", "pulse-sequence verification curves"),
                        ("sense", "spectroscopy and coherence comparison")):
        _add_common(sub.add_parser(name, help=help_))
    st = sub.add_parser("selftest", help="acceptance criteria")
    st.add_argument("--criteria", default=None,
                    help="comma-separated criterion numbers (default: all)")

    args = parser.parse_args(argv)
    try:
        if args.command == "selftest":
            indices = None
            if args.criteria:
                try:
                    indices = [int(x) for x in args.criteria.split(",")]
                except ValueError:
                    raise ConfigError(f"--criteria: expected comma-separated "
                                      f"numbers, got {args.criteria!r}") from None
            return cmd_selftest(indices)

        raw = load_config(args.config)
        if args.seed is not None:
            raw["seed"] = args.seed
        if args.engine is not None:
            eng = raw.get("engine")
            if eng is not None and not isinstance(eng, dict):
                raise ConfigError(f"--engine: cannot set engine.name, engine is "
                                  f"a {type(eng).__name__}, not a mapping")
            raw["engine"] = {**(eng or {}), "name": args.engine}
        cfg = validate_config(raw, args.command)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "run":
            return cmd_run(cfg, out_dir)
        if args.command == "scan":
            return cmd_scan(cfg, out_dir, threads=max(1, args.threads))
        if args.command == "verify":
            return cmd_verify(cfg, out_dir)
        return cmd_sense(cfg, out_dir)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
