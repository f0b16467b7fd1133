import numpy as np
import pytest
import yaml

from pairbath.analysis import detect_pairing
from pairbath.dynamics_dense import (ProtocolConfig, all_pair_rdms,
                                     maximally_mixed, purity, run_protocol)
from pairbath.errors import ConfigError
from pairbath.spin_core import CouplingSet
from pairbath.cli_runner import (
    _fmt,
    _pairs_rows,
    _scan_point,
    cmd_run,
    cmd_scan,
    load_config,
    main,
    validate_config,
)

CHAIN = {"kind": "chain", "n": 4, "spacing": 8.0, "z0": 100.0}


def _write_yaml(path, doc):
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def test_fmt_types():
    assert _fmt(True) == "true" and _fmt(False) == "false"
    assert _fmt(7) == "7"
    assert _fmt(0.1) == "0.1"
    assert _fmt(1 / 3) == "0.333333333333333"  # 15 significant digits
    assert _fmt(float("nan")) == "nan"


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("geometry:\n  kind: [unclosed\n")
    with pytest.raises(ConfigError, match="line"):
        load_config(bad)
    top = tmp_path / "top.yaml"
    top.write_text("- just\n- a list\n")
    with pytest.raises(ConfigError, match="mapping"):
        load_config(top)


def test_load_config_accepts_manifest(tmp_path):
    doc = {"tool": "pairbath 0.1.0", "command": "run",
           "config": {"seed": 3, "geometry": dict(CHAIN)},
           "resolved": {}, "outputs": {}}
    p = tmp_path / "manifest.yaml"
    p.write_text(yaml.safe_dump(doc))
    raw = load_config(p)
    assert raw == {"seed": 3, "geometry": dict(CHAIN)}


def test_validate_minimal_config_golden_defaults():
    cfg = validate_config({"geometry": dict(CHAIN)})
    s = 1 / np.sqrt(2)
    assert cfg == {
        "seed": 0,
        "geometry": {"kind": "chain", "n": 4, "spacing": 8.0, "z0": 100.0,
                     "x0": 0.0},
        "coupling": {"prefactor": 1.0},
        "protocol": {"omega": "auto", "tau": "auto", "units": "absolute",
                     "measurements": 100, "alpha": [s, 0.0], "beta": [s, 0.0],
                     "dephasing_rate": 0.0, "readout_time": None},
        "engine": {"name": "dense", "dense_limit": 12, "samples": 200, "sample_basis": "haar",
                   "initial_state": "polarized", "purity_pairs": 256},
    }


def test_validate_collects_every_error():
    raw = {
        "seed": -1,
        "extras": {},
        "geometry": {"kind": "ring"},
        "protocol": {"tau": -2.0, "measurements": 0},
        "engine": {"name": "gpu"},
    }
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    msg = str(exc.value)
    assert msg.startswith("invalid configuration:")
    for frag in ("seed:", "extras: unknown section", "geometry.kind",
                 "protocol.tau", "protocol.measurements", "engine.name"):
        assert frag in msg, frag


def test_validate_dense_limit_conflict():
    raw = {"geometry": {"kind": "chain", "n": 13, "spacing": 1.0, "z0": 5.0}}
    with pytest.raises(ConfigError, match="limited to 12 spins.*has 13"):
        validate_config(raw)
    raw["engine"] = {"name": "factored"}
    validate_config(raw)  # other engines take any N
    raw["engine"] = {"name": "dense", "dense_limit": 14}
    validate_config(raw)  # raised limit clears it too


def test_validate_scan_section_required():
    with pytest.raises(ConfigError, match="scan: is required"):
        validate_config({"geometry": dict(CHAIN)}, command="scan")
    cfg = validate_config(
        {"geometry": dict(CHAIN),
         "scan": {"omega": {"start": 0.5, "stop": 2.0, "points": 3},
                  "tau": {"start": 0.5, "stop": 2.0, "points": 3}}},
        command="scan")
    assert cfg["scan"]["measurements"] == 40  # default


def test_validate_amplitudes():
    base = {"geometry": dict(CHAIN)}
    cfg = validate_config({**base, "protocol": {"alpha": 0.6, "beta": [0.0, 0.8]}})
    assert cfg["protocol"]["alpha"] == [0.6, 0.0]
    assert cfg["protocol"]["beta"] == [0.0, 0.8]
    with pytest.raises(ConfigError, match="must be 1"):
        validate_config({**base, "protocol": {"alpha": 0.6, "beta": 0.6}})


def test_run_records_g_eff_unit_conversion(tmp_path):
    raw = {
        "geometry": {"kind": "explicit",
                     "g_vectors": [[2.5, 0.0, 0.0], [0.0, 2.5, 0.0]]},
        "protocol": {"omega": 1.0, "tau": 2.0, "units": "g_eff",
                     "measurements": 2},
    }
    cfg = validate_config(raw)
    cmd_run(cfg, tmp_path)
    man = yaml.safe_load((tmp_path / "manifest.yaml").read_text())
    res = man["resolved"]
    assert abs(res["g_eff"] - 2.5) < 1e-12
    assert abs(res["omega"] - 2.5) < 1e-12          # 1.0 in g_eff units
    assert abs(res["tau"] - 0.8) < 1e-12            # 2.0 / g_eff
    assert abs(res["omega_over_g_eff"] - 1.0) < 1e-12
    assert abs(res["tau_times_g_eff"] - 2.0) < 1e-12


def test_run_outputs_and_determinism(tmp_path):
    raw = {"geometry": {"kind": "dimer_chain", "n_pairs": 2,
                        "pair_spacing": 8.0, "dimer_gap": 1.0,
                        "z0": 100.0, "x0": 60.0},
           "protocol": {"measurements": 10}}
    cfg = validate_config(raw)
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    assert cmd_run(cfg, a) == 0
    assert cmd_run(cfg, b) == 0
    for name in ("trajectory.csv", "pairs.csv", "manifest.yaml"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    lines = (a / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "step,conditional_p,cumulative_p,purity"
    assert len(lines) == 11
    pairs = (a / "pairs.csv").read_text().splitlines()
    assert pairs[0] == "spin_i,spin_j,fidelity,phase,concurrence"


def test_run_manifest_round_trip(tmp_path):
    raw = {"seed": 9,
           "geometry": {"kind": "explicit",
                        "g_vectors": [[0.9, 0.1, 0.3], [-0.4, 0.8, 0.1],
                                      [0.2, -0.5, 0.6]]},
           "protocol": {"omega": 1.5, "tau": 0.4, "measurements": 8}}
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir(), second.mkdir()
    cmd_run(validate_config(raw), first)
    # the manifest is itself a loadable config
    raw2 = load_config(first / "manifest.yaml")
    cmd_run(validate_config(raw2), second)
    for name in ("trajectory.csv", "pairs.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_scan_thread_invariance(tmp_path):
    raw = {"geometry": {"kind": "explicit",
                        "g_vectors": [[1.2, 0.0, 0.4], [0.0, 0.9, -0.2]]},
           "scan": {"omega": {"start": 0.5, "stop": 1.5, "points": 2},
                    "tau": {"start": 0.5, "stop": 1.5, "points": 2},
                    "measurements": 5}}
    cfg = validate_config(raw, command="scan")
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    assert cmd_scan(cfg, a, threads=1) == 0
    assert cmd_scan(cfg, b, threads=2) == 0
    assert (a / "scan.csv").read_bytes() == (b / "scan.csv").read_bytes()
    lines = (a / "scan.csv").read_text().splitlines()
    assert lines[0] == "omega,tau,purity,cumulative_p,n_pairs"
    assert len(lines) == 5
    man = yaml.safe_load((a / "manifest.yaml").read_text())
    assert man["resolved"]["points"] == 4
    assert len(man["resolved"]["omega_grid_absolute"]) == 2


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and runs the
    tasks in this process, so no worker is ever started."""

    made: list = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


@pytest.mark.parametrize("threads,cores,points,workers", [
    (1000, 3, 2, 3),      # more threads than cores
    (1000, 64, 2, 4),     # more threads than the 2 x 2 grid's points
    (2, 64, 1, None),     # one point: serial, no pool
    (1, 64, 2, None),
])
def test_scan_threads_clamped_to_tasks_and_cores(tmp_path, monkeypatch, threads,
                                                 cores, points, workers):
    import concurrent.futures
    import os
    monkeypatch.setattr(_RecordingPool, "made", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    grid = {"start": 0.5, "stop": 1.5, "points": points}
    raw = {"geometry": {"kind": "explicit",
                        "g_vectors": [[1.2, 0.0, 0.4], [0.0, 0.9, -0.2]]},
           "scan": {"omega": grid, "tau": grid, "measurements": 5}}
    cfg = validate_config(raw, command="scan")
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    assert cmd_scan(cfg, a, threads=threads) == 0
    assert _RecordingPool.made == ([] if workers is None else [workers])
    assert cmd_scan(cfg, b, threads=1) == 0
    for name in ("scan.csv", "manifest.yaml"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_scan_pairing_region_straddles_resonance_line(tmp_path):
    # 8-spin dimer chain, omega and tau grids in g_eff units: the region
    # of maximal pairing must cover both sides of omega = 1/tau
    raw = {"geometry": {"kind": "dimer_chain", "n_pairs": 4,
                        "pair_spacing": 8.0, "dimer_gap": 1.0,
                        "z0": 100.0, "x0": 60.0},
           "scan": {"omega": {"start": 0.5, "stop": 2.0, "points": 5},
                    "tau": {"start": 0.5, "stop": 2.0, "points": 5},
                    "measurements": 30}}
    cfg = validate_config(raw, command="scan")
    assert cmd_scan(cfg, tmp_path) == 0
    rows = np.loadtxt(tmp_path / "scan.csv", delimiter=",", skiprows=1)
    products = rows[:, 0] * rows[:, 1]      # omega * tau, unit-free
    n_pairs = rows[:, 4]
    top = products[n_pairs == n_pairs.max()]
    assert n_pairs.max() == 4
    assert top.min() <= 1.0 <= top.max()


def test_main_exit_code_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("geometry:\n  kind: [unclosed\n")
    assert main(["run", "--config", str(bad)]) == 2
    assert "configuration error" in capsys.readouterr().err
    missing = tmp_path / "none.yaml"
    assert main(["run", "--config", str(missing)]) == 2
    semantic = _write_yaml(tmp_path / "sem.yaml",
                           {"geometry": {"kind": "chain", "n": 0}})
    assert main(["run", "--config", semantic]) == 2


def test_main_exit_code_extinction(tmp_path):
    # transverse g with tau = pi/2 makes V vanish identically
    doc = {"geometry": {"kind": "explicit", "g_vectors": [[1.0, 0.0, 0.0]]},
           "protocol": {"omega": 0.0, "tau": float(np.pi / 2),
                        "measurements": 3},
           "engine": {"name": "factored"}}
    p = _write_yaml(tmp_path / "ext.yaml", doc)
    assert main(["run", "--config", p, "--out", str(tmp_path)]) == 3
    man = yaml.safe_load((tmp_path / "manifest.yaml").read_text())
    assert man["resolved"]["status"] == "extinct"


# 40 spins: one state vector of 2^40 complex amplitudes takes 16 TiB
HUGE_BATH = {"kind": "explicit",
             "g_vectors": [[0.5, 0.01 * k, -0.3] for k in range(40)]}


def test_main_exit_code_capacity(tmp_path, capsys):
    doc = {"geometry": HUGE_BATH,
           "protocol": {"omega": 1.0, "tau": 0.3, "measurements": 3},
           "engine": {"name": "factored"}}
    p = _write_yaml(tmp_path / "cap.yaml", doc)
    assert main(["run", "--config", p, "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "capacity" in err and "blocks of 2^40 x 1 complex amplitudes" in err
    # a manifest that still carries the removed branch cap is a config error
    doc["engine"]["branch_cap"] = 4096
    p = _write_yaml(tmp_path / "old.yaml", doc)
    assert main(["run", "--config", p, "--out", str(tmp_path)]) == 2
    assert "engine.branch_cap: unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("tau,rc,rows", [
    # conditional p = cos^2(tau) = 0.05 at every step, so the cumulative p
    # ends near 5e-15, below the floor, while no single step is
    (1.3452829208967654, 0, 11),
    # V = 0: the first step's conditional p is 0
    (float(np.pi / 2), 3, 0),
], ids=["small-cumulative", "zero-conditional"])
@pytest.mark.parametrize("engine", ["dense", "factored", "montecarlo"])
def test_extinction_rule_same_for_every_engine(tmp_path, engine, tau, rc, rows):
    doc = {"geometry": {"kind": "explicit", "g_vectors": [[1.0, 0.0, 0.0]]},
           "protocol": {"omega": 0.0, "tau": tau, "measurements": 11},
           "engine": {"name": engine, "samples": 4}}
    p = _write_yaml(tmp_path / "c.yaml", doc)
    assert main(["run", "--config", p, "--out", str(tmp_path)]) == rc
    man = yaml.safe_load((tmp_path / "manifest.yaml").read_text())
    assert man["resolved"]["status"] == ("completed" if rc == 0 else "extinct")
    assert man["resolved"]["steps_completed"] == rows
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert len(lines) == rows + 1


def _read_pairs(path):
    lines = path.read_text().splitlines()[1:]
    return np.array([[float(v) for v in ln.split(",")] for ln in lines])


@pytest.mark.parametrize("engine", ["dense", "factored", "montecarlo"])
def test_extinct_run_pairs_describe_start_state(tmp_path, capsys, engine):
    # an odd number of transverse spins with tau = pi/2 makes V = 0, so the
    # run ends before its first step and pairs.csv and final_purity describe
    # the start: |000> for factored, the maximally mixed state otherwise
    doc = {"geometry": {"kind": "explicit", "g_vectors": [[1.0, 0.0, 0.0]] * 3},
           "protocol": {"omega": 0.0, "tau": float(np.pi / 2), "measurements": 3},
           "engine": {"name": engine, "samples": 4}}
    p = _write_yaml(tmp_path / "c.yaml", doc)
    assert main(["run", "--config", p, "--out", str(tmp_path)]) == 3
    assert "Traceback" not in capsys.readouterr().err
    if engine == "factored":
        rho = np.zeros((8, 8), dtype=complex)
        rho[0, 0] = 1.0
    else:
        rho = maximally_mixed(3)
    want, _ = _pairs_rows(all_pair_rdms(rho, 3), 3)
    got = _read_pairs(tmp_path / "pairs.csv")
    assert got.shape == (len(want), 5)
    assert np.abs(got - np.array(want)).max() < 1e-12
    man = yaml.safe_load((tmp_path / "manifest.yaml").read_text())
    assert man["resolved"]["steps_completed"] == 0
    assert man["resolved"]["final_purity"] == (1.0 if engine == "factored" else 0.125)


@pytest.mark.parametrize("engine", ["factored", "montecarlo"])
def test_extinct_run_pairs_describe_last_row(tmp_path, monkeypatch, engine):
    # a run cut after two of four steps reports the pairs, and for
    # montecarlo the purity estimate, of a completed two-step run
    import pairbath.dynamics_factored as df
    real_extend, calls = df.extend, []

    def zero_on_third_call(state, *args):
        # the third round leaves nothing: its conditional p is 0
        calls.append(1)
        out = real_extend(state, *args)
        return np.zeros_like(out) if len(calls) == 3 else out
    doc = {"geometry": {"kind": "explicit",
                        "g_vectors": [[0.5, 0.1, -0.3], [0.2, 0.0, 0.4],
                                      [-0.3, 0.2, 0.1]]},
           "protocol": {"omega": 1.0, "tau": 0.3, "measurements": 2},
           "engine": {"name": engine, "samples": 4}}
    assert main(["run", "--config", _write_yaml(tmp_path / "two.yaml", doc),
                 "--out", str(tmp_path / "two")]) == 0
    doc["protocol"]["measurements"] = 4
    monkeypatch.setattr(df, "extend", zero_on_third_call)
    assert main(["run", "--config", _write_yaml(tmp_path / "four.yaml", doc),
                 "--out", str(tmp_path / "four")]) == 3
    assert len(calls) == 3
    for name in ("trajectory.csv", "pairs.csv"):
        assert ((tmp_path / "four" / name).read_bytes()
                == (tmp_path / "two" / name).read_bytes())
    two, four = (yaml.safe_load((tmp_path / d / "manifest.yaml").read_text())
                 ["resolved"] for d in ("two", "four"))
    assert four["final_purity"] == two["final_purity"]


def test_factored_engines_reject_dephasing(tmp_path, capsys):
    doc = {"geometry": {"kind": "explicit",
                        "g_vectors": [[0.5, 0.1, -0.3], [0.2, 0.0, 0.4]]},
           "protocol": {"omega": 1.0, "tau": 0.3, "measurements": 3,
                        "dephasing_rate": 5.0},
           "engine": {"samples": 4}}
    p = _write_yaml(tmp_path / "c.yaml", doc)
    for engine in ("factored", "montecarlo"):
        out = tmp_path / engine
        assert main(["run", "--config", p, "--out", str(out),
                     "--engine", engine]) == 2
        assert "dephasing" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()
    assert main(["run", "--config", p, "--out", str(tmp_path / "dense"),
                 "--engine", "dense"]) == 0


def test_factored_memory_checked_before_allocating(tmp_path, capsys, monkeypatch):
    import pairbath.dynamics_factored

    def no_rounds(*args, **kwargs):
        raise AssertionError("a round ran")
    monkeypatch.setattr(pairbath.dynamics_factored, "extend", no_rounds)
    doc = {"geometry": HUGE_BATH, "protocol": {"omega": 1.0, "tau": 0.3},
           "engine": {"name": "factored"}}
    p = _write_yaml(tmp_path / "c.yaml", doc)
    assert main(["run", "--config", p, "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "GiB" in err and "fewer spins or samples" in err
    assert not (tmp_path / "trajectory.csv").exists()


def test_montecarlo_reaches_paper_rounds_beyond_dense_limit(tmp_path):
    # N = 16 at the paper's M = 100: one 2^16 x 16 block, about 16 MiB
    doc = {"seed": 0,
           "geometry": {"kind": "dimer_chain", "n_pairs": 8, "pair_spacing": 8.0,
                        "dimer_gap": 1.0, "z0": 100.0, "x0": 60.0},
           "protocol": {"measurements": 100},
           "engine": {"name": "montecarlo", "samples": 16}}
    p = _write_yaml(tmp_path / "c.yaml", doc)
    assert main(["run", "--config", p, "--out", str(tmp_path)]) == 0
    pairs = _read_pairs(tmp_path / "pairs.csv")
    assert sorted(map(tuple, pairs[:, :2].astype(int).tolist())) == [
        (2 * k, 2 * k + 1) for k in range(8)]
    man = yaml.safe_load((tmp_path / "manifest.yaml").read_text())
    assert man["resolved"]["steps_completed"] == 100
    assert man["resolved"]["all_paired"] is True


BIG_BATH = {"kind": "explicit",
            "g_vectors": [[0.5, 0.1 * k, -0.3] for k in range(16)]}
SMALL_SCAN = {"omega": {"start": 1.0, "stop": 1.0, "points": 1},
              "tau": {"start": 1.0, "stop": 1.0, "points": 1}, "measurements": 2}


def _no_propagators(monkeypatch):
    import pairbath.dynamics_factored

    def no_propagators(*args, **kwargs):
        raise AssertionError("branch propagators were built")
    monkeypatch.setattr(pairbath.dynamics_factored, "branch_propagators",
                        no_propagators)


@pytest.mark.parametrize("command", ["run", "scan"])
def test_dense_memory_checked_before_allocating(tmp_path, capsys, monkeypatch,
                                                command):
    _no_propagators(monkeypatch)
    # 16 spins: each 2^16 x 2^16 complex matrix takes 64 GiB
    doc = {"geometry": BIG_BATH, "engine": {"dense_limit": 16},
           "protocol": {"omega": 1.0, "tau": 0.3, "measurements": 2},
           "scan": SMALL_SCAN}
    p = _write_yaml(tmp_path / "c.yaml", doc)
    assert main([command, "--config", p, "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "capacity" in err and "GiB" in err
    assert not (tmp_path / "manifest.yaml").exists()


def test_scan_applies_dense_limit_whatever_the_engine(tmp_path, capsys, monkeypatch):
    _no_propagators(monkeypatch)
    doc = {"geometry": BIG_BATH, "engine": {"name": "factored"},
           "scan": SMALL_SCAN}
    p = _write_yaml(tmp_path / "c.yaml", doc)
    for engine in ([], ["--engine", "montecarlo"]):
        assert main(["scan", "--config", p, "--out", str(tmp_path), *engine]) == 2
        err = capsys.readouterr().err
        assert "engine.dense_limit" in err and "limited to 12 spins" in err
        assert "factored" not in err and "montecarlo" not in err
    assert not (tmp_path / "scan.csv").exists()


def _stepped_point(g, omega, tau, m):
    """_scan_point's row computed by stepping every round."""
    c = CouplingSet(np.asarray(g, dtype=float), omega)
    traj = run_protocol(maximally_mixed(c.n_spins),
                        ProtocolConfig(omega=omega, tau=tau, measurements=m), c)
    asg = detect_pairing(all_pair_rdms(traj.final_rho, c.n_spins), c.n_spins)
    return (traj.purity[-1] if traj.steps else purity(traj.final_rho),
            traj.cumulative_p[-1] if traj.steps else float("nan"),
            sum(1 for x in asg.matches if x.fidelity > 0.9), traj.status)


def test_scan_point_falls_back_to_stepping_below_floor():
    # p = 0.05 at every round: P_11 = 4.9e-15 is below the floor, no step is
    g = ((1.0, 0.0, 0.0),)
    got = _scan_point((g, 0.0, 1.3452829208967654, 11))
    assert got[3] == "completed"
    assert got == _stepped_point(g, 0.0, 1.3452829208967654, 11)
    # V = 0: the first round is extinct; purity is the start's, 1/2, as
    # run reports it, and no cumulative p exists
    got = _scan_point((g, 0.0, float(np.pi / 2), 11))
    pur, cum, n_pairs, status = got
    assert status == "extinct" and pur == 0.5 and np.isnan(cum)
    want = _stepped_point(g, 0.0, float(np.pi / 2), 11)
    assert got[0] == want[0] and got[2:] == want[2:]


def test_scan_point_squares_without_stepping(monkeypatch):
    import pairbath.cli_runner
    rng = np.random.default_rng(40)
    g = tuple(tuple(row) for row in rng.normal(0, 1.0, (4, 3)).tolist())
    want = _stepped_point(g, 1.3, 0.4, 40)

    def no_stepping(*args, **kwargs):
        raise AssertionError("run_protocol was called")
    monkeypatch.setattr(pairbath.cli_runner, "run_protocol", no_stepping)
    pur, cum, n_pairs, status = _scan_point((g, 1.3, 0.4, 40))
    assert want[1] >= 1e-14 and status == "completed"
    assert abs(pur - want[0]) < 1e-12 and abs(cum / want[1] - 1.0) < 1e-12
    assert n_pairs == want[2]


@pytest.mark.parametrize("m", [40, 100])
def test_scan_point_within_dense_memory_estimate(m):
    # M=40 squares; at M=100 P_M is below the floor and the point steps,
    # which must not keep the squaring's matrices alive while it does
    import tracemalloc
    from pairbath.dynamics_dense import DENSE_MATRICES
    n = 7
    g = np.random.default_rng(26).normal(size=(n, 3)).tolist()
    tracemalloc.start()
    try:
        cum = _scan_point((g, 1.0, 0.3, m))[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (cum < 1e-14) == (m == 100)
    assert peak <= DENSE_MATRICES * 16 * 4**n


def test_main_seed_and_engine_overrides(tmp_path):
    doc = {"seed": 1,
           "geometry": {"kind": "explicit",
                        "g_vectors": [[0.8, 0.0, 0.2], [0.0, 0.7, -0.1]]},
           "protocol": {"omega": 1.0, "tau": 0.4, "measurements": 3},
           "engine": {"samples": 20}}
    p = _write_yaml(tmp_path / "run.yaml", doc)
    out = tmp_path / "out"
    rc = main(["run", "--config", p, "--out", str(out),
               "--engine", "montecarlo", "--seed", "5"])
    assert rc == 0
    man = yaml.safe_load((out / "manifest.yaml").read_text())
    assert man["config"]["engine"]["name"] == "montecarlo"
    assert man["config"]["seed"] == 5
    assert "purity_estimate" in man["resolved"]


def test_main_verify_subcommand(tmp_path):
    doc = {"verify": {"g1": 3.0, "g2": 4.0, "omega": 10.0, "m_max": 12}}
    p = _write_yaml(tmp_path / "v.yaml", doc)
    out = tmp_path / "out"
    assert main(["verify", "--config", p, "--out", str(out)]) == 0
    lines = (out / "verify.csv").read_text().splitlines()
    assert lines[0] == "m,flip_unpolarized,flip_singlet"
    assert len(lines) == 13
    man = yaml.safe_load((out / "manifest.yaml").read_text())
    preps = man["resolved"]["preparations"]
    assert preps["unpolarized"]["m_star"] == 2
    assert preps["singlet"]["m_star"] == 11
    assert abs(man["resolved"]["tau_v"] - np.pi / 40) < 1e-12


def test_main_sense_subcommand(tmp_path):
    doc = {"sense": {
        "m": 16,
        "omega": 10.0,
        "epsilon": 1.0,
        "species": [
            {"omega": 11.0, "g_vectors": [[0.45, 0.0, 0.12]],
             "preparation": "mixed"},
            {"omega": 9.0, "g_vectors": [[0.40, 0.1, 0.10]],
             "preparation": "mixed"},
        ],
        "tau_grid": {"start": 0.055, "stop": 0.105, "points": 101},
        "time_grid": {"start": 0.0, "stop": 2.0, "points": 41},
    }}
    p = _write_yaml(tmp_path / "s.yaml", doc)
    out = tmp_path / "out"
    assert main(["sense", "--config", p, "--out", str(out)]) == 0
    spec = (out / "spectroscopy.csv").read_text().splitlines()
    assert spec[0] == "tau,signal,signal_mixed"
    assert len(spec) == 102
    coh = (out / "coherence.csv").read_text().splitlines()
    assert coh[0] == "t,coherence,coherence_mixed"
    man = yaml.safe_load((out / "manifest.yaml").read_text())
    assert man["resolved"]["resolves_side_features"] is True
    assert len(man["resolved"]["peaks"]) == 2


SIDE_SENSE = {
    "m": 16, "omega": 10.0, "epsilon": 1.0,
    "species": [{"omega": 11.0, "g_vectors": [[0.45, 0.0, 0.12]]},
                {"omega": 9.0, "g_vectors": [[0.40, 0.1, 0.10]]}],
    "tau_grid": {"start": 0.055, "stop": 0.105, "points": 101},
}


@pytest.mark.parametrize("change,message", [
    # passed validation and then died on tau < 0 (exit 1)
    ({"time_grid": {"start": -0.5, "stop": 1.0, "points": 5}},
     "sense.time_grid.start: must be >= 0"),
    # a side resonance pi/(4(omega -+ epsilon)) does not exist; raised
    # ZeroDivisionError once the scan had two peaks
    ({"omega": 1.0, "epsilon": 1.0}, "sense.epsilon: must satisfy |epsilon| < omega"),
    ({"omega": 10.0, "epsilon": -10.0}, "sense.epsilon: must satisfy"),
], ids=["negative-time-grid", "epsilon-equals-omega", "epsilon-equals-minus-omega"])
def test_main_sense_rejects_unphysical_grids(tmp_path, capsys, change, message):
    p = _write_yaml(tmp_path / "s.yaml", {"sense": {**SIDE_SENSE, **change}})
    assert main(["sense", "--config", p, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("grid", ["tau_grid", "time_grid"])
def test_main_sense_grid_memory_checked_before_allocating(tmp_path, capsys, grid):
    # 10^12 points: the path operators would need about 1 PB
    doc = {"sense": {**SIDE_SENSE,
                     "time_grid": {"start": 0.0, "stop": 2.0, "points": 41}}}
    doc["sense"][grid] = dict(doc["sense"][grid], points=10**12)
    p = _write_yaml(tmp_path / "s.yaml", doc)
    assert main(["sense", "--config", p, "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "capacity" in err and "grid points" in err
    assert not (tmp_path / "spectroscopy.csv").exists()


def test_main_selftest_single_criterion(capsys):
    assert main(["selftest", "--criteria", "1"]) == 0
    out = capsys.readouterr().out
    assert "criterion 1 [PASS]" in out


ROUND_TRIP = {
    "run": {"geometry": {"kind": "explicit",
                         "g_vectors": [[0.8, 0.0, 0.2], [0.0, 0.7, -0.1]]},
            "protocol": {"omega": 1.0, "tau": 0.4, "measurements": 3}},
    "scan": {"geometry": {"kind": "explicit",
                          "g_vectors": [[1.2, 0.0, 0.4], [0.0, 0.9, -0.2]]},
             "scan": {"omega": {"start": 0.5, "stop": 1.5, "points": 2},
                      "tau": {"start": 0.5, "stop": 1.5, "points": 2},
                      "measurements": 3}},
    "verify": {"verify": {"g1": 3.0, "g2": 4.0, "omega": 10.0, "m_max": 6}},
    # no time_grid: the manifest records time_grid: null
    "sense": {"sense": {"species": [{"omega": 11.0,
                                     "g_vectors": [[0.45, 0.0, 0.12]]}],
                        "tau_grid": {"start": 0.055, "stop": 0.105,
                                     "points": 5}}},
}


@pytest.mark.parametrize("command", sorted(ROUND_TRIP))
def test_manifest_round_trip_every_subcommand(tmp_path, command):
    first, second = tmp_path / "first", tmp_path / "second"
    p = _write_yaml(tmp_path / "c.yaml", ROUND_TRIP[command])
    assert main([command, "--config", p, "--out", str(first)]) == 0
    manifest = str(first / "manifest.yaml")
    assert main([command, "--config", manifest, "--out", str(second)]) == 0
    names = sorted(f.name for f in first.iterdir())
    assert names == sorted(f.name for f in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


@pytest.mark.parametrize("command,text,path", [
    ("run", "geometry: null\n", "geometry: is required"),
    ("scan", "geometry:\nscan: {omega: {start: 1, stop: 2, points: 2},"
             " tau: {start: 1, stop: 2, points: 2}}\n", "geometry: is required"),
    ("verify", "verify: null\n", "verify: is required"),
    ("sense", "sense:\n", "sense: is required"),
    ("run", "geometry: {kind: explicit, g_vectors: [[1.0, 0.0, 0.0]]}\n"
            "protocol: {tau: .nan}\n", "protocol.tau: must be a finite number"),
    ("verify", "verify: {g1: .inf, g2: 4.0, omega: 10.0, m_max: 3}\n",
     "verify.g1: must be a finite number"),
    ("run", "geometry: {kind: explicit, g_vectors: [[1.0, 0.0, 0.0]]}\n"
            "protocol: {measurments: 5}\n", "protocol.measurments: unknown key"),
    ("run", "geometry: {kind: chain, n: 2, spacing: 1%s, z0: 100.0}\n" % ("0" * 400),
     "geometry.spacing: must be a finite number"),
], ids=["null-geometry-run", "null-geometry-scan", "null-verify", "null-sense",
        "nan-tau", "inf-g1", "misspelt-key", "beyond-float-range"])
def test_main_rejects_config_that_crashed_or_ran_wrongly(tmp_path, capsys, command,
                                                        text, path):
    p = tmp_path / "c.yaml"
    p.write_text(text)
    assert main([command, "--config", str(p), "--out", str(tmp_path / "out")]) == 2
    assert path in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,message", [
    (["selftest", "--criteria", "x"], "--criteria: expected comma-separated"),
    (["selftest", "--criteria", "42"], "--criteria: no criterion [42]"),
    (["run", "--engine", "factored"], "--engine: cannot set engine.name"),
], ids=["criteria-not-numbers", "criteria-unknown", "engine-scalar"])
def test_main_rejects_bad_arguments(tmp_path, capsys, monkeypatch, argv, message):
    import pairbath.acceptance

    def no_criteria(indices=None):
        raise AssertionError("a criterion ran")
    monkeypatch.setattr(pairbath.acceptance, "run_criteria", no_criteria)
    p = _write_yaml(tmp_path / "c.yaml", {"geometry": dict(CHAIN), "engine": 5})
    if argv[0] == "run":
        argv = argv + ["--config", p, "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err and len(err.strip().splitlines()) == 1
