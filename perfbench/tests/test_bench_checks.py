"""Each workload's output check accepts the recorded outputs and rejects
a deliberately perturbed copy of them."""

import numpy as np
import pytest
import yaml

import workloads as W

TRAJ = ["step", "conditional_p", "cumulative_p", "purity"]
PAIRS = ["spin_i", "spin_j", "fidelity", "phase", "concurrence"]


def write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(format(float(v), ".17g") for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def write_manifest(out, resolved):
    (out / "manifest.yaml").write_text(yaml.safe_dump({"resolved": resolved}))


def outdirs(tmp_path, count):
    outs = [tmp_path / str(k) for k in range(count)]
    for out in outs:
        out.mkdir(parents=True)
    return outs


# ---------------------------------------------------------------------------
# faithful outputs rebuilt from expected/ (montecarlo: from the exact reference)
# ---------------------------------------------------------------------------

def purify_outputs(tmp_path, traj=None, pairs=None):
    (out,) = outdirs(tmp_path, 1)
    if traj is None:
        traj = np.array(W.load_expected("purify")["trajectory"])
    if pairs is None:
        pairs = [(2 * k, 2 * k + 1, 0.999, 6.25, 0.999) for k in range(5)]
    write_csv(out / "trajectory.csv", TRAJ, traj)
    write_csv(out / "pairs.csv", PAIRS, pairs)
    return [out]


def scan_outputs(tmp_path, rows, manifest="points: 8\n"):
    (out,) = outdirs(tmp_path, 1)
    write_csv(out / "scan.csv", ["omega", "tau", "purity", "cumulative_p", "n_pairs"], rows)
    (out / "manifest.yaml").write_text(manifest)
    return [out]


def dephase_outputs(tmp_path, runs=None):
    runs = runs or W.load_expected("dephase")["runs"]
    outs = outdirs(tmp_path, len(runs))
    for out, run in zip(outs, runs):
        write_csv(out / "trajectory.csv", TRAJ, [run["final_row"]])
        write_csv(out / "pairs.csv", PAIRS, run["pairs"])
    return outs


def protocols_outputs(tmp_path, expected=None, resolves=(True, False)):
    exp = expected or W.load_expected("protocols")
    verify_out, sense_out = outdirs(tmp_path, 2)
    preps = W.VERIFY["preparations"]
    write_csv(verify_out / "verify.csv", ["m"] + [f"flip_{p}" for p in preps],
              exp["verify"])
    write_manifest(verify_out, {"preparations": {p: {"m_star": exp["m_star"][p]}
                                                 for p in preps}})
    write_csv(sense_out / "spectroscopy.csv", ["tau", "signal", "signal_mixed"],
              exp["spectroscopy"])
    write_csv(sense_out / "coherence.csv", ["t", "coherence", "coherence_mixed"],
              exp["coherence"])
    write_manifest(sense_out, {"resolves_side_features": resolves[0],
                               "resolves_side_features_mixed": resolves[1]})
    return [verify_out, sense_out]


@pytest.fixture(scope="module")
def mc_state():
    state = {}
    W.mc_reference([(2 * k, 2 * k + 1) for k in range(W.MC_PAIRS)], state)
    return state


def montecarlo_outputs(tmp_path, state, p_scale=1.0, fid_shift=0.0):
    (out,) = outdirs(tmp_path, 1)
    cum, pair_ref = state["reference"]
    cum = cum * p_scale
    write_csv(out / "trajectory.csv", TRAJ,
              [(k + 1, 0.5, p, float("nan")) for k, p in enumerate(cum)])
    rows = []
    for k in range(W.MC_PAIRS):
        fid, conc = pair_ref[(2 * k, 2 * k + 1)]
        rows.append((2 * k, 2 * k + 1, fid + fid_shift, 0.0, conc))
    write_csv(out / "pairs.csv", PAIRS, rows)
    return [out]


# ---------------------------------------------------------------------------

def test_purify_check(tmp_path):
    assert W.check_purify(0, purify_outputs(tmp_path / "a"), {}) == []
    traj = np.array(W.load_expected("purify")["trajectory"])
    traj[57, 2] += 1e-9
    assert W.check_purify(0, purify_outputs(tmp_path / "b", traj=traj), {})
    swapped = [(0, 2, 0.999, 6.25, 0.999)] + [(2 * k, 2 * k + 1, 0.999, 6.25, 0.999)
                                              for k in range(1, 5)]
    assert W.check_purify(0, purify_outputs(tmp_path / "c", pairs=swapped), {})
    weak = [(2 * k, 2 * k + 1, 0.85, 6.25, 0.9) for k in range(5)]
    assert W.check_purify(0, purify_outputs(tmp_path / "d", pairs=weak), {})


@pytest.mark.parametrize("seed", [0, 7])
def test_scan_check(tmp_path, seed):
    rows = W.expected_scan_rows(seed)
    assert W.check_scan(seed, scan_outputs(tmp_path / "a", rows), {}) == []
    bad = rows.copy()
    bad[5, 2] += 1e-9
    assert W.check_scan(seed, scan_outputs(tmp_path / "b", bad), {})
    bad = rows.copy()
    bad[3, 4] += 1
    assert W.check_scan(seed, scan_outputs(tmp_path / "c", bad), {})
    # a later pass of the same run that differs in bytes fails
    state = {}
    assert W.check_scan(seed, scan_outputs(tmp_path / "d", rows), state) == []
    assert W.check_scan(seed, scan_outputs(tmp_path / "e", rows, "points: 9\n"), state)


def test_dephase_check(tmp_path):
    runs = W.load_expected("dephase")["runs"]
    assert W.check_dephase(0, dephase_outputs(tmp_path / "a"), {}) == []
    bad = [dict(r) for r in runs]
    bad[2] = dict(bad[2], pairs=[list(row) for row in bad[2]["pairs"]])
    bad[2]["pairs"][1][4] += 1e-9
    assert W.check_dephase(0, dephase_outputs(tmp_path / "b", bad), {})
    reordered = [runs[0], runs[1], runs[3], runs[2], runs[4]]
    problems = W.check_dephase(0, dephase_outputs(tmp_path / "c", reordered), {})
    assert any("strictly decreasing" in p for p in problems)


def test_protocols_check(tmp_path):
    exp = W.load_expected("protocols")
    assert W.check_protocols(0, protocols_outputs(tmp_path / "a"), {}) == []
    bad = dict(exp, verify=[list(r) for r in exp["verify"]])
    bad["verify"][120][2] += 1e-9
    assert W.check_protocols(0, protocols_outputs(tmp_path / "b", bad), {})
    bad = dict(exp, m_star=dict(exp["m_star"], unpolarized=exp["m_star"]["unpolarized"] + 1))
    assert W.check_protocols(0, protocols_outputs(tmp_path / "c", bad), {})
    assert W.check_protocols(0, protocols_outputs(tmp_path / "d", resolves=(False, False)), {})
    assert W.check_protocols(0, protocols_outputs(tmp_path / "e", resolves=(True, True)), {})


def test_montecarlo_check(tmp_path, mc_state):
    assert W.check_montecarlo(0, montecarlo_outputs(tmp_path / "a", mc_state), mc_state) == []
    assert W.check_montecarlo(0, montecarlo_outputs(tmp_path / "b", mc_state,
                                                    p_scale=1 + 2 * W.MC_TOL_P),
                              mc_state)
    assert W.check_montecarlo(0, montecarlo_outputs(tmp_path / "c", mc_state,
                                                    fid_shift=2 * W.MC_TOL_FIDELITY),
                              mc_state)
