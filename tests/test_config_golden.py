"""Golden corpus for validate_config.

CASES holds (name, command, raw config): every config literal of the test
suite and of acceptance criterion 9, the README example, the perfbench
workload configs (copied as literals), and invalid variants of them.
golden/config_golden.json records what the validator returned for each
case before the config schema became a field table: for a valid config
the normalized dict and its yaml.safe_dump(sort_keys=False) text, for an
invalid one the sorted dotted paths of its problems. CHANGED lists the
cases whose result differs from that record on purpose, and REMOVED_KEYS
the keys dropped from the schema since, which valid records are compared
without.

    PYTHONPATH=src python3 tests/test_config_golden.py

prints the current validator's results in the golden file's format.
"""

import copy
import json
import sys
from pathlib import Path

import pytest
import yaml

from pairbath.cli_runner import validate_config
from pairbath.errors import ConfigError

GOLDEN = Path(__file__).resolve().parent / "golden" / "config_golden.json"

CHAIN = {"kind": "chain", "n": 4, "spacing": 8.0, "z0": 100.0}
DIMER = {"kind": "dimer_chain", "pair_spacing": 8.0, "dimer_gap": 1.0,
         "z0": 100.0, "x0": 60.0}
CHAIN6 = {"kind": "chain", "n": 6, "spacing": 8.0, "z0": 100.0, "x0": 60.0}
EXPLICIT2 = {"kind": "explicit", "g_vectors": [[1.2, 0.0, 0.4], [0.0, 0.9, -0.2]]}
GRID = {"start": 0.5, "stop": 2.0, "points": 3}
VERIFY = {"g1": 3.0, "g2": 4.0, "omega": 10.0, "m_max": 12}
SENSE = {
    "m": 16, "omega": 10.0, "epsilon": 1.0,
    "species": [
        {"omega": 11.0, "g_vectors": [[0.45, 0.0, 0.12]], "preparation": "mixed"},
        {"omega": 9.0, "g_vectors": [[0.40, 0.1, 0.10]], "preparation": "mixed"},
    ],
    "tau_grid": {"start": 0.055, "stop": 0.105, "points": 101},
    "time_grid": {"start": 0.0, "stop": 2.0, "points": 41},
}
PERF_SENSE = {
    "m": 16, "omega": 10.0, "epsilon": 1.0,
    "species": [
        {"omega": 10.0, "preparation": "paired",
         "g_vectors": [[2.2, 0.3, 1.1], [2.2, 0.3, 1.1],
                       [3.1, -0.5, 1.6], [3.1, -0.5, 1.6]]},
        {"omega": 11.0, "preparation": "mixed", "g_vectors": [[0.45, 0.0, 0.12]]},
        {"omega": 9.0, "preparation": "mixed", "g_vectors": [[0.40, 0.1, 0.10]]},
    ],
    "tau_grid": {"start": 0.055, "stop": 0.105, "points": 601},
    "time_grid": {"start": 0.02, "stop": 2.0, "points": 481},
}
README_RUN = {
    "seed": 0,
    "geometry": {"kind": "dimer_chain", "n_pairs": 5, "pair_spacing": 8.0,
                 "dimer_gap": 1.0, "z0": 100.0, "x0": 60.0},
    "coupling": {"prefactor": 1.0},
    "protocol": {"omega": "auto", "tau": "auto", "units": "absolute",
                 "measurements": 100, "alpha": 0.7071067811865476,
                 "beta": 0.7071067811865476, "dephasing_rate": 0.0,
                 "readout_time": None},
    "engine": {"name": "dense", "dense_limit": 12, "samples": 200,
               "sample_basis": "haar"},
}
PERF_DEPHASING_RATES = (0.0, 5.5987094706077725e-09, 1.6796128411823318e-08,
                        5.5987094706077725e-08, 1.6796128411823318e-07)


def _with(base: dict, **sections) -> dict:
    return {**copy.deepcopy(base), **sections}


VALID = [
    # tests/test_cli_runner.py
    ("minimal_chain", "run", {"geometry": CHAIN}),
    ("dense_limit_other_engine", "run",
     {"geometry": {"kind": "chain", "n": 13, "spacing": 1.0, "z0": 5.0},
      "engine": {"name": "factored"}}),
    ("dense_limit_raised", "run",
     {"geometry": {"kind": "chain", "n": 13, "spacing": 1.0, "z0": 5.0},
      "engine": {"name": "dense", "dense_limit": 14}}),
    ("scan_default_measurements", "scan",
     {"geometry": CHAIN, "scan": {"omega": GRID, "tau": GRID}}),
    ("amplitudes", "run",
     {"geometry": CHAIN, "protocol": {"alpha": 0.6, "beta": [0.0, 0.8]}}),
    ("g_eff_units", "run",
     {"geometry": {"kind": "explicit",
                   "g_vectors": [[2.5, 0.0, 0.0], [0.0, 2.5, 0.0]]},
      "protocol": {"omega": 1.0, "tau": 2.0, "units": "g_eff",
                   "measurements": 2}}),
    ("dimer_determinism", "run",
     {"geometry": dict(DIMER, n_pairs=2), "protocol": {"measurements": 10}}),
    ("manifest_round_trip", "run",
     {"seed": 9,
      "geometry": {"kind": "explicit",
                   "g_vectors": [[0.9, 0.1, 0.3], [-0.4, 0.8, 0.1],
                                 [0.2, -0.5, 0.6]]},
      "protocol": {"omega": 1.5, "tau": 0.4, "measurements": 8}}),
    ("scan_threads", "scan",
     {"geometry": EXPLICIT2,
      "scan": {"omega": {"start": 0.5, "stop": 1.5, "points": 2},
               "tau": {"start": 0.5, "stop": 1.5, "points": 2},
               "measurements": 5}}),
    ("scan_resonance_line", "scan",
     {"geometry": dict(DIMER, n_pairs=4),
      "scan": {"omega": {"start": 0.5, "stop": 2.0, "points": 5},
               "tau": {"start": 0.5, "stop": 2.0, "points": 5},
               "measurements": 30}}),
    ("extinction", "run",
     {"geometry": {"kind": "explicit", "g_vectors": [[1.0, 0.0, 0.0]]},
      "protocol": {"omega": 0.0, "tau": 1.5707963267948966, "measurements": 3},
      "engine": {"name": "factored"}}),
    ("capacity", "run",
     {"geometry": {"kind": "explicit",
                   "g_vectors": [[0.5, 0.1, -0.3], [0.2, 0.0, 0.4]]},
      "protocol": {"omega": 1.0, "tau": 0.3, "measurements": 25},
      "engine": {"name": "factored", "branch_cap": 4096}}),
    ("overrides_as_written", "run",
     {"seed": 1,
      "geometry": {"kind": "explicit",
                   "g_vectors": [[0.8, 0.0, 0.2], [0.0, 0.7, -0.1]]},
      "protocol": {"omega": 1.0, "tau": 0.4, "measurements": 3},
      "engine": {"samples": 20}}),
    ("overrides_applied", "run",
     {"seed": 5,
      "geometry": {"kind": "explicit",
                   "g_vectors": [[0.8, 0.0, 0.2], [0.0, 0.7, -0.1]]},
      "protocol": {"omega": 1.0, "tau": 0.4, "measurements": 3},
      "engine": {"samples": 20, "name": "montecarlo"}}),
    ("verify_subcommand", "verify", {"verify": VERIFY}),
    ("sense_subcommand", "sense", {"sense": SENSE}),
    # acceptance criterion 9
    ("criterion_9", "scan",
     {"geometry": dict(DIMER, n_pairs=4),
      "scan": {"omega": {"start": 0.5, "stop": 2.0, "points": 16},
               "tau": {"start": 0.5, "stop": 2.0, "points": 16},
               "measurements": 40}}),
    # README
    ("readme_run", "run", README_RUN),
    # perfbench workloads (seed 0)
    ("perf_purify", "run",
     {"seed": 0, "geometry": dict(DIMER, n_pairs=5),
      "protocol": {"measurements": 100}}),
    ("perf_scan", "scan",
     {"seed": 0, "geometry": dict(DIMER, n_pairs=4),
      "scan": {"omega": {"start": 1.8, "stop": 1.9000000000000001, "points": 2},
               "tau": {"start": 1.1, "stop": 1.4, "points": 4},
               "measurements": 40}}),
    *[(f"perf_dephase_{i}", "run",
       {"seed": 0, "geometry": CHAIN6,
        "protocol": {"measurements": 800, "dephasing_rate": rate}})
      for i, rate in enumerate(PERF_DEPHASING_RATES)],
    ("perf_verify", "verify",
     {"seed": 0, "verify": {"g1": 3.0, "g2": 4.0, "omega": 10.0, "m_max": 200,
                            "preparations": ["unpolarized", "singlet",
                                             "mixed", "polarized"]}}),
    ("perf_sense", "sense", {"seed": 0, "sense": PERF_SENSE}),
    ("perf_montecarlo", "run",
     {"seed": 0, "geometry": dict(DIMER, n_pairs=8),
      "protocol": {"measurements": 8},
      "engine": {"name": "montecarlo", "samples": 16}}),
    # the remaining geometry kinds and optional keys
    ("plane", "run",
     {"geometry": {"kind": "plane", "n": 5, "box": [0, 10, -5, 5.5],
                   "z0": 20, "seed": 3}}),
    ("chain_int_values", "run",
     {"seed": 2, "geometry": {"kind": "chain", "n": 3, "spacing": 4, "z0": 50,
                              "x0": 1},
      "coupling": {"prefactor": 2},
      "protocol": {"omega": 1, "tau": 3, "alpha": [0, 1], "beta": 0,
                   "dephasing_rate": 1, "readout_time": 2}}),
    ("engine_every_key", "run",
     {"geometry": CHAIN,
      "engine": {"name": "montecarlo", "dense_limit": 4, "branch_cap": 64,
                 "samples": 7, "sample_basis": "z", "initial_state": "haar",
                 "purity_pairs": 9}}),
    ("engine_every_remaining_key", "run",
     {"geometry": CHAIN,
      "engine": {"name": "montecarlo", "dense_limit": 4, "samples": 7,
                 "sample_basis": "z", "initial_state": "haar",
                 "purity_pairs": 9}}),
    ("null_optional_sections", "run",
     {"geometry": CHAIN, "coupling": None, "protocol": None, "engine": None}),
    ("null_nullable_keys", "sense",
     {"protocol": {"readout_time": None},
      "sense": _with(SENSE, omega=None, epsilon=None)}),
    ("verify_every_key", "verify",
     {"verify": {"g1": 1, "g2": 2, "omega": 5, "m_max": 3, "tau_v": 0.25,
                 "threshold": 0.5,
                 "preparations": ["paired", "mixed", "polarized"]}}),
    ("sense_without_time_grid", "sense",
     {"sense": {k: v for k, v in SENSE.items() if k != "time_grid"}}),
    ("run_with_every_section", "run",
     {"geometry": CHAIN,
      "scan": {"omega": GRID, "tau": GRID},
      "verify": VERIFY, "sense": SENSE}),
    ("verify_with_geometry", "verify", {"geometry": CHAIN6, "verify": VERIFY}),
]

_SPECIES_BAD = [
    5,
    {"omega": "x", "g_vectors": [[1.0, 2.0, 3.0]], "preparation": "weird"},
    {"omega": 1.0, "g_vectors": [[1.0, 0.0, 0.0]], "preparation": "paired"},
    {"omega": 1.0, "g_vectors": [[1.0, 0.0]]},
]

INVALID = [
    ("collects_every_error", "run",
     {"seed": -1, "extras": {}, "geometry": {"kind": "ring"},
      "protocol": {"tau": -2.0, "measurements": 0}, "engine": {"name": "gpu"}}),
    ("dense_limit_conflict", "run",
     {"geometry": {"kind": "chain", "n": 13, "spacing": 1.0, "z0": 5.0}}),
    ("scan_section_missing", "scan", {"geometry": CHAIN}),
    ("amplitude_norm", "run",
     {"geometry": CHAIN, "protocol": {"alpha": 0.6, "beta": 0.6}}),
    ("chain_n_zero", "run", {"geometry": {"kind": "chain", "n": 0}}),
    ("seed_bool", "run", {"seed": True, "geometry": CHAIN}),
    ("seed_float", "run", {"seed": 1.5, "geometry": CHAIN}),
    ("geometry_missing", "run", {}),
    ("geometry_missing_scan", "scan", {"scan": {"omega": GRID, "tau": GRID}}),
    ("geometry_not_mapping", "run", {"geometry": 5}),
    ("chain_bad_values", "run",
     {"geometry": {"kind": "chain", "n": 2.0, "spacing": -1, "z0": "x",
                   "x0": [1]}}),
    ("dimer_bad_values", "run",
     {"geometry": {"kind": "dimer_chain", "n_pairs": 0, "pair_spacing": 0,
                   "dimer_gap": -1.0, "z0": 1.0}}),
    ("plane_bad_box", "run",
     {"geometry": {"kind": "plane", "n": 3, "box": [0, 1, 2], "z0": 1.0,
                   "seed": -1}}),
    ("plane_empty_box", "run",
     {"geometry": {"kind": "plane", "n": 3, "box": [1, 0, 0, 1], "z0": 1.0,
                   "seed": 0}}),
    ("explicit_bad_rows", "run",
     {"geometry": {"kind": "explicit", "g_vectors": [[1.0, 2.0]]}}),
    ("explicit_empty", "run", {"geometry": {"kind": "explicit", "g_vectors": []}}),
    ("coupling_bad", "run", {"geometry": CHAIN, "coupling": {"prefactor": 0}}),
    ("coupling_not_mapping", "run", {"geometry": CHAIN, "coupling": [1.0]}),
    ("protocol_bad_values", "run",
     {"geometry": CHAIN,
      "protocol": {"omega": "fast", "tau": 0, "units": "si",
                   "measurements": 1.5, "dephasing_rate": -0.1,
                   "readout_time": 0}}),
    ("protocol_negative_omega", "run",
     {"geometry": CHAIN, "protocol": {"omega": -1.0, "readout_time": "x"}}),
    ("amplitude_bad", "run",
     {"geometry": CHAIN, "protocol": {"alpha": "x", "beta": [1, 2, 3]}}),
    ("protocol_measurements_null", "run",
     {"geometry": CHAIN, "protocol": {"measurements": None}}),
    ("engine_bad_values", "run",
     {"geometry": CHAIN,
      "engine": {"name": "gpu", "dense_limit": 0, "branch_cap": 1,
                 "samples": 0, "sample_basis": "x", "initial_state": "y",
                 "purity_pairs": 0}}),
    ("engine_not_mapping", "run", {"geometry": CHAIN, "engine": "factored"}),
    ("scan_grids_missing", "scan", {"geometry": CHAIN, "scan": {}}),
    ("scan_grid_bad", "scan",
     {"geometry": CHAIN,
      "scan": {"omega": {"start": 1.0, "stop": -1.0, "points": 0},
               "tau": 5, "measurements": 0}}),
    ("scan_grid_reversed", "scan",
     {"geometry": CHAIN,
      "scan": {"omega": {"start": 2.0, "stop": 1.0, "points": 3}, "tau": GRID}}),
    ("scan_not_mapping", "scan", {"geometry": CHAIN, "scan": [1]}),
    ("verify_missing", "verify", {}),
    ("verify_fields_missing", "verify", {"verify": {}}),
    ("verify_bad_values", "verify",
     {"verify": {"g1": "a", "g2": 1.0, "omega": 0.0, "m_max": 0, "tau_v": -1.0,
                 "threshold": 1.5, "preparations": ["bogus"]}}),
    ("verify_preparations_empty", "verify",
     {"verify": _with(VERIFY, preparations=[])}),
    ("sense_missing", "sense", {}),
    ("sense_species_empty", "sense", {"sense": _with(SENSE, species=[])}),
    ("sense_species_bad", "sense", {"sense": _with(SENSE, species=_SPECIES_BAD)}),
    ("sense_bad_values", "sense",
     {"sense": _with(SENSE, m=0, omega="x",
                     tau_grid={"start": 0.0, "stop": 1.0, "points": 2},
                     time_grid="x")}),
    # inputs whose outcome changes on purpose (see CHANGED)
    ("geometry_null_run", "run", {"geometry": None}),
    ("geometry_null_scan", "scan",
     {"geometry": None, "scan": {"omega": GRID, "tau": GRID}}),
    ("verify_null", "verify", {"verify": None}),
    ("sense_null", "sense", {"sense": None}),
    ("sense_time_grid_null", "sense", {"sense": _with(SENSE, time_grid=None)}),
    ("protocol_tau_nan", "run",
     {"geometry": CHAIN, "protocol": {"tau": float("nan")}}),
    ("verify_g1_inf", "verify", {"verify": _with(VERIFY, g1=float("inf"))}),
    ("explicit_inf_row", "run",
     {"geometry": {"kind": "explicit", "g_vectors": [[float("inf"), 0.0, 0.0]]}}),
    ("protocol_unknown_key", "run",
     {"geometry": CHAIN, "protocol": {"measurments": 5}}),
    ("geometry_unknown_key", "run", {"geometry": dict(CHAIN, n_pairs=2)}),
    ("species_unknown_key", "sense",
     {"sense": _with(SENSE, species=[dict(SENSE["species"][0], spin=1)])}),
    ("grid_unknown_key", "scan",
     {"geometry": CHAIN, "scan": {"omega": dict(GRID, step=0.1), "tau": GRID}}),
    ("alpha_null", "run", {"geometry": CHAIN, "protocol": {"alpha": None}}),
    ("threshold_null", "verify", {"verify": _with(VERIFY, threshold=None)}),
    ("sense_everything_missing", "sense", {"sense": {}}),
    ("scan_dense_limit_other_engine", "scan",
     {"geometry": {"kind": "chain", "n": 16, "spacing": 1.0, "z0": 5.0},
      "scan": {"omega": GRID, "tau": GRID}, "engine": {"name": "factored"}}),
    ("sense_time_grid_negative", "sense",
     {"sense": _with(SENSE, time_grid={"start": -0.5, "stop": 1.0, "points": 5})}),
    ("sense_epsilon_equals_omega", "sense",
     {"sense": _with(PERF_SENSE, omega=1.0, epsilon=1.0)}),
    ("sense_epsilon_equals_minus_omega", "sense",
     {"sense": _with(PERF_SENSE, omega=10.0, epsilon=-10.0)}),
]

CASES = VALID + INVALID

# name -> sorted dotted error paths now expected, or "valid"; each entry is
# a deliberate change against the golden record, listed in CHANGES.md
CHANGED = {
    # a null required section is reported instead of crashing the command
    "geometry_null_run": ["geometry"],
    "geometry_null_scan": ["geometry"],
    "verify_null": ["verify"],
    "sense_null": ["sense"],
    # a null time_grid means no coherence trace, as a missing one does
    "sense_time_grid_null": "valid",
    # only finite numbers are accepted
    "protocol_tau_nan": ["protocol.tau"],
    "verify_g1_inf": ["verify.g1"],
    "explicit_inf_row": ["geometry.g_vectors"],
    # unknown keys inside sections are reported
    "protocol_unknown_key": ["protocol.measurments"],
    "geometry_unknown_key": ["geometry.n_pairs"],
    "species_unknown_key": ["sense.species[0].spin"],
    "grid_unknown_key": ["scan.omega.step"],
    # null is accepted only where the default is null
    "alpha_null": ["protocol.alpha"],
    "threshold_null": ["verify.threshold"],
    # a problem is reported once, and a rule spanning fields is skipped
    # when one of its fields is already reported
    "scan_grid_bad": ["scan.measurements", "scan.omega.points",
                      "scan.omega.stop", "scan.tau"],
    "engine_bad_values": ["engine.branch_cap", "engine.dense_limit",
                          "engine.initial_state", "engine.name",
                          "engine.purity_pairs", "engine.sample_basis",
                          "engine.samples"],
    "scan_not_mapping": ["scan"],
    # sections after a bad species list are checked too
    "sense_everything_missing": ["sense.species", "sense.tau_grid"],
    # scan runs the dense engine whatever engine.name says
    "scan_dense_limit_other_engine": ["engine.dense_limit"],
    # engine.branch_cap is gone: the memory check bounds the branch count
    "capacity": ["engine.branch_cap"],
    "engine_every_key": ["engine.branch_cap"],
    # coherence times must be >= 0, as the propagators require
    "sense_time_grid_negative": ["sense.time_grid.start"],
    # both side resonances pi/(4(omega +- epsilon)) must exist
    "sense_epsilon_equals_omega": ["sense.epsilon"],
    "sense_epsilon_equals_minus_omega": ["sense.epsilon"],
}

# keys removed from the schema since the golden record; a valid record is
# compared without them, in its config and in its yaml text
REMOVED_KEYS = (("engine", "branch_cap"),)


def outcome(command: str, raw: dict) -> dict:
    """The golden-file record of validating raw for command."""
    try:
        cfg = validate_config(copy.deepcopy(raw), command)
    except ConfigError as exc:
        lines = str(exc).splitlines()[1:]
        return {"errors": sorted(line.strip().split(": ", 1)[0] for line in lines)}
    return {"config": cfg, "yaml": yaml.safe_dump(cfg, sort_keys=False)}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def _without_removed_keys(record: dict) -> dict:
    cfg = copy.deepcopy(record["config"])
    text = record["yaml"]
    for section, key in REMOVED_KEYS:
        if key in cfg.get(section, {}):
            text = text.replace(f"  {key}: {cfg[section].pop(key)}\n", "", 1)
    return {"config": cfg, "yaml": text}


def test_corpus_names_are_unique_and_recorded():
    names = [name for name, _, _ in CASES]
    assert len(names) == len(set(names))
    assert set(_golden()) == set(names)
    assert set(CHANGED) <= set(names)


@pytest.mark.parametrize("name,command,raw", CASES, ids=[c[0] for c in CASES])
def test_golden(name, command, raw):
    got = outcome(command, raw)
    if name in CHANGED:
        want = CHANGED[name]
        if want == "valid":
            assert "config" in got, got
        else:
            assert got == {"errors": want}
        return
    want = _golden()[name]
    if "errors" in want:
        assert got == want
    else:
        want = _without_removed_keys(want)
        assert got["config"] == want["config"]
        assert got["yaml"] == want["yaml"]


if __name__ == "__main__":
    json.dump({name: outcome(command, raw) for name, command, raw in CASES},
              sys.stdout, indent=1)
    sys.stdout.write("\n")
