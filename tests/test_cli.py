import contextlib
import csv
import io
import json
import math
import os
import signal
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twophase import acceptance, geometry as geo, wkb
from twophase.cli import _RUNNERS, build_parser, main

#: the keys of every manifest
MANIFEST_KEYS = {"tool", "version", "subcommand", "config", "outputs"}


def _manifest(outdir):
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert set(manifest) == MANIFEST_KEYS
    return manifest


def _read_csv(path):
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [dict(zip(header, row)) for row in reader]
    return header, rows


def test_kernel1d_default_run(tmp_path):
    rc = main(["kernel1d", "--out", str(tmp_path)])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "kernel1d.csv")
    assert header == ["x1", "t", "u_quadrature", "u_closed_form", "abs_diff"]
    for row in rows:
        assert abs(float(row["u_quadrature"]) - 2.0 / 3.0) < 1e-10
        assert float(row["abs_diff"]) < 1e-10
    manifest = _manifest(tmp_path)
    assert manifest["tool"] == "twophase"
    assert manifest["subcommand"] == "kernel1d"


def test_kernel1d_custom_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "medium": {"sigma_s": 4.0, "sigma_m": 1.0},
        "x1": [0.0],
        "t": [0.5, 2.0],
    }))
    rc = main(["kernel1d", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    _, rows = _read_csv(tmp_path / "kernel1d.csv")
    for row in rows:
        assert abs(float(row["u_closed_form"]) - 1.0 / 3.0) < 1e-12


def test_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"no_such_option": 1}))
    assert main(["kernel1d", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_malformed_json_rejected(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert main(["kernel1d", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_config_root_must_be_object(tmp_path):
    cfg = tmp_path / "list.json"
    cfg.write_text("[1, 2]")
    assert main(["kernel1d", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_helicoid_seeded_runs_are_byte_identical(tmp_path):
    cfg = tmp_path / "cfg.json"
    # more samples than one 2^18 batch, so --jobs 2 runs the thread pool
    cfg.write_text(json.dumps({"n_samples": 300000, "symmetry_samples": 2000,
                               "t_values": [1.0], "r_values": [1.0]}))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["helicoid", "--config", str(cfg), "--seed", "7",
                 "--jobs", "1", "--out", str(out1)]) == 0
    assert main(["helicoid", "--config", str(cfg), "--seed", "7",
                 "--jobs", "2", "--out", str(out2)]) == 0
    for name in ("helicoid.json", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert _manifest(out1)["config"]["seed"] == 7
    records = json.loads((out1 / "helicoid.json").read_text())
    assert all(set(r) >= {"test", "estimate", "stderr", "n", "seed", "pass"}
               for r in records)


@pytest.mark.parametrize("command", [
    "kernel1d", "simulate", "transform", "wkb", "extract-curvature", "all"])
def test_seed_is_a_config_error_where_nothing_is_seeded(tmp_path, command):
    assert main([command, "--seed", "3", "--out", str(tmp_path)]) == 2


def test_maxprinciple_seed_overrides_the_config_seed(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 3, "n": 8, "seed": 11}))
    assert main(["maxprinciple", "--config", str(cfg), "--seed", "5",
                 "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "maxprinciple.json").read_text())["seed"] == 5
    assert _manifest(tmp_path)["config"]["seed"] == 5


def test_default_maxprinciple_is_the_gate_check(tmp_path):
    assert main(["maxprinciple", "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "maxprinciple.json").read_text())
    _, gate = acceptance.criterion_max_principle(jobs=1)
    assert rep["min_value"] == gate["positivity"]["min_value"]
    assert rep["lambda0_counterexample"] == gate["counterexample"]
    assert _manifest(tmp_path)["config"]["seed"] == 99


def test_default_helicoid_is_the_gate_check(tmp_path):
    assert main(["helicoid", "--jobs", "2", "--out", str(tmp_path)]) == 0
    records = json.loads((tmp_path / "helicoid.json").read_text())
    gate = acceptance.criterion_helicoid_half(jobs=2)[1]["records"]
    assert len(records) == 10
    assert records == gate
    _manifest(tmp_path)


def test_default_extract_curvature_is_the_gate_sphere(tmp_path):
    assert main(["extract-curvature", "--out", str(tmp_path)]) == 0
    _, rows = _read_csv(tmp_path / "extract_curvature.csv")
    _, gate = acceptance.criterion_mean_curvature(jobs=1)
    assert float(rows[0]["sigma_kappa_estimate"]) == gate["sphere"]
    assert len(rows) == 49
    _manifest(tmp_path)


def test_all_is_byte_identical_across_jobs(tmp_path):
    # the two criteria that farm out work (MC batches and max-principle
    # trials), and two whose details are floats from the shared engines
    names = ["mean-curvature-extraction", "barrier-sandwich",
             "helicoid-half-value", "maximum-principle"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"criteria": names}))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["all", "--config", str(cfg), "--jobs", "1",
                 "--out", str(out1)]) == 0
    assert main(["all", "--config", str(cfg), "--jobs", "2",
                 "--out", str(out2)]) == 0
    for name in ("acceptance.json", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    records = json.loads((out1 / "acceptance.json").read_text())
    assert [r["name"] for r in records] == names


def test_extract_curvature_sphere(tmp_path):
    rc = main(["extract-curvature", "--out", str(tmp_path)])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "extract_curvature.csv")
    assert header == ["lambda", "normal_derivative", "detrended",
                      "fit_constant", "sigma_kappa_estimate"]
    estimate = float(rows[0]["sigma_kappa_estimate"])
    assert abs(estimate - 2.0) < 0.02


def test_maxprinciple_json_report(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 10, "n": 16}))
    rc = main(["maxprinciple", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    rep = json.loads((tmp_path / "maxprinciple.json").read_text())
    assert rep["trials"] == 10
    assert rep["min_value"] >= -1e-10
    assert rep["lambda0_counterexample"]["min_interior"] < -0.4


@pytest.mark.parametrize("command, config, message", [
    ("helicoid", {"n_samples": 0}, "n_samples must be a positive integer"),
    ("helicoid", {"n_samples": 1.5}, "n_samples must be a positive integer"),
    ("helicoid", {"n_samples": 1000, "symmetry_samples": 0},
     "symmetry_samples must be a positive integer"),
    ("maxprinciple", {"trials": 0}, "trials must be a positive integer"),
    ("maxprinciple", {"trials": 2, "n": 0}, "n must be a positive integer"),
], ids=["n_samples-0", "n_samples-1.5", "symmetry_samples-0", "trials-0",
        "n-0"])
def test_counts_that_do_no_work_are_numeric_failures(tmp_path, capsys,
                                                     command, config, message):
    # a count that would check nothing, or be truncated, is out of domain:
    # the config schema rejects it before any work, with the library's
    # wording (tests/test_helicoid.py and test_elliptic.py hold the library
    # to its own check)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not out.exists()


def test_maxprinciple_accepts_and_ignores_jobs(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 4, "n": 8}))
    reports = []
    for jobs in ("1", "2"):
        out = tmp_path / jobs
        assert main(["maxprinciple", "--config", str(cfg), "--jobs", jobs,
                     "--out", str(out)]) == 0
        reports.append((out / "maxprinciple.json").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("command", ["helicoid", "all", "maxprinciple"])
def test_jobs_below_one_is_a_config_error(tmp_path, capsys, command, jobs):
    # rejected, not clamped to one thread, and before anything is written
    out = tmp_path / "out"
    assert main([command, "--jobs", jobs, "--out", str(out)]) == 2
    assert f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err
    assert not out.exists()


def test_jobs_defaults_to_one_where_the_cpu_count_is_unknown(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert build_parser().parse_args(["all"]).jobs == 1


def test_wkb_ray_table(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"surface": {"variant": "cylinder", "R": 2.0},
                               "order": 1, "n_points": 9}))
    rc = main(["wkb", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "wkb.csv")
    assert header[:2] == ["tau", "A0"]
    # the surface row is read from the tables, like every other row
    assert float(rows[0]["A0"]) == 1.0
    assert abs(float(rows[0]["A1_plus"])) <= 1e-12


def _check_residual_column(tmp_path, surf, spec, side, q, order):
    """Each wkb.csv residual equals the maximum of the per-point identity
    residuals over j <= order."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"surface": spec, "side": side, "q": q,
                               "order": order}))
    assert main(["wkb", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    _, rows = _read_csv(tmp_path / "wkb.csv")
    eng = wkb.coefficient_engine(surf, side)
    checked = 0
    for row in rows:
        res = float(row["residual_max"])
        if math.isnan(res):
            continue
        p = eng.ray_points(q, np.array([float(row["tau"])]))[0]
        assert res == max(wkb.gradient_identity_residual(surf, j, p, side=side)[0]
                          for j in range(order + 1))
        checked += 1
    assert checked == 31


def test_wkb_residual_column_equals_the_per_point_calls(tmp_path):
    _check_residual_column(tmp_path, geo.Catenoid(c=1.0),
                           {"variant": "catenoid", "c": 1.0}, 1, 0.27, 2)


def test_wkb_order_three_checks_the_top_coefficient(tmp_path):
    # one past the minimal surfaces' table order: A_3 is tabulated and checked
    assert wkb.coefficient_engine(geo.Helicoid(), -1).table_order == 2
    _check_residual_column(tmp_path, geo.Helicoid(), {"variant": "helicoid"},
                           -1, 0.3, 3)


def test_simulate_and_transform(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"t_grid": [0.01, 0.1], "h_fine": 5e-3}))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    _, rows = _read_csv(tmp_path / "simulate.csv")
    assert all(abs(float(r["u"]) - 2.0 / 3.0) < 1e-4 for r in rows)

    cfg2 = tmp_path / "tr.json"
    cfg2.write_text(json.dumps({"lambdas": [100.0], "probes": [0.0, 0.2],
                                "t_end": 0.3, "h_fine": 2e-3}))
    assert main(["transform", "--config", str(cfg2), "--out", str(tmp_path)]) == 0
    _, rows = _read_csv(tmp_path / "transform.csv")
    assert all(float(r["diff"]) < 1e-3 for r in rows)


@pytest.mark.parametrize("command, bad", [
    ("simulate", ["Interface", True, "0.2", None, [0.1]]),
    ("transform", ["x", "interface", False, "0.2", None, [0.1]]),
])
def test_a_probe_that_is_not_a_number_is_a_config_error(tmp_path, command,
                                                         bad):
    # simulate alone reads "interface"; bools and numeric strings are not
    # JSON numbers
    cfg = tmp_path / "cfg.json"
    for probes in [[0.0, probe] for probe in bad] + [0.0]:
        cfg.write_text(json.dumps({"probes": probes}))
        code = main([command, "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2, probes


def test_unknown_surface_variant(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"surface": {"variant": "torus"}}))
    assert main(["wkb", "--config", str(cfg), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("command, config", [
    ("simulate", {"kind": "torus"}),
    ("extract-curvature", {"geometry": {"kind": "torus", "R": 1.0, "N": 3}}),
])
def test_unknown_kind_is_a_config_error(tmp_path, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_all_subcommand_runs_selected_criteria(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"criteria": ["interface-constant-1d", "maximum-principle"]}))
    rc = main(["all", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2
    report = json.loads((tmp_path / "acceptance.json").read_text())
    assert len(report) == 2
    assert all(r["pass"] for r in report)


def test_tolerance_scale_flag_is_gone(tmp_path):
    # the gate's tolerances are pinned; argparse rejects the old knob
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"criteria": ["interface-constant-1d"]}))
    with pytest.raises(SystemExit) as exc:
        main(["all", "--tolerance-scale", "2", "--config", str(cfg),
              "--out", str(tmp_path)])
    assert exc.value.code == 2


# -- the config schema: every bad value is caught before any work -----------

@pytest.mark.parametrize("command, config, argv", [
    ("simulate", {"h_fine": 0}, []),
    ("simulate", {"t_start": 0}, []),
    ("kernel1d", {"x1": "x"}, []),
    ("kernel1d", {"t": []}, []),
    ("transform", {"lambdas": None}, []),
    ("maxprinciple", {"lam": "x"}, []),
    ("maxprinciple", {"counterexample": "no"}, []),
    ("maxprinciple", {}, ["--seed", "-1"]),
    ("helicoid", {}, ["--seed", "-1"]),
    ("helicoid", {"seed": 7.9}, []),
    ("extract-curvature", {"lambda_range": [0, 1e6]}, []),
    ("extract-curvature", {"per_decade": 0}, []),
    ("wkb", {"order": 1.5}, []),
    ("wkb", {"side": 1.5}, []),
    ("wkb", {"n_points": 0}, []),
    ("all", {"criteria": []}, []),
    ("simulate", {"R": 2.0}, []),
    ("extract-curvature", {"geometry": {"kind": "plane", "R": 2.0}}, []),
    ("wkb", {"surface": {"variant": "catenoid", "R": 1.0}}, []),
    ("kernel1d", {"medium": {"sigma_s": True}}, []),
    ("maxprinciple", [1, 2], ["--seed", "3"]),
    ("wkb", {"q": 1.5}, []),
    ("wkb", {"surface": {"variant": "cylinder", "N": 2}}, []),
    ("wkb", {"surface": {"variant": "sphere", "N": 1}}, []),
    ("wkb", {"surface": {"variant": "catenoid", "c": -1.0}}, []),
    ("extract-curvature", {"geometry": {"kind": "sphere", "N": 1}}, []),
    ("simulate", {"kind": "sphere", "R": -1.0}, []),
    ("wkb", {"surface": {"variant": "hyperplane"}}, []),
    ("wkb", {"order": 6}, []),
    ("wkb", {"surface": {"variant": "helicoid"}, "order": 4}, []),
    ("wkb", {"surface": {"variant": "helicoid"}, "q": 0.9}, []),
], ids=lambda v: json.dumps(v) if isinstance(v, dict) else None)
def test_a_value_of_the_wrong_kind_is_a_config_error(tmp_path, capsys,
                                                     command, config, argv):
    # each of these used to hang, end in a traceback, run something other
    # than what was asked, or fail only after the output directory was made;
    # a key the chosen surface does not read, a value the surface rejects
    # and a wkb ray past the tables are errors
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out),
                 *argv]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


#: the q box's edge, 0.8 c + 8 (1.6 c) / 220, at c = 1 and c = 2.5
EDGE_1, EDGE_25 = 0.8581818181818183, 2.1454545454545455


@pytest.mark.parametrize("config", [
    {"surface": {"variant": "plane"}, "order": 5},
    {"surface": {"variant": "helicoid"}, "order": 3, "q": -0.85},
    *({"surface": surface, "order": 3, "q": q} for surface, edge in (
        ({"variant": "helicoid"}, EDGE_1),
        ({"variant": "catenoid", "c": 1.0}, EDGE_1),
        ({"variant": "catenoid", "c": 2.5}, EDGE_25)) for q in (edge, -edge)),
    {"surface": {"variant": "catenoid", "c": 2.5}, "order": 3, "q": EDGE_25,
     "side": 1}])
def test_wkb_reads_up_to_the_edge_of_the_tables(tmp_path, config):
    # one order past the table order, and footpoints inside the q box and
    # on its edges, where the projection returns q to within an ulp
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**config, "n_points": 5}))
    assert main(["wkb", "--config", str(cfg), "--out", str(tmp_path)]) == 0


def test_a_radial_wkb_surface_takes_q_at_its_default(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": 0.0}))
    assert main(["wkb", "--config", str(cfg), "--out", str(tmp_path)]) == 0


def test_an_output_path_that_is_a_file_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    out.write_text("")
    assert main(["kernel1d", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_config_errors_name_the_key_and_its_kind(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"order": 1.5}))
    assert main(["wkb", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "config error: order must be a positive integer, got 1.5\n")


def test_nested_objects_are_merged_over_their_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"surface": {"variant": "cylinder"},
                               "n_points": 5.0}))
    assert main(["wkb", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    config = _manifest(tmp_path)["config"]
    assert config["surface"] == {"variant": "cylinder", "R": 1.0, "N": 3}
    assert config["n_points"] == 5
    cfg.write_text(json.dumps({"medium": {"sigma_m": 9.0}, "x1": [0.0],
                               "t": [1.0]}))
    assert main(["kernel1d", "--config", str(cfg), "--out",
                 str(tmp_path)]) == 0
    assert _manifest(tmp_path)["config"]["medium"] == {"sigma_s": 1.0,
                                                       "sigma_m": 9.0}


#: small configs, so that no drawn value can make a valid run long
SMALL = {
    "kernel1d": {"x1": [0.0], "t": [1.0]},
    "simulate": {"t_grid": [0.01], "h_fine": 0.01},
    "transform": {"lambdas": [100.0], "probes": [0.0], "t_end": 0.3,
                  "h_fine": 0.01},
    "wkb": {"n_points": 5},
    "extract-curvature": {"lambda_range": [1e2, 1e4], "per_decade": 4},
    "maxprinciple": {"trials": 2, "n": 8, "counterexample": False},
    "helicoid": {"n_samples": 1000, "symmetry_samples": 100,
                 "t_values": [1.0], "r_values": [1.0]},
}
JUNK = [0, -1, 1.5, "x", None, [], {}, True]


class _Hang(Exception):
    pass


def _run_bounded(argv, seconds):
    """main(argv) with stdout and stderr captured, failing after `seconds`."""
    def expire(*_):
        raise _Hang(f"{argv} ran past {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


#: (subcommand, key, value): every key of the seven, each drawn value alone
#: and in a one-element list
BAD_KEYS = [(command, key, value) for command in sorted(SMALL)
            for key in sorted(_RUNNERS[command][1])
            for value in JUNK + [[v] for v in JUNK]]


@given(st.sampled_from(BAD_KEYS))
@settings(max_examples=len(BAD_KEYS), deadline=None, derandomize=True)
def test_any_one_bad_key_ends_in_an_exit_code(case):
    # 0, 1 or 2 and no exception; an exit 2 writes nothing
    command, key, value = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "out")
        with open(cfg, "w") as fh:
            json.dump({**SMALL[command], key: value}, fh)
        code = _run_bounded([command, "--config", cfg, "--out", out,
                             "--jobs", "1"], 10.0)
        assert code in (0, 1, 2)
        if code == 2:
            assert not os.path.exists(out)


@pytest.mark.parametrize("criteria", [
    0, -1, 1.5, "x", [], {}, True, ["x"], [0], [None], [[]],
    ["interface-constant-1d", "no-such-criterion"]], ids=json.dumps)
def test_criteria_must_name_known_criteria(tmp_path, capsys, criteria):
    # null, the default, runs the whole gate; test_acceptance covers it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"criteria": criteria}))
    out = tmp_path / "out"
    assert main(["all", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: criteria must ")
    assert not out.exists()
