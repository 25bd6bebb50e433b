"""CLI contract: sweep parsing, CSV determinism, exit codes, validate report."""

from __future__ import annotations

import csv
import dataclasses
import io
import json

import pytest
from click.testing import CliRunner

from tiernet.cli import SweepSpec, SweepVar, main, parse_sweep
from tiernet.linkmodel import SystemParams
from tiernet.sensing import max_sensing_range


@pytest.fixture()
def runner():
    return CliRunner()


SIM = ["simulate", "--drops", "2", "--fades", "2"]


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(payload)
    return str(path)


# ---------------------------------------------------------------------------
# sweep parsing


def test_parse_sweep_round_trip():
    spec = parse_sweep("D:0.2:1.0:5")
    assert spec == SweepSpec(variable=SweepVar.D, start=0.2, stop=1.0, steps=5)
    vals = spec.values()
    assert len(vals) == 5
    assert vals[0] == pytest.approx(0.2)
    assert vals[-1] == pytest.approx(1.0)


@pytest.mark.parametrize(
    "text",
    ["D:0.2:1.0", "D:1.0:0.2:5", "D:0.2:1.0:1", "Bogus:0:1:4", "D:a:b:4", "D:0:1:x"],
)
def test_parse_sweep_rejects(text):
    with pytest.raises(Exception):
        parse_sweep(text)


@pytest.mark.parametrize(
    "args",
    [
        ["analytic", "--sweep", "D:0.1:1.0:8"],
        ["simulate", "--sweep", "D:0.2:1.0:12", "--drops", "2", "--fades", "2"],
    ],
)
def test_sweep_ends_exactly_at_stop(runner, args):
    """start + 7·h and start + 11·h overshoot 1.0 by one ulp on these two
    sweeps; the last point is stop itself, and D = 1 is in range."""
    spec = parse_sweep(args[2])
    h = (spec.stop - spec.start) / (spec.steps - 1)
    assert spec.start + (spec.steps - 1) * h > 1.0
    vals = spec.values()
    assert vals[-1] == 1.0
    assert vals[:-1] == [spec.start + i * h for i in range(spec.steps - 1)]
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    rows = list(csv.DictReader(io.StringIO(res.stdout)))
    assert len(rows) == spec.steps
    assert float(rows[-1]["d_norm"]) == 1.0


# ---------------------------------------------------------------------------
# analytic / sensing CSV


def test_analytic_sweep_stdout(runner):
    res = runner.invoke(main, ["analytic", "--sweep", "D:0.2:1.0:5"])
    assert res.exit_code == 0
    lines = res.output.strip().split("\n")
    assert len(lines) == 6
    assert lines[0].startswith("variable,value,d_norm")
    assert lines[1].split(",")[0] == "D"


def test_analytic_csv_byte_identical(runner, tmp_path):
    args = ["analytic", "--sweep", "PcOverPfDb:0:30:7", "--out"]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert runner.invoke(main, args + [str(out_a)]).exit_code == 0
    assert runner.invoke(main, args + [str(out_b)]).exit_code == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_sensing_sweep_emits_frozen_cell_edge_row(runner):
    res = runner.invoke(main, ["sensing", "--sweep", "D:0.5:1.0:2"])
    assert res.exit_code == 0
    rows = [line.split(",") for line in res.output.strip().split("\n")]
    header, edge = rows[0], rows[-1]
    at = {name: edge[i] for i, name in enumerate(header)}
    assert at["d_sense_m"] == "161.810506715"  # 12 significant digits
    assert float(at["pc_over_pf_lb_db"]) == pytest.approx(37.7161749754, abs=1e-6)
    assert float(at["pc_over_pf_ub_db"]) == pytest.approx(57.2650912002, abs=1e-6)
    assert float(at["max_range_m"]) == pytest.approx(544.280045542, abs=1e-3)


@pytest.mark.parametrize(
    "sweep, params",
    [
        ("PcOverPfDb:10:30:5",
         lambda p, v: dataclasses.replace(p, p_c_dbm=p.p_f_dbm + v)),
        ("TfUf:1:4:4", lambda p, v: dataclasses.replace(p, t_f=round(v))),
    ],
    ids=["PcOverPfDb", "TfUf"],
)
def test_sensing_max_range_follows_swept_parameters(runner, sweep, params):
    """A sweep that moves the pilot budget or the branch count moves the
    sensing range: no row may repeat the range of another operating point."""
    res = runner.invoke(main, ["sensing", "--sweep", sweep])
    assert res.exit_code == 0
    rows = list(csv.DictReader(io.StringIO(res.output)))
    assert len(rows) == int(sweep.split(":")[-1])
    p = SystemParams()
    for row in rows:
        p2 = params(p, float(row["value"]))
        want = max_sensing_range(int(row["m_tw"]), 0.9, 0.1, p2)
        assert float(row["max_range_m"]) == pytest.approx(want, rel=1e-10)
    assert len({row["max_range_m"] for row in rows}) == len(rows)


def test_sensing_alpha_fo_sweep_repeats_one_range(runner):
    """The range depends on the pilot budget and the detector, not on the
    femto-tier exponent: every AlphaFo row prints the default range."""
    res = runner.invoke(main, ["sensing", "--sweep", "AlphaFo:2.5:4.5:5"])
    assert res.exit_code == 0
    rows = list(csv.DictReader(io.StringIO(res.output)))
    assert len(rows) == 5
    want = max_sensing_range(500, 0.9, 0.1, SystemParams())
    assert {float(row["max_range_m"]) for row in rows} == {float(f"{want:.12g}")}


def test_sensing_infeasible_window_reported_as_nan(runner, tmp_path):
    # dense enough that the power window closes: rows survive with nan bounds
    cfg = _write(tmp_path, "dense.json", '{"scenario": {"n_f_target": 2000.0}}')
    res = runner.invoke(main, ["sensing", "--config", cfg, "--sweep", "D:0.5:1.0:2"])
    assert res.exit_code == 0
    row = res.output.strip().split("\n")[1].split(",")
    header = res.output.split("\n")[0].split(",")
    assert row[header.index("pc_over_pf_lb_db")] == "nan"
    assert row[header.index("d_sense_m")] != "nan"


# ---------------------------------------------------------------------------
# simulate


def test_simulate_byte_identical(runner, tmp_path):
    args = [
        "simulate", "--seed", "11", "--drops", "20", "--fades", "40",
        "--sweep", "D:0.4:0.8:2", "--out",
    ]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert runner.invoke(main, args + [str(out_a)]).exit_code == 0
    assert runner.invoke(main, args + [str(out_b)]).exit_code == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    lines = out_a.read_text().strip().split("\n")
    assert len(lines) == 3
    assert lines[0].startswith("scenario,d_norm,lambda_f")


def test_simulate_mode_override(runner):
    res = runner.invoke(
        main,
        ["simulate", "--seed", "3", "--drops", "5", "--fades", "10", "--mode", "full-zf"],
    )
    assert res.exit_code == 0


def test_simulate_sweep_restricted_to_distance(runner):
    res = runner.invoke(
        main, ["simulate", "--drops", "5", "--fades", "5", "--sweep", "Mtw:100:200:2"]
    )
    assert res.exit_code == 2


# ---------------------------------------------------------------------------
# config handling and exit codes


def test_corrupt_json_exits_2(runner, tmp_path):
    cfg = _write(tmp_path, "bad.json", '{"system": {')
    res = runner.invoke(main, ["analytic", "--config", cfg, "--sweep", "D:0.2:1:3"])
    assert res.exit_code == 2
    assert "line" in res.output


def test_out_of_range_parameter_exits_2(runner, tmp_path):
    cfg = _write(tmp_path, "alpha.json", '{"system": {"alpha_fo": 2.0}}')
    res = runner.invoke(main, ["analytic", "--config", cfg, "--sweep", "D:0.2:1:3"])
    assert res.exit_code == 2
    assert "alpha_fo" in res.output


def test_unknown_config_key_exits_2(runner, tmp_path):
    cfg = _write(tmp_path, "extra.json", '{"system": {}, "scenario": {}, "x": 1}')
    res = runner.invoke(main, ["analytic", "--config", cfg, "--sweep", "D:0.2:1:3"])
    assert res.exit_code == 2


def test_missing_config_exits_2(runner, tmp_path):
    res = runner.invoke(
        main, ["analytic", "--config", str(tmp_path / "nope.json"), "--sweep", "D:0.2:1:3"]
    )
    assert res.exit_code == 2


@pytest.mark.parametrize(
    "args",
    [
        ["analytic", "--sweep", "D:0:1:3"],
        ["analytic", "--sweep", "D:0.5:1.2:3"],
        ["sensing", "--sweep", "D:0:1:3"],
        ["sensing", "--sweep", "Mtw:0:10:3"],
        ["analytic", "--sweep", "TfUf:0:2:3"],
        ["analytic", "--sweep", "AlphaFo:2:4:3"],
        ["simulate", "--sweep", "D:0.5:1.2:3", "--drops", "2", "--fades", "2"],
        ["simulate", "--drops", "0"],
        ["simulate", "--fades", "0"],
        ["analytic", "--sweep", "PcOverPfDb:0:inf:3"],
        ["sensing", "--sweep", "Mtw:100:inf:3"],
        ["analytic", "--sweep", "D:nan:1:3"],
        [*SIM, "--config", '{"scenario": {"n_f_target": NaN}}'],
        [*SIM, "--config", '{"scenario": {"n_f_target": Infinity}}'],
        [*SIM, "--config", '{"scenario": {"sensing_radius_m": NaN}}'],
        [*SIM, "--config", '{"system": {"p_c_dbm": NaN}}'],
        [*SIM, "--config", '{"system": {"r_c": 1e999}}'],
    ],
)
def test_out_of_range_input_exits_2(runner, tmp_path, args):
    """Values outside the model's range are usage errors with a one-line
    message, not a traceback with the validation-failure code. A JSON
    argument is written to a config file first."""
    args = [_write(tmp_path, "cfg.json", a) if a.startswith("{") else a for a in args]
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert "Traceback" not in res.output
    if "--config" in args:
        assert "Error: config" in res.output and "must be finite" in res.output
    else:
        assert "Error: Invalid value for" in res.output


def test_negative_user_offset_exits_2(runner, tmp_path):
    """The co-located user's offset is a distance outward from the hotspot;
    a negative one would put the user inward and must not run."""
    cfg = _write(
        tmp_path, "offset.json",
        '{"scenario": {"scenario": "ReferenceHotspot", "co_located_user_offset": -500}}',
    )
    res = runner.invoke(main, [*SIM, "--config", cfg])
    assert res.exit_code == 2, res.output
    assert "Error: config" in res.output and "co_located_user_offset" in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize(
    ("config", "field"),
    [
        ('{"system": {"t_f": 2.0}}', "t_f"),
        ('{"system": {"t_c": true}}', "t_c"),
        ('{"system": {"p_c_dbm": "43"}}', "p_c_dbm"),
        ('{"scenario": {"include_noise": "no"}}', "include_noise"),
        ('{"scenario": {"fixed_pc_over_pf_db": true}}', "fixed_pc_over_pf_db"),
        ('{"scenario": {"co_located_user_offset": false}}', "co_located_user_offset"),
    ],
)
def test_config_value_of_wrong_type_exits_2(runner, tmp_path, config, field):
    """A config value whose JSON type does not match its field (a float or
    a bool where an int belongs, a bool or a string for a float, a string
    for a bool) is a config error, not a crash or a silent conversion."""
    cfg = _write(tmp_path, "typed.json", config)
    for args in (["analytic", "--sweep", "D:0.5:1:2"], SIM):
        res = runner.invoke(main, [*args, "--config", cfg])
        assert res.exit_code == 2, res.output
        assert "Error: config" in res.output and field in res.output
        assert "Traceback" not in res.output


def test_config_numbers_of_json_int_form_accepted(runner, tmp_path):
    """A float field takes a JSON integer, and an optional one takes null."""
    cfg = _write(
        tmp_path, "ints.json",
        '{"system": {"p_c_dbm": 43}, "scenario": {"n_f_target": 60, '
        '"co_located_user_offset": null}}',
    )
    res = runner.invoke(main, [*SIM, "--config", cfg])
    assert res.exit_code == 0, res.output


def test_simulate_infeasible_sensed_density_exits_2(runner, tmp_path):
    """A density whose carrier-sensed power window is empty is a usage
    error that names the density, not a traceback."""
    cfg = _write(tmp_path, "dense.json", '{"scenario": {"n_f_target": 2000}}')
    res = runner.invoke(main, [*SIM, "--config", cfg])
    assert res.exit_code == 2, res.output
    assert "Traceback" not in res.output
    assert "n_f_target = 2000" in res.output and "lambda_f" in res.output


def test_sensed_hotspot_without_femtocells_is_fixed(runner, tmp_path):
    """With no femtocells there is no power window: the carrier-sensed
    hotspot's own femto transmits at the fixed policy's power."""
    rows = []
    for policy in ("CarrierSensedBlend", "Fixed"):
        cfg = _write(
            tmp_path, f"{policy}.json",
            '{"scenario": {"scenario": "ReferenceHotspot", "n_f_target": 0, '
            f'"power_policy": "{policy}"}}}}',
        )
        res = runner.invoke(main, [*SIM, "--config", cfg])
        assert res.exit_code == 0, res.output
        rows.append(res.output)
    assert rows[0] == rows[1]


def test_bad_sweep_usage_exits_2(runner):
    assert runner.invoke(main, ["analytic", "--sweep", "D:1.0:0.2:5"]).exit_code == 2
    assert runner.invoke(main, ["analytic", "--sweep", "D:0.2:1.0:1"]).exit_code == 2
    assert runner.invoke(main, ["analytic"]).exit_code == 2  # sweep required


def test_flat_system_config_accepted(runner, tmp_path):
    cfg = _write(tmp_path, "flat.json", '{"t_f": 4, "u_f": 2}')
    res = runner.invoke(main, ["analytic", "--config", cfg, "--sweep", "D:0.5:1:2"])
    assert res.exit_code == 0
    assert res.output.split("\n")[1].split(",")[3:5] == ["4", "2"]


# ---------------------------------------------------------------------------
# validate (full suites; the two slowest tests in this file)


def test_validate_default_config_passes(runner, tmp_path):
    """The report passes at seeds 42 and 1, and the closure outages, which
    FastChi2 computes without drawing, read the same at both."""
    closures = []
    for seed in ("42", "1"):
        report_path = tmp_path / f"report_{seed}.json"
        res = runner.invoke(main, ["validate", "--seed", seed, "--out", str(report_path)])
        assert res.exit_code == 0
        report = json.loads(report_path.read_text())
        assert report["passed"] is True
        values = {c["name"]: c["value"] for c in report["checks"]}
        assert {"ks_desired_femto", "femto_closure_outage", "cellular_closure_outage",
                "power_window_inversion_floor", "detector_cfar_threshold"} <= set(values)
        assert all(c["passed"] for c in report["checks"])
        closures.append((values["femto_closure_outage"], values["cellular_closure_outage"]))
    assert closures[0] == closures[1]


def test_validate_multiuser_marks_fail(runner, tmp_path):
    """Multi-column precoder leakage is not Gamma(U,1); the KS check on mark
    powers must catch that and flip the exit status."""
    cfg = _write(tmp_path, "mu.json", '{"system": {"t_f": 8, "u_f": 8}}')
    res = runner.invoke(main, ["validate", "--config", cfg, "--seed", "42"])
    assert res.exit_code == 1
    report = json.loads(res.output)
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "ks_marks" in failed
