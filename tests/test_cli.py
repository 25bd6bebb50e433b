"""CLI contract: sweep parsing, CSV determinism, exit codes, validate report."""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import json
import math
import os
import re
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import click
import mpmath
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tiernet import analytic, cli, sensing, simulator, specfun
from tiernet.cli import main
from tiernet.linkmodel import ChannelMode, ScenarioConfig, SystemParams
from tiernet.sensing import DETECTOR_M_TW, max_sensing_range


@pytest.fixture()
def runner():
    return CliRunner()


SIM = ["simulate", "--drops", "2", "--fades", "2"]


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(payload)
    return str(path)


def _strict_json(text):
    """json.loads that rejects NaN and Infinity, as RFC 8259 parsers do."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


# ---------------------------------------------------------------------------
# sweep parsing


def test_parse_sweep_round_trip():
    p = SystemParams()
    var, points = cli._sweep("D:0.2:1.0:5", p, ScenarioConfig(d_norm=0.5))
    assert var == "D"
    assert len(points) == 5
    assert points[0] == (pytest.approx(0.2), p, pytest.approx(0.2), DETECTOR_M_TW)
    assert points[-1] == (1.0, p, 1.0, DETECTOR_M_TW)


@pytest.mark.parametrize(
    ("sweep", "changed"),
    [
        ("PcOverPfDb:10:30:3", {"p_c_dbm": SystemParams().p_f_dbm + 30.0}),
        ("AlphaFo:3:4:3", {"alpha_fo": 4.0}),
        ("TfUf:1:4:4", {"t_f": 4}),
        ("Mtw:100:300.6:3", {}),
    ],
)
def test_sweep_points_carry_the_swept_parameter(sweep, changed):
    """Each point holds the parameters at its value: only D moves the
    location, only Mtw the detector, and the others a system field."""
    p = SystemParams()
    var, points = cli._sweep(sweep, p, ScenarioConfig(d_norm=0.5))
    assert var == sweep.split(":")[0]
    value, p2, d_norm, m_tw = points[-1]
    assert p2 == dataclasses.replace(p, **changed)
    assert d_norm == 0.5
    assert m_tw == (round(value) if var == "Mtw" else DETECTOR_M_TW)


@pytest.mark.parametrize(
    "text",
    ["D:0.2:1.0", "D:1.0:0.2:5", "D:0.2:1.0:1", "Bogus:0:1:4", "D:a:b:4", "D:0:1:x",
     "D:0:1:3", "Mtw:0:10:3"],
)
def test_parse_sweep_rejects(text):
    with pytest.raises(click.BadParameter):
        cli._sweep(text, SystemParams(), ScenarioConfig(d_norm=0.5))


@pytest.mark.parametrize(
    "args",
    [
        ["analytic", "--sweep", "D:0.1:1.0:8"],
        ["simulate", "--sweep", "D:0.2:1.0:12", "--drops", "2", "--fades", "2"],
    ],
)
def test_sweep_ends_exactly_at_stop(runner, args):
    """start + 7·h and start + 11·h overshoot 1.0 by one ulp on these two
    sweeps in floats; the last point is stop itself, and D = 1 is in
    range. Each interior point is the float nearest its exact decimal
    value, start + i·(stop − start)/(steps − 1)."""
    _, start_text, stop_text, steps_text = args[2].split(":")
    start, stop, steps = float(start_text), float(stop_text), int(steps_text)
    h = (stop - start) / (steps - 1)
    assert start + (steps - 1) * h > 1.0
    vals = [value for value, *_ in cli._sweep(args[2], SystemParams(), ScenarioConfig())[1]]
    assert vals[-1] == 1.0
    exact = Fraction(start_text), (Fraction(stop_text) - Fraction(start_text)) / (steps - 1)
    assert vals[:-1] == [float(exact[0] + i * exact[1]) for i in range(steps - 1)]
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    rows = list(csv.DictReader(io.StringIO(res.stdout)))
    assert len(rows) == steps
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
    # 12 significant digits of 161.81050671557, which scipy's betaincinv gives too
    assert at["d_sense_m"] == "161.810506716"
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


def test_closed_form_sweeps_solve_design_point_once(runner, monkeypatch, clear_memos):
    """Along a sweep of D the inverse betas (no-coverage radius, minimum
    sensing radius, the power window's ε_eff) and the detector's P_fa take
    arguments fixed by the design point: each is evaluated once, so the
    evaluations do not grow with the rows. They are counted at their one
    callee, the incomplete beta inside specfun and the incomplete gamma at
    shape 2m inside sensing, with the memos in front of them."""
    counts = {}

    def counting(module, name, counted_if=lambda *args: True):
        fn = getattr(module, name)

        def counted(*args):
            if counted_if(*args):
                counts[name] = counts.get(name, 0) + 1
            return fn(*args)

        monkeypatch.setattr(module, name, counted)

    counting(specfun, "reg_inc_beta")
    counting(sensing, "reg_gamma", lambda a, x: a == 2 * sensing.DETECTOR_M_TW)

    def evaluations(rows):
        clear_memos()
        counts.clear()
        for command in ("analytic", "sensing"):
            res = runner.invoke(main, [command, "--sweep", f"D:0.05:1.0:{rows}"])
            assert res.exit_code == 0, res.output
            assert len(res.output.strip().split("\n")) == rows + 1
        return dict(counts)

    few = evaluations(20)
    assert few["reg_inc_beta"] > 0 and few["reg_gamma"] > 0
    assert evaluations(200) == few


def test_sensing_infeasible_window_reported_as_nan(runner, tmp_path):
    # dense enough that the power window closes: rows survive with nan bounds
    cfg = _write(tmp_path, "dense.json", '{"scenario": {"n_f_target": 2000.0}}')
    res = runner.invoke(main, ["sensing", "--config", cfg, "--sweep", "D:0.5:1.0:2"])
    assert res.exit_code == 0
    row = res.output.strip().split("\n")[1].split(",")
    header = res.output.split("\n")[0].split(",")
    assert row[header.index("pc_over_pf_lb_db")] == "nan"
    assert row[header.index("d_sense_m")] != "nan"


@pytest.mark.parametrize(
    ("command", "empty"),
    [
        ("analytic", {"d_c_m": "inf"}),
        ("sensing", dict.fromkeys(["pc_over_pf_lb_db", "pc_over_pf_ub_db", "blend_db"], "nan")),
    ],
)
def test_closed_forms_without_femtocells_write_rows(runner, tmp_path, command, empty):
    """n_f_target = 0 is a valid scenario: analytic writes the cellular
    coverage radius's limit as the density falls to 0, inf, and sensing no
    power window, nan, as for an infeasible plan. No other column depends
    on the density, so the rest of each row is that of the default run."""
    cfg = _write(tmp_path, "empty.json", '{"scenario": {"n_f_target": 0}}')
    sweep = ["--sweep", "D:0.5:1.0:2"]
    res = runner.invoke(main, [command, "--config", cfg, *sweep])
    assert res.exit_code == 0, res.output
    default = runner.invoke(main, [command, *sweep])
    got = list(csv.DictReader(io.StringIO(res.output)))
    want = [{**row, **empty} for row in csv.DictReader(io.StringIO(default.output))]
    assert len(got) == 2 and got == want


def test_sensing_unreachable_detect_target_writes_nan_range(runner, monkeypatch):
    """A detect target not above the false-alarm floor admits no sensing
    range: sensing writes max_range_m as nan and the rest of each row."""
    sweep = ["sensing", "--sweep", "D:0.5:1.0:2"]
    default = list(csv.DictReader(io.StringIO(runner.invoke(main, sweep).output)))
    monkeypatch.setattr(cli, "DETECTOR_P_DETECT", cli.DETECTOR_P_FALSE)
    res = runner.invoke(main, sweep)
    assert res.exit_code == 0, res.output
    got = list(csv.DictReader(io.StringIO(res.output)))
    assert got == [{**row, "max_range_m": "nan"} for row in default]


def _mp_detection_probability(gamma_bar, m, lam, t_f):
    """The selection-combining detection probability as `sensing._excess`
    sums it, Q(2m−1, λ) + Σ_i t_f·(−1)ⁱC(t_f−1, i)/(i+1)·e^L(u_i), at 50
    digits."""
    with mpmath.workdps(50):
        a, lam = 2 * m - 1, mpmath.mpf(lam)
        total = mpmath.gammainc(a, lam, mpmath.inf, regularized=True)
        for i in range(t_f):
            u = m * mpmath.mpf(gamma_bar) / (i + 1)
            weight = mpmath.mpf(t_f) * (-1) ** i * mpmath.binomial(t_f - 1, i) / (i + 1)
            total += weight * mpmath.exp(-lam / (1 + u) + a * mpmath.log1p(1 / u)) * (
                mpmath.gammainc(a, 0, lam * u / (1 + u), regularized=True)
            )
        return float(total)


def test_sensing_detector_right_at_sixteen_branches(runner):
    """At t_f = 16 the alternating sum still keeps its digits: the printed
    p_detect_at_d_sense is within 10⁻⁹ of the same sum at 50 digits."""
    res = runner.invoke(main, ["sensing", "--sweep", "TfUf:16:17:2"])
    assert res.exit_code == 0, res.output
    row = next(csv.DictReader(io.StringIO(res.output)))
    p = dataclasses.replace(SystemParams(), t_f=16)
    gamma_bar = sensing.pilot_snr(sensing.min_sensing_radius(ScenarioConfig().d_norm, p), p)
    want = _mp_detection_probability(gamma_bar, 500, sensing.solve_threshold(500, 0.1), 16)
    assert float(row["p_detect_at_d_sense"]) == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("t_f", [24, 48, 5000])
def test_sensing_detector_beyond_its_branch_count_writes_nan(runner, t_f):
    """From t_f = 20 on the detector's alternating sum loses more than
    10⁻¹⁰ to rounding, so it raises and sensing writes p_detect_at_d_sense
    and max_range_m as nan; the t_f = 1 row is untouched."""
    res = runner.invoke(main, ["sensing", "--sweep", f"TfUf:1:{t_f}:2"])
    assert res.exit_code == 0, res.output
    first, last = csv.DictReader(io.StringIO(res.output))
    assert last["value"] == repr(float(t_f))
    assert last["p_detect_at_d_sense"] == last["max_range_m"] == "nan"
    default = runner.invoke(main, ["sensing", "--sweep", "TfUf:1:2:2"]).output
    assert first == next(csv.DictReader(io.StringIO(default)))


def test_mtw_sweep_moves_only_the_detector(runner):
    """An Mtw sweep sets the detector's time-bandwidth product to the
    rounded value: sensing's m_tw column reads round(value) and its
    threshold is solved there, while the radius and window columns hold;
    analytic has no detector, so its rows differ only in value."""
    sweep = ["--sweep", "Mtw:100.2:300.6:3"]
    res = runner.invoke(main, ["sensing", *sweep])
    assert res.exit_code == 0, res.output
    rows = list(csv.DictReader(io.StringIO(res.output)))
    assert [row["m_tw"] for row in rows] == ["100", "200", "301"]
    for row in rows:
        assert int(row["m_tw"]) == round(float(row["value"]))
        want = sensing.solve_threshold(int(row["m_tw"]), 0.1)
        assert row["threshold"] == f"{want:.12g}"
    held = ["d_norm", "d_sense_m", "pc_over_pf_lb_db", "pc_over_pf_ub_db", "blend_db"]
    assert len({tuple(row[k] for k in held) for row in rows}) == 1
    assert len({row["threshold"] for row in rows}) == 3
    res = runner.invoke(main, ["analytic", *sweep])
    assert res.exit_code == 0, res.output
    rows = list(csv.DictReader(io.StringIO(res.output)))
    assert len(rows) == 3
    assert len({tuple(v for k, v in row.items() if k != "value") for row in rows}) == 1


def test_analytic_multiple_macro_users_write_nan_ratios(runner, tmp_path):
    """The SU/MU radius ratios are closed forms for one macro user: with
    u_c = 2 analytic writes both as nan and the rest of each row."""
    cfg = _write(tmp_path, "uc2.json", '{"system": {"u_c": 2}}')
    res = runner.invoke(main, ["analytic", "--config", cfg, "--sweep", "D:0.5:1.0:2"])
    assert res.exit_code == 0, res.output
    rows = list(csv.DictReader(io.StringIO(res.output)))
    assert len(rows) == 2
    for row in rows:
        assert (row["ratio_su_mu"], row["ratio_su_single"]) == ("nan", "nan")
        assert row["lambda_star_femto"] != "nan"


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
    assert lines[0].startswith("scenario,d_norm,t_f,u_f,alpha_fo,pc_over_pf_db,lambda_f")


BENCH_CONFIGS = Path(__file__).resolve().parents[1] / "bench" / "configs"

# p_outage and the nine rate percentiles (1, 5, 10, 25, 50, 75, 90, 95, 99)
# that `simulate` prints for each bench scenario at D = 0.4, 0.8 and 1.0
SIMULATE_PINNED = {
    "baseline_fixed": (
        ("0.137820638754 0.0312066774308 0.548669474708 1.44369761891 3.44712144483 "
         "5.38472697619 6.85115020893 7.8832045437 8.4086713112 9.25873467526"),
        ("0.517530094487 0.00226307223936 0.0471495832234 0.167996768652 0.775030780125 "
         "1.97369084959 3.20428651502 4.16012173259 4.66254013294 5.48886702059"),
        ("0.724063063153 0.00096969482271 0.0203828225287 0.0743590835678 0.383623060248 "
         "1.17243845588 2.17608723022 3.04068020817 3.5133170025 4.30779891459"),
    ),
    "cellular_sensed": (
        ("0.0193708354378 0.939777279328 4.17523027704 5.54915803466 6.81538518253 "
         "7.70478549112 8.422411284 8.99769236087 9.32023504495 9.89000369553"),
        ("0.0268192654812 0.895170390138 2.57871573274 3.07142957535 3.74213546894 "
         "4.39754495189 5.0031094355 5.51649641859 5.81077980905 6.33739455572"),
        ("0.0847603888103 0.787316564896 1.778178127 2.14770381891 2.71198205176 "
         "3.30484102921 3.87393207966 4.36646085697 4.65167783911 5.16581601427"),
    ),
    "hotspot_sensed": (
        ("0.0173149306044 1.62376008763 2.94795043867 3.6054070798 4.67949680717 "
         "5.90015519799 7.22341573086 8.5300132009 9.3405191119 10.7890290333"),
        ("0.021765201756 1.48662592645 2.716731012 3.32997102089 4.3097738652 "
         "5.35519220103 6.36774246591 7.2390912734 7.73216140324 8.58162763388"),
        ("0.0303962904621 1.30817284969 2.42963423695 3.00186253223 3.91462857614 "
         "4.86994634401 5.7689778864 6.52672255469 6.9534043913 7.6935089864"),
    ),
}


@pytest.mark.parametrize("name", sorted(SIMULATE_PINNED))
def test_simulate_bench_rows_pinned(runner, name):
    """The bench scenarios' outage and rate percentiles, as printed at 12
    significant digits: a change to the coverage kernel or the field's
    nodes that moves any of them shows here."""
    config = str(BENCH_CONFIGS / f"{name}.json")
    res = runner.invoke(main, ["simulate", "--config", config, "--sweep", "D:0.4:1.0:4"])
    assert res.exit_code == 0, res.output
    printed = [
        " ".join([row["p_outage"], *(v for k, v in row.items() if k.startswith("rate_pct_"))])
        for row in csv.DictReader(io.StringIO(res.stdout))
        if row["d_norm"] in ("0.4", "0.8", "1.0")
    ]
    assert printed == list(SIMULATE_PINNED[name])


@pytest.mark.parametrize("gamma_target", ["1e290", "1e299"])
def test_simulate_huge_sir_target_reads_certain_outage(runner, tmp_path, gamma_target):
    """An SIR target inside the ±3000 dB rule but far beyond any SINR is an
    outage at every node: p_outage reads 1 and its CI 0, not NaN. At
    Γ = 1e290, s·w overflows at the nodes nearest the receiver; at 1e299,
    s = Γ/desired itself overflows."""
    cfg = _write(
        tmp_path, "gamma.json",
        f'{{"system": {{"gamma_target": {gamma_target}}}, '
        '"scenario": {"d_norm": 1.0, "power_policy": "Fixed"}}',
    )
    res = runner.invoke(main, [*SIM, "--config", cfg])
    assert res.exit_code == 0, res.output
    (row,) = csv.DictReader(io.StringIO(res.stdout))
    assert (row["p_outage"], row["ci_halfwidth_95"]) == ("1", "0")


def test_simulate_infinite_rates_read_inf_in_both_modes(runner, tmp_path):
    """Half a femtocell per cell and no noise: most drops are empty, with
    SINR = inf, so the upper rate percentiles are infinite. FullZF prints
    them `inf`, as FastChi2 does, in the same cells, never `nan`, and no
    RuntimeWarning (an error under pytest) is raised on the way."""
    rows = {}
    for mode in ("FullZF", "FastChi2"):
        cfg = _write(tmp_path, f"{mode}.json", json.dumps({"scenario": {
            "scenario": "ReferenceCellularUser", "power_policy": "Fixed", "d_norm": 0.8,
            "n_f_target": 0.5, "include_noise": False, "channel_mode": mode,
        }}))
        res = runner.invoke(main, ["simulate", "--drops", "50", "--fades", "20", "--config", cfg])
        assert res.exit_code == 0, res.output
        assert res.stderr == ""
        (row,) = csv.DictReader(io.StringIO(res.stdout))
        rows[mode] = [v for k, v in row.items() if k.startswith("rate_pct_")]
    assert "nan" not in rows["FullZF"]
    assert [v == "inf" for v in rows["FullZF"]] == [v == "inf" for v in rows["FastChi2"]]
    assert rows["FullZF"][3] != "inf" and rows["FullZF"][4] == "inf"  # rate_pct_25, _50


def test_simulate_channel_mode_from_config_only(runner, tmp_path):
    """FullZF is chosen by scenario.channel_mode, the one place the channel
    mode is written; simulate has no option that overrides it."""
    cfg = _write(tmp_path, "zf.json", '{"scenario": {"channel_mode": "FullZF"}}')
    args = ["simulate", "--seed", "3", "--drops", "5", "--fades", "10"]
    res = runner.invoke(main, [*args, "--config", cfg])
    assert res.exit_code == 0, res.output
    (row,) = csv.DictReader(io.StringIO(res.stdout))
    full_zf = ScenarioConfig(channel_mode=ChannelMode.FULL_ZF)
    want = simulator.simulate(full_zf, 5, 10, SystemParams(), 3).p_outage
    assert row["p_outage"] == f"{want:.12g}"
    res = runner.invoke(main, [*args, "--mode", "full-zf"])
    assert res.exit_code == 2
    assert "No such option" in res.output


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
    ("args", "out"),
    [(["analytic", "--sweep", "D:0.5:1:2"], "missing/x.csv"),
     (["analytic", "--sweep", "D:0.5:1:2"], "."),
     (["validate"], "missing/report.json")],
    ids=["missing-directory", "directory", "validate-missing-directory"],
)
def test_unwritable_out_exits_2(runner, tmp_path, args, out):
    """An --out that cannot be written is a usage error that names the path,
    not a traceback, and for validate not a failed check (exit 1) either."""
    path = str(tmp_path / out)
    res = runner.invoke(main, [*args, "--out", path])
    assert res.exit_code == 2, res.output
    assert f"cannot write {path}" in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize(
    ("out", "reason"),
    [("missing/x.csv", "No such file or directory"), ("", "Is a directory"),
     ("ro/x.csv", "Permission denied")],
    ids=["missing-directory", "directory", "no-permission"],
)
def test_unwritable_out_fails_before_any_work(runner, tmp_path, monkeypatch, out, reason):
    """Each command checks --out before it computes anything, and creates
    no file."""
    read_only = tmp_path / "ro"
    read_only.mkdir()
    writable = os.access

    def access(path, mode):  # read_only is not writable, also for root
        return os.fspath(path) != str(read_only) and writable(path, mode)

    monkeypatch.setattr(os, "access", access)
    calls = []
    for module, name in [(simulator, "simulate"), (simulator, "fade_ks_distances"),
                         (analytic, "max_contention_density_femto")]:
        def counted(*args, fn=getattr(module, name), name=name):
            calls.append(name)
            return fn(*args)

        monkeypatch.setattr(module, name, counted)
    path = str(tmp_path / out)
    for args in (["simulate"], ["validate"], ["analytic", "--sweep", "D:0.5:1:2"]):
        res = runner.invoke(main, [*args, "--out", path])
        assert res.exit_code == 2, res.output
        assert f"cannot write {path}: {reason}" in res.output
    assert calls == []
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["ro"]


def test_out_directory_gone_during_the_run_exits_2(runner, tmp_path, monkeypatch):
    """What the check before the run cannot see, a directory removed while
    the rows are computed, is still a usage error when the file is written."""
    out_dir = tmp_path / "gone"
    out_dir.mkdir()
    femto_cap = analytic.max_contention_density_femto

    def remove_then_compute(*args):
        if out_dir.exists():
            out_dir.rmdir()
        return femto_cap(*args)

    monkeypatch.setattr(analytic, "max_contention_density_femto", remove_then_compute)
    path = str(out_dir / "x.csv")
    res = runner.invoke(main, ["analytic", "--sweep", "D:0.5:1:2", "--out", path])
    assert res.exit_code == 2, res.output
    assert f"cannot write {path}: No such file or directory" in res.output


@pytest.mark.parametrize("args", [["analytic", "--sweep", "D:0.5:1:2"], ["simulate"], ["validate"]],
                         ids=["analytic", "simulate", "validate"])
def test_non_utf8_config_exits_2(runner, tmp_path, args):
    """A config file that is not UTF-8 is a usage error that names it, not a
    traceback, and for validate not a failed check (exit 1) either."""
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(b'{"system": {}, "x": "\xff"}')
    res = runner.invoke(main, [*args, "--config", str(cfg)])
    assert res.exit_code == 2, res.output
    assert f"cannot read config {cfg}: 'utf-8' codec can't decode byte 0xff" in res.output
    assert "Traceback" not in res.output


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
        ["simulate", "--seed", "-1"],
        ["validate", "--seed", "-1"],
        ["analytic", "--sweep", "D:1e-300:1:2"],
        ["sensing", "--sweep", "D:1e-300:1:2"],
        ["simulate", "--sweep", "D:1e-300:1:2"],
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
    a negative one would put the user inward and must not run. An offset of
    0, the user at the hotspot, runs."""
    cfg = _write(
        tmp_path, "offset.json",
        '{"scenario": {"scenario": "ReferenceHotspot", "co_located_user_offset": -500}}',
    )
    res = runner.invoke(main, [*SIM, "--config", cfg])
    assert res.exit_code == 2, res.output
    assert "Error: config" in res.output and "co_located_user_offset" in res.output
    assert "Traceback" not in res.output
    zero = _write(
        tmp_path, "zero.json",
        '{"scenario": {"scenario": "ReferenceHotspot", "co_located_user_offset": 0}}',
    )
    res = runner.invoke(main, [*SIM, "--config", zero])
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("f_c_mhz", ["0", "0.0", "-5"])
@pytest.mark.parametrize(
    "args", [["analytic", "--sweep", "D:0.2:1:3"], ["sensing", "--sweep", "D:0.2:1:3"],
             SIM, ["validate"]],
    ids=["analytic", "sensing", "simulate", "validate"],
)
def test_nonpositive_carrier_frequency_exits_2(runner, tmp_path, args, f_c_mhz):
    """The link budget takes log10 of the carrier frequency: one at or
    below 0 MHz is a config error, not a math-domain traceback."""
    cfg = _write(tmp_path, "fc.json", f'{{"system": {{"f_c_mhz": {f_c_mhz}}}}}')
    res = runner.invoke(main, [*args, "--config", cfg])
    assert res.exit_code == 2, res.output
    assert "Error: config" in res.output and "f_c_mhz must be positive" in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize(
    ("field", "value"),
    [("p_c_dbm", "1e6"), ("p_f_dbm", "-1e6"), ("f_c_mhz", "1e-300"), ("r_f", "1e-300"),
     ("snr_edge_db", "1e6"), ("gamma_target", "1e300")],
)
@pytest.mark.parametrize(
    "args", [["analytic", "--sweep", "D:0.2:1:3"], ["sensing", "--sweep", "D:0.2:1:3"], SIM],
    ids=["analytic", "sensing", "simulate"],
)
def test_config_of_unrepresentable_scale_exits_2(runner, tmp_path, args, field, value):
    """A finite value whose linear power, gain or r_f^α overflows or
    vanishes as a float is a config error that names the field, not an
    OverflowError or ZeroDivisionError traceback."""
    cfg = _write(tmp_path, "scale.json", f'{{"system": {{"{field}": {value}}}}}')
    res = runner.invoke(main, [*args, "--config", cfg])
    assert res.exit_code == 2, res.output
    assert "Error: config" in res.output and f"{field} puts a derived" in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize(
    ("scenario", "field"),
    [
        ('{"sensing_radius_m": 1e200}', "sensing_radius_m"),
        ('{"d_norm": 1e-300}', "d_norm"),
        ('{"scenario": "ReferenceHotspot", "co_located_user_offset": 1e200}',
         "co_located_user_offset"),
    ],
    ids=["sensing_radius", "path_loss", "user_offset"],
)
@pytest.mark.parametrize(
    "args", [["analytic", "--sweep", "D:0.2:1:3"], ["sensing", "--sweep", "D:0.2:1:3"], SIM],
    ids=["analytic", "sensing", "simulate"],
)
def test_scenario_level_beyond_range_exits_2(runner, tmp_path, args, scenario, field):
    """A scenario value whose derived sensing radius squared, hotspot user
    offset squared or reference path loss lies beyond ±3000 dB is a config
    error that names the field, not an OverflowError traceback or an
    overflow warning."""
    cfg = _write(tmp_path, "level.json", f'{{"scenario": {scenario}}}')
    res = runner.invoke(main, [*args, "--config", cfg])
    assert res.exit_code == 2, res.output
    assert "Error: config" in res.output and f"{field} puts a derived" in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize(
    "args", [["analytic", "--sweep", "D:0.2:1:3"], ["sensing", "--sweep", "D:0.2:1:3"], SIM],
    ids=["analytic", "sensing", "simulate"],
)
def test_retired_fixed_ratio_key(runner, tmp_path, monkeypatch, args):
    """scenario.fixed_pc_over_pf_db is retired: the Fixed femto power is
    p_f_dbm. The benchmark's baseline_fixed.json, whose 20.0 restates the
    default P_c/P_f, writes the same bytes as the same config without the
    key. A value that does not restate p_c_dbm - p_f_dbm exactly (-1e6
    once put the ambient power beyond ±3000 dB) is a config error that
    names the key, raised before any row."""
    raw = json.loads((BENCH_CONFIGS / "baseline_fixed.json").read_text(encoding="utf-8"))
    assert raw["scenario"].pop("fixed_pc_over_pf_db") == 20.0
    without = runner.invoke(main, [*args, "--config", _write(tmp_path, "a.json", json.dumps(raw))])
    assert without.exit_code == 0, without.output
    res = runner.invoke(main, [*args, "--config", str(BENCH_CONFIGS / "baseline_fixed.json")])
    assert res.exit_code == 0, res.output
    assert res.output == without.output
    _no_row(monkeypatch)
    for value in (20.000000000000004, 30.0, -1e6):
        raw["scenario"]["fixed_pc_over_pf_db"] = value
        res = runner.invoke(main, [*args, "--config", _write(tmp_path, "b.json", json.dumps(raw))])
        assert res.exit_code == 2, res.output
        assert res.output.endswith(
            "b.json: fixed_pc_over_pf_db is retired (the Fixed femto power is p_f_dbm) "
            "and may only restate p_c_dbm - p_f_dbm = 20.0\n"
        )


@pytest.mark.parametrize(
    "args", [["analytic", "--sweep", "D:0.2:1:3"], ["sensing", "--sweep", "D:0.2:1:3"], SIM],
    ids=["analytic", "sensing", "simulate"],
)
def test_config_noise_floor_beyond_range_exits_2(runner, tmp_path, args):
    """Fields each inside ±3000 dB can still sum to a noise floor beyond
    it, whose power in watts overflows: that is a config error naming the
    noise floor, not an OverflowError (simulate) or a silent run."""
    cfg = _write(
        tmp_path, "floor.json",
        '{"system": {"p_c_dbm": 2900, "p_f_dbm": 2900, "p_ut_dbm": 2900, "snr_edge_db": -2900}}',
    )
    res = runner.invoke(main, [*args, "--config", cfg])
    assert res.exit_code == 2, res.output
    assert "Error: config" in res.output and "noise floor puts a derived" in res.output
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


@pytest.mark.parametrize(
    ("sweep", "point"), [([], "D = 0.8"), (["--sweep", "TfUf:3:4:2"], "TfUf = 3")],
    ids=["unswept", "TfUf"],
)
def test_simulate_infeasible_sensed_density_exits_2(runner, tmp_path, sweep, point):
    """A density whose carrier-sensed power window is empty is a usage
    error that names the density and the point, not a traceback."""
    cfg = _write(tmp_path, "dense.json", '{"scenario": {"n_f_target": 2000}}')
    res = runner.invoke(main, [*SIM, "--config", cfg, *sweep])
    assert res.exit_code == 2, res.output
    assert "Traceback" not in res.output
    assert "n_f_target = 2000" in res.output and "lambda_f" in res.output
    assert f"power plan at {point}: " in res.output


def test_simulate_su_beats_mu_along_tfuf(runner, tmp_path):
    """The paper's SU-over-MU claim in the exact engine: a Fixed hotspot at
    D = 0.5, 300 femtocells per cell, no noise. Along T_f, a single stream
    (u_f = 1) lowers the outage and full multiplexing (u_f = t_f) raises
    it; both start from the same T_f = 1 row."""
    outage = {}
    for name, u_f in (("SU", 1), ("MU", 2)):
        cfg = _write(tmp_path, f"{name}.json", json.dumps({
            "system": {"t_f": 2, "u_f": u_f},
            "scenario": {"scenario": "ReferenceHotspot", "d_norm": 0.5, "power_policy": "Fixed",
                         "include_noise": False, "n_f_target": 300},
        }))
        res = runner.invoke(main, ["simulate", "--config", cfg, "--sweep", "TfUf:1:4:4"])
        assert res.exit_code == 0, res.output
        rows = list(csv.DictReader(io.StringIO(res.output)))
        assert [(row["t_f"], row["u_f"]) for row in rows] == [
            ("1", "1"), *((str(t), "1" if u_f == 1 else str(t)) for t in (2, 3, 4))]
        outage[name] = rows
    assert outage["SU"][0] == outage["MU"][0]
    su = [float(row["p_outage"]) for row in outage["SU"]]
    mu = [float(row["p_outage"]) for row in outage["MU"]]
    assert su == sorted(su, reverse=True) and mu == sorted(mu)
    assert all(s < m for s, m in zip(su[1:], mu[1:]))
    assert [round(v, 4) for v in su] == [0.0578, 0.0278, 0.0204, 0.0168]
    assert [round(v, 4) for v in mu[1:]] == [0.0874, 0.1095, 0.1280]


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


@pytest.mark.parametrize(
    ("args", "error"),
    [
        (["analytic", "--sweep", "D:0.2:1.0"],
         "Invalid value: expected var:start:stop:steps, got 'D:0.2:1.0'"),
        (["sensing", "--sweep", "Bogus:0:1:4"],
         "Invalid value: unknown sweep variable 'Bogus' (one of D, PcOverPfDb, AlphaFo, "
         "TfUf, Mtw)"),
        (["analytic", "--sweep", "D:a:b:4"],
         "Invalid value: bad sweep range in 'D:a:b:4': could not convert string to float: 'a'"),
        (["analytic", "--sweep", "D:nan:1:3"],
         "Invalid value for '--sweep': bounds must be finite, got nan and 1.0"),
        (["analytic", "--sweep", "D:0.2:1.0:1"], "Invalid value: steps must be >= 2, got 1"),
        (["simulate", "--sweep", "D:1:0:3"], "Invalid value: need start < stop, got 1.0 >= 0.0"),
        (["analytic", "--sweep", "D:0.5:1.2:3"],
         "Invalid value for '--sweep': D = 1.2: must lie in (0, 1]"),
        (["sensing", "--sweep", "Mtw:0.2:0.4:3"],
         "Invalid value for '--sweep': Mtw = 0.2: must round to at least 1"),
        (["analytic", "--sweep", "TfUf:0:2:3"],
         "Invalid value for '--sweep': TfUf = 0.0: need 1 <= u_f <= t_f, got u_f=1, t_f=0"),
        (["simulate", "--sweep", "D:1e-300:1:2"],
         "Invalid value for '--sweep': D = 1e-300: d_norm puts a derived level at -11286 dB; "
         "it must lie within ±3000 dB"),
        (["simulate", "--drops", "5", "--fades", "5", "--sweep", "Mtw:1:10:3"],
         "Invalid value for '--sweep': cannot sweep Mtw: the detector does not enter simulate"),
        (["simulate", "--config", "{retired_20}", "--sweep", "PcOverPfDb:10:30:3"],
         "Invalid value for '--sweep': PcOverPfDb = 10.0: fixed_pc_over_pf_db is retired "
         "(the Fixed femto power is p_f_dbm) and may only restate p_c_dbm - p_f_dbm = 10.0"),
    ],
)
def test_sweep_usage_error_text(runner, monkeypatch, tmp_path, args, error):
    """Each --sweep usage error exits 2 with its one-line message, before
    any row is computed; simulate refuses Mtw, the one variable it cannot
    sweep, with the reason. A config whose retired fixed_pc_over_pf_db
    restates the default 20 dB refuses a P_c/P_f sweep to other ratios."""
    _no_row(monkeypatch)
    retired_20 = _write(tmp_path, "retired.json", '{"scenario": {"fixed_pc_over_pf_db": 20.0}}')
    res = runner.invoke(main, [arg.format(retired_20=retired_20) for arg in args])
    assert res.exit_code == 2
    assert res.output.endswith(f"Error: {error}\n")


def _no_row(monkeypatch):
    """Make each CSV subcommand's first call for a row fail the test."""
    def no_row(*args):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(analytic, "max_contention_density_femto", no_row)
    monkeypatch.setattr(sensing, "min_sensing_radius", no_row)
    monkeypatch.setattr(simulator, "simulate", no_row)


@pytest.mark.parametrize("command", ["analytic", "sensing", "simulate"])
def test_sweep_point_out_of_range_fails_before_any_row(runner, monkeypatch, command):
    """A sweep whose last point lies out of range computes no row."""
    _no_row(monkeypatch)
    res = runner.invoke(main, [command, "--sweep", "D:0.5:1.2:3"])
    assert res.exit_code == 2, res.output
    assert res.output.endswith("Error: Invalid value for '--sweep': D = 1.2: must lie in (0, 1]\n")


@pytest.mark.parametrize(
    ("sweep", "column", "values"),
    [("D:0.25:0.75:3", "d_norm", ["0.25", "0.5", "0.75"]),
     ("AlphaFo:3:4.5:4", "alpha_fo", ["3.0", "3.5", "4.0", "4.5"]),
     ("TfUf:1:4:4", "t_f", ["1", "2", "3", "4"]),
     ("D:0.4:0.8:3", "d_norm", ["0.4", "0.6", "0.8"]),
     ("D:0.1:0.2:4", "d_norm", ["0.1", "0.13333333333333333", "0.16666666666666666", "0.2"]),
     ("PcOverPfDb:10:20:4", "pc_over_pf_db",
      ["10.0", "13.333333333333336", "16.66666666666667", "20.0"])],
)
def test_simulate_sweep_row_states_its_point(runner, tmp_path, sweep, column, values):
    """simulate sweeps D, PcOverPfDb, AlphaFo and TfUf: each row prints the
    point it ran at exactly, and equals the unswept run of a config at the
    printed point, a PcOverPfDb row at its own p_c_dbm = p_f_dbm +
    pc_over_pf_db. Interior points are built in decimal, so D:0.4:0.8:3
    runs at 0.6 (0.4 + 0.2 in floats is 0.6000000000000001); a point that
    is not a short decimal is the float nearest it, and its row says so."""
    res = runner.invoke(main, [*SIM, "--sweep", sweep])
    assert res.exit_code == 0, res.output
    rows = list(csv.DictReader(io.StringIO(res.output)))
    assert [row[column] for row in rows] == values
    for row in rows:
        if column == "d_norm":
            doc = {"scenario": {"d_norm": float(row["d_norm"])}}
        elif column == "pc_over_pf_db":
            p_f = SystemParams().p_f_dbm
            doc = {"system": {"p_c_dbm": p_f + float(row["pc_over_pf_db"])}}
        else:
            doc = {"system": {column: (int if column == "t_f" else float)(row[column])}}
        cfg = _write(tmp_path, "point.json", json.dumps(doc))
        one = runner.invoke(main, [*SIM, "--config", cfg])
        assert one.exit_code == 0, one.output
        assert list(csv.DictReader(io.StringIO(one.output))) == [row]


@pytest.mark.parametrize(
    ("command", "sweep"),
    [("analytic", "D:0.051344:1.0:2000"), ("analytic", "PcOverPfDb:0.381887:30.0:121"),
     ("analytic", "AlphaFo:2.542372:4.5:81"), ("sensing", "D:0.052551:1.0:1000"),
     ("sensing", "PcOverPfDb:10.0:30.0:61"), ("sensing", "AlphaFo:2.524772:4.5:41")],
)
def test_sweep_row_replays_from_its_printed_point(runner, command, sweep):
    """A row states its own point exactly: eight sampled rows of each of the
    golden manifest's analytic and sensing sweeps of D, PcOverPfDb and
    AlphaFo, each run again as the first row of a 2-point sweep that starts
    at its printed value, read back cell for cell."""
    cfg = ["--config", str(BENCH_CONFIGS / "closed_form.json")]
    res = runner.invoke(main, [command, *cfg, "--sweep", sweep])
    assert res.exit_code == 0, res.output
    rows = list(csv.DictReader(io.StringIO(res.output)))
    var, _, stop, _ = sweep.split(":")
    for row in rows[1:-1:(len(rows) - 2) // 7]:
        again = runner.invoke(main, [command, *cfg, "--sweep", f"{var}:{row['value']}:{stop}:2"])
        assert again.exit_code == 0, again.output
        assert next(csv.DictReader(io.StringIO(again.output))) == row


@pytest.mark.parametrize(("scenario", "order"),
                         [("ReferenceCellularUser", "falls"), ("ReferenceHotspot", "rises")])
def test_simulate_fixed_outage_along_power_ratio(runner, tmp_path, scenario, order):
    """Under Fixed the femtocells hold p_f_dbm while PcOverPfDb moves P_c:
    a cellular user's outage falls as its macrocell grows louder, and a
    hotspot user's rises as the macrocell's cross-tier term grows."""
    cfg = _write(tmp_path, "fixed.json", json.dumps(
        {"scenario": {"scenario": scenario, "power_policy": "Fixed", "d_norm": 0.6}}))
    res = runner.invoke(main, [*SIM, "--config", cfg, "--sweep", "PcOverPfDb:0:40:5"])
    assert res.exit_code == 0, res.output
    outage = [float(row["p_outage"]) for row in csv.DictReader(io.StringIO(res.output))]
    assert len(set(outage)) == 5
    assert outage == sorted(outage, reverse=order == "falls")


@pytest.mark.parametrize(
    ("document", "named"),
    [
        ('{"t_f": 4, "u_f": 2}', "['t_f', 'u_f']"),
        ("[]", "expected a JSON object"),
        ('{"system": []}', "the system section must be a JSON object, got list"),
        ('{"system": "ab"}', "the system section must be a JSON object, got str"),
        ('{"scenario": null}', "the scenario section must be a JSON object, got NoneType"),
    ],
    ids=["flat", "array", "system_array", "system_string", "scenario_null"],
)
def test_flat_system_config_rejected(runner, tmp_path, document, named):
    """The document has one shape, {"system": ..., "scenario": ...}: a flat
    object of system fields is a config error naming its keys, and so is a
    document that is not an object or a section that is not an object."""
    cfg = _write(tmp_path, "flat.json", document)
    res = runner.invoke(main, ["analytic", "--config", cfg, "--sweep", "D:0.5:1:2"])
    assert res.exit_code == 2, res.output
    assert "Error: config" in res.output and named in res.output
    assert "Traceback" not in res.output


# ---------------------------------------------------------------------------
# validate (full suites; the two slowest tests in this file)


# validate's four KS distances at the default config and seed 42: the FullZF
# samplers' SFC64 streams are pinned, whatever arithmetic reads them
VALIDATE_KS_SEED_42 = {
    "ks_desired_femto": 0.0020292761433856055,
    "ks_desired_cellular": 0.0014930663754753326,
    "ks_cross_tier": 0.0015944729964157967,
    "ks_marks": 0.0021282615390539883,
}


def test_validate_default_config_passes(runner, tmp_path):
    """The report passes at seeds 42 and 1, the KS distances at seed 42 stay
    within 1e-12 of VALIDATE_KS_SEED_42, and the closure outages, which
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
        if seed == "42":
            for name, pinned in VALIDATE_KS_SEED_42.items():
                assert values[name] == pytest.approx(pinned, rel=0, abs=1e-12), name
    assert closures[0] == closures[1]


@pytest.mark.parametrize("system", ['{"p_f_dbm": 13}', '{"p_f_dbm": 33}', '{"p_c_dbm": 40}'])
def test_validate_closure_at_configured_power_ratio(runner, tmp_path, system):
    """Each closure check runs its Fixed-policy field at the system's own
    P_c/P_f, the ratio its density cap assumes, so the outage meets eps at
    any power ratio, not only at the default 20 dB. simulate, whose Fixed
    femtocells transmit at the same p_f_dbm, prints the outage that
    validate reports at each closure point."""
    cfg = _write(tmp_path, "powers.json", f'{{"system": {system}}}')
    res = runner.invoke(main, ["validate", "--config", cfg])
    assert res.exit_code == 0, res.output
    checks = {c["name"]: c for c in json.loads(res.output)["checks"]}
    system = json.loads(system)
    p = SystemParams.from_dict(system)
    for name, scenario, d_norm, cap in (
        ("femto_closure_outage", "ReferenceHotspot", 0.5,
         analytic.max_contention_density_femto(0.5, p)[0]),
        ("cellular_closure_outage", "ReferenceCellularUser", 0.8,
         analytic.max_contention_density_cellular(0.8, p)),
    ):
        assert checks[name]["passed"], checks[name]
        assert checks[name]["value"] == pytest.approx(0.1, abs=1e-3)
        point = _write(tmp_path, "point.json", json.dumps({"system": system, "scenario": {
            "scenario": scenario, "d_norm": d_norm, "power_policy": "Fixed",
            "n_f_target": cap * math.pi * p.r_c**2, "include_noise": False}}))
        sim = runner.invoke(main, ["simulate", "--config", point])
        assert sim.exit_code == 0, sim.output
        (row,) = csv.DictReader(io.StringIO(sim.output))
        assert row["p_outage"] == f"{checks[name]['value']:.12g}"


def test_validate_zero_snr_floor_runs_the_detector_sum(runner, monkeypatch):
    """detector_zero_snr_floor evaluates the detector's sum, at the smallest
    positive SNR: a sum off by 10⁻³ there fails the check, and validate
    exits 1 (the KS checks, which do not read the detector, are skipped)."""
    monkeypatch.setattr(simulator, "fade_ks_distances", lambda p, seed, n: {})
    monkeypatch.setattr(sensing, "_excess", lambda *args: (1e-3, 0.0))
    res = runner.invoke(main, ["validate"])
    assert res.exit_code == 1, res.output
    failed = [c for c in _strict_json(res.output)["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["detector_zero_snr_floor"]
    assert failed[0]["value"] == pytest.approx(0.101, abs=1e-12)


def test_validate_multiuser_marks_fail(runner, tmp_path):
    """Multi-column precoder leakage is not Gamma(U,1); the KS check on mark
    powers must catch that and flip the exit status."""
    cfg = _write(tmp_path, "mu.json", '{"system": {"t_f": 8, "u_f": 8}}')
    res = runner.invoke(main, ["validate", "--config", cfg, "--seed", "42"])
    assert res.exit_code == 1
    report = json.loads(res.output)
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "ks_marks" in failed


def test_validate_without_power_window_fails_inversion(runner, tmp_path):
    """At a density whose cell-edge power window is infeasible the report
    records the inversion check as failed, with the plan's reason, in
    place of its floor and ceiling checks, and validate exits 1."""
    cfg = _write(tmp_path, "dense.json", '{"scenario": {"n_f_target": 2000.0}}')
    res = runner.invoke(main, ["validate", "--config", cfg, "--seed", "42"])
    assert res.exit_code == 1
    checks = {c["name"]: c for c in _strict_json(res.output)["checks"]}
    assert {name for name, c in checks.items() if not c["passed"]} == {"power_window_inversion"}
    assert "power_window_inversion_floor" not in checks
    assert "outside (0,1)" in checks["power_window_inversion"]["bound"]
    assert checks["power_window_inversion"]["value"] is None


def test_validate_without_femtocells_reports_no_window(runner, tmp_path):
    """n_f_target = 0 leaves no power window to invert: validate still writes
    its whole report, records the inversion as failed with the reason, and
    exits 1."""
    cfg = _write(tmp_path, "empty.json", '{"scenario": {"n_f_target": 0}}')
    res = runner.invoke(main, ["validate", "--config", cfg, "--seed", "42"])
    assert res.exit_code == 1, res.output
    report = _strict_json(res.output)
    assert report["passed"] is False
    checks = {c["name"]: c for c in report["checks"]}
    assert set(checks) == {
        "ks_desired_femto", "ks_desired_cellular", "ks_cross_tier", "ks_marks",
        "femto_closure_outage", "cellular_closure_outage", "power_window_inversion",
        "detector_cfar_threshold", "detector_zero_snr_floor",
    }
    assert {name for name, c in checks.items() if not c["passed"]} == {"power_window_inversion"}
    assert "without femtocells" in checks["power_window_inversion"]["bound"]
    assert checks["power_window_inversion"]["value"] is None


def test_validate_runs_femto_closure_at_zero_cap(runner, tmp_path):
    """At P_c = 70 dBm the macrocell alone breaks eps at D = 0.5, so the femto
    cap there is 0. The closure check still runs, on an empty field, and
    fails on the macrocell's own outage instead of dropping out of the report."""
    p = SystemParams(p_c_dbm=70.0)
    assert analytic.max_contention_density_femto(0.5, p)[0] == 0.0
    cfg = _write(tmp_path, "loud.json", '{"system": {"p_c_dbm": 70}}')
    res = runner.invoke(main, ["validate", "--config", cfg])
    assert res.exit_code == 1, res.output
    checks = {c["name"]: c for c in _strict_json(res.output)["checks"]}
    assert len(checks) == 10
    femto = checks["femto_closure_outage"]
    assert not femto["passed"]
    assert femto["value"] > p.eps + 0.03


# ---------------------------------------------------------------------------
# help


@pytest.mark.parametrize("command", sorted(main.commands))
def test_every_option_has_help(command):
    """Each option of each subcommand says what it does in --help."""
    options = [p for p in main.commands[command].params if isinstance(p, click.Option)]
    assert options
    assert [o.name for o in options if not (o.help or "").strip()] == []


# ---------------------------------------------------------------------------
# README's output lists


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_names(heading):
    """The backticked names in the first cell of each row of the table under
    README's `#### heading`, in order."""
    lines = README.read_text(encoding="utf-8").split(f"\n#### {heading}\n", 1)[1].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines[start + 2:])
    return [name for row in rows for name in re.findall(r"`([^`]+)`", row.split("|")[1])]


@pytest.mark.parametrize(
    "args",
    [["analytic", "--sweep", "D:0.5:1:2"], ["sensing", "--sweep", "D:0.5:1:2"], ["simulate"]],
    ids=lambda args: args[0],
)
def test_readme_lists_each_csv_column(runner, args):
    """README lists each CSV subcommand's columns in the order written."""
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    assert _readme_names(f"`{args[0]}` columns") == res.output.split("\n", 1)[0].split(",")


def test_readme_lists_validate_report(runner):
    """README lists validate's ten checks at the default config, in order,
    and the report holds the keys it names."""
    res = runner.invoke(main, ["validate"])
    assert res.exit_code == 0, res.output
    report = _strict_json(res.output)
    assert list(report) == ["passed", "checks"]
    assert all(list(c) == ["name", "passed", "value", "bound"] for c in report["checks"])
    names = [c["name"] for c in report["checks"]]
    assert len(names) == 10
    assert _readme_names("`validate` report") == names


# ---------------------------------------------------------------------------
# property run: every printed cell over the validated parameter ranges


@st.composite
def _config_docs(draw):
    """A config document over the validated ranges of SystemParams and
    ScenarioConfig, within physical bounds: both scenarios and policies,
    0–10⁴ femtocells per cell (0 drawn on its own), D from 10⁻³, t_f up to
    24 (beyond the detector's 19), noise on or off, and a femto power
    p_f_dbm from −20 to 50 dBm, the Fixed policy's every femtocell."""
    def real(lo, hi):
        return draw(st.floats(lo, hi))

    t_c, t_f = draw(st.integers(1, 6)), draw(st.integers(1, 24))
    system = {
        "t_c": t_c, "u_c": draw(st.integers(1, t_c)), "t_f": t_f, "u_f": draw(st.integers(1, t_f)),
        "eps": real(0.01, 0.5), "gamma_target": 10.0 ** (real(-10.0, 20.0) / 10.0),
        "r_c": real(200.0, 5000.0), "r_f": real(5.0, 100.0),
        "alpha_c": real(2.1, 6.0), "alpha_fo": real(2.1, 6.0), "alpha_fi": real(2.1, 6.0),
        "p_c_dbm": real(20.0, 50.0), "p_f_dbm": real(-20.0, 50.0), "p_ut_dbm": real(0.0, 30.0),
        "wall_db": real(0.0, 20.0), "snr_edge_db": real(-10.0, 30.0),
        "f_c_mhz": real(500.0, 6000.0),
    }
    scenario = {
        "scenario": draw(st.sampled_from(["ReferenceCellularUser", "ReferenceHotspot"])),
        "power_policy": draw(st.sampled_from(["Fixed", "CarrierSensedBlend"])),
        "d_norm": 10.0 ** real(-3.0, 0.0),
        "n_f_target": draw(st.one_of(st.just(0.0), st.floats(-2.0, 4.0).map(lambda e: 10.0**e))),
        "include_noise": draw(st.booleans()),
        "blend_weight": real(0.0, 1.0), "sensing_radius_m": real(10.0, 1000.0),
        "co_located_user_offset": draw(st.one_of(st.none(), st.floats(0.0, 500.0))),
    }
    return {"system": system, "scenario": scenario}


def _invoke_clean(runner, args):
    """The rows of a run that exits 0, or None for a usage error (exit 2).
    Any other exit, a traceback or a warning (raised as an error here)
    fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = runner.invoke(main, args)
    assert res.exit_code in (0, 2), (args, res.output, res.exc_info)
    assert "Traceback" not in res.stderr and "Warning" not in res.stderr, res.stderr
    return list(csv.DictReader(io.StringIO(res.stdout))) if res.exit_code == 0 else None


def _d_c_beyond_floats(system, n_f):
    """Whether the cellular coverage radius D_c, in exact arithmetic, is
    infinite (no femtocells) or beyond the largest float."""
    if n_f == 0:
        return True
    p = SystemParams.from_dict(system)
    lam = mpmath.mpf(n_f) / (mpmath.pi * p.r_c**2)
    cap = analytic.max_contention_density_cellular(1.0, p)
    return p.r_c * (cap / lam) ** (p.alpha_fo / (2.0 * p.alpha_c)) > sys.float_info.max


def _non_finite(rows):
    """Each column's set of non-finite cells, over rows."""
    return {k: {v for row in rows for v in [row[k]] if v in ("nan", "inf", "-inf")}
            for k in rows[0]}


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_config_docs())
# found by this run: an empty field's coverage summed to 1 + 2⁻⁵², an outage of −2.2·10⁻¹⁶
@example(doc={
    "system": {"t_c": 1, "u_c": 1, "t_f": 8, "u_f": 3, "eps": 0.5,
               "gamma_target": 10.0 ** -0.25, "r_c": 4376.0, "r_f": 7.0, "alpha_c": 2.25,
               "alpha_fo": 3.0, "alpha_fi": 3.0, "p_c_dbm": 20.0, "p_f_dbm": 20.0,
               "p_ut_dbm": 0.0, "wall_db": 0.0, "snr_edge_db": 2.0, "f_c_mhz": 500.0},
    "scenario": {"scenario": "ReferenceHotspot", "power_policy": "Fixed", "d_norm": 1.0,
                 "n_f_target": 0.0, "include_noise": True, "blend_weight": 0.0,
                 "sensing_radius_m": 10.0, "co_located_user_offset": None},
})
# an overflowing path loss ρ^(−α_fo) at the innermost FastChi2 node warned
@example(doc={"system": {"u_c": 1, "t_f": 2, "alpha_fo": 80.0},
              "scenario": {"power_policy": "Fixed", "n_f_target": 60.0, "include_noise": True}})
# the carrier-sensed power at the cell edge overflowed its conversion to watts
@example(doc={"system": {"u_c": 1, "t_f": 2, "alpha_fo": 700.0},
              "scenario": {"power_policy": "CarrierSensedBlend", "n_f_target": 60.0,
                           "include_noise": True}})
# D_c beyond the largest float raised OverflowError
@example(doc={"system": {"u_c": 1, "t_f": 2, "alpha_fo": 6.0, "alpha_c": 2.1},
              "scenario": {"n_f_target": 1e-250, "include_noise": True}})
def test_every_cell_finite_or_named_in_readme(runner, tmp_path, doc):
    """`analytic`, `sensing` and small `simulate` runs in both channel modes
    exit 0 or 2, cleanly; a cell reads `nan` or `inf` only in a case that
    README "Output columns" names; probabilities lie in [0, 1] and the rate
    percentiles do not decrease. Where every drop is empty or none is (no
    noise, and 0 or at least 40 femtocells per cell) the two channel modes
    read `inf` in the same percentile cells."""
    system, scenario = doc["system"], doc["scenario"]
    many_streams, far_detector = system["u_c"] != 1, system["t_f"] > 19
    window = ("pc_over_pf_lb_db", "pc_over_pf_ub_db", "blend_db")
    d_c_inf = _d_c_beyond_floats(system, scenario["n_f_target"])
    named = {  # the cells that may read nan or inf at this config
        "analytic": {
            "d_c_m": {"inf"} if d_c_inf else set(),
            "ratio_su_mu": {"nan"} if many_streams else set(),
            "ratio_su_single": {"nan"} if many_streams else set(),
        },
        "sensing": {
            **dict.fromkeys(window, {"nan"}),
            "p_detect_at_d_sense": {"nan"} if far_detector else set(),
            "max_range_m": {"nan"} if far_detector else set(),
        },
        "simulate": {f"rate_pct_{q}": set() if scenario["include_noise"] else {"inf"}
                     for q in (1, 5, 10, 25, 50, 75, 90, 95, 99)},
    }
    infinite = {}
    for command, mode in (("analytic", None), ("sensing", None),
                          ("simulate", "FastChi2"), ("simulate", "FullZF")):
        cfg = _write(tmp_path, "cfg.json", json.dumps(
            {"system": system, "scenario": {**scenario, "channel_mode": mode or "FastChi2"}}))
        args = ["--drops", "2", "--fades", "3"] if mode else ["--sweep", "Mtw:500:600:2"]
        rows = _invoke_clean(runner, [command, *args, "--config", cfg])
        if rows is None:
            continue
        for column, cells in _non_finite(rows).items():
            assert cells <= named[command].get(column, set()), (command, mode, column, cells)
        for row in rows:
            if command == "sensing":  # no power window: all three of its cells read nan
                assert len({row[k] == "nan" for k in window}) == 1
                p_detect = float(row["p_detect_at_d_sense"])
                assert math.isnan(p_detect) or 0.0 <= p_detect <= 1.0
                assert 0.0 <= float(row["p_false"]) <= 1.0
            elif command == "simulate":
                assert 0.0 <= float(row["p_outage"]) <= 1.0
                rates = [float(row[k]) for k in named["simulate"]]
                assert rates == sorted(rates)
                infinite[mode] = [math.isinf(r) for r in rates]
    n_f = scenario["n_f_target"]
    if len(infinite) == 2 and (scenario["include_noise"] or n_f == 0 or n_f >= 40):
        assert infinite["FastChi2"] == infinite["FullZF"]
