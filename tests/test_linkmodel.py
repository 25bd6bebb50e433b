"""Link budget and location-coefficient tests."""

from __future__ import annotations

import dataclasses
import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tiernet.linkmodel import (
    SystemParams,
    _losses_db,
    db_to_linear,
    link_budget,
    linear_to_db,
    location_coeffs,
)


def test_default_link_budget_decibels():
    """Fixed attenuations at f_c = 2 GHz, 5 dB walls."""
    a_c_db, a_fc_db, a_fi_db, a_cf_db, a_ff_db = _losses_db(SystemParams())
    assert a_c_db == pytest.approx(28.0309, abs=1e-4)
    assert a_fc_db == pytest.approx(33.0309, abs=1e-4)
    assert a_fi_db == pytest.approx(37.0, abs=1e-12)
    assert a_cf_db == pytest.approx(42.0, abs=1e-12)
    assert a_ff_db == pytest.approx(47.0, abs=1e-12)


def test_linear_gains_invert_decibels():
    lb = link_budget(SystemParams())
    assert [f.name for f in dataclasses.fields(lb)] == ["a_c", "a_fc", "a_fi", "a_cf", "a_ff"]
    for db, lin in zip(_losses_db(SystemParams()), dataclasses.astuple(lb)):
        assert lin == pytest.approx(10.0 ** (-db / 10.0), rel=1e-12)


def test_wall_losses_stack():
    # one wall on the macro-to-femto link, two walls femto-to-femto
    p0 = SystemParams()
    a_c0, a_fc0, _, a_cf0, a_ff0 = _losses_db(p0)
    assert a_fc0 - a_c0 == pytest.approx(p0.wall_db)
    assert a_ff0 - a_cf0 == pytest.approx(p0.wall_db)
    _, a_fc8, _, _, a_ff8 = _losses_db(dataclasses.replace(p0, wall_db=8.0))
    assert a_fc8 - a_fc0 == pytest.approx(3.0)
    assert a_ff8 - a_ff0 == pytest.approx(6.0)


def test_location_coeffs_closed_form():
    """kappa and q_c recomputed longhand from the definitions."""
    p = SystemParams()
    lb = link_budget(p)
    for d_norm in (0.1, 0.5, 1.0):
        d = d_norm * p.r_c
        loc = location_coeffs(d_norm, p)
        pc_pf = 10.0 ** ((p.p_c_dbm - p.p_f_dbm) / 10.0)
        kappa_ref = (
            p.gamma_target
            * pc_pf
            * (lb.a_fc / lb.a_fi)
            * d ** (-p.alpha_c)
            * p.r_f**p.alpha_fi
            * p.u_f
            / p.u_c
        )
        q_c_ref = p.u_c / pc_pf * (lb.a_cf / lb.a_c) * d**p.alpha_c
        assert loc.kappa == pytest.approx(kappa_ref, rel=1e-12)
        assert loc.q_c == pytest.approx(q_c_ref, rel=1e-12)
        # the macro-to-femto interference strength, times q_f·Γ/u_c
        script_p_f = pc_pf * (lb.a_fc / lb.a_ff) * d ** (-p.alpha_c)
        assert loc.kappa == pytest.approx(
            script_p_f * loc.q_f * p.gamma_target / p.u_c, rel=1e-12
        )


def test_q_f_location_independent():
    p = SystemParams()
    assert location_coeffs(0.2, p).q_f == location_coeffs(0.9, p).q_f


def test_location_coeffs_monotone_in_distance():
    p = SystemParams()
    grid = [location_coeffs(d, p) for d in (0.1, 0.3, 0.5, 0.7, 0.9)]
    kappas = [g.kappa for g in grid]
    q_cs = [g.q_c for g in grid]
    assert all(a > b for a, b in zip(kappas, kappas[1:]))
    assert all(a < b for a, b in zip(q_cs, q_cs[1:]))


def test_location_coeffs_domain():
    p = SystemParams()
    with pytest.raises(ValueError):
        location_coeffs(0.0, p)
    with pytest.raises(ValueError):
        location_coeffs(1.2, p)


def test_params_from_json_text():
    p = SystemParams(t_f=4, u_f=2, p_c_dbm=40.0, alpha_fo=4.8)
    text = '{"t_f": 4, "u_f": 2, "p_c_dbm": 40.0, "alpha_fo": 4.8}'
    assert SystemParams.from_dict(json.loads(text)) == p


def test_params_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown"):
        SystemParams.from_dict({"t_f": 2, "bogus_field": 1})


@pytest.mark.parametrize(
    "bad",
    [
        {"alpha_fo": 2.0},
        {"alpha_fo": 1.5},
        {"u_c": 5},          # exceeds t_c=4
        {"t_f": 2, "u_f": 3},
        {"t_c": 0},
        {"r_c": -1.0},
        {"r_f": 0.0},
        {"eps": 0.0},
        {"eps": 1.0},
        {"gamma_target": 0.0},
    ],
)
def test_params_validation_rejects(bad):
    with pytest.raises(ValueError):
        SystemParams.from_dict(bad)


def test_default_params_match_reference_table():
    p = SystemParams()
    assert (p.t_c, p.u_c, p.t_f, p.u_f) == (4, 1, 2, 1)
    assert (p.p_c_dbm, p.p_f_dbm, p.p_ut_dbm) == (43.0, 23.0, 23.0)
    assert (p.r_c, p.r_f) == (1000.0, 30.0)
    assert (p.alpha_c, p.alpha_fo, p.alpha_fi) == (3.8, 3.8, 3.0)
    assert p.gamma_target == pytest.approx(10.0**0.5)
    assert p.eps == 0.1
    assert p.wall_db == 5.0
    assert p.f_c_mhz == 2000.0


@given(st.floats(min_value=-120.0, max_value=120.0))
def test_db_linear_round_trip(db):
    assert linear_to_db(db_to_linear(db)) == pytest.approx(db, abs=1e-9)


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
def test_linear_to_db_rejects_nonpositive(value):
    with pytest.raises(ValueError, match="positive value"):
        linear_to_db(value)


def test_dbm_to_watts_reference_points():
    """A level in dBm is db_to_linear(level − 30) watts."""
    assert db_to_linear(30.0 - 30.0) == pytest.approx(1.0, rel=1e-12)
    assert db_to_linear(0.0 - 30.0) == pytest.approx(1e-3, rel=1e-12)
    assert db_to_linear(43.0 - 30.0) == pytest.approx(19.9526231497, rel=1e-9)
