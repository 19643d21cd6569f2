"""Temporal mode functions: normalisation, duality and the pulse coupler."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from catmem.model import SystemParams
from catmem.modes import (ModeFunctionSpec, coupler_ode_residual,
                          default_write_duration, kappa_source,
                          transfer_amplitude, u_exp_approx, u_in, u_out)

GM = 17.5 / 170e3


def spec_for(g_eff, gamma_m=GM, gamma_int=0.0, t_store=0.0):
    p = SystemParams(1.0 - gamma_int, gamma_int, gamma_m=gamma_m, g_eff=g_eff)
    return ModeFunctionSpec.for_params(p, t_store)


@pytest.mark.parametrize("g_eff,gamma_m", [
    (0.6, GM),    # oscillatory branch, m imaginary
    (0.3, 0.0),   # overdamped branch, m real
])
def test_u_in_unit_norm(g_eff, gamma_m):
    spec = spec_for(g_eff, gamma_m)
    norm, err = quad(lambda t: abs(u_in(t, spec)) ** 2, -np.inf, 0.0, limit=200)
    assert err < 1e-7
    assert norm == pytest.approx(1.0, abs=1e-9)


def test_u_in_support_and_phase():
    spec = spec_for(0.6)
    assert u_in(0.0, spec) == 0.0
    assert u_in(1.0, spec) == 0.0
    # oscillatory branch: the mode is purely imaginary
    vals = u_in(np.linspace(-20.0, -0.1, 50), spec)
    assert np.max(np.abs(vals.real)) < 1e-14
    assert np.max(np.abs(vals.imag)) > 0.1


def test_u_in_no_overflow_deep_tail():
    spec = spec_for(0.3, 0.0)
    vals = u_in(np.array([-2000.0, -500.0, -50.0]), spec)
    assert np.all(np.isfinite(vals))
    assert abs(vals[0]) < 1e-12


def test_u_out_is_time_reversed_conjugate():
    spec = spec_for(0.6, t_store=5.0)
    ts = np.linspace(5.05, 25.0, 40)
    assert np.allclose(u_out(ts, spec), np.conj(u_in(5.0 - ts, spec)))
    assert u_out(4.9, spec) == 0.0
    norm, _ = quad(lambda t: abs(u_out(t, spec)) ** 2, 5.0, np.inf, limit=200)
    assert norm == pytest.approx(1.0, abs=1e-9)


def test_u_exp_approx_norm_and_validation():
    norm, _ = quad(lambda t: abs(u_exp_approx(t, 0.1)) ** 2, -np.inf, 0.0)
    assert norm == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        u_exp_approx(-1.0, 0.0)


def test_u_in_matches_rising_exponential_weak_coupling():
    # for weak coupling the exact mode tends to the simple exponential pulse
    spec = spec_for(0.05, 0.0)
    gbar = spec.derived.gamma_bar.real
    ts = np.linspace(-3.0 / gbar, -1.0 / gbar, 10)
    ratio = np.abs(u_in(ts, spec)) / np.abs(u_exp_approx(ts, gbar))
    assert np.allclose(ratio, 1.0, atol=0.01)


def test_kappa_source_value_and_domain():
    # gamma_bar = 0.1 at t = -20: kappa = 0.1 / (e^4 - 1)
    assert kappa_source(-20.0, 0.1) == pytest.approx(0.1 / (math.exp(4.0) - 1.0),
                                                     rel=1e-12)
    assert kappa_source(-20.0, 0.1) == pytest.approx(1.86574e-3, rel=1e-5)
    with pytest.raises(ValueError):
        kappa_source(0.0, 0.1)
    with pytest.raises(ValueError):
        kappa_source(np.array([-1.0, 0.5]), 0.1)


def test_coupler_emits_exponential_mode():
    # dkappa/dt = 2 kappa (du/dt)/u + 2 kappa^2 holds exactly for the pair
    gbar = 0.1
    ts = np.linspace(-40.0, -0.5, 200)
    kappa = kappa_source(ts, gbar)
    dkappa = 2.0 * gbar ** 2 * np.exp(-2.0 * gbar * ts) \
        / (np.exp(-2.0 * gbar * ts) - 1.0) ** 2
    u0 = u_exp_approx(ts, gbar)
    du0 = gbar * u0
    res = coupler_ode_residual(kappa, dkappa, u0, du0)
    assert np.max(np.abs(res)) < 1e-10


def test_coupler_residual_rejects_vanishing_mode():
    with pytest.raises(ValueError):
        coupler_ode_residual(0.1, 0.0, 0.0, 0.0)


def test_transfer_amplitude_values():
    p_lossy = SystemParams(0.95, 0.05, gamma_m=GM, g_eff=0.6)
    assert transfer_amplitude(p_lossy) == pytest.approx(0.974490, abs=5e-7)
    p_clean = SystemParams(1.0, gamma_m=GM, g_eff=0.6)
    assert transfer_amplitude(p_clean) == pytest.approx(0.999806, abs=5e-7)
    assert transfer_amplitude(p_clean) <= 1.0


def test_critical_coupling_rejected():
    p = SystemParams(1.0, gamma_m=0.0, g_eff=0.5)  # m = 0 exactly
    with pytest.raises(ValueError):
        transfer_amplitude(p)
    with pytest.raises(ValueError):
        ModeFunctionSpec.for_params(p, 0.0)


def test_default_write_duration():
    p = SystemParams(1.0, gamma_m=GM, g_eff=0.6)
    assert default_write_duration(p) == pytest.approx(19.99794, abs=1e-4)
    flat = SystemParams(1.0, gamma_m=0.0, g_eff=0.0)
    with pytest.raises(ValueError):
        default_write_duration(flat)
