"""Closed-form reference expressions and their internal consistency."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from catmem.engine import protocol_channel
from catmem.experiments import ALPHA0_MAX, preset, sweep_points
from catmem.model import ProtocolSchedule
from catmem.oracle import (DecoherenceParams, cat_char_normal, cat_variance,
                           channel_negativity, channel_wigner, channel_wigner_field,
                           damping_channel, decohered_density,
                           evolve_characteristic, evolved_wigner, ideal_P_p,
                           ideal_P_x, q_parameter, t_p_bound,
                           t_positive)
from catmem.signatures import default_wigner_grid, wigner_negativity


def fock_occupation(alpha0, cutoff=60):
    n = np.arange(cutoff + 1)
    log_c = -0.5 * alpha0 ** 2 + n * math.log(alpha0) - 0.5 * gammaln(n + 1)
    c = np.exp(log_c) * (1.0 + (-1.0) ** n)
    c /= math.sqrt(np.sum(c * c))
    return float(np.sum(n * c * c))


@pytest.mark.parametrize("alpha0", [1.0, 2.5])
def test_quadrature_distributions_normalised(alpha0):
    x = np.linspace(-12.0, 12.0, 4001)
    for dist in (ideal_P_x, ideal_P_p):
        norm = np.trapezoid(dist(x, alpha0), x)
        assert norm == pytest.approx(1.0, abs=1e-10)


def test_p_distribution_fringes():
    # full fringes: zero at the first trough, maximum at the origin
    alpha0 = 2.0
    trough = math.pi / (2.0 * math.sqrt(2.0) * alpha0)
    assert ideal_P_p(trough, alpha0) == pytest.approx(0.0, abs=1e-15)
    assert ideal_P_p(0.0, alpha0) > ideal_P_p(0.1, alpha0)


@pytest.mark.parametrize("t,n_bar", [(0.0, 0.0), (0.2, 0.0), (0.1, 2.0), (0.7, 1.0)])
def test_evolved_wigner_normalised(t, n_bar):
    x = np.arange(-161, 162) * 0.05
    field = channel_wigner_field(x, x, 2.0, *damping_channel(t, n_bar, 1.0))
    norm = np.trapezoid(np.trapezoid(field.values, dx=0.05), dx=0.05)
    assert norm == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("t,n_bar", [(0.0, 0.0), (0.1, 2.0), (0.7, 1.0)])
def test_channel_wigner_generalises_damping(t, n_bar):
    # the damping channel is the (e^{-gamma t}, n_bar (1 - e^{-2 gamma t})) channel
    gamma = 1.3
    x = np.arange(-161, 162) * 0.05
    alpha = x[:, None] + 1j * x[None, :]
    got = channel_wigner(alpha, 2.0, math.exp(-gamma * t),
                         n_bar * (1.0 - math.exp(-2.0 * gamma * t)))
    assert np.max(np.abs(got - evolved_wigner(alpha, t, 2.0, n_bar, gamma))) < 1e-12
    assert np.trapezoid(np.trapezoid(got, dx=0.05), dx=0.05) == pytest.approx(1.0, abs=1e-6)


def complex_channel_wigner(alpha, alpha0, gain, noise_var):
    """Reference: the four Gaussian terms of the channel cat in complex
    arithmetic, with the overlap as a separate factor."""
    broad = 1.0 + 2.0 * noise_var
    ab = alpha0 * gain
    overlap = math.exp(-2.0 * alpha0 * alpha0)
    minus, plus = alpha - ab, alpha + ab
    terms = (np.exp(-2.0 * np.conj(minus) * minus / broad)
             + np.exp(-2.0 * np.conj(plus) * plus / broad)
             + overlap * np.exp(-2.0 * np.conj(minus) * plus / broad)
             + overlap * np.exp(-2.0 * np.conj(plus) * minus / broad))
    norm = 2.0 * (1.0 + overlap)
    return np.real(terms) * 2.0 / (math.pi * norm * broad)


@pytest.mark.parametrize("alpha0,gain,noise_var", [
    (2.0, 0.9, 0.3), (5.0, 0.7068, 0.0), (18.8, 1.0, 0.0), (18.8, 0.98, 0.08)])
def test_channel_wigner_matches_complex_form(alpha0, gain, noise_var):
    # exponents reach 2 alpha0^2 ~ 700 at the alpha0 bound, so both forms
    # carry about 700 ulp of relative error there
    x = 0.05 * np.arange(-math.ceil((alpha0 + 4.0) / 0.05), math.ceil((alpha0 + 4.0) / 0.05) + 1)
    alpha = x[:, None] + 1j * x[None, :]
    ref = complex_channel_wigner(alpha, alpha0, gain, noise_var)
    peak = np.max(np.abs(ref))
    assert np.all(np.isfinite(ref))
    got = channel_wigner(alpha, alpha0, gain, noise_var)
    assert np.max(np.abs(got - ref)) <= 1e-12 * peak
    field = channel_wigner_field(x, x, alpha0, gain, noise_var)
    alpha = field.axes[0].points()[:, None] + 1j * field.axes[1].points()[None, :]
    ref = complex_channel_wigner(alpha, alpha0, gain, noise_var)
    assert np.max(np.abs(field.values - ref)) <= 1e-12 * peak
    assert channel_wigner(0.3 - 0.2j, alpha0, gain, noise_var) == pytest.approx(
        complex_channel_wigner(0.3 - 0.2j, alpha0, gain, noise_var), rel=1e-12)


def field_negativity(x, y, alpha0, gain, noise_var):
    return wigner_negativity(channel_wigner_field(x, y, alpha0, gain, noise_var))


@pytest.mark.parametrize("name", ["fig5", "fig6", "fig9", "fig10", "fig11", "fig12"])
def test_channel_negativity_is_field_negativity_on_preset_grids(name):
    # bit for bit, for the protocol channel at dt and dt/2 and the
    # storage-only damping channel, at every point of the preset
    cfg = preset(name)
    points = sweep_points(cfg) if cfg.sweep else [({}, cfg)]
    for _, sub in points:
        grid = default_wigner_grid(sub.alpha0, sub.wigner_h, sub.wigner_pad)
        schedule = sub.schedule()
        channels = [damping_channel(schedule.t_store, sub.n_bar, sub.gamma_m)]
        for dt in (schedule.dt, schedule.dt / 2.0):
            gain, noise_var = protocol_channel(
                sub.system_params(), ProtocolSchedule(schedule.t_write, schedule.t_store, dt))
            channels.append((abs(gain), noise_var))
        for gain, noise_var in channels:
            assert channel_negativity(grid.x, grid.y, sub.alpha0, gain, noise_var) == \
                field_negativity(grid.x, grid.y, sub.alpha0, gain, noise_var)


@settings(max_examples=40, deadline=None)
@given(alpha0=st.floats(0.05, ALPHA0_MAX), gain=st.floats(0.01, 1.0),
       noise_var=st.floats(0.0, 4.0))
def test_channel_negativity_is_field_negativity(alpha0, gain, noise_var):
    # noise past gain^2 - 1/2 (the lifetime bound) leaves no negative volume
    grid = default_wigner_grid(alpha0)
    band = channel_negativity(grid.x, grid.y, alpha0, gain, noise_var)
    assert band == field_negativity(grid.x, grid.y, alpha0, gain, noise_var)
    if noise_var >= gain * gain - 0.5:
        assert band == 0.0


@pytest.mark.parametrize("t,n_bar", [(0.0, 0.0), (0.15, 0.0), (0.25, 1.5)])
def test_evolved_wigner_second_moment(t, n_bar):
    # symmetric-ordering moment: int W |alpha|^2 = <n>(t) + 1/2
    alpha0, gamma = 1.5, 1.0
    x = np.arange(-241, 242) * 0.05
    field = channel_wigner_field(x, x, alpha0, *damping_channel(t, n_bar, gamma))
    xx, yy = np.meshgrid(x, x, indexing="ij")
    moment = np.trapezoid(np.trapezoid(field.values * (xx ** 2 + yy ** 2),
                                       dx=0.05), dx=0.05)
    decay = math.exp(-2.0 * gamma * t)
    expected = fock_occupation(alpha0) * decay + n_bar * (1.0 - decay) + 0.5
    assert moment == pytest.approx(expected, abs=1e-6)


def test_evolved_wigner_long_time_thermal():
    n_bar = 1.2
    broad = 1.0 + 2.0 * n_bar
    alpha = np.array([0.0, 0.4 + 0.2j, -1.0j])
    got = evolved_wigner(alpha, 50.0, 2.0, n_bar, 1.0)
    want = 2.0 / (math.pi * broad) * np.exp(-2.0 * np.abs(alpha) ** 2 / broad)
    assert np.allclose(got, want, rtol=1e-10)


def test_cat_variance_values():
    assert round(cat_variance(1.0), 4) == 0.2616
    assert round(cat_variance(2.0), 4) == 0.4973
    assert round(cat_variance(3.0), 4) == 0.5
    assert round(cat_variance(4.0), 4) == 0.5
    values = [cat_variance(a) for a in (0.5, 1.0, 1.5, 2.0, 3.0)]
    assert all(v < 0.5 for v in values)
    # squeezing is deepest near alpha0 ~ 0.75, then relaxes back toward 1/2
    assert cat_variance(1.0) < cat_variance(0.5)
    assert values[1:] == sorted(values[1:])


def test_decohered_density_invariant():
    # the coherence coefficient times the shrunken overlap is conserved
    alpha0, gamma = 3.0, 0.7
    for t in (0.0, 0.1, 0.5, 2.0):
        amp, coeff = decohered_density(t, alpha0, gamma)
        assert coeff * math.exp(-2.0 * amp * amp) == pytest.approx(
            math.exp(-2.0 * alpha0 * alpha0), rel=1e-12)
    assert decohered_density(0.0, alpha0, gamma) == (alpha0, 1.0)


@pytest.mark.parametrize("n_bar", [0.0, 1.0, 2.0, 3.5])
def test_q_parameter_root_is_death_bound(n_bar):
    t_dead = t_positive(n_bar, 1.0)
    assert q_parameter(t_dead, n_bar, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert q_parameter(0.5 * t_dead, n_bar, 1.0) > 0.0
    assert q_parameter(2.0 * t_dead, n_bar, 1.0) < 0.0


def test_death_bound_quoted_values():
    assert round(t_positive(0.0, 1.0), 4) == 0.3466
    assert round(t_positive(2.0, 1.0), 4) == 0.0912
    assert t_positive(0.0, 1.0) == pytest.approx(0.5 * math.log(2.0))


def test_death_bound_shrinks_with_temperature():
    values = [t_positive(n, 1.0) for n in (0.0, 0.5, 1.0, 2.0, 5.0)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_p_function_bound_ordering():
    assert t_p_bound(0.0, 1.0) == math.inf
    for n_bar in (0.5, 2.0, 4.0):
        assert t_positive(n_bar, 1.0) < t_p_bound(n_bar, 1.0)
    assert t_p_bound(2.0, 1.0) == pytest.approx(0.5 * math.log(1.5))


def test_characteristic_map_semigroup():
    chi0 = cat_char_normal(2.0)
    params = DecoherenceParams(gamma=0.8, n_bar=1.3)
    lam = 0.4 - 0.9j
    via_stop = evolve_characteristic(
        lambda l: evolve_characteristic(chi0, 1.0, l, 0.3, params),
        1.0, lam, 0.5, params)
    direct = evolve_characteristic(chi0, 1.0, lam, 0.8, params)
    assert via_stop == pytest.approx(direct, rel=1e-12)


def test_characteristic_matches_wigner_transform():
    # Fourier moment of the evolved Wigner function equals the s = 0
    # characteristic value from the damping map
    alpha0, t, n_bar, gamma = 1.5, 0.25, 0.8, 1.0
    lam = 0.7 + 0.3j
    x = np.arange(-201, 202) * 0.05
    field = channel_wigner_field(x, x, alpha0, *damping_channel(t, n_bar, gamma))
    xx, yy = np.meshgrid(x, x, indexing="ij")
    alpha = xx + 1j * yy
    wave = np.exp(lam * np.conj(alpha) - np.conj(lam) * alpha)
    chi_w = np.trapezoid(np.trapezoid(field.values * wave, dx=0.05), dx=0.05)
    chi_n = evolve_characteristic(cat_char_normal(alpha0), 1.0, lam, t,
                                  DecoherenceParams(gamma=gamma, n_bar=n_bar))
    expected = chi_n * math.exp(-0.5 * abs(lam) ** 2)
    assert chi_w == pytest.approx(expected, abs=1e-8)


def test_characteristic_normalisation():
    assert cat_char_normal(2.0)(0.0) == pytest.approx(1.0)


def test_parameter_validation():
    with pytest.raises(ValueError):
        DecoherenceParams(gamma=0.0, n_bar=0.0)
    with pytest.raises(ValueError):
        DecoherenceParams(gamma=1.0, n_bar=-0.1)
    with pytest.raises(ValueError):
        evolved_wigner(0.0, -0.1, 2.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        t_positive(-1.0, 1.0)
    with pytest.raises(ValueError):
        t_p_bound(0.0, 0.0)
