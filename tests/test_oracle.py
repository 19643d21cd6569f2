"""Closed-form reference expressions and their internal consistency."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from catmem.engine import protocol_channel
from catmem.experiments import ALPHA0_MAX, preset, sweep_points
from catmem.model import GridAxis, ProtocolSchedule
from catmem.oracle import (_negativity_edge, cat_variance, channel_negativity,
                           channel_wigner, damping_channel, decohered_density,
                           negativity_band, q_channel, q_parameter, t_p_bound, t_positive)
from catmem.signatures import default_wigner_grid, wigner_negativity
from references import (DecoherenceParams, cat_char_normal, channel_wigner_field,
                        evolve_characteristic, ideal_P_p, ideal_P_x)


def square_axes(n, h=0.05):
    """(Re alpha, Im alpha) axes h * k for |k| <= n."""
    return GridAxis(-n * h, n * h, h, "re_alpha"), GridAxis(-n * h, n * h, h, "im_alpha")


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
    field = channel_wigner_field(*square_axes(161), 2.0, *damping_channel(t, n_bar, 1.0))
    norm = np.trapezoid(np.trapezoid(field.values, dx=0.05), dx=0.05)
    assert norm == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("t,n_bar", [(0.0, 0.0), (0.1, 2.0), (0.7, 1.0)])
def test_channel_wigner_generalises_damping(t, n_bar):
    # the damping channel is the (e^{-gamma t}, n_bar (1 - e^{-2 gamma t})) channel
    gamma = 1.3
    x = np.arange(-161, 162) * 0.05
    alpha = x[:, None] + 1j * x[None, :]
    got = channel_wigner(alpha.real, alpha.imag, 2.0, math.exp(-gamma * t),
                         n_bar * (1.0 - math.exp(-2.0 * gamma * t)))
    damped = channel_wigner(alpha.real, alpha.imag, 2.0, *damping_channel(t, n_bar, gamma))
    assert np.max(np.abs(got - damped)) < 1e-12
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
    grid = default_wigner_grid(alpha0)
    x = grid[0].points()
    assert np.array_equal(x, 0.05 * np.arange(-math.ceil((alpha0 + 4.0) / 0.05),
                                              math.ceil((alpha0 + 4.0) / 0.05) + 1))
    alpha = x[:, None] + 1j * x[None, :]
    ref = complex_channel_wigner(alpha, alpha0, gain, noise_var)
    peak = np.max(np.abs(ref))
    assert np.all(np.isfinite(ref))
    got = channel_wigner(alpha.real, alpha.imag, alpha0, gain, noise_var)
    assert np.max(np.abs(got - ref)) <= 1e-12 * peak
    field = channel_wigner_field(*grid, alpha0, gain, noise_var)
    assert field.axes == grid
    assert np.max(np.abs(field.values - ref)) <= 1e-12 * peak
    assert channel_wigner(0.3, -0.2, alpha0, gain, noise_var) == pytest.approx(
        complex_channel_wigner(0.3 - 0.2j, alpha0, gain, noise_var), rel=1e-12)


def field_negativity(ax_x, ax_y, alpha0, gain, noise_var):
    return wigner_negativity(channel_wigner_field(ax_x, ax_y, alpha0, gain, noise_var))


@pytest.mark.parametrize("name", ["fig5", "fig6", "fig9", "fig10", "fig11", "fig12"])
def test_channel_negativity_is_field_negativity_on_preset_grids(name):
    # bit for bit, for the protocol channel at dt and dt/2 and the
    # storage-only damping channel, at every point of the preset
    cfg = preset(name)
    points = sweep_points(cfg) if cfg.sweep else [({}, cfg)]
    for _, sub in points:
        grid = default_wigner_grid(sub.alpha0)
        schedule = sub.schedule()
        channels = [damping_channel(schedule.t_store, sub.n_bar, sub.gamma_m)]
        for dt in (schedule.dt, schedule.dt / 2.0):
            gain, noise_var = protocol_channel(
                sub.system_params(), ProtocolSchedule(schedule.t_write, schedule.t_store, dt))
            channels.append((abs(gain), noise_var))
        for gain, noise_var in channels:
            assert channel_negativity(*grid, sub.alpha0, gain, noise_var) == \
                field_negativity(*grid, sub.alpha0, gain, noise_var)


@settings(max_examples=40, deadline=None)
@given(alpha0=st.floats(0.05, ALPHA0_MAX), gain=st.floats(0.01, 1.0),
       noise_var=st.floats(0.0, 4.0))
def test_channel_negativity_is_field_negativity(alpha0, gain, noise_var):
    # noise past gain^2 - 1/2 (the lifetime bound) leaves no negative volume
    grid = default_wigner_grid(alpha0)
    band = channel_negativity(*grid, alpha0, gain, noise_var)
    assert band == field_negativity(*grid, alpha0, gain, noise_var)
    if noise_var >= gain * gain - 0.5:
        assert band == 0.0


@pytest.mark.parametrize("t,n_bar", [(0.0, 0.0), (0.15, 0.0), (0.25, 1.5)])
def test_evolved_wigner_second_moment(t, n_bar):
    # symmetric-ordering moment: int W |alpha|^2 = <n>(t) + 1/2
    alpha0, gamma = 1.5, 1.0
    grid = square_axes(241)
    field = channel_wigner_field(*grid, alpha0, *damping_channel(t, n_bar, gamma))
    x = grid[0].points()
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
    got = channel_wigner(alpha.real, alpha.imag, 2.0, *damping_channel(50.0, n_bar, 1.0))
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


@pytest.mark.parametrize("alpha0", [0.3, 1.0, 2.0, 5.0, 18.8])
def test_cat_variance_is_even_in_alpha0(alpha0):
    # the even cat of -alpha0 is the same state, bit for bit
    assert cat_variance(-alpha0) == cat_variance(alpha0)


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


@pytest.mark.parametrize("n_bar", [0.0, 0.5, 2.0, 4.0])
@pytest.mark.parametrize("t", [0.0, 0.02, 0.0912, 0.3466, 2.0])
def test_q_channel_is_q_parameter_of_damping(t, n_bar):
    assert q_channel(*damping_channel(t, n_bar, 1.0)) == pytest.approx(
        q_parameter(t, n_bar, 1.0), rel=0.0, abs=4e-15)


def preset_channels(name):
    """(alpha0, |G|, noise_var) of the protocol channel at every preset point."""
    for _, sub in sweep_points(preset(name)):
        gain, noise_var = protocol_channel(sub.system_params(), sub.schedule())
        yield sub.alpha0, abs(gain), noise_var


def assert_positive_past_edge(alpha0, gain, noise_var, h=0.01):
    """Assert W >= 0 on every column past the edge x* and return (x, W, x*).

    W is ``channel_wigner`` on x >= 0 past the hills, h apart, and on y
    from 0 to half a fringe period pi B/(4b) in 200 steps: W is even in x
    and y, and its sign follows cos(4by/B), which that y axis takes from 1
    to -1.
    """
    broad = 1.0 + 2.0 * noise_var
    b = gain * alpha0
    ax_x = GridAxis(0.0, h * math.ceil((b + 3.0 * math.sqrt(broad)) / h), h, "re_alpha")
    half_period = math.pi * broad / (4.0 * b)
    ax_y = GridAxis(0.0, half_period, half_period / 200, "im_alpha")
    x = ax_x.points()
    values = channel_wigner_field(ax_x, ax_y, alpha0, gain, noise_var).values
    edge = _negativity_edge(alpha0, gain, noise_var)
    assert np.all(values[x > edge] >= 0.0)
    return x, values, edge


@pytest.mark.parametrize("name", ["fig10", "fig11"])
def test_channel_wigner_is_positive_past_the_edge(name):
    # and the edge is tight: W is negative on the columns just inside it
    for alpha0, gain, noise_var in preset_channels(name):
        x, values, edge = assert_positive_past_edge(alpha0, gain, noise_var)
        negative = x[np.any(values < 0.0, axis=1)]
        if q_channel(gain, noise_var) > 0.0:
            assert edge - 0.02 <= negative.max() <= edge
        else:
            assert edge == 0.0 and negative.size == 0


@settings(max_examples=40, deadline=None)
@given(alpha0=st.floats(0.05, ALPHA0_MAX), gain=st.floats(0.01, 1.0),
       noise_var=st.floats(0.0, 4.0))
def test_channel_wigner_is_positive_past_the_edge_everywhere(alpha0, gain, noise_var):
    assert_positive_past_edge(alpha0, gain, noise_var)
    # the edge closes, and the band opens to the whole axis, at the bound
    past_bound = q_channel(gain, noise_var) <= 0.0
    assert (_negativity_edge(alpha0, gain, noise_var) == 0.0) == past_bound
    band = negativity_band(alpha0, gain, noise_var)
    assert math.isinf(band) == past_bound
    if not past_bound:
        assert band == _negativity_edge(alpha0, gain, noise_var) + math.sqrt(
            1.0 + 2.0 * noise_var)


@pytest.mark.parametrize("gain, noise_var", [(1.0, 0.0), (0.999, 0.01), (0.9, 0.2)])
def test_negativity_band_is_finite_at_the_largest_cat(gain, noise_var):
    # arccosh(e^a) with a = 4 alpha0^2 q / B up to about 707: e^a overflows
    edge = _negativity_edge(ALPHA0_MAX, gain, noise_var)
    assert 0.0 < edge < math.inf
    assert math.isfinite(negativity_band(ALPHA0_MAX, gain, noise_var))


@pytest.mark.parametrize("alpha0, gain, noise_var", [(2.0, 0.98, 0.08), (5.0, 0.9, 0.1),
                                                     (1.0, 0.75, 0.05), (0.3, 0.8, 0.0)])
def test_negativity_edge_is_the_arccosh_formula(alpha0, gain, noise_var):
    broad = 1.0 + 2.0 * noise_var
    b = gain * alpha0
    direct = broad / (4.0 * b) * math.acosh(math.exp(4.0 * b * b / broad
                                                     - 2.0 * alpha0 * alpha0))
    assert _negativity_edge(alpha0, gain, noise_var) == pytest.approx(direct, rel=1e-12)


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
    grid = square_axes(201)
    field = channel_wigner_field(*grid, alpha0, *damping_channel(t, n_bar, gamma))
    x = grid[0].points()
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
        damping_channel(-0.1, 0.0, 1.0)
    with pytest.raises(ValueError):
        t_positive(-1.0, 1.0)
    with pytest.raises(ValueError):
        t_p_bound(0.0, 0.0)
    # a negative rate or occupation is no damping; a zero rate is the
    # identity channel
    with pytest.raises(ValueError, match="gamma must be non-negative"):
        damping_channel(0.02, 0.0, -1.0)
    with pytest.raises(ValueError, match="n_bar must be non-negative"):
        damping_channel(0.02, -1.0, 1.0)
    with pytest.raises(ValueError, match="gamma must be non-negative"):
        decohered_density(0.1, 2.0, -1.0)
    with pytest.raises(ValueError, match="gamma must be non-negative"):
        q_parameter(0.1, 0.0, -1.0)
    assert damping_channel(0.5, 2.0, 0.0) == (1.0, 0.0)
    assert decohered_density(0.5, 2.0, 0.0) == (2.0, 1.0)
    assert q_parameter(0.5, 2.0, 0.0) == 0.5


def test_margins_reject_what_no_channel_has():
    # a negative added noise is no channel and a negative time or occupation
    # no damping, as damping_channel, t_positive and negativity_band say
    with pytest.raises(ValueError, match="noise_var must be non-negative"):
        q_channel(0.9, -1.0)
    with pytest.raises(ValueError, match="noise_var must be non-negative"):
        negativity_band(2.0, 0.9, -1.0)
    with pytest.raises(ValueError, match="t must be non-negative"):
        q_parameter(-1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="n_bar must be non-negative"):
        q_parameter(0.1, -0.5, 1.0)
    assert q_channel(0.9, 0.0) == pytest.approx(0.31) and q_parameter(0.0, 0.0, 1.0) == 0.5
