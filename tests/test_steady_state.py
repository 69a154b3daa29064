import dataclasses
import math

import pytest

import cavity_eit as ce
from cavity_eit.params import HBAR

from conftest import steady_at


def test_zero_pump_is_dark(ref):
    params, _ = ref
    st = steady_at(params, 0.0)
    assert st.cavity_amp == 0
    assert st.photon_number == 0
    assert st.mirror_displacement == 0
    assert st.alpha == 0


def test_photon_number_definition(steady_5uw):
    assert steady_5uw.photon_number == abs(steady_5uw.cavity_amp) ** 2


def test_reference_photon_number(ref, steady_5uw):
    params, drive = ref
    der = ce.derive(params, drive)
    # independent arithmetic: |c0|^2 = eps_c^2 / (4 kappa^2 + Delta^2)
    expected = der.drive_amplitude**2 / (
        4 * params.cavity_decay**2 + params.effective_detuning**2
    )
    assert steady_5uw.photon_number == pytest.approx(expected, rel=1e-12)
    assert steady_5uw.photon_number == pytest.approx(6.1171184460e6, rel=1e-9)


def test_reference_alpha(ref, steady_5uw):
    params, drive = ref
    der = ce.derive(params, drive)
    expected = HBAR * der.coupling_constant**2 * steady_5uw.photon_number
    assert steady_5uw.alpha == pytest.approx(expected, rel=1e-12)
    assert steady_5uw.alpha == pytest.approx(4.5039268868e5, rel=1e-9)


def test_reference_displacement(ref, steady_5uw):
    assert steady_5uw.mirror_displacement == pytest.approx(6.0114309989e-13, rel=1e-9)


def test_displacement_sign_opposes_coupling(ref, steady_5uw):
    params, drive = ref
    g = ce.derive(params, drive).coupling_constant
    assert steady_5uw.photon_number > 0
    assert math.copysign(1.0, steady_5uw.mirror_displacement) == -math.copysign(1.0, g)


def test_force_balance(ref, steady_5uw):
    params, drive = ref
    g = ce.derive(params, drive).coupling_constant
    residual = (
        steady_5uw.mirror_displacement * params.mirror_mass * params.mirror_freq**2
        + HBAR * g * steady_5uw.photon_number
    )
    assert abs(residual) <= 1e-12 * abs(HBAR * g * steady_5uw.photon_number)


def test_amplitude_balance(ref, steady_5uw):
    params, drive = ref
    der = ce.derive(params, drive)
    lhs = steady_5uw.photon_number * (
        4 * params.cavity_decay**2 + params.effective_detuning**2
    )
    assert lhs == pytest.approx(der.drive_amplitude**2, rel=1e-12)


def test_alpha_quadrupling_is_exact(ref):
    params, _ = ref
    a1 = steady_at(params, 1.1e-6).alpha
    a4 = steady_at(params, 4 * 1.1e-6).alpha
    assert a4 == 4.0 * a1


@pytest.mark.parametrize("scale", [0.3, 2.0, 7.5])
def test_alpha_linear_in_power(ref, scale):
    params, _ = ref
    base = steady_at(params, 1e-6).alpha
    scaled = steady_at(params, scale * 1e-6).alpha
    assert scaled == pytest.approx(scale * base, rel=1e-13)


@pytest.mark.parametrize(
    "changes,power",
    [
        ({}, 1e299),  # the pump rate eps_c overflows to inf
        # a narrow resonant cavity: |c0| is finite but the float power |c0|**2 raises
        ({"cavity_decay": 1e-3, "effective_detuning": 0.0}, 1e290),
    ],
)
def test_non_finite_alpha_rejected(ref, changes, power):
    params = dataclasses.replace(ref[0], **changes)
    with pytest.raises(ce.ParameterError, match="pump_power"):
        steady_at(params, power)
