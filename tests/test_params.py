import dataclasses
import json
import math

import numpy as np
import pytest

import cavity_eit as ce
from cavity_eit.params import C_LIGHT, HBAR, _param_dict


def test_reference_values():
    params, drive = ce.reference_defaults()
    assert params.mirror_freq == pytest.approx(8.4194683116e5, rel=1e-10)
    assert params.cavity_decay == pytest.approx(params.mirror_freq / 10)
    assert params.mirror_damping == 0.76
    assert params.effective_detuning == params.mirror_freq
    assert params.cavity_length == 6.7e-2
    assert params.wavelength == 1064e-9
    assert params.mirror_mass == 40e-12
    assert drive.pump_power == 5e-6


def test_quality_factor_near_1p1e6():
    params, _ = ce.reference_defaults()
    assert params.quality_factor == pytest.approx(1.1e6, rel=0.01)


def test_coupling_freq_from_wavelength(ref):
    params, drive = ref
    der = ce.derive(params, drive)
    # independent arithmetic: 2*pi*c/lambda
    assert der.coupling_freq == pytest.approx(
        2.0 * math.pi * C_LIGHT / 1064e-9, rel=1e-14
    )
    assert der.coupling_freq == pytest.approx(1.7703492174e15, rel=1e-10)


def test_coupling_constant(ref):
    params, drive = ref
    der = ce.derive(params, drive)
    assert der.coupling_constant < 0
    assert der.coupling_constant == pytest.approx(-der.coupling_freq / 6.7e-2)
    assert der.coupling_constant == pytest.approx(-2.6423122648e16, rel=1e-10)


def test_drive_amplitude(ref):
    params, _ = ref
    der = ce.derive(params, ce.DriveParams(pump_power=5e-6))
    expected = math.sqrt(
        2.0 * params.cavity_decay * 5e-6 / (HBAR * der.coupling_freq)
    )
    assert der.drive_amplitude == pytest.approx(expected, rel=1e-14)
    assert der.drive_amplitude == pytest.approx(2.1236100956e9, rel=1e-10)


def test_zero_pump_zero_amplitude(ref):
    params, _ = ref
    der = ce.derive(params, ce.DriveParams(pump_power=0.0))
    assert der.drive_amplitude == 0.0


def test_halving_length_doubles_coupling(ref):
    params, drive = ref
    halved = dataclasses.replace(params, cavity_length=params.cavity_length / 2)
    g1 = ce.derive(params, drive).coupling_constant
    g2 = ce.derive(halved, drive).coupling_constant
    assert g2 == 2.0 * g1  # exact: division by an exactly halved length


def test_drive_amplitude_sqrt_power_scaling(ref):
    params, _ = ref
    e1 = ce.derive(params, ce.DriveParams(pump_power=1.3e-6)).drive_amplitude
    e4 = ce.derive(params, ce.DriveParams(pump_power=4 * 1.3e-6)).drive_amplitude
    assert e4 == 2.0 * e1  # exact: sqrt of an exactly quadrupled argument


@pytest.mark.parametrize(
    "field,value",
    [
        ("cavity_length", 0.0),
        ("cavity_length", -1.0),
        ("wavelength", 0.0),
        ("mirror_mass", -40e-12),
        ("mirror_freq", 0.0),
        ("mirror_damping", 0.0),
        ("cavity_decay", -1.0),
        ("effective_detuning", math.inf),
    ],
)
def test_system_validation_names_field(field, value):
    params, _ = ce.reference_defaults()
    with pytest.raises(ce.ParameterError, match=field):
        dataclasses.replace(params, **{field: value})


def test_overdamped_mirror_rejected():
    params, _ = ce.reference_defaults()
    with pytest.raises(ce.ParameterError, match="mirror_damping"):
        dataclasses.replace(params, mirror_damping=2.0 * params.mirror_freq)


def test_negative_detuning_allowed():
    params, _ = ce.reference_defaults()
    flipped = dataclasses.replace(params, effective_detuning=-params.mirror_freq)
    assert flipped.effective_detuning < 0


def test_drive_validation():
    with pytest.raises(ce.ParameterError, match="pump_power"):
        ce.DriveParams(pump_power=-1e-6)


# --- JSON loading -----------------------------------------------------------


def test_load_defaults_from_empty_doc():
    params, drive = ce.load_params({})
    ref_params, ref_drive = ce.reference_defaults()
    assert params == ref_params
    assert drive == ref_drive


def test_load_si_keys():
    params, drive = ce.load_params(
        {"cavity_length": 0.05, "pump_power": 2e-6, "effective_detuning": -1.0}
    )
    assert params.cavity_length == 0.05
    assert params.effective_detuning == -1.0
    assert drive.pump_power == 2e-6


@pytest.mark.parametrize(
    "key,value,field,factor",
    [
        ("mirror_freq_hz", 134e3, "mirror_freq", 2.0 * math.pi),
        ("wavelength_nm", 1064.0, "wavelength", 1e-9),
        ("mirror_mass_ng", 40.0, "mirror_mass", 1e-12),
        ("pump_power_uw", 5.0, "pump_power", 1e-6),
    ],
)
def test_convenience_conversions_exact(key, value, field, factor):
    params, drive = ce.load_params({key: value})
    got = getattr(params, field, None)
    if got is None:
        got = getattr(drive, field)
    assert got == value * factor  # one correctly rounded multiplication


def test_unknown_key_rejected():
    with pytest.raises(ce.ParameterError, match="mirror_fre"):
        ce.load_params({"mirror_fre": 134e3})  # typo must not silently pass


def test_duplicate_target_rejected():
    with pytest.raises(ce.ParameterError, match="wavelength"):
        ce.load_params({"wavelength": 1.064e-6, "wavelength_nm": 1064.0})


def test_non_numeric_rejected():
    with pytest.raises(ce.ParameterError, match="pump_power"):
        ce.load_params({"pump_power": "5uW"})


def test_load_from_file(tmp_path):
    doc = {"pump_power_uw": 1.0, "mirror_freq_hz": 100e3}
    path = tmp_path / "params.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    params, drive = ce.load_params(path)
    assert drive.pump_power == 1e-6
    assert params.mirror_freq == 2.0 * math.pi * 100e3


def test_param_dict_round_trip():
    # the flat document a sidecar records reloads to the same parameters,
    # directly and through JSON, over random valid parameter sets
    rng = np.random.default_rng(20261018)
    for _ in range(200):
        freq = 10.0 ** rng.uniform(3.0, 8.0)
        params = ce.SystemParams(
            cavity_length=10.0 ** rng.uniform(-4.0, 0.0),
            wavelength=10.0 ** rng.uniform(-7.0, -5.0),
            mirror_mass=10.0 ** rng.uniform(-18.0, -6.0),
            mirror_freq=freq,
            mirror_damping=freq * 10.0 ** rng.uniform(-9.0, -1.0),
            cavity_decay=10.0 ** rng.uniform(3.0, 9.0),
            effective_detuning=freq * rng.uniform(-2.0, 2.0),
        )
        drive = ce.DriveParams(
            pump_power=float(rng.choice([0.0, 10.0 ** rng.uniform(-12.0, -2.0)]))
        )
        doc = _param_dict(params, drive)
        assert ce.load_params(doc) == (params, drive)
        assert ce.load_params(json.loads(json.dumps(doc))) == (params, drive)


def test_loaded_params_still_validated():
    with pytest.raises(ce.ParameterError, match="mirror_mass"):
        ce.load_params({"mirror_mass": -1.0})
