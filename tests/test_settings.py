"""Every numeric setting goes through one check, `circuits.checked`."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deuteronvqe.ansatz import HypersphericalParams
from deuteronvqe.circuits import ConfigError, Gate, checked
from deuteronvqe.driver import RunConfig, ScanSpec
from deuteronvqe.estimator import ZnePoint
from deuteronvqe.hamiltonian import EftConfig
from deuteronvqe.simulator import FoldSpec, NoiseModel, sample_shots_noisy


def _reals(lo=-1e3, hi=1e3, **bounds):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **bounds)


_RATE = _reals(0.0, 1.0)
_NOT_A_RATE = _reals(hi=0.0, exclude_max=True) | _reals(1.0, exclude_min=True)
_ANGLE = _reals(-10.0, 10.0)

# every settings constructor and numeric field: (kind, build from the value,
# in-range values, out-of-range values or None where any finite value is valid)
SETTINGS = {
    "EftConfig.n_states": (int, EftConfig, st.integers(1, 12), st.integers(max_value=0)),
    "EftConfig.hbar_omega": (float, lambda v: EftConfig(2, hbar_omega=v), _reals(1e-3),
                             _reals(hi=0.0)),
    "EftConfig.v0": (float, lambda v: EftConfig(2, v0=v), _reals(), None),
    "RunConfig.n_states": (int, lambda v: RunConfig(n_states=v), st.integers(2, 12),
                           st.integers(max_value=1)),
    "RunConfig.lambdas": (float, lambda v: RunConfig(n_states=2, lambdas=(v,)), _ANGLE, None),
    "RunConfig.shots": (int, lambda v: RunConfig(n_states=2, shots=v), st.integers(0, 10**6),
                        st.integers(max_value=-1)),
    # shots=0: an exact run does not fit, so (0, 0) is a valid pair of levels
    "RunConfig.fold_levels": (int, lambda v: RunConfig(n_states=2, shots=0, fold_levels=(0, v)),
                              st.integers(0, 20), st.integers(max_value=-1)),
    "RunConfig.seed": (int, lambda v: RunConfig(n_states=2, seed=v), st.integers(0, 2**31 - 1),
                       st.integers(max_value=-1)),
    "RunConfig.hbar_omega": (float, lambda v: RunConfig(n_states=2, hbar_omega=v), _reals(1e-3),
                             _reals(hi=0.0)),
    "RunConfig.v0": (float, lambda v: RunConfig(n_states=2, v0=v), _reals(), None),
    "RunConfig.max_evals": (int, lambda v: RunConfig(n_states=2, max_evals=v), st.integers(1, 10**4),
                            st.integers(max_value=0)),
    "NoiseModel.p1": (float, lambda v: NoiseModel(p1=v), _RATE, _NOT_A_RATE),
    "NoiseModel.p2": (float, lambda v: NoiseModel(p2=v), _RATE, _NOT_A_RATE),
    "ion_defaults.n_qubits": (int, NoiseModel.ion_defaults, st.integers(0, 12),
                              st.integers(max_value=-1)),
    "ion_defaults.p1": (float, lambda v: NoiseModel.ion_defaults(2, p1=v), _RATE, _NOT_A_RATE),
    "ion_defaults.p2": (float, lambda v: NoiseModel.ion_defaults(2, p2=v), _RATE, _NOT_A_RATE),
    "ion_defaults.readout_eps": (float, lambda v: NoiseModel.ion_defaults(2, readout_eps=v), _RATE,
                                 _NOT_A_RATE),
    "FoldSpec.m": (int, FoldSpec, st.integers(0, 100), st.integers(max_value=-1)),
    "HypersphericalParams.lambdas": (float, lambda v: HypersphericalParams((0.5, v)), _ANGLE, None),
    "ScanSpec.index": (int, lambda v: ScanSpec(v, (0.1,), (0.5, 0.5)), st.integers(0, 1),
                       st.integers(max_value=-1) | st.integers(min_value=2)),
    "ScanSpec.values": (float, lambda v: ScanSpec(0, (0.1, v), (0.5, 0.5)), _ANGLE, None),
    "ScanSpec.fixed": (float, lambda v: ScanSpec(0, (0.1,), (0.5, v)), _ANGLE, None),
    "Gate.angle": (float, lambda v: Gate("rx", (0,), v), _ANGLE, None),
    "sample_shots_noisy.shots": (int, lambda v: sample_shots_noisy(np.array([1.0, 0.0]), v, 0),
                                 st.integers(1, 10**6), st.integers(max_value=0)),
    "sample_shots_noisy.seed": (int, lambda v: sample_shots_noisy(np.array([1.0, 0.0]), 1, v),
                                st.integers(0, 2**31 - 1), st.integers(max_value=-1)),
    "ZnePoint.r": (int, lambda v: ZnePoint(v, 0.0, 0.1), st.integers(0, 50).map(lambda k: 2 * k + 1),
                   st.integers(max_value=0) | st.integers(1, 50).map(lambda k: 2 * k)),
    "ZnePoint.value": (float, lambda v: ZnePoint(1, v, 0.1), _reals(), None),
    "ZnePoint.sigma": (float, lambda v: ZnePoint(1, 0.0, v), _reals(0.0),
                       _reals(hi=0.0, exclude_max=True)),
}

# never a number: NaN, infinities, true/false (numpy's too) and a string
NEVER_VALID = (math.nan, math.inf, -math.inf, np.float64(math.nan), np.float32(-math.inf),
               True, False, np.bool_(True), "1")


@pytest.mark.parametrize("name", SETTINGS)
@settings(max_examples=25)
@given(data=st.data())
def test_every_numeric_setting_is_checked(name, data):
    kind, build, valid, out_of_range = SETTINGS[name]
    # in-range values are accepted, numpy scalars included
    numpy_types = (np.int64, np.int32) if kind is int else (np.float64, np.float32)
    build(data.draw(st.sampled_from((kind, *numpy_types)))(data.draw(valid)))
    bad = list(NEVER_VALID)
    if kind is int:  # a float is not an integer, even an integral one
        bad.append(data.draw(_reals(-100.0, 100.0)))
    if out_of_range is not None:
        bad.append(data.draw(out_of_range))
    for value in bad:
        with pytest.raises(ConfigError, match="must be"):
            build(value)


def test_checked_returns_the_value_and_names_the_setting():
    value = np.float32(0.25)
    assert checked("p1", value, ge=0, le=1) is value
    with pytest.raises(ConfigError, match=r"^shots must be an integer >= 0, got 2\.5$"):
        checked("shots", 2.5, int, ge=0)
    with pytest.raises(ConfigError, match=r"^hbar_omega must be a finite number > 0, got nan$"):
        checked("hbar_omega", math.nan, gt=0)
