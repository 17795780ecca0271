"""Published reference values used as regression baselines and report constants.

All energies in MeV.  The landscape table lists zero-noise-extrapolated
trapped-ion measurements of the four-state ansatz energy, taken while varying
one hyperspherical parameter at a time around the optimum, together with the
predicted values; it anchors the angle-convention resolution and the
quadratic-fit regression tests.  The cross-platform points are embedded as
constants for the convergence report, not recomputed.
"""
from __future__ import annotations

from dataclasses import dataclass

# exact deuteron binding energy in the infinite-basis limit
EXACT_BINDING_ENERGY = -2.224

# exact variational minima of the one-hot ansatz for N = 2, 3, 4
UCCS_EXACT_MINIMA = {2: -1.749, 3: -2.046, 4: -2.143}

# reported optimum of the four-state ansatz in the published parameterization
OPTIMAL_LAMBDAS_N4 = (0.858, 0.958, 0.758)


@dataclass(frozen=True)
class LandscapeRow:
    lambdas: tuple[float, float, float]
    measured: float
    measured_sigma: float
    predicted: float


# four-state landscape: optimum row first, then four rows varying lambda0,
# four varying lambda1, four varying lambda2
LANDSCAPE_N4 = (
    LandscapeRow((0.858, 0.958, 0.758), -2.256, 0.179, -2.143),
    LandscapeRow((0.420, 0.958, 0.758), -1.568, 0.165, -1.693),
    LandscapeRow((0.550, 0.958, 0.758), -1.708, 0.172, -1.925),
    LandscapeRow((1.140, 0.958, 0.758), -1.492, 0.190, -1.921),
    LandscapeRow((1.260, 0.958, 0.758), -1.599, 0.191, -1.708),
    LandscapeRow((0.858, 0.190, 0.758), -1.425, 0.169, -1.707),
    LandscapeRow((0.858, 0.410, 0.758), -1.549, 0.172, -1.916),
    LandscapeRow((0.858, 1.440, 0.758), -2.064, 0.187, -1.915),
    LandscapeRow((0.858, 1.630, 0.758), -1.646, 0.188, -1.707),
    LandscapeRow((0.858, 0.958, -0.510), -2.066, 0.179, -1.713),
    LandscapeRow((0.858, 0.958, -0.120), -1.370, 0.182, -1.917),
    LandscapeRow((0.858, 0.958, 1.600), -1.524, 0.187, -1.918),
    LandscapeRow((0.858, 0.958, 1.930), -1.563, 0.194, -1.709),
)


def landscape_column(index: int) -> list[LandscapeRow]:
    """Optimum row plus the four rows that vary parameter `index`."""
    if index not in (0, 1, 2):
        raise ValueError("parameter index must be 0, 1 or 2")
    start = 1 + 4 * index
    return [LANDSCAPE_N4[0], *LANDSCAPE_N4[start : start + 4]]


# reported per-parameter quadratic-fit minima and their average
LANDSCAPE_FIT_MINIMA = (-2.080, -2.200, -1.946)
LANDSCAPE_FIT_AVERAGE = -2.088

# hardware results on other platforms, (n_states, energy, sigma), for the
# aggregate convergence report
PLATFORM_RESULTS = {
    "rigetti-19q": ((2, -1.72, 0.03),),
    "ibm-qx5": ((2, -1.80, 0.05), (3, -2.08, 0.03)),
    "umd-ionq": ((3, -2.030, 0.034), (4, -2.220, 0.179)),
}
