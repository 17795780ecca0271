"""Hyperspherical one-hot ansatz: amplitudes, circuits, exact energies.

The variational state lives in the single-occupation ("one-hot") sector and
is an arbitrary real unit vector over the N one-hot basis states,
parameterized by N-1 hyperspherical angles:

    a_0     = cos g(l_0)
    a_k     = sin g(l_0) ... sin g(l_{k-1}) * cos g(l_k)      0 < k < N-1
    a_{N-1} = sin g(l_0) ... sin g(l_{N-2})

The published parameter values do not reproduce the published energies under
a literal reading g(l) = l.  The package has one reading, g(l) = l/2
(`RESOLVED_CONVENTION`): circuits, the inverse map and the exact optimum use
it, and only `amplitudes` and `energy_expectation_exact` take another.
`convention_scan` checks the constant against the reference landscape table
over a small candidate family (scaling, complement, sign flip, index
reversal), and the CLI report command persists that scan.

Circuit construction follows the published recipe: prepare |1 0 ... 0>, then
shift amplitude rightwards one site at a time with a controlled-RY plus CX
block.  The first block's control is the freshly prepared |1>, so its
rotation is emitted uncontrolled (this is the published base-case circuit
and what makes the five-XX native form exact).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import ConfigError, Gate, LogicalCircuit, checked
from .hamiltonian import EftConfig, OscillatorHamiltonian, build_oscillator_hamiltonian, ground_state
from .refdata import LANDSCAPE_N4

CONVENTION_TOLERANCE = 5e-3

# convention base -> g, on arrays of angles
CONVENTION_BASES = {
    "identity": lambda x: x,
    "half": lambda x: x / 2,
    "complement": lambda x: math.pi / 2 - x,
}


@dataclass(frozen=True)
class AngleConvention:
    """Map from published parameter values to effective amplitude angles:
    g(l) = base(sign * l), applied after optional index reversal."""

    base: str = "half"  # a key of CONVENTION_BASES
    sign: int = 1
    reversed: bool = False

    def __post_init__(self):
        if self.base not in CONVENTION_BASES or self.sign not in (1, -1):
            raise ConfigError(f"convention base must be one of {', '.join(CONVENTION_BASES)} "
                              f"and sign 1 or -1, got {self.base!r}, {self.sign!r}")

    def effective_angles(self, lambdas) -> np.ndarray:
        lam = np.asarray(lambdas, dtype=float)
        if self.reversed:
            lam = lam[::-1]
        return CONVENTION_BASES[self.base](self.sign * lam)

    @property
    def name(self) -> str:
        s = {1: "", -1: "-"}[self.sign]
        r = ", reversed" if self.reversed else ""
        return f"g(l) = {self.base}({s}l){r}"


RESOLVED_CONVENTION = AngleConvention(base="half")

CANDIDATE_CONVENTIONS = tuple(
    AngleConvention(base=b, sign=s, reversed=r)
    for b in CONVENTION_BASES
    for s in (1, -1)
    for r in (False, True)
)


@dataclass(frozen=True, slots=True)
class HypersphericalParams:
    """N-1 hyperspherical angles (radians) in the published parameterization."""

    lambdas: tuple[float, ...]

    def __post_init__(self):
        for i, v in enumerate(self.lambdas):
            checked(f"lambdas[{i}]", v)

    @property
    def n_states(self) -> int:
        return len(self.lambdas) + 1


def amplitudes(
    params: HypersphericalParams,
    convention: AngleConvention = RESOLVED_CONVENTION,
) -> np.ndarray:
    """Real unit vector of one-hot amplitudes for the given parameters."""
    ang = convention.effective_angles(params.lambdas)
    n = len(ang) + 1
    a = np.empty(n)
    sin_prod = 1.0
    for k in range(n - 1):
        a[k] = sin_prod * math.cos(ang[k])
        sin_prod *= math.sin(ang[k])
    a[n - 1] = sin_prod
    return a


def build_ansatz_circuit(n_states: int, params: HypersphericalParams) -> LogicalCircuit:
    """Logical circuit preparing the one-hot state with `amplitudes(params)`.

    The emitted rotation angles are the effective amplitude angles g(l), so
    cos/sin of the gate angle appear directly in the prepared state.
    """
    checked("n_states", n_states, int, ge=2)
    if params.n_states != n_states:
        raise ConfigError(f"lambdas must hold n_states - 1 = {n_states - 1} angles, "
                          f"got {len(params.lambdas)}")
    ang = RESOLVED_CONVENTION.effective_angles(params.lambdas)
    gates = [Gate("prep_excite", (0,))]
    for i in range(n_states - 1):
        if i == 0:  # its control would be the freshly prepared |1>
            gates.append(Gate("ry", (1,), float(ang[0])))
        else:
            gates.append(Gate("cry", (i, i + 1), float(ang[i])))
        gates.append(Gate("cx", (i + 1, i)))
    return LogicalCircuit(n_states, gates)


def parameters_from_amplitudes(amps) -> HypersphericalParams:
    """Invert the hyperspherical map, canonicalizing equivalent angle choices.

    Effective angles come from the usual spherical-coordinate inverse
    (non-negative tail norms, full-range last angle); they are then mapped
    back through the resolved convention, l = 2 g.
    """
    a = np.asarray(amps, dtype=float)
    n = len(a)
    phis = np.zeros(max(n - 1, 0))
    for k in range(n - 2):
        tail = float(np.linalg.norm(a[k + 1 :]))
        phis[k] = math.atan2(tail, a[k])
    if n >= 2:
        phis[n - 2] = math.atan2(a[n - 1], a[n - 2])
    return HypersphericalParams(tuple(float(v) for v in 2 * phis))


def energy_expectation_exact(
    params: HypersphericalParams,
    h: OscillatorHamiltonian,
    convention: AngleConvention = RESOLVED_CONVENTION,
) -> float:
    """Exact quadratic form a^T h a of the ansatz state, no sampling."""
    if params.n_states != h.dim:
        raise ValueError(f"params describe {params.n_states} states, matrix is {h.dim}x{h.dim}")
    a = amplitudes(params, convention)
    return float(a @ h.entries @ a)


def optimal_parameters(h: OscillatorHamiltonian) -> tuple[HypersphericalParams, float]:
    """Exact minimum of the ansatz energy, in closed form.

    The ansatz spans the whole one-hot sector, so the minimizing amplitudes
    are the ground eigenvector of `h` and the minimum is its lowest
    eigenvalue.  The angles are the canonical inverse of that vector.
    """
    energy, v = ground_state(h)
    return parameters_from_amplitudes(v), energy


def convention_scan() -> list[dict]:
    """Max absolute landscape-table error for every candidate convention."""
    h4 = build_oscillator_hamiltonian(EftConfig(n_states=4))
    out = []
    for conv in CANDIDATE_CONVENTIONS:
        err = max(abs(energy_expectation_exact(HypersphericalParams(row.lambdas), h4, conv)
                      - row.predicted) for row in LANDSCAPE_N4)
        out.append({"base": conv.base, "sign": conv.sign, "reversed": conv.reversed,
                    "name": conv.name, "max_error": err, "resolved": err <= CONVENTION_TOLERANCE})
    return sorted(out, key=lambda e: e["max_error"])
