"""Nondemolition parity measurement performed at each server.

Each incoming photon is routed by its spatial mode into one of two
internal paths (a1 -> a3, a2 -> a4 at server A; likewise b at server B)
and crosses a Kerr medium shared with a local coherent probe. Only
three probe phase classes can occur: +theta when an H photon takes the
first path, -theta when a V photon takes the second path, and zero
otherwise. An X-quadrature readout of the probe distinguishes the
magnitude of the shift but not its sign, so each server records one of
two outcomes, "Shift" or "NoShift", and routes the photon to its upper
output port on NoShift or its lower port on Shift.

Two independent implementations are provided. The branch engine tracks
the exact four-branch decomposition of a noisy pair through the device.
``oracle_evolve`` rebuilds the same physics by explicit tensor evolution
over the photon register joined with a three-level phase-class register
per probe, and is used to cross-validate the engine.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import EPS_NORM, DensityMatrix, StateVector, canonical_phase, partial_trace
from .states import (
    ENSEMBLE_ORDER,
    POLARIZATION_PAIR_LABELS,
    HyperComponent,
    PolarizationBell,
    bell_vector,
    inverse_cdf,
)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class QndOutcome(Enum):
    """Two-valued probe readout at one server."""

    SHIFT = "Shift"
    NO_SHIFT = "NoShift"

    def flipped(self) -> "QndOutcome":
        return QndOutcome.SHIFT if self is QndOutcome.NO_SHIFT else QndOutcome.NO_SHIFT


#: Fixed enumeration order of joint outcomes (A, B).
OUTCOME_PAIRS = (
    (QndOutcome.SHIFT, QndOutcome.SHIFT),
    (QndOutcome.SHIFT, QndOutcome.NO_SHIFT),
    (QndOutcome.NO_SHIFT, QndOutcome.SHIFT),
    (QndOutcome.NO_SHIFT, QndOutcome.NO_SHIFT),
)


def output_mode(outcome: QndOutcome, side: str) -> str:
    """Output port for one photon: upper (5) on NoShift, lower (6) on Shift."""
    if side not in ("a", "b"):
        raise ValueError(f"side must be 'a' or 'b', got {side!r}")
    return f"{side}5" if outcome is QndOutcome.NO_SHIFT else f"{side}6"


@dataclass(frozen=True)
class DeviceParams:
    """Cross-Kerr device settings shared by both servers.

    The engine works with the three discrete phase classes a probe can
    take, so the probe phase shift and amplitude do not enter. A nonzero
    ``homodyne_error`` flips each server's recorded outcome with that
    probability, modeling an X-homodyne readout that misreads the shift.
    """

    homodyne_error: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.homodyne_error < 0.5):
            raise ValueError(
                f"homodyne_error {self.homodyne_error!r} outside [0, 0.5)"
            )


@dataclass(frozen=True)
class Branch:
    """One term of the joint photon-probe expansion after the Kerr cells."""

    amplitude: complex
    pol_a: str
    pol_b: str
    mode_a: str
    mode_b: str
    quantum_a: int
    quantum_b: int

    @property
    def outcome_a(self) -> QndOutcome:
        return QndOutcome.SHIFT if self.quantum_a != 0 else QndOutcome.NO_SHIFT

    @property
    def outcome_b(self) -> QndOutcome:
        return QndOutcome.SHIFT if self.quantum_b != 0 else QndOutcome.NO_SHIFT


@dataclass(frozen=True)
class BranchTable:
    """Four-branch decomposition of one pair inside the two devices."""

    branches: tuple[Branch, ...]

    def __post_init__(self):
        if len(self.branches) != 4:
            raise ValueError(f"expected 4 branches, got {len(self.branches)}")
        total = sum(abs(b.amplitude) ** 2 for b in self.branches)
        if abs(total - 1.0) > EPS_NORM:
            raise ValueError(f"branch weights sum to {total!r}, expected 1")


def _probe_quantum(pol: str, path: int) -> int:
    if pol == "H" and path == 1:
        return 1
    if pol == "V" and path == 2:
        return -1
    return 0


@functools.lru_cache(maxsize=None)
def _branch_table(kind: PolarizationBell, spatial_sign: int) -> BranchTable:
    pol_vec = bell_vector(kind)
    pol_terms = [
        (label.split(" ")[0], label.split(" ")[1], complex(amp))
        for amp, label in zip(pol_vec.amplitudes, pol_vec.basis_labels)
        if abs(amp) > 0.0
    ]
    branches = []
    for path, spat_amp in ((1, _INV_SQRT2), (2, spatial_sign * _INV_SQRT2)):
        for pol_a, pol_b, pol_amp in pol_terms:
            branches.append(
                Branch(
                    amplitude=pol_amp * spat_amp,
                    pol_a=pol_a,
                    pol_b=pol_b,
                    mode_a=f"a{path + 2}",
                    mode_b=f"b{path + 2}",
                    quantum_a=_probe_quantum(pol_a, path),
                    quantum_b=_probe_quantum(pol_b, path),
                )
            )
    return BranchTable(tuple(branches))


def build_branch_table(component: HyperComponent) -> BranchTable:
    """Expand one pair component into its four photon-probe branches."""
    return _branch_table(component.pol, component.spatial_sign)


@functools.lru_cache(maxsize=256)
def _distribution_tuple(table: BranchTable) -> tuple[float, float, float, float]:
    dist = {pair: 0.0 for pair in OUTCOME_PAIRS}
    for branch in table.branches:
        dist[(branch.outcome_a, branch.outcome_b)] += abs(branch.amplitude) ** 2
    return tuple(dist[pair] for pair in OUTCOME_PAIRS)


def outcome_distribution(
    table: BranchTable,
) -> dict[tuple[QndOutcome, QndOutcome], float]:
    """Exact joint probability of the two servers' readouts."""
    return dict(zip(OUTCOME_PAIRS, _distribution_tuple(table)))


def same_outcome_probability(table: BranchTable) -> float:
    """Probability that both servers record the same readout."""
    dist = outcome_distribution(table)
    return (
        dist[(QndOutcome.SHIFT, QndOutcome.SHIFT)]
        + dist[(QndOutcome.NO_SHIFT, QndOutcome.NO_SHIFT)]
    )


@functools.lru_cache(maxsize=1024)
def conditional_pol_state(
    table: BranchTable, pair: tuple[QndOutcome, QndOutcome]
) -> StateVector | None:
    """Polarization state of the surviving photons given a joint readout.

    Returns None when the readout pair has zero probability. Results are
    cached and shared; state vectors are immutable.
    """
    amps = np.zeros(4, dtype=complex)
    index = {("H", "H"): 0, ("H", "V"): 1, ("V", "H"): 2, ("V", "V"): 3}
    for branch in table.branches:
        if (branch.outcome_a, branch.outcome_b) == pair:
            amps[index[(branch.pol_a, branch.pol_b)]] += branch.amplitude
    norm = float(np.linalg.norm(amps))
    if norm <= EPS_NORM:
        return None
    return StateVector(canonical_phase(amps / norm), POLARIZATION_PAIR_LABELS)


@dataclass(frozen=True)
class DistilledPair:
    """Post-measurement record for one pair.

    ``outcome_a``/``outcome_b`` are the recorded readouts (after any
    homodyne misclassification), the output modes follow them, and
    ``pol_state`` is the exact surviving two-qubit polarization state.
    ``probability`` is the Born probability of the realized readout pair.
    """

    outcome_a: QndOutcome
    outcome_b: QndOutcome
    output_mode_a: str
    output_mode_b: str
    pol_state: StateVector
    probability: float

    def __post_init__(self):
        if self.pol_state.dim != 4:
            raise ValueError(
                f"pol_state must be a two-qubit state, got dim {self.pol_state.dim}"
            )
        if self.output_mode_a != output_mode(self.outcome_a, "a"):
            raise ValueError(
                f"mode {self.output_mode_a!r} inconsistent with {self.outcome_a}"
            )
        if self.output_mode_b != output_mode(self.outcome_b, "b"):
            raise ValueError(
                f"mode {self.output_mode_b!r} inconsistent with {self.outcome_b}"
            )
        if not (0.0 <= self.probability <= 1.0 + EPS_NORM):
            raise ValueError(f"probability {self.probability!r} outside [0, 1]")


def measure_probes(
    table: BranchTable, params: DeviceParams, rng: np.random.Generator
) -> DistilledPair:
    """Sample both servers' probe readouts and collapse the pair.

    Consumes one uniform draw for the joint readout and, only when
    ``params.homodyne_error > 0``, one additional draw per server for
    the misclassification flip.
    """
    probs = _distribution_tuple(table)
    chosen = inverse_cdf(probs, float(rng.random()))
    true_pair = OUTCOME_PAIRS[chosen]
    state = conditional_pol_state(table, true_pair)
    if state is None:
        raise RuntimeError(f"sampled readout {true_pair} has no surviving branch")
    recorded_a, recorded_b = true_pair
    if params.homodyne_error > 0.0:
        if float(rng.random()) < params.homodyne_error:
            recorded_a = recorded_a.flipped()
        if float(rng.random()) < params.homodyne_error:
            recorded_b = recorded_b.flipped()
    return DistilledPair(
        outcome_a=recorded_a,
        outcome_b=recorded_b,
        output_mode_a=output_mode(recorded_a, "a"),
        output_mode_b=output_mode(recorded_b, "b"),
        pol_state=state,
        probability=probs[chosen],
    )


# --- cases and readouts -------------------------------------------------------
#
# A pair reaches the devices in one of 8 cases: a Bell kind and a spatial
# sign. Case 2*i + s is ENSEMBLE_ORDER[i] with spatial sign +1 (s = 0) or
# -1 (s = 1); readout r is OUTCOME_PAIRS[r], so r = 2*a + b with the
# outcome codes SHIFT = 0 and NO_SHIFT = 1 of each server.

CASES = tuple((kind, sign) for kind in ENSEMBLE_ORDER for sign in (1, -1))


# --- full-Hilbert-space oracle ---------------------------------------------
#
# The oracle carries the joint photon register (16-dim, factor order
# pol-A, path-A, pol-B, path-B) tensored with one three-level phase-class
# register per probe (quanta -1, 0, +1). The X readout identifies the
# two shifted classes, which is applied as a coherent relabeling onto a
# binary outcome register (0 = NoShift, 1 = Shift); the photon paths are
# then recombined into the outcome's output port. The returned density
# matrix lives on photon (16) x outcome-A (2) x outcome-B (2) = 64 and
# is block-diagonal in the outcome registers.


def oracle_evolve(component: HyperComponent, params: DeviceParams) -> DensityMatrix:
    """Evolve one pair through both devices by explicit tensor algebra."""
    del params  # homodyne misreads flip the record, not the state
    pol = np.asarray(
        bell_vector(component.pol).amplitudes, dtype=complex
    ).reshape(2, 2)
    spat = np.array(
        [[_INV_SQRT2, 0.0], [0.0, component.spatial_sign * _INV_SQRT2]],
        dtype=complex,
    )
    psi = np.einsum("ik,jl->ijkl", pol, spat)

    joint = np.zeros((2, 2, 2, 2, 3, 3), dtype=complex)
    for pa in range(2):
        for sa in range(2):
            for pb in range(2):
                for sb in range(2):
                    qa = _probe_quantum("HV"[pa], sa + 1)
                    qb = _probe_quantum("HV"[pb], sb + 1)
                    joint[pa, sa, pb, sb, qa + 1, qb + 1] = psi[pa, sa, pb, sb]

    quanta_for_class = {0: (1,), 1: (0, 2)}
    rho = np.zeros((64, 64), dtype=complex)
    for class_a in (0, 1):
        for class_b in (0, 1):
            sel = joint[
                :, :, :, :, list(quanta_for_class[class_a])
            ][:, :, :, :, :, list(quanta_for_class[class_b])]
            # Born probability of the readout pair, summed projectively.
            prob = float(np.sum(np.abs(sel) ** 2))
            if prob <= EPS_NORM:
                continue
            # Coherent class identification, then path recombination into
            # the outcome's output port.
            collapsed = np.sum(sel, axis=(4, 5))
            pol_out = np.sum(collapsed, axis=(1, 3))
            pol_out /= np.linalg.norm(pol_out)
            vec = np.zeros((2, 2, 2, 2, 2, 2), dtype=complex)
            vec[:, class_a, :, class_b, class_a, class_b] = pol_out
            flat = vec.reshape(-1)
            rho += prob * np.outer(flat, flat.conj())
    return DensityMatrix(rho)


def oracle_outcome_distribution(
    rho: DensityMatrix,
) -> dict[tuple[QndOutcome, QndOutcome], float]:
    """Joint readout probabilities read off an oracle density matrix."""
    reduced = partial_trace(rho, keep=(4, 5), dims=(2, 2, 2, 2, 2, 2))
    classes = (QndOutcome.NO_SHIFT, QndOutcome.SHIFT)
    return {
        (classes[x], classes[y]): float(reduced.entries[2 * x + y, 2 * x + y].real)
        for x in (0, 1)
        for y in (0, 1)
    }


def oracle_conditional_pol_state(
    rho: DensityMatrix, pair: tuple[QndOutcome, QndOutcome]
) -> DensityMatrix | None:
    """Polarization state conditioned on a readout pair, from the oracle.

    Returns None when the readout pair has zero probability.
    """
    x = 0 if pair[0] is QndOutcome.NO_SHIFT else 1
    y = 0 if pair[1] is QndOutcome.NO_SHIFT else 1
    idx = np.array([ph * 4 + x * 2 + y for ph in range(16)])
    block = rho.entries[np.ix_(idx, idx)]
    prob = float(np.trace(block).real)
    if prob <= EPS_NORM:
        return None
    conditioned = DensityMatrix(block / prob)
    return partial_trace(conditioned, keep=(0, 2), dims=(2, 2, 2, 2))
