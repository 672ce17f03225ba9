"""Source states and the transmission noise model.

The source emits photon pairs entangled in both polarization and
spatial mode: (|HH> + |VV|)/sqrt(2) tensored with
(|a1 b1> + |a2 b2>)/sqrt(2). A noisy channel degrades the polarization
part into a four-component Bell mixture with weights (F, F1, F2, F3)
while the spatial part stays intact, apart from an optional collective
phase flip that models spatial phase noise.

The mixture is tracked classically as weighted pure components; the
density-matrix form is reconstructed on demand for cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import EPS_NORM, DensityMatrix, StateVector

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

POLARIZATION_PAIR_LABELS = ("H H", "H V", "V H", "V V")
SPATIAL_PAIR_LABELS = ("a1 b1", "a1 b2", "a2 b1", "a2 b2")


class PolarizationBell(Enum):
    """The four maximally entangled polarization states."""

    PHI_PLUS = "PhiPlus"
    PHI_MINUS = "PhiMinus"
    PSI_PLUS = "PsiPlus"
    PSI_MINUS = "PsiMinus"


_BELL_AMPLITUDES = {
    PolarizationBell.PHI_PLUS: (_INV_SQRT2, 0.0, 0.0, _INV_SQRT2),
    PolarizationBell.PHI_MINUS: (_INV_SQRT2, 0.0, 0.0, -_INV_SQRT2),
    PolarizationBell.PSI_PLUS: (0.0, _INV_SQRT2, _INV_SQRT2, 0.0),
    PolarizationBell.PSI_MINUS: (0.0, _INV_SQRT2, -_INV_SQRT2, 0.0),
}


def bell_vector(kind: PolarizationBell) -> StateVector:
    """Polarization Bell state in the (HH, HV, VH, VV) basis."""
    return StateVector(_BELL_AMPLITUDES[kind], POLARIZATION_PAIR_LABELS)


def spatial_vector(sign: int = 1) -> StateVector:
    """Two-photon spatial state (|a1 b1> + sign |a2 b2>)/sqrt(2)."""
    if sign not in (1, -1):
        raise ValueError(f"spatial sign must be +1 or -1, got {sign!r}")
    return StateVector(
        (_INV_SQRT2, 0.0, 0.0, sign * _INV_SQRT2), SPATIAL_PAIR_LABELS
    )


@dataclass(frozen=True)
class FidelityVector:
    """Mixture weights of the four Bell components of the noisy pair.

    ``f`` weights the PhiPlus component, ``f1`` PhiMinus, ``f2`` PsiPlus
    and ``f3`` PsiMinus; they must sum to one.
    """

    f: float
    f1: float
    f2: float
    f3: float

    def __post_init__(self):
        for name, value in zip(("f", "f1", "f2", "f3"), self.as_tuple()):
            if not (math.isfinite(value) and -EPS_NORM <= value <= 1.0 + EPS_NORM):
                raise ValueError(f"{name}={value!r} outside [0, 1]")
        total = self.f + self.f1 + self.f2 + self.f3
        if abs(total - 1.0) > EPS_NORM:
            raise ValueError(f"weights sum to {total!r}, expected 1")

    @classmethod
    def from_components(cls, values, tol: float = 1e-9) -> "FidelityVector":
        """Build from four weights, renormalizing round-off up to ``tol``."""
        vals = [float(v) for v in values]
        if len(vals) != 4:
            raise ValueError(f"need exactly 4 weights, got {len(vals)}")
        if any(v < 0.0 or v > 1.0 for v in vals):
            raise ValueError(f"weights {vals} outside [0, 1]")
        total = sum(vals)
        if abs(total - 1.0) > tol:
            raise ValueError(f"weights {vals} sum to {total!r}, expected 1")
        if abs(total - 1.0) <= EPS_NORM:
            return cls(*vals)
        return cls(*(v / total for v in vals))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.f, self.f1, self.f2, self.f3)


#: Fixed pairing of ensemble slots to Bell kinds.
ENSEMBLE_ORDER = (
    PolarizationBell.PHI_PLUS,
    PolarizationBell.PHI_MINUS,
    PolarizationBell.PSI_PLUS,
    PolarizationBell.PSI_MINUS,
)


@dataclass(frozen=True)
class HyperComponent:
    """One pure term of the noisy ensemble.

    A polarization Bell state tensored with the spatial pair state; the
    spatial part is (|a1 b1> + |a2 b2>)/sqrt(2) until a dephasing event
    flips ``spatial_sign`` to -1.
    """

    pol: PolarizationBell
    weight: float
    spatial_sign: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.weight) and -EPS_NORM <= self.weight <= 1.0 + EPS_NORM):
            raise ValueError(f"weight {self.weight!r} outside [0, 1]")
        if self.spatial_sign not in (1, -1):
            raise ValueError(f"spatial sign must be +1 or -1, got {self.spatial_sign!r}")

    def polarization_vector(self) -> StateVector:
        return bell_vector(self.pol)

    def spatial_state(self) -> StateVector:
        return spatial_vector(self.spatial_sign)

    def full_state(self) -> StateVector:
        """16-dim joint ket in the global interleaved basis order.

        Factor order is photon-A polarization, photon-A spatial mode,
        photon-B polarization, photon-B spatial mode.
        """
        pol = np.asarray(_BELL_AMPLITUDES[self.pol], dtype=complex).reshape(2, 2)
        spat = np.array(
            [[_INV_SQRT2, 0.0], [0.0, self.spatial_sign * _INV_SQRT2]], dtype=complex
        )
        joint = np.einsum("ik,jl->ijkl", pol, spat)
        labels = tuple(
            f"{pa} a{sa + 1} {pb} b{sb + 1}"
            for pa in ("H", "V")
            for sa in (0, 1)
            for pb in ("H", "V")
            for sb in (0, 1)
        )
        return StateVector(joint.reshape(-1), labels)


def hyper_source_state() -> StateVector:
    """The emitted two-photon state, entangled in polarization and path."""
    return HyperComponent(PolarizationBell.PHI_PLUS, 1.0).full_state()


def mixed_ensemble(fv: FidelityVector) -> tuple[HyperComponent, ...]:
    """The four weighted pure components of the noisy pair ensemble."""
    return tuple(
        HyperComponent(kind, weight)
        for kind, weight in zip(ENSEMBLE_ORDER, fv.as_tuple())
    )


def inverse_cdf(weights, u):
    """Slot that the uniform draw ``u`` selects from ``weights``.

    Slot i is the first whose running weight sum, added left to right,
    exceeds ``u``. Round-off can leave the total just below 1 (a
    FidelityVector may sum to within EPS_NORM of it, and the readout
    distributions sum to 1 - 4e-16), so a draw at or above the total
    falls back to the last slot of nonzero weight, never to a slot that
    cannot occur.

    ``u`` is one float, or an array of draws; then ``weights`` is one row
    shared by every draw or one row per draw, and an index array is
    returned.
    """
    if isinstance(u, float):
        acc = 0.0
        for i, weight in enumerate(weights):
            acc += weight
            if u < acc:
                return i
        return max(i for i, weight in enumerate(weights) if weight > 0.0)
    weights = np.asarray(weights, dtype=float)
    hits = u[:, None] < np.cumsum(weights, axis=-1)
    fallback = weights.shape[-1] - 1 - np.argmax(weights[..., ::-1] > 0.0, axis=-1)
    return np.where(hits.any(axis=1), hits.argmax(axis=1), fallback)


def ensemble_polarization_density(fv: FidelityVector) -> DensityMatrix:
    """Reconstruct the 4x4 polarization density matrix of the mixture."""
    return DensityMatrix.mixture(
        (component.weight, component.polarization_vector())
        for component in mixed_ensemble(fv)
    )
