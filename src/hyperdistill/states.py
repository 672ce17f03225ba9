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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import DensityMatrix, StateVector
from .model import (
    BELL_AMPLITUDES, ENSEMBLE_ORDER, EPS_NORM, _INV_SQRT2, FidelityVector, PolarizationBell,
)

POLARIZATION_PAIR_LABELS = ("H H", "H V", "V H", "V V")
SPATIAL_PAIR_LABELS = ("a1 b1", "a1 b2", "a2 b1", "a2 b2")


@functools.cache
def bell_vector(kind: PolarizationBell) -> StateVector:
    """Polarization Bell state in the (HH, HV, VH, VV) basis; one frozen
    instance per kind."""
    return StateVector(BELL_AMPLITUDES[kind], POLARIZATION_PAIR_LABELS)


def spatial_vector(sign: int = 1) -> StateVector:
    """Two-photon spatial state (|a1 b1> + sign |a2 b2>)/sqrt(2)."""
    if sign not in (1, -1):
        raise ValueError(f"spatial sign must be +1 or -1, got {sign!r}")
    return StateVector(
        (_INV_SQRT2, 0.0, 0.0, sign * _INV_SQRT2), SPATIAL_PAIR_LABELS
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
        pol = np.asarray(BELL_AMPLITUDES[self.pol], dtype=complex).reshape(2, 2)
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


def ensemble_polarization_density(fv: FidelityVector) -> DensityMatrix:
    """Reconstruct the 4x4 polarization density matrix of the mixture."""
    return DensityMatrix.mixture(
        (component.weight, component.polarization_vector())
        for component in mixed_ensemble(fv)
    )
