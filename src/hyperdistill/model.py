"""Names that the table engine and the tensor oracle share: the tolerance,
the Bell kinds with their amplitudes and mixture weights, the readouts, the
pair cases and the device settings. It imports nothing from the package, so
a run loads none of the oracle's modules (``linalg``, ``states``, ``qnd``).
Its records, and the CLI's ``RunConfig``, are ``NamedTuple``s checked by
``Checked``, so that a run imports no ``dataclasses``.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

#: Tolerance for normalization / hermiticity / trace checks.
EPS_NORM = 1e-12

#: Round-off in a sum of weights that ``from_components`` renormalizes away.
EPS_WEIGHTS = 1e-9

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class PolarizationBell(Enum):
    """The four maximally entangled polarization states."""

    PHI_PLUS = "PhiPlus"
    PHI_MINUS = "PhiMinus"
    PSI_PLUS = "PsiPlus"
    PSI_MINUS = "PsiMinus"


#: Amplitudes of each Bell state over (HH, HV, VH, VV), as plain floats:
#: the engine's table reads them as data, and ``bell_vector`` wraps them.
BELL_AMPLITUDES = {
    PolarizationBell.PHI_PLUS: (_INV_SQRT2, 0.0, 0.0, _INV_SQRT2),
    PolarizationBell.PHI_MINUS: (_INV_SQRT2, 0.0, 0.0, -_INV_SQRT2),
    PolarizationBell.PSI_PLUS: (0.0, _INV_SQRT2, _INV_SQRT2, 0.0),
    PolarizationBell.PSI_MINUS: (0.0, _INV_SQRT2, -_INV_SQRT2, 0.0),
}


class Checked:
    """First base of a class whose second is a NamedTuple of its fields:
    the class's ``_check`` runs on every instance made, by ``_make`` and
    ``_replace`` too, and raises ValueError for a bad one."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _FidelityFields(NamedTuple):
    f: float
    f1: float
    f2: float
    f3: float


class FidelityVector(Checked, _FidelityFields):
    """Mixture weights of the four Bell components of the noisy pair.

    ``f`` weights the PhiPlus component, ``f1`` PhiMinus, ``f2`` PsiPlus
    and ``f3`` PsiMinus; they must sum to one.
    """

    __slots__ = ()

    def _check(self):
        for name, value in zip(("f", "f1", "f2", "f3"), self.as_tuple()):
            if not (math.isfinite(value) and -EPS_NORM <= value <= 1.0 + EPS_NORM):
                raise ValueError(f"{name}={value!r} outside [0, 1]")
        total = self.f + self.f1 + self.f2 + self.f3
        if abs(total - 1.0) > EPS_NORM:
            raise ValueError(f"weights sum to {total!r}, expected 1")

    @classmethod
    def from_components(cls, values) -> "FidelityVector":
        """Build from four weights, renormalizing round-off up to ``EPS_WEIGHTS``."""
        vals = [float(v) for v in values]
        if len(vals) != 4:
            raise ValueError(f"need exactly 4 weights, got {len(vals)}")
        if any(v < 0.0 or v > 1.0 for v in vals):
            raise ValueError(f"weights {vals} outside [0, 1]")
        total = sum(vals)
        if abs(total - 1.0) > EPS_WEIGHTS:
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


def inverse_cdf(weights, u):
    """Slots that the array of uniform draws ``u`` selects from the one row
    of ``weights``.

    A draw selects the first slot whose running weight sum, added left to
    right, exceeds it: the sums are searched through their running
    maximum, which a slot of weight down to -EPS_NORM cannot make
    decrease. Round-off can leave the total just below 1 (a FidelityVector
    may sum to within EPS_NORM of it), so a draw at or above the total
    falls back to the last slot of positive weight, never to a slot that
    cannot occur.
    """
    weights = np.asarray(weights, dtype=float)
    sums = np.maximum.accumulate(np.cumsum(weights))
    last = len(weights) - 1 - np.argmax(weights[::-1] > 0.0)
    return np.minimum(np.searchsorted(sums, u, side="right"), last)


class QndOutcome(Enum):
    """Two-valued probe readout at one server."""

    SHIFT = "Shift"
    NO_SHIFT = "NoShift"


#: Fixed enumeration order of joint outcomes (A, B).
OUTCOME_PAIRS = (
    (QndOutcome.SHIFT, QndOutcome.SHIFT),
    (QndOutcome.SHIFT, QndOutcome.NO_SHIFT),
    (QndOutcome.NO_SHIFT, QndOutcome.SHIFT),
    (QndOutcome.NO_SHIFT, QndOutcome.NO_SHIFT),
)


# --- cases and readouts -------------------------------------------------------
#
# A pair reaches the devices in one of 8 cases: a Bell kind and a spatial
# sign. Case 2*i + s is ENSEMBLE_ORDER[i] with spatial sign +1 (s = 0) or
# -1 (s = 1); readout r is OUTCOME_PAIRS[r], so r = 2*a + b with the
# outcome codes SHIFT = 0 and NO_SHIFT = 1 of each server.

CASES = tuple((kind, sign) for kind in ENSEMBLE_ORDER for sign in (1, -1))


class _DeviceFields(NamedTuple):
    homodyne_error: float = 0.0


class DeviceParams(Checked, _DeviceFields):
    """Cross-Kerr device settings shared by both servers.

    The engine works with the three discrete phase classes a probe can
    take, so the probe phase shift and amplitude do not enter. A nonzero
    ``homodyne_error`` flips each server's recorded outcome with that
    probability, modeling an X-homodyne readout that misreads the shift.
    """

    __slots__ = ()

    def _check(self):
        if not (0.0 <= self.homodyne_error < 0.5):
            raise ValueError(
                f"homodyne_error {self.homodyne_error!r} outside [0, 0.5)"
            )
