"""Every array of a pair's fate, derived from ``pair_table().kind``.

The engine reads one column, the Bell kind each case survives as. The
tests compare what that column implies with the tensor oracle and the
projector algebra, so this module spells it out by case, joint readout
and signed angle, as the pair table once stored it:

- ``probs`` (8, 4): the Born probability of each readout, 0 or 0.5: a
  Phi kind reads (Shift, Shift) or (NoShift, NoShift), a Psi kind
  (Shift, NoShift) or (NoShift, Shift);
- ``amplitudes`` (8, 4, 4): the surviving state over (HH, HV, VH, VV),
  ``bell_vector`` of the case's kind, and a zero row where the readout
  cannot occur;
- ``survives`` (8, 4): whether the readout can occur;
- ``phi`` (8, 4): whether the surviving state is Phi-class;
- ``fidelity`` (8, 4, 4): with each Bell state in ENSEMBLE_ORDER, 1.0 or 0.0;
- ``bit0`` (8, 4, 16): Bob1's bit-0 probability at each signed angle, 0.5;
- ``zero_weight`` (8, 4, 16, 2): Bob1's bits without a residual state.

A readout that cannot occur does not survive, is not Phi-class, and has
NaN fidelities and bit-0 probabilities, and both of its bits have zero
weight.
"""

from typing import NamedTuple

import numpy as np

from hyperdistill import protocol
from hyperdistill.model import ENSEMBLE_ORDER, OUTCOME_PAIRS
from hyperdistill.states import bell_vector


class TableArrays(NamedTuple):
    probs: np.ndarray
    amplitudes: np.ndarray
    survives: np.ndarray
    phi: np.ndarray
    fidelity: np.ndarray
    bit0: np.ndarray
    zero_weight: np.ndarray


def table_arrays() -> TableArrays:
    """The arrays of the pair table that ``protocol.pair_table`` gives now."""
    kind = protocol.pair_table().kind
    same = np.array([r >> 1 == r & 1 for r in range(len(OUTCOME_PAIRS))])
    phi_kind = (kind < 2)[:, None]  # PhiPlus and PhiMinus lead ENSEMBLE_ORDER
    survives = same == phi_kind
    live = survives[..., None]
    every_angle = np.ones((len(protocol.SIGNED_ANGLES), 2), bool)  # by signed angle and bit
    bells = np.array([bell_vector(bell).amplitudes for bell in ENSEMBLE_ORDER])
    return TableArrays(
        probs=np.where(survives, 0.5, 0.0),
        amplitudes=np.where(live, bells[kind][:, None], 0.0),
        survives=survives,
        phi=survives & phi_kind,
        fidelity=np.where(live, np.eye(len(ENSEMBLE_ORDER))[kind][:, None], np.nan),
        bit0=np.where(live & every_angle[:, 0], 0.5, np.nan),
        zero_weight=~live[..., None] & every_angle,
    )
