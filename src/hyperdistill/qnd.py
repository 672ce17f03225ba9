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

``oracle_evolve`` rebuilds the physics of ``protocol.pair_table`` by
explicit tensor evolution over the photon register joined with a
three-level phase-class register per probe; it shares no code with the
table and is the reference the table is checked against.
"""

from __future__ import annotations

import numpy as np

from .linalg import DensityMatrix, partial_trace
from .model import EPS_NORM, _INV_SQRT2, DeviceParams, QndOutcome
from .states import HyperComponent, bell_vector


def _probe_quantum(pol: str, path: int) -> int:
    if pol == "H" and path == 1:
        return 1
    if pol == "V" and path == 2:
        return -1
    return 0


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
