"""Inside the nondemolition device: readouts and collapse, case by case.

Each server routes its photon by spatial mode through a cross-Kerr cell
shared with a coherent probe. The probe phase can only take the classes
+theta, 0, -theta, and the X-quadrature readout cannot tell +theta from
-theta, so each server ends up with a binary record: Shift or NoShift.
A photon shifts its probe exactly when its polarization matches its path
(H on the first path, V on the second), so the readout is a parity
check. Same records on both sides mean the pair survived in the Phi
class, different records mean the Psi class - and the identification
costs no photons.
"""

from hyperdistill import (
    DeviceParams,
    HyperComponent,
    oracle_conditional_pol_state,
    oracle_evolve,
    oracle_outcome_distribution,
    projector,
    trace_distance,
)
from hyperdistill.linalg import StateVector
from hyperdistill.model import CASES, OUTCOME_PAIRS
from hyperdistill.protocol import pair_table
from hyperdistill.states import POLARIZATION_PAIR_LABELS

table = pair_table()


def surviving_state(c, r):
    """The surviving state of case c after readout r, as a labelled vector."""
    return StateVector(table.amplitudes[c, r], POLARIZATION_PAIR_LABELS)


print("=" * 72)
print("Readouts and surviving states of each case (Bell kind x spatial sign)")
print("=" * 72)
for c, (kind, sign) in enumerate(CASES):
    tag = "" if sign == 1 else "  (spatially dephased)"
    print(f"--- {kind.value}{tag} ---")
    for r, (oa, ob) in enumerate(OUTCOME_PAIRS):
        if table.survives[c, r]:
            print(f"  ({oa.value:7s}, {ob.value:7s}) : {table.probs[c, r]:.2f}"
                  f"  -> {surviving_state(c, r)}")
    print()

print("A spatial phase flip on the inbound pair moves the surviving state")
print("to the opposite phase within its class, and leaves the readouts alone.")
print()

print("=" * 72)
print("Cross-check against the full-Hilbert-space oracle")
print("=" * 72)
worst_p = 0.0
worst_t = 0.0
for c, (kind, sign) in enumerate(CASES):
    rho = oracle_evolve(HyperComponent(kind, 1.0, spatial_sign=sign), DeviceParams())
    oracle_dist = oracle_outcome_distribution(rho)
    for r, readout in enumerate(OUTCOME_PAIRS):
        worst_p = max(worst_p, abs(table.probs[c, r] - oracle_dist[readout]))
        if table.survives[c, r]:
            oracle = oracle_conditional_pol_state(rho, readout)
            worst_t = max(worst_t, trace_distance(projector(surviving_state(c, r)), oracle))
print(f"largest probability deviation over all 8 cases: {worst_p:.2e}")
print(f"largest conditional-state trace distance:       {worst_t:.2e}")
