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
from hyperdistill.model import CASES, ENSEMBLE_ORDER, OUTCOME_PAIRS
from hyperdistill.protocol import PHI_KIND, pair_table
from hyperdistill.states import bell_vector

# The Bell kind each case survives as, whichever of its two readouts occurs.
kind = pair_table().kind


def readout_probability(c, readout):
    """Probability of a joint readout in case c: 1/2 for each of the two
    readouts of its kind's parity class, same records for a Phi kind and
    different records for a Psi kind, and 0 for the other two."""
    oa, ob = readout
    return 0.5 if (oa is ob) == PHI_KIND[kind[c]] else 0.0


print("=" * 72)
print("Readouts and surviving states of each case (Bell kind x spatial sign)")
print("=" * 72)
for c, (bell, sign) in enumerate(CASES):
    tag = "" if sign == 1 else "  (spatially dephased)"
    print(f"--- {bell.value}{tag} ---")
    for oa, ob in OUTCOME_PAIRS:
        p = readout_probability(c, (oa, ob))
        if p:
            print(f"  ({oa.value:7s}, {ob.value:7s}) : {p:.2f}"
                  f"  -> {bell_vector(ENSEMBLE_ORDER[kind[c]])}")
    print()

print("A spatial phase flip on the inbound pair moves the surviving state")
print("to the opposite phase within its class, and leaves the readouts alone.")
print()

print("=" * 72)
print("Cross-check against the full-Hilbert-space oracle")
print("=" * 72)
worst_p = 0.0
worst_t = 0.0
for c, (bell, sign) in enumerate(CASES):
    rho = oracle_evolve(HyperComponent(bell, 1.0, spatial_sign=sign), DeviceParams())
    oracle_dist = oracle_outcome_distribution(rho)
    for readout in OUTCOME_PAIRS:
        p = readout_probability(c, readout)
        worst_p = max(worst_p, abs(p - oracle_dist[readout]))
        if p:
            oracle = oracle_conditional_pol_state(rho, readout)
            state = bell_vector(ENSEMBLE_ORDER[kind[c]])
            worst_t = max(worst_t, trace_distance(projector(state), oracle))
print(f"largest probability deviation over all 8 cases: {worst_p:.2e}")
print(f"largest conditional-state trace distance:       {worst_t:.2e}")
