"""What the report shows under noise and misbehavior.

Three experiments: spatial phase noise silently converts distilled
pairs to the opposite phase within their class; homodyne misreads
corrupt the records (and with them Alice's inference) while leaving the
photons alone; and a lying server inverts Alice's class bookkeeping
wholesale without ever touching the states.
"""

import json

from hyperdistill import FidelityVector, RunConfig, execute_run
from hyperdistill.cli import serialize_report

CLEAN = FidelityVector(1.0, 0.0, 0.0, 0.0)


def show(title, cfg):
    print("=" * 72)
    print(title)
    print("=" * 72)
    doc, _ = execute_run(cfg)
    for key in (
        "phi_class_count",
        "psi_class_count",
        "analytic_phi_probability",
        "class_mismatch_count",
        "mean_phi_pair_fidelity_phi_plus",
        "mean_phi_pair_fidelity_phi_minus",
        "mean_psi_pair_fidelity_psi_plus",
        "mean_psi_pair_fidelity_psi_minus",
        "audit_passed",
    ):
        print(f"  {key}: {doc[key]}")
    print()


show(
    "Baseline: clean channel, honest parties",
    RunConfig(pairs=2000, fidelities=CLEAN, seed=1),
)

show(
    "Spatial phase noise (p=0.4): classes intact, phase flipped",
    RunConfig(pairs=2000, fidelities=CLEAN, dephase_p=0.4, seed=1),
)

show(
    "Homodyne misreads (p=0.1): records corrupted, photons fine",
    RunConfig(pairs=2000, fidelities=CLEAN, homodyne_error=0.1, seed=1),
)

show(
    "A lying first server (flip p=1): inference inverted, states perfect",
    RunConfig(pairs=2000, fidelities=CLEAN, evil_bob_flip_p=1.0, seed=1),
)

print("=" * 72)
print("The same data as a machine-readable artifact")
print("=" * 72)
report, _ = execute_run(RunConfig(pairs=200, fidelities=CLEAN, seed=5))
doc = json.loads(serialize_report(report, "json"))
print(json.dumps(doc, indent=2)[:800])
print("...")
