"""Tour of the source states and the polarization noise model.

The source emits photon pairs entangled in two degrees of freedom at
once: polarization and spatial path. A noisy channel turns the
polarization part into a weighted mixture of the four Bell states while
the path part survives intact.
"""

import numpy as np

from hyperdistill import (
    ENSEMBLE_ORDER,
    FidelityVector,
    PolarizationBell,
    bell_vector,
    ensemble_polarization_density,
    fidelity,
    hyper_source_state,
    mixed_ensemble,
    spatial_vector,
)
from hyperdistill.states import inverse_cdf

print("=" * 72)
print("The four polarization Bell states")
print("=" * 72)
for kind in PolarizationBell:
    print(f"{kind.value:9s} -> {bell_vector(kind)}")

print()
print("Spatial pair state:", spatial_vector())

print()
print("=" * 72)
print("The emitted two-photon state (polarization x path)")
print("=" * 72)
src = hyper_source_state()
for amp, label in zip(src.amplitudes, src.basis_labels):
    if abs(amp) > 1e-12:
        print(f"  {amp.real:+.3f} |{label}>")
print("norm^2 =", float(np.sum(np.abs(src.amplitudes) ** 2)))

print()
print("=" * 72)
print("Noisy transmission: a Bell mixture with weights (F, F1, F2, F3)")
print("=" * 72)
fv = FidelityVector(0.7, 0.1, 0.15, 0.05)
for comp in mixed_ensemble(fv):
    print(f"  weight {comp.weight:.2f} -> {comp.pol.value} (x) spatial pair")

rho = ensemble_polarization_density(fv)
print()
print("Reconstructed 4x4 polarization density matrix (real part):")
print(np.round(rho.entries.real, 3))
print()
print("Reading the weights back out as Bell-state fidelities:")
for kind in PolarizationBell:
    print(f"  <{kind.value}| rho |{kind.value}> = {fidelity(rho, bell_vector(kind)):.3f}")

print()
print("=" * 72)
print("Sampling pairs from the mixture (seeded, reproducible)")
print("=" * 72)
rng = np.random.default_rng(7)
slots = inverse_cdf(fv.as_tuple(), rng.random(12))
print("first dozen draws:", [ENSEMBLE_ORDER[i].value for i in slots])
rng = np.random.default_rng(7)
n = 20_000
counts = np.bincount(inverse_cdf(fv.as_tuple(), rng.random(n)), minlength=4)
print(f"empirical frequencies over {n} draws:")
for kind, count in zip(ENSEMBLE_ORDER, counts):
    print(f"  {kind.value:9s} {count / n:.4f}")
