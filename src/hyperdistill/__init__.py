"""Deterministic simulator of two-server Bell-pair distillation.

A photon-pair source emits states entangled in both polarization and
spatial mode; a noisy channel scrambles the polarization part into a
Bell mixture. Each of two non-communicating servers pipes its photon
through a cross-Kerr nondemolition gate and reports a two-valued probe
readout to a classical client, who infers the surviving Bell class of
every pair without feeding anything back. The package models the exact
state evolution, the measurement statistics, the delegated-measurement
rounds that follow, and the communication-security audit.
"""

import importlib

__version__ = "0.1.0"

#: Module of each public name. A name's module is imported on its first
#: lookup, so ``import hyperdistill`` alone loads neither numpy nor the CLI.
_MODULE_OF = {
    **dict.fromkeys(("fidelity", "projector", "trace_distance"), "linalg"),
    **dict.fromkeys((
        "HyperComponent", "bell_vector", "ensemble_polarization_density",
        "hyper_source_state", "mixed_ensemble", "spatial_vector",
    ), "states"),
    **dict.fromkeys((
        "oracle_conditional_pol_state", "oracle_evolve", "oracle_outcome_distribution",
    ), "qnd"),
    **dict.fromkeys((
        "DeviceParams", "ENSEMBLE_ORDER", "FidelityVector", "PolarizationBell", "QndOutcome",
    ), "model"),
    **dict.fromkeys(("Party", "Phase"), "wire"),
    **dict.fromkeys(("Message", "Transcript"), "reader"),
    **dict.fromkeys(("BellClass", "analytic_phi_probability", "audit", "run_protocol"), "protocol"),
    **dict.fromkeys(("RunConfig", "execute_run", "main", "parse_config"), "cli"),
}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
