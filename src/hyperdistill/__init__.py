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

from .linalg import (
    EPS_NORM,
    EPS_ORACLE,
    DensityMatrix,
    StateVector,
    fidelity,
    partial_trace,
    projector,
    reorder_subsystems,
    tensor,
    trace_distance,
)
from .states import (
    ENSEMBLE_ORDER,
    FidelityVector,
    HyperComponent,
    PolarizationBell,
    bell_vector,
    ensemble_polarization_density,
    hyper_source_state,
    mixed_ensemble,
    spatial_vector,
)
from .qnd import (
    DeviceParams,
    QndOutcome,
    oracle_conditional_pol_state,
    oracle_evolve,
    oracle_outcome_distribution,
)
from .wire import Message, Party, Phase, Transcript
from .protocol import BellClass, analytic_phi_probability, audit, run_protocol

__version__ = "0.1.0"

#: Names served from ``cli``, which is imported on first use: the CLI
#: brings in a process pool that importing the library does not need.
_CLI_NAMES = frozenset(
    {"RunConfig", "execute_run", "emit_report", "main", "parse_config"}
)


def __getattr__(name):
    if name in _CLI_NAMES:
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "EPS_NORM",
    "EPS_ORACLE",
    "DensityMatrix",
    "StateVector",
    "fidelity",
    "partial_trace",
    "projector",
    "reorder_subsystems",
    "tensor",
    "trace_distance",
    "ENSEMBLE_ORDER",
    "FidelityVector",
    "HyperComponent",
    "PolarizationBell",
    "bell_vector",
    "ensemble_polarization_density",
    "hyper_source_state",
    "mixed_ensemble",
    "spatial_vector",
    "DeviceParams",
    "QndOutcome",
    "oracle_conditional_pol_state",
    "oracle_evolve",
    "oracle_outcome_distribution",
    "BellClass",
    "Message",
    "Party",
    "Phase",
    "Transcript",
    "analytic_phi_probability",
    "audit",
    "run_protocol",
    "RunConfig",
    "execute_run",
    "emit_report",
    "main",
    "parse_config",
]
