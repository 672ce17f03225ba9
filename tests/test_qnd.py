import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdistill import (
    DeviceParams,
    FidelityVector,
    HyperComponent,
    PolarizationBell,
    QndOutcome,
    bell_vector,
    fidelity,
    mixed_ensemble,
    oracle_conditional_pol_state,
    oracle_evolve,
    oracle_outcome_distribution,
    projector,
    run_protocol,
    trace_distance,
)
from hyperdistill.protocol import pair_table
from hyperdistill.qnd import CASES, OUTCOME_PAIRS
from hyperdistill.states import inverse_cdf

INV_SQRT2 = 1.0 / math.sqrt(2.0)
S = QndOutcome.SHIFT
N = QndOutcome.NO_SHIFT
SS, SN, NS, NN = (OUTCOME_PAIRS.index(pair) for pair in ((S, S), (S, N), (N, S), (N, N)))

ALL_CASES = [
    HyperComponent(kind, 1.0, spatial_sign=sign)
    for kind in PolarizationBell
    for sign in (1, -1)
]


def case_row(kind, sign=1):
    """Readout probabilities and surviving states of one case of pair_table()."""
    c = CASES.index((kind, sign))
    table = pair_table()
    return table.probs[c], table.states[c]


def off_port_weight(rho):
    """Weight of an oracle state on photons that left by the wrong port.

    The 64 indices are pol-A, port-A, pol-B, port-B, outcome-A, outcome-B;
    port 0 is the upper one (a5, b5) and outcome 0 is NoShift, so the
    routing rule puts every photon's weight where its port equals its
    outcome. A density matrix with no diagonal weight there has none
    anywhere off the rule.
    """
    diag = np.diag(rho.entries).real.reshape(2, 2, 2, 2, 2, 2)
    _, port_a, _, port_b, out_a, out_b = np.indices(diag.shape)
    return float(diag[(port_a != out_a) | (port_b != out_b)].sum())


# --- branch tables -------------------------------------------------------------


def test_phi_plus_branch_table():
    # HH on the first path shifts both probes, VV on the second path too;
    # the other two branches shift neither.
    probs, states = case_row(PolarizationBell.PHI_PLUS)
    np.testing.assert_allclose(probs, [0.5, 0.0, 0.0, 0.5], atol=1e-12)
    assert states[SN] is None and states[NS] is None
    for r in (SS, NN):
        np.testing.assert_allclose(
            states[r].amplitudes, [INV_SQRT2, 0, 0, INV_SQRT2], atol=1e-12
        )


def test_psi_plus_branch_table():
    probs, states = case_row(PolarizationBell.PSI_PLUS)
    np.testing.assert_allclose(probs, [0.0, 0.5, 0.5, 0.0], atol=1e-12)
    assert states[SS] is None and states[NN] is None
    for r in (SN, NS):
        np.testing.assert_allclose(
            states[r].amplitudes, [0, INV_SQRT2, INV_SQRT2, 0], atol=1e-12
        )


def test_phi_minus_branch_table_signs():
    _, states = case_row(PolarizationBell.PHI_MINUS)
    for r in (SS, NN):
        np.testing.assert_allclose(
            states[r].amplitudes, [INV_SQRT2, 0, 0, -INV_SQRT2], atol=1e-12
        )


def test_dephased_table_negates_second_path():
    # Readout r collects Bell term r from the first path and term 3 - r
    # from the second, so a spatial phase flip negates term 3 - r.
    for kind in PolarizationBell:
        clean_probs, clean = case_row(kind)
        dephased_probs, dephased = case_row(kind, -1)
        assert dephased_probs.tolist() == clean_probs.tolist()
        for r, state in enumerate(clean):
            if state is None:
                assert dephased[r] is None
                continue
            expected = state.amplitudes.copy()
            expected[3 - r] *= -1
            assert abs(np.vdot(expected, dephased[r].amplitudes)) == pytest.approx(
                1.0, abs=1e-12
            )
            assert abs(np.vdot(state.amplitudes, dephased[r].amplitudes)) < 1e-12


def test_branch_weights_sum_to_one():
    for probs in pair_table().probs:
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)


# --- outcome distribution -------------------------------------------------------


def test_phi_components_always_agree():
    for kind in (PolarizationBell.PHI_PLUS, PolarizationBell.PHI_MINUS):
        for sign in (1, -1):
            probs, _ = case_row(kind, sign)
            assert probs[SS] == pytest.approx(0.5, abs=1e-12)
            assert probs[NN] == pytest.approx(0.5, abs=1e-12)
            assert probs[SN] == 0.0
            assert probs[NS] == 0.0


def test_psi_components_always_disagree():
    for kind in (PolarizationBell.PSI_PLUS, PolarizationBell.PSI_MINUS):
        for sign in (1, -1):
            probs, _ = case_row(kind, sign)
            assert probs[SN] == pytest.approx(0.5, abs=1e-12)
            assert probs[NS] == pytest.approx(0.5, abs=1e-12)
            assert probs[SS] == 0.0
            assert probs[NN] == 0.0


def test_distribution_sums_to_one_for_all_cases():
    for component in ALL_CASES:
        dist = oracle_outcome_distribution(oracle_evolve(component, DeviceParams()))
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_ensemble_average_agreement_is_f_plus_f1():
    fv = FidelityVector(0.7, 0.1, 0.15, 0.05)
    total = 0.0
    for comp in mixed_ensemble(fv):
        probs, _ = case_row(comp.pol)
        total += comp.weight * (probs[SS] + probs[NN])
    assert total == pytest.approx(0.8, abs=1e-12)


# --- sampling and collapse ---------------------------------------------------------


def test_phi_plus_measurement_collapse():
    probs, states = case_row(PolarizationBell.PHI_PLUS)
    readouts = inverse_cdf(probs, np.random.default_rng(21).random(200))
    for r in readouts.tolist():
        assert probs[r] == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(
            states[r].amplitudes, [INV_SQRT2, 0, 0, INV_SQRT2], atol=1e-12
        )
    assert set(readouts.tolist()) == {SS, NN}


def test_psi_plus_measurement_collapse():
    probs, states = case_row(PolarizationBell.PSI_PLUS)
    readouts = inverse_cdf(probs, np.random.default_rng(22).random(200))
    for r in readouts.tolist():
        np.testing.assert_allclose(
            states[r].amplitudes, [0, INV_SQRT2, INV_SQRT2, 0], atol=1e-12
        )
    assert set(readouts.tolist()) == {SN, NS}


def test_phi_minus_collapse_keeps_relative_minus_sign():
    _, states = case_row(PolarizationBell.PHI_MINUS)
    state = states[SS]
    np.testing.assert_allclose(
        state.amplitudes, [INV_SQRT2, 0, 0, -INV_SQRT2], atol=1e-12
    )
    assert fidelity(
        projector(state), bell_vector(PolarizationBell.PHI_MINUS)
    ) == pytest.approx(1.0, abs=1e-12)


def test_zero_probability_readout_has_no_state():
    probs, states = case_row(PolarizationBell.PHI_PLUS)
    assert probs[SN] == 0.0
    assert states[SN] is None


def test_empirical_outcome_frequencies():
    probs, _ = case_row(PolarizationBell.PHI_PLUS)
    n = 10_000
    readouts = inverse_cdf(probs, np.random.default_rng(4).random(n))
    assert set(readouts.tolist()) <= {SS, NN}
    hits = int(np.count_nonzero(readouts == SS))
    sigma = math.sqrt(0.25 / n)
    assert abs(hits / n - 0.5) <= 3 * sigma


def test_same_seed_reproduces_distilled_pairs():
    phi_minus_only = FidelityVector(0.0, 1.0, 0.0, 0.0)
    first, second = (run_protocol(50, phi_minus_only, seed=77) for _ in range(2))
    for name in ("case", "readout", "recorded", "a_bit"):
        np.testing.assert_array_equal(getattr(first, name), getattr(second, name))
    assert first.transcript.to_bytes() == second.transcript.to_bytes()


def test_homodyne_error_flips_record_not_state():
    phi_plus_only = FidelityVector(1.0, 0.0, 0.0, 0.0)
    run = run_protocol(500, phi_plus_only, DeviceParams(homodyne_error=0.4), seed=31)
    states = pair_table().states
    for c, r in zip(run.case.tolist(), run.readout.tolist()):
        # state untouched by misclassification
        np.testing.assert_allclose(
            states[c][r].amplitudes, [INV_SQRT2, 0, 0, INV_SQRT2], atol=1e-12
        )
    assert set(run.readout.tolist()) <= {SS, NN}
    # flips must actually happen at this error rate
    assert np.isin(run.recorded, (SN, NS)).any()


def test_bell_class_span_is_preserved():
    for (kind, _), states in zip(CASES, pair_table().states):
        for state in states:
            if state is None:
                continue
            amps = state.amplitudes
            if kind in (PolarizationBell.PHI_PLUS, PolarizationBell.PHI_MINUS):
                outside = abs(amps[1]) + abs(amps[2])
            else:
                outside = abs(amps[0]) + abs(amps[3])
            assert outside < 1e-12


# --- parameter validation ---------------------------------------------------------


def test_device_params_validation():
    with pytest.raises(ValueError, match="homodyne_error"):
        DeviceParams(homodyne_error=0.5)


def test_oracle_photon_reduction_matches_brute_force():
    # Reduce the post-evolution joint state (photon x readout registers)
    # back to the photon part and check the library partial trace against
    # an explicit index contraction.
    from hyperdistill import partial_trace

    rho = oracle_evolve(HyperComponent(PolarizationBell.PHI_PLUS, 1.0), DeviceParams())
    dims = (2, 2, 2, 2, 2, 2)
    reduced = partial_trace(rho, keep=(0, 1, 2, 3), dims=dims)

    expected = np.zeros((16, 16), dtype=complex)
    for row in range(64):
        for col in range(64):
            if row % 4 == col % 4:  # readout-register indices agree
                expected[row // 4, col // 4] += rho.entries[row, col]
    np.testing.assert_allclose(reduced.entries, expected, atol=1e-12)
    # the reduction is the expected two-way mixture of surviving kets
    weights = np.linalg.eigvalsh(reduced.entries)
    np.testing.assert_allclose(
        weights[-2:], [0.5, 0.5], atol=1e-12
    )


# --- oracle --------------------------------------------------------------------


def test_oracle_marginals_phi_plus():
    rho = oracle_evolve(HyperComponent(PolarizationBell.PHI_PLUS, 1.0), DeviceParams())
    dist = oracle_outcome_distribution(rho)
    assert dist[(S, S)] == pytest.approx(0.5, abs=1e-12)
    assert dist[(N, N)] == pytest.approx(0.5, abs=1e-12)
    assert dist[(S, N)] == pytest.approx(0.0, abs=1e-12)
    assert dist[(N, S)] == pytest.approx(0.0, abs=1e-12)


def test_oracle_marginals_psi_plus():
    rho = oracle_evolve(HyperComponent(PolarizationBell.PSI_PLUS, 1.0), DeviceParams())
    dist = oracle_outcome_distribution(rho)
    assert dist[(S, N)] == pytest.approx(0.5, abs=1e-12)
    assert dist[(N, S)] == pytest.approx(0.5, abs=1e-12)


def test_oracle_state_has_unit_trace():
    for component in ALL_CASES:
        rho = oracle_evolve(component, DeviceParams())
        assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-12)


def test_engine_matches_oracle_on_all_cases():
    params = DeviceParams()
    for component in ALL_CASES:
        probs, states = case_row(component.pol, component.spatial_sign)
        rho = oracle_evolve(component, params)
        oracle_dist = oracle_outcome_distribution(rho)
        for r, pair in enumerate(OUTCOME_PAIRS):
            assert abs(probs[r] - oracle_dist[pair]) <= 1e-10
            if probs[r] < 1e-12:
                assert states[r] is None
                assert oracle_conditional_pol_state(rho, pair) is None
                continue
            oracle_state = oracle_conditional_pol_state(rho, pair)
            assert trace_distance(projector(states[r]), oracle_state) <= 1e-10
            assert fidelity(oracle_state, states[r]) >= 1.0 - 1e-10


@settings(max_examples=16, deadline=None)
@given(st.sampled_from(list(PolarizationBell)), st.sampled_from([1, -1]))
def test_routing_rule_never_violated(kind, sign):
    rho = oracle_evolve(HyperComponent(kind, 1.0, spatial_sign=sign), DeviceParams())
    assert off_port_weight(rho) == 0.0
