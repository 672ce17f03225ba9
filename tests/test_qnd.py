import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdistill import (
    DeviceParams,
    DistilledPair,
    FidelityVector,
    HyperComponent,
    PolarizationBell,
    QndOutcome,
    bell_vector,
    build_branch_table,
    conditional_pol_state,
    fidelity,
    measure_probes,
    mixed_ensemble,
    oracle_conditional_pol_state,
    oracle_evolve,
    oracle_outcome_distribution,
    outcome_distribution,
    projector,
    same_outcome_probability,
    trace_distance,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)
S = QndOutcome.SHIFT
N = QndOutcome.NO_SHIFT

ALL_CASES = [
    HyperComponent(kind, 1.0, spatial_sign=sign)
    for kind in PolarizationBell
    for sign in (1, -1)
]


def branch_summary(table):
    return {
        (b.pol_a, b.pol_b, b.mode_a, b.mode_b): (
            complex(b.amplitude),
            b.quantum_a,
            b.quantum_b,
        )
        for b in table.branches
    }


# --- branch tables -------------------------------------------------------------


def test_phi_plus_branch_table():
    table = build_branch_table(HyperComponent(PolarizationBell.PHI_PLUS, 1.0))
    summary = branch_summary(table)
    assert summary == {
        ("H", "H", "a3", "b3"): (pytest.approx(0.5), 1, 1),
        ("V", "V", "a3", "b3"): (pytest.approx(0.5), 0, 0),
        ("H", "H", "a4", "b4"): (pytest.approx(0.5), 0, 0),
        ("V", "V", "a4", "b4"): (pytest.approx(0.5), -1, -1),
    }


def test_psi_plus_branch_table():
    table = build_branch_table(HyperComponent(PolarizationBell.PSI_PLUS, 1.0))
    summary = branch_summary(table)
    assert summary == {
        ("H", "V", "a3", "b3"): (pytest.approx(0.5), 1, 0),
        ("V", "H", "a3", "b3"): (pytest.approx(0.5), 0, 1),
        ("H", "V", "a4", "b4"): (pytest.approx(0.5), 0, -1),
        ("V", "H", "a4", "b4"): (pytest.approx(0.5), -1, 0),
    }


def test_phi_minus_branch_table_signs():
    table = build_branch_table(HyperComponent(PolarizationBell.PHI_MINUS, 1.0))
    summary = branch_summary(table)
    assert summary[("H", "H", "a3", "b3")][0] == pytest.approx(0.5)
    assert summary[("V", "V", "a3", "b3")][0] == pytest.approx(-0.5)
    assert summary[("H", "H", "a4", "b4")][0] == pytest.approx(0.5)
    assert summary[("V", "V", "a4", "b4")][0] == pytest.approx(-0.5)


def test_dephased_table_negates_second_path():
    clean = branch_summary(
        build_branch_table(HyperComponent(PolarizationBell.PSI_MINUS, 1.0))
    )
    flipped = branch_summary(
        build_branch_table(
            HyperComponent(PolarizationBell.PSI_MINUS, 1.0, spatial_sign=-1)
        )
    )
    for key, (amp, qa, qb) in clean.items():
        factor = -1.0 if key[2] == "a4" else 1.0
        assert flipped[key] == (pytest.approx(factor * amp), qa, qb)


def test_branch_weights_sum_to_one():
    for component in ALL_CASES:
        table = build_branch_table(component)
        total = sum(abs(b.amplitude) ** 2 for b in table.branches)
        assert total == pytest.approx(1.0, abs=1e-12)


# --- outcome distribution -------------------------------------------------------


def test_phi_components_always_agree():
    for kind in (PolarizationBell.PHI_PLUS, PolarizationBell.PHI_MINUS):
        dist = outcome_distribution(build_branch_table(HyperComponent(kind, 1.0)))
        assert dist[(S, S)] == pytest.approx(0.5, abs=1e-12)
        assert dist[(N, N)] == pytest.approx(0.5, abs=1e-12)
        assert dist[(S, N)] == 0.0
        assert dist[(N, S)] == 0.0


def test_psi_components_always_disagree():
    for kind in (PolarizationBell.PSI_PLUS, PolarizationBell.PSI_MINUS):
        dist = outcome_distribution(build_branch_table(HyperComponent(kind, 1.0)))
        assert dist[(S, N)] == pytest.approx(0.5, abs=1e-12)
        assert dist[(N, S)] == pytest.approx(0.5, abs=1e-12)
        assert dist[(S, S)] == 0.0
        assert dist[(N, N)] == 0.0


def test_distribution_sums_to_one_for_all_cases():
    for component in ALL_CASES:
        dist = outcome_distribution(build_branch_table(component))
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_ensemble_average_agreement_is_f_plus_f1():
    fv = FidelityVector(0.7, 0.1, 0.15, 0.05)
    total = sum(
        comp.weight * same_outcome_probability(build_branch_table(comp))
        for comp in mixed_ensemble(fv)
    )
    assert total == pytest.approx(0.8, abs=1e-12)


# --- sampling and collapse ---------------------------------------------------------


def test_phi_plus_measurement_collapse():
    table = build_branch_table(HyperComponent(PolarizationBell.PHI_PLUS, 1.0))
    rng = np.random.default_rng(21)
    seen = set()
    for _ in range(200):
        pair = measure_probes(table, DeviceParams(), rng)
        seen.add((pair.outcome_a, pair.outcome_b))
        assert pair.probability == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(
            pair.pol_state.amplitudes, [INV_SQRT2, 0, 0, INV_SQRT2], atol=1e-12
        )
        if pair.outcome_a is S:
            assert (pair.output_mode_a, pair.output_mode_b) == ("a6", "b6")
        else:
            assert (pair.output_mode_a, pair.output_mode_b) == ("a5", "b5")
    assert seen == {(S, S), (N, N)}


def test_psi_plus_measurement_collapse():
    table = build_branch_table(HyperComponent(PolarizationBell.PSI_PLUS, 1.0))
    rng = np.random.default_rng(22)
    seen = set()
    for _ in range(200):
        pair = measure_probes(table, DeviceParams(), rng)
        seen.add((pair.outcome_a, pair.outcome_b))
        np.testing.assert_allclose(
            pair.pol_state.amplitudes, [0, INV_SQRT2, INV_SQRT2, 0], atol=1e-12
        )
        if pair.outcome_a is S:
            assert (pair.output_mode_a, pair.output_mode_b) == ("a6", "b5")
        else:
            assert (pair.output_mode_a, pair.output_mode_b) == ("a5", "b6")
    assert seen == {(S, N), (N, S)}


def test_phi_minus_collapse_keeps_relative_minus_sign():
    table = build_branch_table(HyperComponent(PolarizationBell.PHI_MINUS, 1.0))
    state = conditional_pol_state(table, (S, S))
    np.testing.assert_allclose(
        state.amplitudes, [INV_SQRT2, 0, 0, -INV_SQRT2], atol=1e-12
    )
    assert fidelity(
        projector(state), bell_vector(PolarizationBell.PHI_MINUS)
    ) == pytest.approx(1.0, abs=1e-12)


def test_zero_probability_readout_has_no_state():
    table = build_branch_table(HyperComponent(PolarizationBell.PHI_PLUS, 1.0))
    assert conditional_pol_state(table, (S, N)) is None


def test_empirical_outcome_frequencies():
    table = build_branch_table(HyperComponent(PolarizationBell.PHI_PLUS, 1.0))
    rng = np.random.default_rng(4)
    n = 10_000
    hits = 0
    for _ in range(n):
        pair = measure_probes(table, DeviceParams(), rng)
        assert pair.outcome_a is pair.outcome_b
        hits += pair.outcome_a is S
    sigma = math.sqrt(0.25 / n)
    assert abs(hits / n - 0.5) <= 3 * sigma


def test_same_seed_reproduces_distilled_pairs():
    table = build_branch_table(HyperComponent(PolarizationBell.PHI_MINUS, 1.0))
    params = DeviceParams()
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(77)
        runs.append([measure_probes(table, params, rng) for _ in range(50)])
    first, second = runs
    for a, b in zip(first, second):
        assert (a.outcome_a, a.outcome_b) == (b.outcome_a, b.outcome_b)
        assert (a.output_mode_a, a.output_mode_b) == (b.output_mode_a, b.output_mode_b)
        np.testing.assert_array_equal(a.pol_state.amplitudes, b.pol_state.amplitudes)


def test_homodyne_error_flips_record_not_state():
    table = build_branch_table(HyperComponent(PolarizationBell.PHI_PLUS, 1.0))
    params = DeviceParams(homodyne_error=0.4)
    rng = np.random.default_rng(31)
    mixed_seen = 0
    for _ in range(500):
        pair = measure_probes(table, params, rng)
        # state untouched by misclassification
        np.testing.assert_allclose(
            pair.pol_state.amplitudes, [INV_SQRT2, 0, 0, INV_SQRT2], atol=1e-12
        )
        # routing always follows the recorded outcome
        assert pair.output_mode_a == ("a5" if pair.outcome_a is N else "a6")
        assert pair.output_mode_b == ("b5" if pair.outcome_b is N else "b6")
        if pair.outcome_a is not pair.outcome_b:
            mixed_seen += 1
    # flips must actually happen at this error rate
    assert mixed_seen > 0


def test_bell_class_span_is_preserved():
    rng = np.random.default_rng(8)
    for component in ALL_CASES:
        table = build_branch_table(component)
        pair = measure_probes(table, DeviceParams(), rng)
        amps = pair.pol_state.amplitudes
        if component.pol in (PolarizationBell.PHI_PLUS, PolarizationBell.PHI_MINUS):
            outside = abs(amps[1]) + abs(amps[2])
        else:
            outside = abs(amps[0]) + abs(amps[3])
        assert outside < 1e-12


# --- parameter validation ---------------------------------------------------------


def test_device_params_validation():
    with pytest.raises(ValueError, match="homodyne_error"):
        DeviceParams(homodyne_error=0.5)


def test_distilled_pair_mode_consistency_enforced():
    state = bell_vector(PolarizationBell.PHI_PLUS)
    with pytest.raises(ValueError, match="inconsistent"):
        DistilledPair(
            outcome_a=S,
            outcome_b=S,
            output_mode_a="a5",
            output_mode_b="b6",
            pol_state=state,
            probability=0.5,
        )


def test_distilled_pair_requires_two_qubit_state():
    from hyperdistill import StateVector

    single = StateVector((1.0, 0.0), ("H", "V"))
    with pytest.raises(ValueError, match="two-qubit"):
        DistilledPair(
            outcome_a=S,
            outcome_b=S,
            output_mode_a="a6",
            output_mode_b="b6",
            pol_state=single,
            probability=0.5,
        )


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
        table = build_branch_table(component)
        dist = outcome_distribution(table)
        rho = oracle_evolve(component, params)
        oracle_dist = oracle_outcome_distribution(rho)
        for pair in dist:
            assert abs(dist[pair] - oracle_dist[pair]) <= 1e-10
        for pair, prob in dist.items():
            if prob < 1e-12:
                assert oracle_conditional_pol_state(rho, pair) is None
                continue
            engine_state = conditional_pol_state(table, pair)
            oracle_state = oracle_conditional_pol_state(rho, pair)
            assert trace_distance(projector(engine_state), oracle_state) <= 1e-10
            assert fidelity(oracle_state, engine_state) >= 1.0 - 1e-10


@settings(max_examples=16, deadline=None)
@given(
    st.sampled_from(list(PolarizationBell)),
    st.sampled_from([1, -1]),
    st.integers(0, 2**16),
)
def test_routing_rule_never_violated(kind, sign, seed):
    table = build_branch_table(HyperComponent(kind, 1.0, spatial_sign=sign))
    rng = np.random.default_rng(seed)
    pair = measure_probes(table, DeviceParams(), rng)
    assert (pair.outcome_a is N) == (pair.output_mode_a == "a5")
    assert (pair.outcome_b is N) == (pair.output_mode_b == "b5")
