import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdistill import (
    ENSEMBLE_ORDER,
    FidelityVector,
    HyperComponent,
    PolarizationBell,
    bell_vector,
    ensemble_polarization_density,
    fidelity,
    hyper_source_state,
    mixed_ensemble,
    projector,
    reorder_subsystems,
    run_protocol,
    spatial_vector,
    tensor,
)
from hyperdistill.states import inverse_cdf

INV_SQRT2 = 1.0 / math.sqrt(2.0)


# --- Bell constructors ---------------------------------------------------------


def test_phi_plus_amplitudes():
    np.testing.assert_allclose(
        bell_vector(PolarizationBell.PHI_PLUS).amplitudes,
        [INV_SQRT2, 0.0, 0.0, INV_SQRT2],
        atol=1e-15,
    )


def test_psi_minus_amplitudes():
    np.testing.assert_allclose(
        bell_vector(PolarizationBell.PSI_MINUS).amplitudes,
        [0.0, INV_SQRT2, -INV_SQRT2, 0.0],
        atol=1e-15,
    )


def test_bell_states_are_orthonormal():
    kinds = list(PolarizationBell)
    for i, a in enumerate(kinds):
        for j, b in enumerate(kinds):
            overlap = bell_vector(a).overlap(bell_vector(b))
            expected = 1.0 if i == j else 0.0
            assert abs(overlap - expected) < 1e-14


# --- source state ----------------------------------------------------------------


def test_source_amplitude_on_matched_term():
    src = hyper_source_state()
    assert src.amplitude("H a1 H b1") == pytest.approx(0.5, abs=1e-14)


def test_source_amplitude_on_absent_term():
    src = hyper_source_state()
    assert src.amplitude("H a1 V b1") == 0.0


def test_source_is_normalized():
    src = hyper_source_state()
    assert np.sum(np.abs(src.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_source_equals_interleaved_tensor_product():
    product = tensor(bell_vector(PolarizationBell.PHI_PLUS), spatial_vector())
    interleaved = reorder_subsystems(product, (0, 2, 1, 3), (2, 2, 2, 2))
    src = hyper_source_state()
    assert interleaved.basis_labels == src.basis_labels
    np.testing.assert_allclose(interleaved.amplitudes, src.amplitudes, atol=1e-14)


# --- mixture ensemble ---------------------------------------------------------------


def test_noiseless_ensemble_is_single_component():
    comps = mixed_ensemble(FidelityVector(1.0, 0.0, 0.0, 0.0))
    assert [c.pol for c in comps] == list(ENSEMBLE_ORDER)
    assert [c.weight for c in comps] == [1.0, 0.0, 0.0, 0.0]
    assert all(c.spatial_sign == 1 for c in comps)


def test_ensemble_weights_follow_input_order():
    fv = FidelityVector(0.7, 0.1, 0.15, 0.05)
    comps = mixed_ensemble(fv)
    assert [c.weight for c in comps] == [0.7, 0.1, 0.15, 0.05]
    # Reconstruct the polarization mixture and match it term by term
    # against an explicitly assembled matrix.
    rho = ensemble_polarization_density(fv)
    expected = np.zeros((4, 4), dtype=complex)
    for comp in comps:
        amps = bell_vector(comp.pol).amplitudes
        expected += comp.weight * np.outer(amps, amps.conj())
    np.testing.assert_allclose(rho.entries, expected, atol=1e-14)


def test_fully_depolarized_ensemble():
    comps = mixed_ensemble(FidelityVector(0.25, 0.25, 0.25, 0.25))
    assert [c.weight for c in comps] == [0.25] * 4
    rho = ensemble_polarization_density(FidelityVector(0.25, 0.25, 0.25, 0.25))
    np.testing.assert_allclose(rho.entries, np.eye(4) / 4, atol=1e-14)


def test_mixture_reconstruction_reproduces_weights():
    fv = FidelityVector(0.55, 0.2, 0.15, 0.1)
    rho = ensemble_polarization_density(fv)
    for kind, weight in zip(ENSEMBLE_ORDER, fv.as_tuple()):
        assert fidelity(rho, bell_vector(kind)) == pytest.approx(weight, abs=1e-12)


def test_invalid_fidelity_vector_rejected():
    with pytest.raises(ValueError, match="sum"):
        FidelityVector(0.5, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError, match="outside"):
        FidelityVector(1.2, -0.2, 0.0, 0.0)
    with pytest.raises(ValueError, match="sum"):
        FidelityVector.from_components((0.5, 0.5, 0.5, 0.5))


def test_from_components_renormalizes_round_off():
    fv = FidelityVector.from_components((0.7, 0.1, 0.1, 0.1 + 4e-10))
    assert sum(fv.as_tuple()) == pytest.approx(1.0, abs=1e-15)


@given(
    st.lists(st.floats(0.01, 1.0, allow_nan=False), min_size=4, max_size=4)
)
def test_ensemble_weights_sum_to_one(raw):
    total = sum(raw)
    fv = FidelityVector.from_components([v / total for v in raw])
    comps = mixed_ensemble(fv)
    assert sum(c.weight for c in comps) == pytest.approx(1.0, abs=1e-12)


# --- sampling ------------------------------------------------------------------------


def test_deterministic_mixture_always_returns_leading_component():
    fv = FidelityVector(1.0, 0.0, 0.0, 0.0)
    rng = np.random.default_rng(123)
    slots = inverse_cdf(fv.as_tuple(), rng.random(100))
    assert all(ENSEMBLE_ORDER[i] is PolarizationBell.PHI_PLUS for i in slots)


def test_sampling_frequency_within_three_sigma():
    fv = FidelityVector(0.5, 0.0, 0.5, 0.0)
    rng = np.random.default_rng(42)
    n = 10_000
    slots = inverse_cdf(fv.as_tuple(), rng.random(n))
    hits = int(np.count_nonzero(slots == ENSEMBLE_ORDER.index(PolarizationBell.PHI_PLUS)))
    sigma = math.sqrt(0.25 / n)
    assert abs(hits / n - 0.5) <= 3 * sigma


def test_same_seed_gives_identical_draws():
    fv = FidelityVector(0.4, 0.3, 0.2, 0.1)
    first = inverse_cdf(fv.as_tuple(), np.random.default_rng(9).random(1))
    seq_a = inverse_cdf(fv.as_tuple(), np.random.default_rng(99).random(500))
    seq_b = inverse_cdf(fv.as_tuple(), np.random.default_rng(99).random(500))
    assert seq_a.tolist() == seq_b.tolist()
    assert len(first) == 1


def test_sampling_converges_at_four_sigma():
    n = 100_000
    for seed in (0, 1, 2, 3):
        maker = np.random.default_rng(seed)
        raw = np.maximum(maker.dirichlet((2.0, 2.0, 2.0, 2.0)), 0.05)
        fv = FidelityVector.from_components((raw / raw.sum()).tolist())
        rng = np.random.default_rng(100 + seed)
        counts = np.bincount(inverse_cdf(fv.as_tuple(), rng.random(n)), minlength=4)
        for count, weight in zip(counts, fv.as_tuple()):
            sigma = math.sqrt(weight * (1.0 - weight) / n)
            assert abs(count / n - weight) <= 4 * sigma


# --- spatial dephasing ------------------------------------------------------------


def dephased_signs(fv, p, m, seed):
    """Spatial sign bit of each pair a run delivers: case c has sign bit c % 2."""
    return run_protocol(m, fv, dephase_p=p, seed=seed).case % 2


def test_dephase_identity_at_zero_probability():
    fv = FidelityVector(0.0, 0.0, 1.0, 0.0)
    assert not dephased_signs(fv, 0.0, 200, 0).any()


def test_dephase_always_flips_at_unit_probability():
    fv = FidelityVector(1.0, 0.0, 0.0, 0.0)
    assert dephased_signs(fv, 1.0, 50, 0).all()


def test_dephase_flip_frequency_within_three_sigma():
    fv = FidelityVector(1.0, 0.0, 0.0, 0.0)
    n = 10_000
    flips = int(np.count_nonzero(dephased_signs(fv, 0.3, n, 5)))
    sigma = math.sqrt(0.3 * 0.7 / n)
    assert abs(flips / n - 0.3) <= 3 * sigma


def test_dephased_component_flips_spatial_vector_sign():
    comp = HyperComponent(PolarizationBell.PHI_PLUS, 1.0, spatial_sign=-1)
    spatial = comp.spatial_state()
    assert spatial.amplitude("a2 b2") == pytest.approx(-INV_SQRT2, abs=1e-15)
    full = comp.full_state()
    assert full.amplitude("V a2 V b2") == pytest.approx(-0.5, abs=1e-14)


def test_full_state_matches_projector_marginals():
    comp = HyperComponent(PolarizationBell.PSI_PLUS, 1.0)
    rho = projector(comp.full_state())
    # polarization marginal equals the Bell projector
    from hyperdistill import partial_trace

    pol = partial_trace(rho, keep=(0, 2), dims=(2, 2, 2, 2))
    expected = projector(bell_vector(PolarizationBell.PSI_PLUS))
    np.testing.assert_allclose(pol.entries, expected.entries, atol=1e-14)


@settings(max_examples=20)
@given(st.sampled_from(list(PolarizationBell)), st.sampled_from([1, -1]))
def test_component_state_is_normalized(kind, sign):
    comp = HyperComponent(kind, 0.5, spatial_sign=sign)
    amps = comp.full_state().amplitudes
    assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-12)
