import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdistill import bell_vector, fidelity, projector, spatial_vector, trace_distance
from hyperdistill.linalg import (
    DensityMatrix,
    StateVector,
    partial_trace,
    reorder_subsystems,
    tensor,
)
from hyperdistill.model import EPS_NORM, PolarizationBell

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def unit_vector(values, labels):
    arr = np.asarray(values, dtype=complex)
    return StateVector(arr / np.linalg.norm(arr), labels)


def random_state(rng, dim):
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return unit_vector(amps, tuple(f"b{i}" for i in range(dim)))


# --- independent oracles -----------------------------------------------------


def contract_fidelity(rho_entries, psi_amps):
    """<psi|rho|psi> by explicit double loop."""
    total = 0.0 + 0.0j
    dim = len(psi_amps)
    for i in range(dim):
        for j in range(dim):
            total += np.conj(psi_amps[i]) * rho_entries[i, j] * psi_amps[j]
    return total


def brute_force_partial_trace(entries, keep, dims):
    """Index-summation partial trace, written independently of the library."""
    n = len(dims)
    keep = sorted(keep)
    traced = [i for i in range(n) if i not in keep]
    out_dim = int(np.prod([dims[k] for k in keep]))
    out = np.zeros((out_dim, out_dim), dtype=complex)

    def unflatten(flat):
        idx = []
        for d in reversed(dims):
            idx.append(flat % d)
            flat //= d
        return list(reversed(idx))

    def flatten_kept(idx):
        val = 0
        for k in keep:
            val = val * dims[k] + idx[k]
        return val

    total_dim = int(np.prod(dims))
    for row in range(total_dim):
        ri = unflatten(row)
        for col in range(total_dim):
            ci = unflatten(col)
            if all(ri[t] == ci[t] for t in traced):
                out[flatten_kept(ri), flatten_kept(ci)] += entries[row, col]
    return out


# --- tensor ------------------------------------------------------------------


def test_tensor_of_basis_states_is_single_amplitude():
    h = StateVector((1.0, 0.0), ("H", "V"))
    a1 = StateVector((1.0, 0.0), ("a1", "a2"))
    product = tensor(h, a1)
    assert product.dim == 4
    assert product.amplitude("H a1") == pytest.approx(1.0)
    assert sum(abs(a) for a in product.amplitudes) == pytest.approx(1.0)


def test_tensor_of_bell_states_has_four_half_amplitudes():
    product = tensor(bell_vector(PolarizationBell.PHI_PLUS), spatial_vector())
    nonzero = {
        label: complex(amp)
        for amp, label in zip(product.amplitudes, product.basis_labels)
        if abs(amp) > 1e-15
    }
    assert set(nonzero) == {
        "H H a1 b1",
        "H H a2 b2",
        "V V a1 b1",
        "V V a2 b2",
    }
    for value in nonzero.values():
        assert value == pytest.approx(0.5, abs=1e-14)


def test_tensor_expands_superposition():
    zero = StateVector((1.0, 0.0), ("0", "1"))
    plus = StateVector((INV_SQRT2, INV_SQRT2), ("0", "1"))
    product = tensor(zero, plus)
    np.testing.assert_allclose(
        product.amplitudes, [INV_SQRT2, INV_SQRT2, 0.0, 0.0], atol=1e-15
    )


def test_tensor_rejects_dimension_overflow():
    big = random_state(np.random.default_rng(0), 16)
    medium = random_state(np.random.default_rng(1), 8)
    with pytest.raises(ValueError, match="exceeds"):
        tensor(big, medium)


# --- fidelity ----------------------------------------------------------------


def test_self_fidelity_is_one():
    phi = bell_vector(PolarizationBell.PHI_PLUS)
    assert fidelity(projector(phi), phi) == pytest.approx(1.0, abs=1e-14)


def test_orthogonal_bell_fidelity_is_zero():
    phi = bell_vector(PolarizationBell.PHI_PLUS)
    psi = bell_vector(PolarizationBell.PSI_PLUS)
    assert fidelity(projector(phi), psi) == pytest.approx(0.0, abs=1e-14)


def test_mixture_fidelity_recovers_leading_weight():
    weights = (0.7, 0.1, 0.15, 0.05)
    rho = DensityMatrix.mixture(
        (w, bell_vector(kind)) for w, kind in zip(weights, PolarizationBell)
    )
    phi = bell_vector(PolarizationBell.PHI_PLUS)
    expected = contract_fidelity(rho.entries, phi.amplitudes)
    assert abs(expected.imag) < 1e-14
    assert expected.real == pytest.approx(0.7, abs=1e-14)
    assert fidelity(rho, phi) == pytest.approx(expected.real, abs=1e-14)


def test_fidelity_rejects_dimension_mismatch():
    rho = projector(bell_vector(PolarizationBell.PHI_PLUS))
    with pytest.raises(ValueError, match="mismatch"):
        fidelity(rho, StateVector((1.0, 0.0), ("H", "V")))


# --- partial trace -----------------------------------------------------------


def test_bell_marginal_is_maximally_mixed():
    rho = projector(bell_vector(PolarizationBell.PHI_PLUS))
    reduced = partial_trace(rho, keep=(0,), dims=(2, 2))
    np.testing.assert_allclose(reduced.entries, np.eye(2) / 2, atol=1e-14)


def test_keep_all_is_identity():
    rho = projector(bell_vector(PolarizationBell.PSI_MINUS))
    same = partial_trace(rho, keep=(0, 1), dims=(2, 2))
    np.testing.assert_allclose(same.entries, rho.entries, atol=0)


def test_partial_trace_matches_brute_force_on_joint_state():
    # Joint state of the two-photon register with two binary readout
    # registers attached, reduced back to the photon part.
    photon = tensor(bell_vector(PolarizationBell.PHI_PLUS), spatial_vector())
    readout = StateVector((0.6, 0.8), ("r0", "r1"))
    joint = tensor(photon, readout)
    rho = projector(joint)
    dims = (2, 2, 2, 2, 2)
    reduced = partial_trace(rho, keep=(0, 1, 2, 3), dims=dims)
    expected = brute_force_partial_trace(rho.entries, [0, 1, 2, 3], list(dims))
    np.testing.assert_allclose(reduced.entries, expected, atol=1e-12)
    # and a second, non-contiguous reduction
    reduced2 = partial_trace(rho, keep=(1, 4), dims=dims)
    expected2 = brute_force_partial_trace(rho.entries, [1, 4], list(dims))
    np.testing.assert_allclose(reduced2.entries, expected2, atol=1e-12)


def test_partial_trace_rejects_inconsistent_dims():
    rho = projector(bell_vector(PolarizationBell.PHI_PLUS))
    with pytest.raises(ValueError, match="multiply"):
        partial_trace(rho, keep=(0,), dims=(2, 3))
    with pytest.raises(ValueError, match="at least one"):
        partial_trace(rho, keep=(), dims=(2, 2))


# --- type invariants -----------------------------------------------------------


def test_state_vector_rejects_denormalized_input():
    with pytest.raises(ValueError, match="not normalized"):
        StateVector((1.0, 1.0), ("0", "1"))


def test_state_vector_rejects_duplicate_labels():
    with pytest.raises(ValueError, match="distinct"):
        StateVector((1.0, 0.0), ("x", "x"))


def test_state_vector_rejects_non_finite():
    with pytest.raises(ValueError, match="NaN"):
        StateVector((float("nan"), 0.0), ("0", "1"))


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.eye(2, dtype=complex))


def test_density_matrix_rejects_non_hermitian():
    mat = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(mat)


def test_density_matrix_rejects_negative_eigenvalue():
    mat = np.array([[1.5, 0.0], [0.0, -0.5]], dtype=complex)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityMatrix(mat)


def test_trace_distance_of_orthogonal_pure_states_is_one():
    a = projector(StateVector((1.0, 0.0), ("0", "1")))
    b = projector(StateVector((0.0, 1.0), ("0", "1")))
    assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-14)
    assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-14)


# --- algebraic properties ------------------------------------------------------

finite = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def vector_strategy(dim):
    return st.lists(
        st.tuples(finite, finite), min_size=dim, max_size=dim
    ).filter(lambda vs: sum(re * re + im * im for re, im in vs) > 1e-2)


@given(vector_strategy(4), vector_strategy(4))
def test_tensor_preserves_norm(raw_a, raw_b):
    a = unit_vector([complex(re, im) for re, im in raw_a], ("p", "q", "r", "s"))
    b = unit_vector([complex(re, im) for re, im in raw_b], ("w", "x", "y", "z"))
    product = tensor(a, b)
    assert np.sum(np.abs(product.amplitudes) ** 2) == pytest.approx(
        1.0, abs=EPS_NORM
    )


@given(vector_strategy(2), vector_strategy(2), vector_strategy(4))
def test_tensor_is_associative_up_to_regrouping(raw_a, raw_b, raw_c):
    a = unit_vector([complex(re, im) for re, im in raw_a], ("0", "1"))
    b = unit_vector([complex(re, im) for re, im in raw_b], ("x", "y"))
    c = unit_vector([complex(re, im) for re, im in raw_c], ("p", "q", "r", "s"))
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    np.testing.assert_allclose(left.amplitudes, right.amplitudes, atol=1e-14)
    assert left.basis_labels == right.basis_labels


@given(st.lists(st.tuples(finite, finite), min_size=3, max_size=3), vector_strategy(4))
def test_fidelity_stays_in_unit_interval(raw_weights, raw_psi):
    weights = [abs(re) + abs(im) + 1e-3 for re, im in raw_weights]
    total = sum(weights)
    rng = np.random.default_rng(7)
    rho = DensityMatrix.mixture(
        (w / total, random_state(rng, 4)) for w in weights
    )
    psi = unit_vector([complex(re, im) for re, im in raw_psi], ("a", "b", "c", "d"))
    value = fidelity(rho, psi)
    assert -EPS_NORM <= value <= 1.0 + EPS_NORM


@settings(max_examples=25)
@given(st.integers(0, 2**32 - 1))
def test_partial_trace_composes_over_disjoint_sets(seed):
    rng = np.random.default_rng(seed)
    psi = random_state(rng, 16)
    rho = projector(psi)
    dims = (2, 2, 2, 2)
    single_shot = partial_trace(rho, keep=(0, 2), dims=dims)
    step1 = partial_trace(rho, keep=(0, 1, 2), dims=dims)
    step2 = partial_trace(step1, keep=(0, 2), dims=(2, 2, 2))
    np.testing.assert_allclose(single_shot.entries, step2.entries, atol=1e-12)


@settings(max_examples=25)
@given(st.integers(0, 2**32 - 1))
def test_reorder_preserves_norm_and_roundtrips(seed):
    rng = np.random.default_rng(seed)
    photon = tensor(bell_vector(PolarizationBell.PHI_PLUS), spatial_vector())
    perm = tuple(rng.permutation(4).tolist())
    moved = reorder_subsystems(photon, perm, (2, 2, 2, 2))
    assert np.sum(np.abs(moved.amplitudes) ** 2) == pytest.approx(1.0, abs=EPS_NORM)
    inverse = tuple(perm.index(i) for i in range(4))
    back = reorder_subsystems(moved, inverse, (2, 2, 2, 2))
    np.testing.assert_allclose(back.amplitudes, photon.amplitudes, atol=0)
    assert back.basis_labels == photon.basis_labels
