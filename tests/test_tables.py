"""The table-driven engine against its references.

``run_protocol`` draws the substreams in chunks of pairs into int8
columns, each pair's fate set by the Bell kind its case survives as,
``pair_table().kind``. These tests check the arrays that column implies
(``table_arrays``) against the tensor oracle and explicit projector
algebra, and each column and the wire bytes of a run against a per-pair
loop that draws in the engine's order and samples every pair from the
tensor oracle, not from the table, so that a wrong table fails it. They
check the columnar transcript against the per-message rules of
``Message``.
"""

import contextlib
import functools
import hashlib
import io
import itertools
import math
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperdistill import (
    DeviceParams,
    FidelityVector,
    HyperComponent,
    Message,
    Party,
    Phase,
    PolarizationBell,
    QndOutcome,
    Transcript,
    audit,
    fidelity,
    oracle_conditional_pol_state,
    oracle_evolve,
    oracle_outcome_distribution,
    projector,
    run_protocol,
    trace_distance,
)
from hyperdistill import protocol, render, wire
from hyperdistill.cli import RunConfig, execute_run, write_transcript
from hyperdistill.linalg import EPS_ORACLE, StateVector
from hyperdistill.model import CASES, ENSEMBLE_ORDER, OUTCOME_PAIRS, inverse_cdf
from hyperdistill.protocol import (
    SIGNED_ANGLES,
    VIOLATION_ALICE_FEEDBACK,
    VIOLATION_ANGLE_TO_BOB2,
    VIOLATION_BOB_TO_BOB,
    VIOLATION_RESULT_FROM_BOB2,
    Violation,
    analytic_phi_probability,
    inferred_phi_probability,
    pair_table,
)
from hyperdistill.states import POLARIZATION_PAIR_LABELS, bell_vector, mixed_ensemble
from table_arrays import table_arrays

S = QndOutcome.SHIFT
N = QndOutcome.NO_SHIFT
FLIPPED = {S: N, N: S}
MIXED = FidelityVector(0.7, 0.1, 0.15, 0.05)


# --- tables -----------------------------------------------------------------------


@pytest.mark.parametrize("case", range(len(CASES)))
def test_readout_tables_match_oracle(case):
    kind, sign = CASES[case]
    table = table_arrays()
    rho = oracle_evolve(HyperComponent(kind, 1.0, sign), DeviceParams())
    oracle_probs = oracle_outcome_distribution(rho)
    for r, pair in enumerate(OUTCOME_PAIRS):
        assert abs(table.probs[case, r] - oracle_probs[pair]) <= EPS_ORACLE
        oracle_state = oracle_conditional_pol_state(rho, pair)
        assert table.survives[case, r] == (oracle_state is not None)
        if oracle_state is None:
            assert not table.amplitudes[case, r].any()
        else:
            state = StateVector(table.amplitudes[case, r], POLARIZATION_PAIR_LABELS)
            distance = trace_distance(projector(state), oracle_state)
            assert distance <= EPS_ORACLE
            phi_weight = (oracle_state.entries[0, 0] + oracle_state.entries[3, 3]).real
            assert table.phi[case, r] == (phi_weight > 0.5)


def projector_bit_probability(rho, sent_angle, bit):
    """Born weight of Bob1's bit from the full 4x4 projector on the pair's
    density matrix ``rho``."""
    sign = 1.0 if bit == 0 else -1.0
    phi = np.array([1.0, sign * np.exp(-1j * sent_angle)]) / math.sqrt(2.0)
    proj = np.kron(np.outer(phi, phi.conj()), np.eye(2))
    return float(np.trace(proj @ rho @ proj).real)


@pytest.mark.parametrize("case", range(len(CASES)))
def test_bob1_rows_match_projector_algebra(case):
    table = table_arrays()
    assert table.bit0.shape == (8, 4, 16) and table.zero_weight.shape == (8, 4, 16, 2)
    for r in np.flatnonzero(table.survives[case]):
        state = StateVector(table.amplitudes[case, r], POLARIZATION_PAIR_LABELS)
        bit0, zero_weight = table.bit0[case, r], table.zero_weight[case, r]
        for a, angle in enumerate(SIGNED_ANGLES):
            for bit in (0, 1):
                p = projector_bit_probability(projector(state).entries, angle, bit)
                expected = p if bit == 0 else 1.0 - p
                assert abs((bit0[a] if bit == 0 else 1.0 - bit0[a]) - expected) <= EPS_ORACLE
                assert zero_weight[a, bit] == (p <= 1e-12)


#: The Bell state a spatial sign of -1 turns each Bell state into.
SIGN_FLIPPED = {
    PolarizationBell.PHI_PLUS: PolarizationBell.PHI_MINUS,
    PolarizationBell.PHI_MINUS: PolarizationBell.PHI_PLUS,
    PolarizationBell.PSI_PLUS: PolarizationBell.PSI_MINUS,
    PolarizationBell.PSI_MINUS: PolarizationBell.PSI_PLUS,
}


def test_fidelity_entries_equal_bell_overlaps():
    # Every surviving state is the case's Bell state, Plus and Minus swapped
    # for a spatial sign of -1: fidelity exactly 1.0 with it, 0.0 with the rest.
    table = table_arrays()
    assert table.fidelity.shape == (8, 4, 4)
    for c, r in zip(*np.nonzero(table.survives)):
        kind, sign = CASES[c]
        expected = kind if sign == 1 else SIGN_FLIPPED[kind]
        amplitudes = table.amplitudes[c, r]
        assert amplitudes.tolist() == bell_vector(expected).amplitudes.tolist(), (c, r)
        for k, bell in enumerate(ENSEMBLE_ORDER):
            overlap = abs(np.vdot(bell_vector(bell).amplitudes, amplitudes)) ** 2
            assert table.fidelity[c, r, k] == float(bell is expected), (c, r, bell)
            assert abs(table.fidelity[c, r, k] - overlap) <= 1e-15, (c, r, bell)


def test_table_entries_are_exact():
    table = table_arrays()
    live = table.survives
    assert set(table.probs.ravel().tolist()) == {0.0, 0.5}
    assert (table.probs.sum(axis=1) == 1.0).all()
    assert set(table.fidelity[live].ravel().tolist()) == {0.0, 1.0}
    assert ((table.fidelity[live] == 1.0).sum(axis=-1) == 1).all()
    assert (table.bit0[live] == 0.5).all()


def test_impossible_readouts_are_marked_and_never_read():
    table = table_arrays()
    dead = ~table.survives
    assert dead.sum() == 16
    assert np.all(table.probs[dead] == 0.0)
    assert not table.phi[dead].any()
    assert not table.amplitudes[dead].any()
    assert np.isnan(table.fidelity[dead]).all() and np.isnan(table.bit0[dead]).all()
    assert table.zero_weight[dead].all()
    assert not np.isnan(table.fidelity[~dead]).any() and not np.isnan(table.bit0[~dead]).any()
    kind = pair_table().kind
    assert kind.dtype == np.int8 and kind.tolist() == [0, 1, 1, 0, 2, 3, 3, 2]
    with pytest.raises(ValueError, match="read-only"):
        kind[0] = 0

    # The engine reads no readout that cannot occur: every draw of a run
    # that sets every case and every flip lands on a readout of its case.
    run = run_protocol(5000, MIXED, DeviceParams(0.2), dephase_p=0.3, evil_bob_flip_p=0.4)
    assert table.survives[run.case, run.readout].all()
    assert set(zip(run.case.tolist(), run.readout.tolist())) == set(
        zip(*np.nonzero(table.survives)))


#: sha256 of each table_arrays() array's bytes, the amplitudes taken at the
#: surviving states only, in case and readout order, under "states". A table
#: built another way must give the same bytes, or change these digests on purpose.
PAIR_TABLE_SHA256 = {
    "probs": "0533de46989311d47bbcdd7555d00806fdb00df61eb5658e6e73a2c976ef1caa",
    "survives": "02edeb3bb74046e415b314ec9e6c6a7caffd891fb1b652ab05a7e0aaaaf7b72a",
    "phi": "f69d05ee81336a0dbc728159bd5b58f1c7ac51fdc46030afb95166979767c418",
    "fidelity": "cabe7fc2e3f7439df2311cc4dd86070cda64cd74063006ba770fa5ac4c540fcf",
    "bit0": "1d3568c1922780c2a3c5e93ee910493be369211174735ef8e081e41892afccb1",
    "zero_weight": "5cced6b03195ff8e2c6c71b1b82be44a85cd8710032ca90347e9e2ea24aa599a",
    "states": "36ab9a64b4a27d7d191ba4af44fe9f90e756e5f5988aeef22d4492d975d9c09c",
}


def test_pair_table_bytes_are_pinned():
    table = table_arrays()
    blobs = {name: getattr(table, name).tobytes() for name in table._fields}
    del blobs["amplitudes"]
    blobs["states"] = table.amplitudes[table.survives].tobytes()
    digests = {name: hashlib.sha256(blob).hexdigest() for name, blob in blobs.items()}
    assert digests == PAIR_TABLE_SHA256


def test_surviving_states_print_no_negative_zero():
    # The table's states hold no -0.0 imaginary part, but their conjugates,
    # the same real states, hold one in every entry; printed, they must not
    # read as if they carried a phase.
    table = table_arrays()
    assert not np.signbit(table.amplitudes.imag).any()
    states = [
        StateVector(amplitudes.conj(), POLARIZATION_PAIR_LABELS)
        for amplitudes in table.amplitudes[table.survives]
    ]
    assert all(np.signbit(state.amplitudes.imag).all() for state in states)
    assert not [repr(state) for state in states if "-0j" in repr(state)]


def test_signed_angles_follow_the_announcement_rule():
    for s, sign in enumerate((1.0, -1.0)):
        for k in range(8):
            assert SIGNED_ANGLES[8 * s + k] == sign * (k * math.pi / 4) + 0.0
    assert SIGNED_ANGLES[8] == 0.0 and math.copysign(1.0, SIGNED_ANGLES[8]) == 1.0


# --- the inverse-CDF choice ------------------------------------------------------------


def draw_slot(weights, u):
    """Slot that the one uniform draw ``u`` selects from ``weights``, chosen
    by the per-pair reference run: the first slot whose running weight sum
    exceeds ``u``, or the last slot of nonzero weight when none does."""
    acc = 0.0
    for i, weight in enumerate(weights):
        acc += weight
        if u < acc:
            return i
    return max(i for i, weight in enumerate(weights) if weight > 0.0)


def test_table_readout_fallback_skips_zero_weight_readout():
    # The table's readout weights sum to exactly 1, but the weights of
    # FidelityVector(0.7, 0.2, 0.1, 0) add up to 1 - 1e-16 left to right,
    # and the last slot (PsiMinus) cannot be drawn.
    weights = FidelityVector(0.7, 0.2, 0.1, 0.0).as_tuple()
    u = np.array([0.9999999999999999])
    assert np.cumsum(weights)[-1] <= u[0]
    assert inverse_cdf(weights, u).tolist() == [ENSEMBLE_ORDER.index(PolarizationBell.PSI_PLUS)]


def test_table_path_fallback_skips_zero_weight_slot():
    u = np.array([0.9999999999999999, 0.0, 0.75])
    weights = (0.7, 0.1, 0.2 - 5e-13, 0.0)
    assert inverse_cdf(weights, u).tolist() == [2, 0, 1]


@settings(max_examples=200, deadline=None)
# A FidelityVector admits a weight down to -EPS_NORM, so the running sum
# may fall: 0.49999999999995 lies below the first sum but above the second.
# A draw equal to a running sum, 0.5, selects a later slot.
@example([0.5, -1e-13, 0.5], [0.49999999999995, 0.5, 0.99999999999995, 0.0])
@given(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6).filter(lambda w: sum(w) > 0),
    st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=20),
)
def test_inverse_cdf_equals_the_per_draw_reference(weights, draws):
    expected = [draw_slot(weights, u) for u in draws]
    assert inverse_cdf(weights, np.array(draws)).tolist() == expected
    assert all(weights[i] > 0.0 for i in expected)


# --- engine against a per-pair run sampled from the tensor oracle ----------------------


@pytest.mark.parametrize(
    "fv", [MIXED, FidelityVector(1, 0, 0, 0), FidelityVector(0.25, 0.25, 0.5, 0)]
)
def test_inferred_phi_probability_matches_enumeration(fv):
    # Sum over every case, readout and combination of the two misreads
    # and the misreport; Alice infers Phi when the reported bits agree.
    probs = table_arrays().probs
    flip_combinations = list(itertools.product((0, 1), repeat=3))
    grid = itertools.product((0, 0.05, 0.3, 1), (0, 0.1, 0.2, 0.49), (0, 0.1, 1))
    for dephase_p, e, m in grid:
        total = 0.0
        for c, (_, sign) in enumerate(CASES):
            weight = fv.as_tuple()[c // 2] * (1 - dephase_p if sign == 1 else dephase_p)
            for r, (fa, fb, fm) in itertools.product(range(4), flip_combinations):
                flips = (e if fa else 1 - e) * (e if fb else 1 - e) * (m if fm else 1 - m)
                if ((r >> 1) ^ fa ^ fm) == ((r & 1) ^ fb):
                    total += weight * probs[c, r] * flips
        expected = inferred_phi_probability(analytic_phi_probability(fv, dephase_p), e, m)
        assert expected == pytest.approx(total, abs=1e-12), (dephase_p, e, m)


def branch_sum_phi_probability(fv, dephase_p):
    """Same-readout probability summed component by component, then by
    sign, from the (Shift, Shift) and (NoShift, NoShift) entries of
    ``table_arrays().probs``."""
    probs = table_arrays().probs
    total = 0.0
    for component in mixed_ensemble(fv):
        for sign, sign_p in ((1, 1.0 - dephase_p), (-1, dephase_p)):
            if sign_p == 0.0 or component.weight == 0.0:
                continue
            c = CASES.index((component.pol, sign))
            total += component.weight * sign_p * (probs[c, 0] + probs[c, 3])
    return total


@pytest.mark.parametrize(
    "fv", [MIXED, FidelityVector(1, 0, 0, 0), FidelityVector(0.25, 0.25, 0.5, 0)]
)
@pytest.mark.parametrize("dephase_p", [0, 0.05, 0.3, 1])
def test_analytic_phi_probability_equals_branch_engine_sum(fv, dephase_p):
    assert analytic_phi_probability(fv, dephase_p) == branch_sum_phi_probability(
        fv, dephase_p
    )


@pytest.mark.parametrize(
    "fv", [MIXED, FidelityVector(1, 0, 0, 0), FidelityVector(0.25, 0.25, 0.5, 0)]
)
@pytest.mark.parametrize("dephase_p", [0, 0.05, 0.3, 1])
def test_analytic_phi_probability_equals_oracle_sum(fv, dephase_p):
    total = 0.0
    for c, (_, sign) in enumerate(CASES):
        weight = fv.as_tuple()[c // 2] * (1.0 - dephase_p if sign == 1 else dephase_p)
        probs = oracle_case(c)[0]
        total += weight * (probs[0] + probs[3])  # (Shift, Shift) + (NoShift, NoShift)
    assert abs(analytic_phi_probability(fv, dephase_p) - total) <= EPS_ORACLE


@pytest.mark.parametrize("dephase_p", [-0.5, 2.0, math.nan])
def test_analytic_phi_probability_rejects_impossible_dephasing(dephase_p):
    with pytest.raises(ValueError, match=r"dephasing probability .* outside \[0, 1\]"):
        analytic_phi_probability(MIXED, dephase_p)


@pytest.mark.parametrize(
    "fv",
    [FidelityVector(1, 0, 0, 0), MIXED, FidelityVector(0.25, 0.25, 0.5, 0),
     FidelityVector(0, 0.3, 0.3, 0.4)],
)
@pytest.mark.parametrize("dephase_p", [0, 0.05, 0.3, 1])
def test_alice_belief_holds_with_probability_of_the_unflipped_phases(fv, dephase_p):
    # With no readout noise, Alice believes a Phi-class pair is PhiPlus and a
    # Psi-class pair PsiPlus. Bit flips are removed, phase flips pass unseen:
    # the pair is her belief with probability (F + F2)(1 - d) + (F1 + F3) d.
    table = table_arrays()
    belief = {True: ENSEMBLE_ORDER.index(PolarizationBell.PHI_PLUS),
              False: ENSEMBLE_ORDER.index(PolarizationBell.PSI_PLUS)}
    total = 0.0
    for c, (_, sign) in enumerate(CASES):
        weight = fv.as_tuple()[c // 2] * (1.0 - dephase_p if sign == 1 else dephase_p)
        for r in np.flatnonzero(table.survives[c]).tolist():
            k = belief[bool(table.phi[c, r])]
            total += weight * table.probs[c, r] * table.fidelity[c, r, k]
    d = dephase_p
    assert abs(total - ((fv.f + fv.f2) * (1 - d) + (fv.f1 + fv.f3) * d)) <= 1e-12


def test_run_protocol_names_the_pair_bound():
    for pairs in (protocol.MAX_PAIRS + 1, 2**60):
        with pytest.raises(ValueError, match=f"pair count {pairs} exceeds {protocol.MAX_PAIRS}"):
            run_protocol(pairs, MIXED)


NOISE_SETTINGS = {
    "clean": (MIXED, 0.0, 0.0, 0.0),
    "dephasing": (MIXED, 0.3, 0.0, 0.0),
    "homodyne": (MIXED, 0.0, 0.2, 0.0),
    "misreport": (MIXED, 0.0, 0.0, 0.4),
    "all": (MIXED, 0.05, 0.1, 0.1),
    "zero_weight": (FidelityVector(0.7, 0.1, 0.2, 0.0), 0.2, 0.1, 0.1),
    # Every case sign-flipped, every reported readout flipped by Bob1.
    "extremes": (MIXED, 1.0, 0.49, 1.0),
}


@functools.cache
def oracle_case(c):
    """Readout probabilities in OUTCOME_PAIRS order, and the surviving
    polarization states, of case ``c``, from the tensor oracle alone."""
    kind, sign = CASES[c]
    rho = oracle_evolve(HyperComponent(kind, 1.0, sign), DeviceParams())
    dist = oracle_outcome_distribution(rho)
    return (
        [dist[pair] for pair in OUTCOME_PAIRS],
        [oracle_conditional_pol_state(rho, pair) for pair in OUTCOME_PAIRS],
    )


@functools.cache
def oracle_bit0(c, r, sent_angle):
    """Bob1's bit-0 weight on the oracle's surviving state."""
    return projector_bit_probability(oracle_case(c)[1][r].entries, sent_angle, 0)


def oracle_reference_run(m, fv, dephase_p, homodyne_error, evil_bob_flip_p, seed):
    """The run drawn pair by pair, in the engine's order from its four
    substreams, with each pair's readout, state and bit taken from the
    tensor oracle and each slot chosen by ``draw_slot``, not by the
    engine's ``inverse_cdf``. Bob1 measures at the signed angle, which goes
    on the wire mod 2 pi. Returns the expected columns and wire bytes.
    """
    rng_dist, rng_qnd, rng_angle, rng_meas = (
        np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(4)
    )
    names = ("case", "readout", "recorded", "reported", "inferred_phi", "theta_index",
             "signed_angle_index", "a_bit", "true_phi")
    columns = {name: [] for name in names}
    outcomes, angles = [], []
    for _ in range(m):
        c = 2 * draw_slot(fv.as_tuple(), rng_dist.random())
        if dephase_p > 0.0:
            c += rng_dist.random() < dephase_p
        probs, states = oracle_case(c)
        r = draw_slot(probs, rng_qnd.random())
        a, b = OUTCOME_PAIRS[r]
        if homodyne_error > 0.0:
            a = FLIPPED[a] if rng_qnd.random() < homodyne_error else a
            b = FLIPPED[b] if rng_qnd.random() < homodyne_error else b
        recorded = OUTCOME_PAIRS.index((a, b))
        if evil_bob_flip_p > 0.0:
            a = FLIPPED[a] if rng_qnd.random() < evil_bob_flip_p else a
        phi = a is b
        k = int(rng_angle.integers(8))
        sent = (1.0 if phi else -1.0) * (k * (math.pi / 4)) + 0.0
        bit = 0 if rng_meas.random() < oracle_bit0(c, r, sent) else 1
        state = states[r].entries
        row = (c, r, recorded, OUTCOME_PAIRS.index((a, b)), phi, k, 8 * (not phi) + k, bit,
               (state[0, 0] + state[3, 3]).real > 0.5)
        for name, value in zip(names, row):
            columns[name].append(value)
        outcomes.append((a, b))
        angles.append(((k if phi else -k) % 8) * (math.pi / 4))

    lines = [f"Distribution|Source|{bob}|quantum_marker|{j}"
             for j in range(1, m + 1) for bob in ("Bob1", "Bob2")]
    lines += [f"Distillation|{bob}|Alice|qnd_outcome|{outcome.value}"
              for pair in outcomes for bob, outcome in zip(("Bob1", "Bob2"), pair)]
    lines += [f"AngleAnnouncement|Alice|Bob1|angle|{angle!r}" for angle in angles]
    lines += [f"ResultReport|Bob1|Alice|result_bit|{bit}" for bit in columns["a_bit"]]
    lines.append("Handoff|Alice|Bob2|control|begin_single_server")
    wire = "".join(f"{seq}|{line}\n" for seq, line in enumerate(lines, start=1))
    return columns, wire.encode("ascii")


def assert_engine_equals_oracle_reference(m, fv, dephase_p, homodyne_error, evil_bob_flip_p, seed):
    columns, wire = oracle_reference_run(m, fv, dephase_p, homodyne_error, evil_bob_flip_p, seed)
    run = run_protocol(m, fv, DeviceParams(homodyne_error), dephase_p, evil_bob_flip_p, seed)
    assert run.transcript.to_bytes() == wire
    lines = wire.decode("ascii").splitlines()
    assert run.transcript.messages == tuple(map(Message.from_line, lines))
    for name, values in columns.items():
        assert getattr(run, name).tolist() == values, name
    assert run.audit_report == audit(Transcript.from_lines(lines))
    assert run.audit_report.passed
    if fv.f3 == 0.0:
        assert all(c // 2 != 3 for c in columns["case"])
    return run


@pytest.mark.parametrize("setting", sorted(NOISE_SETTINGS))
@pytest.mark.parametrize("m", [1, 2, 257])
@pytest.mark.parametrize("seed", [0, 9, 2**64 - 1])
def test_engine_equals_composed_stage_functions(setting, m, seed):
    # The stages composed pair by pair, each sampled from the oracle.
    assert_engine_equals_oracle_reference(m, *NOISE_SETTINGS[setting], seed)


@pytest.mark.parametrize("size, m", [(1, 7), (3, 11), (4096, 2 * 4096 + 3)])
def test_engine_equals_composed_stage_functions_across_chunks(size, m):
    # Engine blocks hold whole pairs: a two-message phase takes size // 2
    # pairs a block, at least one. Every size leaves a short last chunk,
    # and the engine draws its chunks at the transcript's block size.
    with mock.patch.object(wire, "_BLOCK_LINES", 3):
        assert list(protocol.pair_chunks(7)) == [slice(0, 3), slice(3, 6), slice(6, 7)]
    with mock.patch.object(wire, "_BLOCK_LINES", size):
        run = assert_engine_equals_oracle_reference(m, *NOISE_SETTINGS["all"], 5)
    blocks = run.transcript._blocks
    assert [len(block.route) for block in blocks] == [
        width * min(max(1, size // width), m - i) for width in (2, 2, 1, 1)
        for i in range(0, m, max(1, size // width))
    ] + [1]
    columns = (run.case, run.readout, run.recorded, run.reported, run.theta_index,
               run.signed_angle_index, run.a_bit)
    assert [column.dtype for column in columns] == [np.dtype(np.int8)] * len(columns)
    assert run.inferred_phi.dtype == np.dtype(bool)


def rigged(array, index, value):
    array = np.array(array)
    array[index] = value
    return array


#: Wrong tables a run meets, each patched into ``protocol``: each changes
#: what happens to a PhiPlus pair (case 0), which most pairs of the clean
#: setting are.
RIGGED_TABLES = {
    # Case 0 surviving as PsiPlus.
    "kind": lambda: mock.patch.object(
        protocol, "pair_table", lambda: protocol.PairTable(rigged(pair_table().kind, 0, 2))),
    # A Phi kind reading (Shift, Shift) or (Shift, NoShift), a parity step of 1.
    "step": lambda: mock.patch.object(
        protocol, "_READOUT_STEP", rigged(protocol._READOUT_STEP, 0, 1)),
    # The ground-truth class of a surviving state inverted.
    "phi": lambda: mock.patch.object(protocol, "PHI_KIND", rigged(protocol.PHI_KIND, 0, False)),
}


@pytest.mark.parametrize("name", sorted(RIGGED_TABLES))
def test_oracle_reference_fails_on_a_wrong_pair_table(name):
    with RIGGED_TABLES[name]():
        with pytest.raises(AssertionError):
            assert_engine_equals_oracle_reference(257, *NOISE_SETTINGS["clean"], 0)
    assert_engine_equals_oracle_reference(257, *NOISE_SETTINGS["clean"], 0)


#: The report's fidelity means, in ENSEMBLE_ORDER: of Phi-class pairs for
#: PhiPlus and PhiMinus, of Psi-class pairs for PsiPlus and PsiMinus.
MEAN_KEYS = ("mean_phi_pair_fidelity_phi_plus", "mean_phi_pair_fidelity_phi_minus",
             "mean_psi_pair_fidelity_psi_plus", "mean_psi_pair_fidelity_psi_minus")


@functools.cache
def oracle_fidelity(c, r, k):
    """Fidelity of the oracle's surviving state of case c and readout r with
    the Bell state ENSEMBLE_ORDER[k]."""
    return fidelity(oracle_case(c)[1][r], bell_vector(ENSEMBLE_ORDER[k]))


@pytest.mark.parametrize("setting", sorted(NOISE_SETTINGS))
def test_report_equals_the_per_pair_oracle_sums(setting):
    # Every count and fidelity mean of the report, summed pair by pair over
    # the oracle reference run, each fidelity from the oracle's state.
    fv, dephase_p, homodyne_error, evil_bob_flip_p = NOISE_SETTINGS[setting]
    m = 3000
    columns, _ = oracle_reference_run(m, fv, dephase_p, homodyne_error, evil_bob_flip_p, 5)
    doc, _ = execute_run(RunConfig(
        pairs=m, fidelities=fv, dephase_p=dephase_p, homodyne_error=homodyne_error,
        evil_bob_flip_p=evil_bob_flip_p, seed=5))
    inferred, true = columns["inferred_phi"], columns["true_phi"]
    assert doc["phi_class_count"] == sum(inferred)
    assert doc["class_mismatch_count"] == sum(i != t for i, t in zip(inferred, true))
    for k, key in enumerate(MEAN_KEYS):
        pairs = [(c, r) for c, r, t in zip(columns["case"], columns["readout"], true)
                 if t == (k < 2)]
        if not pairs:
            assert doc[key] is None
            continue
        mean = sum(oracle_fidelity(c, r, k) for c, r in pairs) / len(pairs)
        assert abs(doc[key] - mean) <= EPS_ORACLE, key


def test_engine_keeps_the_stage_checks():
    with pytest.raises(ValueError, match=">= 1"):
        run_protocol(0, MIXED)
    for dephase_p in (1.5, -0.5, math.nan):
        with pytest.raises(ValueError, match="dephasing probability"):
            run_protocol(3, MIXED, dephase_p=dephase_p)
    with pytest.raises(ValueError, match="evil_bob_flip_p"):
        run_protocol(3, MIXED, evil_bob_flip_p=-0.1)


# --- columnar audit --------------------------------------------------------------------


def reference_audit(messages):
    """The auditor's rules applied one message at a time, rule by rule."""
    bobs = (Party.BOB1, Party.BOB2)
    found = []
    for msg in messages:
        if msg.sender in bobs and msg.recipient in bobs:
            found.append(Violation(
                VIOLATION_BOB_TO_BOB, msg.seq,
                f"{msg.sender.value} messaged {msg.recipient.value}",
            ))
        if (msg.sender is Party.ALICE and msg.recipient in bobs
                and msg.phase in (Phase.DISTRIBUTION, Phase.DISTILLATION)):
            found.append(Violation(
                VIOLATION_ALICE_FEEDBACK, msg.seq,
                f"Alice fed back to {msg.recipient.value} during {msg.phase.value}",
            ))
        if msg.phase is Phase.ANGLE_ANNOUNCEMENT and msg.recipient is Party.BOB2:
            found.append(Violation(
                VIOLATION_ANGLE_TO_BOB2, msg.seq, "angle announced to Bob2"
            ))
        if msg.phase is Phase.RESULT_REPORT and msg.sender is Party.BOB2:
            found.append(Violation(
                VIOLATION_RESULT_FROM_BOB2, msg.seq, "Bob2 reported a result bit"
            ))
    return tuple(found)


def test_audit_lists_a_two_rule_message_by_rule():
    transcript = Transcript.from_lines([
        "1|Distribution|Source|Bob1|quantum_marker|1",
        "2|ResultReport|Bob2|Bob1|result_bit|0",
        "3|AngleAnnouncement|Bob1|Bob2|angle|0.0",
    ])
    assert audit(transcript).violations == (
        Violation(VIOLATION_BOB_TO_BOB, 2, "Bob2 messaged Bob1"),
        Violation(VIOLATION_RESULT_FROM_BOB2, 2, "Bob2 reported a result bit"),
        Violation(VIOLATION_BOB_TO_BOB, 3, "Bob1 messaged Bob2"),
        Violation(VIOLATION_ANGLE_TO_BOB2, 3, "angle announced to Bob2"),
    )


message_fields = st.tuples(
    st.sampled_from(list(Phase)), st.sampled_from(list(Party)), st.sampled_from(list(Party))
).filter(lambda fields: fields[1] is not fields[2])

#: Every route a message may take: each row of the audit's route table.
VALID_ROUTES = [route for route in wire.ROUTES if route[1] is not route[2]]


@settings(max_examples=100, deadline=None)
@given(st.lists(message_fields, max_size=30), st.integers(0, 2**16))
@example(fields=VALID_ROUTES, seed=0)
def test_columnar_audit_equals_per_message_rules(fields, seed):
    lines = run_protocol(2, MIXED, seed=seed).transcript.to_lines()
    lines += [
        Message(seq, phase, sender, recipient, wire.PAYLOAD_KIND_FOR_PHASE[phase], "x").to_line()
        for seq, (phase, sender, recipient) in enumerate(fields, len(lines) + 1)
    ]
    transcript = Transcript.from_lines(lines)
    report = audit(transcript)
    assert report.violations == reference_audit(transcript.messages)
    assert report.passed == (not report.violations)
    reparsed = Transcript.from_lines(transcript.to_lines())
    assert audit(reparsed) == report


# --- parsing into columns ---------------------------------------------------------------


def reference_from_lines(lines):
    """Parse message by message with ``Message.from_line``."""
    messages, prev = [], 0
    for line in lines:
        if not line.strip():
            continue
        msg = Message.from_line(line)
        if msg.seq <= prev:
            raise ValueError(f"seq {msg.seq} not strictly increasing")
        prev = msg.seq
        messages.append(msg)
    return tuple(messages)


GOOD = "1|Distribution|Source|Bob1|quantum_marker|1"
BAD_TRANSCRIPTS = {
    "five fields": ["1|Distribution|Source|Bob1|quantum_marker"],
    "seven fields": ["1|Distribution|Source|Bob1|quantum_marker|1|2"],
    "no separator": ["garbage"],
    "seq not an integer": ["x|Distribution|Source|Bob1|quantum_marker|1"],
    "unknown phase": ["1|Lunch|Source|Bob1|quantum_marker|1"],
    "unknown sender": ["1|Distribution|Eve|Bob1|quantum_marker|1"],
    "unknown recipient": ["1|Distribution|Source|Eve|quantum_marker|1"],
    "kind of another phase": ["1|Distribution|Source|Bob1|angle|1"],
    "unknown kind": ["1|Distribution|Source|Bob1|pizza|1"],
    "self message": ["1|Distribution|Bob1|Bob1|quantum_marker|1"],
    "seq below one": ["0|Distribution|Source|Bob1|quantum_marker|1"],
    "repeated seq": [GOOD, GOOD],
    "newline in payload": [GOOD, "2|Distribution|Source|Bob1|quantum_marker|a\nb"],
    "second error comes later": [
        "2|Distribution|Source|Bob1|quantum_marker|1",
        "1|Distribution|Source|Bob1|quantum_marker|1",
        "3|Lunch|Source|Bob1|quantum_marker|1",
    ],
    "no seq": ["|Distribution|Source|Bob1|quantum_marker|1"],
    "near-miss phase": ["1|Distributiom|Source|Bob1|quantum_marker|1"],
    "near-miss party": ["1|Distribution|Source|Bob3|quantum_marker|1"],
    "party name too long": ["1|Distribution|Sources|Bob1|quantum_marker|1"],
    "kind with a suffix": ["1|Distribution|Source|Bob1|quantum_markers|1"],
    "crlf endings": [GOOD + "\r\n", "2|Handoff|Alice|Bob2|control|x\r\n"],
    "carriage return in payload": [GOOD, "2|Handoff|Alice|Bob2|control|x\ry"],
    "one pipe short then one over": [
        "1|Distribution|Source|Bob1quantum_marker|1",
        "2|Distribution|Source|Bob2|quantum_marker|1|",
    ],
}


@pytest.mark.parametrize("name", sorted(BAD_TRANSCRIPTS))
def test_from_lines_raises_what_message_parsing_raises(name):
    lines = BAD_TRANSCRIPTS[name]
    with pytest.raises(ValueError) as expected:
        reference_from_lines(lines)
    with pytest.raises(ValueError) as got:
        Transcript.from_lines(lines)
    assert str(got.value) == str(expected.value)


ODD_TRANSCRIPTS = {
    "leading zeros": ["007|Distribution|Source|Bob1|quantum_marker|1"],
    "plus sign": ["+7|Distribution|Source|Bob1|quantum_marker|1"],
    "underscore in seq": ["1_0|Distribution|Source|Bob1|quantum_marker|1"],
    "space before seq": [" 3|Distribution|Source|Bob1|quantum_marker|1"],
    "twenty-digit seqs": [
        "20000000000000000001|Distribution|Source|Bob1|quantum_marker|1\n",
        "20000000000000000002|Distribution|Source|Bob1|quantum_marker|1\n",
    ],
    "double newline ending": [GOOD + "\n\n", "2|Handoff|Alice|Bob2|control|x\n"],
    "newline split across items": [GOOD + "\n", "2|Handoff|Alice|Bob2|control|x", "\n"],
    "no final newline": [GOOD + "\n", "2|Handoff|Alice|Bob2|control|x"],
    "non-ascii payload": [GOOD, "2|Handoff|Alice|Bob2|control|\u00e9t\u00e9"],
    "empty payload": [GOOD, "2|Handoff|Alice|Bob2|control|"],
}


@pytest.mark.parametrize("name", sorted(ODD_TRANSCRIPTS))
def test_from_lines_parses_odd_lines_as_message_parsing_does(name):
    lines = ODD_TRANSCRIPTS[name]
    assert Transcript.from_lines(lines).messages == reference_from_lines(lines)


FUZZ_CHARS = "|\n\r0123456789+ _\u00e9"
NOISY = dict(params=DeviceParams(homodyne_error=0.1), dephase_p=0.05, evil_bob_flip_p=0.1)


@st.composite
def mutated_transcripts(draw):
    """Wire lines of a short noisy run after a few random edits."""
    lines = run_protocol(3, MIXED, seed=draw(st.integers(0, 2**16)), **NOISY).transcript.to_lines()
    if draw(st.booleans()):
        seq = 0
        for i, line in enumerate(lines):
            seq += draw(st.integers(1, 3))
            zeros = "0" * draw(st.integers(0, 2))
            lines[i] = zeros + str(seq) + line[line.index("|"):]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        at = draw(st.integers(0, len(line)))
        char = draw(st.sampled_from(FUZZ_CHARS))
        edit = draw(st.sampled_from(["insert", "delete", "replace", "blank line"]))
        if edit == "insert":
            lines[i] = line[:at] + char + line[at:]
        elif edit == "delete":
            lines[i] = line[:at] + line[at + 1:]
        elif edit == "replace":
            lines[i] = line[:at] + char + line[at + 1:]
        else:
            lines.insert(i, draw(st.sampled_from(["", "\n", " \n", "\r\n"])))
    endings = draw(st.sampled_from(["file", "list", "mixed", "text file", "byte file"]))
    if endings == "file":
        lines = [line + "\n" for line in lines]
    elif endings == "mixed":
        lines = [line + draw(st.sampled_from(["", "\n", "\n\n"])) for line in lines]
    elif endings == "text file":
        # A handle maker rather than a handle: each parser reads its own.
        newline = draw(st.sampled_from([None, "", "\n"]))
        return functools.partial(io.StringIO, "".join(line + "\n" for line in lines), newline)
    elif endings == "byte file":
        data = "".join(line + "\n" for line in lines).encode("utf-8")
        newline = draw(st.sampled_from([None, "", "\n"]))
        return lambda: io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=newline)
    return lines


def parse_outcome(parse, lines):
    """The messages ``parse`` gives, or the text of its ValueError; a
    callable ``lines`` makes the text file to parse."""
    try:
        return tuple(parse(lines() if callable(lines) else lines))
    except ValueError as exc:
        return str(exc)


def reference_bytes(messages):
    """The wire file of ``messages``, rendered one by one by ``Message.to_line``."""
    return b"".join(f"{msg.to_line()}\n".encode("utf-8") for msg in messages) or b"\n"


def views(transcript):
    """The messages of ``transcript`` and its wire file, which decodes the payloads."""
    return transcript.messages, transcript.to_bytes()


def reference_views(messages):
    return messages, reference_bytes(messages)


@contextlib.contextmanager
def sizes(read_bytes, block_lines):
    """Parse with these read and block sizes."""
    with mock.patch.object(wire, "_READ_BYTES", read_bytes), mock.patch.object(
        wire, "_BLOCK_LINES", block_lines
    ):
        yield


@settings(max_examples=300, deadline=None)
@given(
    mutated_transcripts(),
    st.sampled_from([1, 2, 5, wire._BLOCK_LINES]),
    st.sampled_from([7, wire._READ_BYTES]),
)
def test_from_lines_equals_message_parsing_on_mutated_runs(lines, block_lines, read_bytes):
    with sizes(read_bytes, block_lines):
        got = parse_outcome(lambda lines: views(Transcript.from_lines(lines)), lines)
    assert got == parse_outcome(
        lambda lines: reference_views(reference_from_lines(lines)), lines
    )


BLANK_LINES = ["", "\n", " \n", "\r\n", "\t\n", "\x0b\n", "\x1c\n"]


@pytest.mark.parametrize("ending", ["", "\n"], ids=["list", "file"])
@pytest.mark.parametrize("place", ["first line", "mid-block", "block boundary", "whole block"])
@pytest.mark.parametrize("blank", BLANK_LINES)
def test_blank_lines_are_dropped_as_message_parsing_drops_them(blank, place, ending):
    size = 4
    lines = [line + ending for line in run_protocol(2, MIXED, seed=3).transcript.to_lines()]
    at = {"first line": 0, "mid-block": size // 2, "block boundary": size - 1}.get(place)
    if at is None:
        lines[size:size] = [blank] * size
    else:
        lines[at:at] = [blank] * (2 if place == "block boundary" else 1)
    with mock.patch.object(wire, "_BLOCK_LINES", size):
        transcript = Transcript.from_lines(lines)
    expected = reference_from_lines(lines)
    assert transcript.messages == expected
    assert transcript.to_lines() == [msg.to_line() for msg in expected]
    assert transcript.to_bytes() == reference_bytes(expected)
    if not blank.strip("\n"):
        # An empty line leaves its block on the byte path.
        assert all(isinstance(b.payload, wire._Payloads) for b in transcript._blocks)


def joined(lines):
    """The bytes of ``lines`` and the offset where each ends, as the parser takes them."""
    return "".join(lines).encode("ascii"), np.cumsum([len(line) for line in lines])


@pytest.mark.parametrize("form", ["file", "file without final newline", "list"])
def test_block_parser_takes_every_block_of_a_run(form):
    size = wire._BLOCK_LINES
    transcript = run_protocol(size // 3 + 1, MIXED, seed=6, **NOISY).transcript
    if form == "list":
        lines = transcript.to_lines()
    else:
        text = transcript.to_bytes().decode()
        lines = (text if form == "file" else text.rstrip("\n")).splitlines(True)
    assert len(lines) > 2 * size
    for start in range(0, len(lines), size):
        chunk = lines[start:start + size]
        block = wire._parse_block(*joined(chunk), start)
        assert block is not None, start
        assert block.seq == range(start + 1, start + len(chunk) + 1)
    assert Transcript.from_lines(lines).to_bytes() == transcript.to_bytes()


def test_block_too_long_for_int32_offsets_takes_the_line_parser():
    lines = run_protocol(2, MIXED, seed=3).transcript.to_lines()
    assert wire._parse_block(*joined(lines), 0) is not None
    with mock.patch.object(wire, "_MAX_BLOCK_TEXT", len("".join(lines)) - 1):
        assert wire._parse_block(*joined(lines), 0) is None
        assert views(Transcript.from_lines(lines)) == reference_views(reference_from_lines(lines))


#: The four valid message bodies that break one audit rule each, as the
#: benchmark injects them, keyed by the violation each raises.
RULE_BREAKING_BODIES = {
    VIOLATION_BOB_TO_BOB: "Distillation|Bob1|Bob2|qnd_outcome|Shift",
    VIOLATION_ALICE_FEEDBACK: "Distillation|Alice|Bob1|qnd_outcome|NoShift",
    VIOLATION_ANGLE_TO_BOB2: "AngleAnnouncement|Alice|Bob2|angle|0.7853981633974483",
    VIOLATION_RESULT_FROM_BOB2: "ResultReport|Bob2|Alice|result_bit|0",
}
#: The message bodies of a noisy run across every phase boundary.
RUN_BODIES = [
    line.split("|", 1)[1] for line in run_protocol(3, MIXED, seed=2, **NOISY).transcript.to_lines()
]
#: That run, with the four rule-breaking bodies after it.
SEVERAL_CODES = [
    f"{seq}|{body}\n" for seq, body in enumerate([*RUN_BODIES, *RULE_BREAKING_BODIES.values()], 1)
]
MIDDLE_DEFECTS = [
    "unknown phase", "unknown sender", "unknown recipient", "near-miss phase", "near-miss party",
    "party name too long", "kind of another phase", "unknown kind", "kind with a suffix",
    "self message",
]


def middle_code(line):
    """The route code of a valid line's middle, as the block parser keys it."""
    msg = Message.from_line(line)
    return wire._ROUTE_CODE[msg.phase, msg.sender, msg.recipient]


def with_middle(line, middle):
    seq, _, rest = line.partition("|")
    return f"{seq}|{middle}|{rest.rsplit('|', 1)[1]}"


def code_group_lines(lines):
    """The index of a line in the first code group of ``lines``, in one
    neither first nor last, and of the last line."""
    codes = [middle_code(line) for line in lines]
    present = sorted(set(codes))
    assert len(present) >= 3
    return {
        "first group": codes.index(present[0]),
        "middle group": codes.index(present[len(present) // 2]),
        "last line": len(lines) - 1,
    }


def assert_refused_as_message_parsing_refuses(lines):
    assert wire._parse_block(*joined(lines), 0) is None
    with pytest.raises(ValueError) as expected:
        reference_from_lines(lines)
    with pytest.raises(ValueError) as got:
        Transcript.from_lines(lines)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("place", ["first group", "middle group", "last line"])
@pytest.mark.parametrize("name", MIDDLE_DEFECTS)
def test_bad_middle_is_refused_in_any_code_group(name, place):
    assert wire._parse_block(*joined(SEVERAL_CODES), 0) is not None
    (bad_line,) = BAD_TRANSCRIPTS[name]
    bad_middle = bad_line.split("|", 1)[1].rsplit("|", 1)[0]
    lines = list(SEVERAL_CODES)
    at = code_group_lines(lines)[place]
    lines[at] = with_middle(lines[at], bad_middle)
    assert_refused_as_message_parsing_refuses(lines)


@pytest.mark.parametrize("place", ["first group", "middle group", "last line"])
def test_middle_one_byte_off_is_refused_in_any_code_group(place):
    # Same length and same key bytes as the line's own middle, so only the
    # comparison of that line's code group can refuse it.
    lines = list(SEVERAL_CODES)
    at = code_group_lines(lines)[place]
    middle = lines[at].split("|", 1)[1].rsplit("|", 1)[0]
    lines[at] = with_middle(lines[at], middle[:-1] + chr(ord(middle[-1]) ^ 1))
    assert_refused_as_message_parsing_refuses(lines)


def test_block_of_every_valid_middle_stays_on_the_byte_path():
    middles = [
        f"{phase.value}|{sender.value}|{recipient.value}|{wire.PAYLOAD_KIND_FOR_PHASE[phase]}"
        for phase, sender, recipient in VALID_ROUTES
    ]
    assert len(middles) == 60
    order = np.random.default_rng(0).permutation(len(middles))
    lines = [f"{seq}|{middles[i]}|{seq}\n" for seq, i in enumerate(order.tolist(), 1)]
    block = wire._parse_block(*joined(lines), 0)
    assert block is not None and isinstance(block.payload, wire._Payloads)
    # The parser's code, keyed by one byte per field, is the route's index
    # into ROUTES, as the line parser's _ROUTE_CODE has it.
    codes = [wire._ROUTE_CODE[VALID_ROUTES[i]] for i in order.tolist()]
    assert block.route.dtype == np.int8 and block.route.tolist() == codes
    assert wire._block_of(wire._parse_messages(*joined(lines), 0)).route.tolist() == codes
    transcript = Transcript.from_lines(lines)
    assert all(isinstance(b.payload, wire._Payloads) for b in transcript._blocks)
    assert views(transcript) == reference_views(reference_from_lines(lines))


def numbered(first, count=12):
    """``count`` wire lines of a run's message bodies, numbered on from seq ``first``."""
    bodies = itertools.cycle(RUN_BODIES)
    return [f"{seq}|{body}\n" for seq, body in zip(range(first, first + count), bodies)]


def assert_parses_as_message_parsing_does(lines):
    got = parse_outcome(lambda lines: views(Transcript.from_lines(lines)), lines)
    assert got == parse_outcome(lambda lines: reference_views(reference_from_lines(lines)), lines)


@pytest.mark.parametrize("place", [1, 6, 11], ids=["second line", "mid-block", "last line"])
@pytest.mark.parametrize("edit", ["gap", "repeat", "leading zero"])
def test_seq_that_breaks_the_run_takes_the_line_parser(edit, place):
    lines = numbered(1)
    if edit == "leading zero":
        lines[place] = "0" + lines[place]
    else:
        step = 1 if edit == "gap" else -1
        lines[place:] = [
            f"{int(seq) + step}|{rest}" for seq, rest in (line.split("|", 1) for line in lines[place:])
        ]
    assert wire._parse_block(*joined(lines), 0) is None
    assert_parses_as_message_parsing_does(lines)


@pytest.mark.parametrize(
    "first, byte_path",
    [(9_995, True), (99_999_995, True), (10**15 - 12, True), (10**15 - 6, False)],
    ids=["9 999 to 10 000", "99 999 999 to 100 000 000", "last seq of 15 digits",
         "last seq of 16 digits"],
)
def test_seq_run_across_a_decade_parses_as_message_parsing_does(first, byte_path):
    lines = numbered(first)
    block = wire._parse_block(*joined(lines), 0)
    if byte_path:
        assert block is not None and block.seq == range(first, first + len(lines))
    else:
        assert block is None
    assert_parses_as_message_parsing_does(lines)


def test_run_with_a_message_per_audit_rule_stays_on_the_byte_path(tmp_path):
    # The replay benchmark's tampered file: a run's lines with one message
    # per audit rule inserted, next to block boundaries, and seqs renumbered.
    size = wire._BLOCK_LINES
    transcript = run_protocol(size // 3 + 1, MIXED, seed=6, **NOISY).transcript
    bodies = [line.split("|", 1)[1] for line in transcript.to_lines()]
    slots = [7, size - 1, size + 2, len(bodies) + 3]  # the last one ends the file
    for slot, body in zip(slots, RULE_BREAKING_BODIES.values()):
        bodies.insert(slot, body)
    path = tmp_path / "tampered.log"
    path.write_text("".join(f"{seq}|{body}\n" for seq, body in enumerate(bodies, 1)))
    with open(path, encoding="utf-8") as fh:
        tampered = Transcript.from_lines(fh)
    assert len(tampered._blocks) == -(-len(bodies) // size) == 3
    assert all(isinstance(block.payload, wire._Payloads) for block in tampered._blocks)
    assert [(v.kind, v.seq) for v in audit(tampered).violations] == [
        (kind, slot + 1) for kind, slot in zip(RULE_BREAKING_BODIES, slots)
    ]
    assert tampered.to_bytes() == path.read_bytes()


def test_from_lines_checks_order_across_parse_blocks():
    size = wire._BLOCK_LINES
    lines = run_protocol(size // 6 + 1, MIXED, seed=4).transcript.to_bytes().decode().splitlines(True)
    assert len(lines) > size
    lines.insert(size, lines[size - 1])
    with pytest.raises(ValueError, match=f"seq {size} not strictly increasing"):
        Transcript.from_lines(lines)


def test_from_lines_keeps_gaps_blank_lines_and_wire_text():
    lines = [
        " 3|Distribution|Source|Bob1|quantum_marker|1\n",
        "\n",
        "   \n",
        "7|Distillation|Bob1|Alice|qnd_outcome|Shift\n",
        "8|ResultReport|Bob2|Alice|result_bit|1",
    ]
    transcript = Transcript.from_lines(lines)
    assert transcript.messages == reference_from_lines(lines)
    assert [msg.seq for msg in transcript.messages] == [3, 7, 8]
    assert transcript.to_lines() == [msg.to_line() for msg in reference_from_lines(lines)]


@pytest.mark.parametrize("payload", ["x\ry", "x\r", "\r", "x\ny", "x|y"])
def test_append_rejects_a_payload_the_file_would_not_give_back(payload):
    with pytest.raises(ValueError, match="payload must not contain"):
        Message(1, Phase.HANDOFF, Party.ALICE, Party.BOB2, "control", payload)


@pytest.mark.parametrize("text", [GOOD, ""], ids=["one line", "empty"])
def test_from_lines_refuses_one_str(text):
    with pytest.raises(TypeError, match="from_lines takes lines or a text file, not one str"):
        Transcript.from_lines(text)


# --- reading text files -------------------------------------------------------------


def file_of(lines):
    return "".join(f"{line}\n" for line in lines).encode("utf-8")


RUN_FILE = run_protocol(3, MIXED, seed=2, **NOISY).transcript.to_bytes()
NEXT_SEQ = RUN_FILE.count(b"\n") + 1
TEXT_FILES = {
    **{f"bad: {name}": file_of(lines) for name, lines in BAD_TRANSCRIPTS.items()},
    **{f"odd: {name}": file_of(lines) for name, lines in ODD_TRANSCRIPTS.items()},
    "empty": b"",
    "run": RUN_FILE,
    "no final newline": RUN_FILE.rstrip(b"\n"),
    "crlf endings": RUN_FILE.replace(b"\n", b"\r\n"),
    "lone cr endings": RUN_FILE.replace(b"\n", b"\r"),
    "cr before a seq": file_of(["\r" + GOOD, "2|Handoff|Alice|Bob2|control|x"]),
    # Read past the "x\r" line, the file's position carries decoder state.
    "cr before a two-digit seq": file_of(["x\r12|Handoff|Alice|Bob2|control|x"]),
    "non-ascii line across reads": RUN_FILE + file_of([
        f"{NEXT_SEQ}|Handoff|Alice|Bob2|control|" + "\u00e9" * 40,
        f"{NEXT_SEQ + 1}|Handoff|Alice|Bob2|control|x",
    ]),
    "line longer than a read": RUN_FILE + file_of([f"{NEXT_SEQ}|Handoff|Alice|Bob2|control|{'x' * 300}"]),
    "invalid utf-8 after a bad line": b"garbage\n" + RUN_FILE + b"\xff\n",
}


@contextlib.contextmanager
def advanced(path):
    with open(path, encoding="utf-8") as fh:
        next(fh, None)
        yield fh


@contextlib.contextmanager
def read_one_line(path):
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        yield fh


def piped(path):
    r, w = os.pipe()
    with open(w, "wb") as out:
        out.write(path.read_bytes())  # small enough for the pipe's buffer
    return open(r, encoding="utf-8")


HANDLES = {
    "newline=None": lambda path: open(path, encoding="utf-8"),
    "newline=''": lambda path: open(path, encoding="utf-8", newline=""),
    "newline='\\n'": lambda path: open(path, encoding="utf-8", newline="\n"),
    "newline='\\r'": lambda path: open(path, encoding="utf-8", newline="\r"),
    "newline='\\r\\n'": lambda path: open(path, encoding="utf-8", newline="\r\n"),
    "StringIO": lambda path: io.StringIO(path.read_bytes().decode("utf-8", "replace")),
    "pipe": piped,
    "advanced by next()": advanced,
    "binary": lambda path: open(path, "rb"),
    "TextIOWrapper over BytesIO": lambda path: io.TextIOWrapper(
        io.BytesIO(path.read_bytes()), encoding="utf-8"
    ),
    "read one line by readline()": read_one_line,
    "latin-1": lambda path: open(path, encoding="latin-1"),
}


def block_views(transcript):
    """``views`` and the seqs of each block."""
    return views(transcript) + ([block.seq for block in transcript._blocks],)


def handle_outcome(parse, open_handle, path):
    """``block_views`` of ``parse`` on a fresh handle, or the type and
    text of its error."""
    try:
        with open_handle(path) as fh:
            return block_views(parse(fh))
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


#: (read size, block size) pairs: several reads per line and several
#: lines per read, then the program's own.
SIZES = [(7, 2), (64, 3), (wire._READ_BYTES, wire._BLOCK_LINES)]


@pytest.mark.parametrize("handle", sorted(HANDLES))
@pytest.mark.parametrize("name", sorted(TEXT_FILES))
def test_text_handle_parses_as_its_lines_parse(name, handle, tmp_path):
    path = tmp_path / "messages.log"
    path.write_bytes(TEXT_FILES[name])
    for read_bytes, block_lines in SIZES:
        with sizes(read_bytes, block_lines):
            got = handle_outcome(Transcript.from_lines, HANDLES[handle], path)
            expected = handle_outcome(
                lambda fh: Transcript.from_lines(line for line in fh), HANDLES[handle], path
            )
        assert got == expected, (read_bytes, block_lines)
    if handle == "binary" and TEXT_FILES[name]:
        assert got == (TypeError, "sequence item 0: expected str instance, bytes found")


class ReadOnlyInChunks(io.TextIOWrapper):
    """A UTF-8 text file of ``data`` in memory that fails the test if it is
    iterated line by line."""

    def __init__(self, data):
        super().__init__(io.BytesIO(data), encoding="utf-8")

    def __next__(self):
        raise AssertionError("iterated line by line")


def reads_in_chunks(data):
    """Whether ``data`` decodes, holds no ``"\\r"`` and parses, so that
    ``from_lines`` never has to iterate it line by line."""
    try:
        text = data.decode("utf-8")
        Transcript.from_lines(list(io.StringIO(text)))
    except ValueError:
        return False
    return "\r" not in text


@pytest.mark.parametrize("name", [name for name, data in TEXT_FILES.items() if reads_in_chunks(data)])
def test_text_file_that_parses_is_read_in_chunks(name):
    text = TEXT_FILES[name].decode("utf-8")
    for read_bytes, block_lines in SIZES:
        with sizes(read_bytes, block_lines):
            got = block_views(Transcript.from_lines(ReadOnlyInChunks(TEXT_FILES[name])))
            assert got == block_views(Transcript.from_lines(list(io.StringIO(text))))


def test_run_of_several_blocks_is_read_in_chunks():
    data = run_protocol(wire._BLOCK_LINES // 3 + 1, MIXED, seed=6, **NOISY).transcript.to_bytes()
    with mock.patch.object(wire, "_READ_BYTES", len(data) // 5):
        transcript = Transcript.from_lines(ReadOnlyInChunks(data))
    assert transcript.to_bytes() == data
    assert [len(block.route) for block in transcript._blocks[:-1]] == [wire._BLOCK_LINES] * 2


def test_empty_transcript_renders_one_newline():
    assert Transcript().to_bytes() == b"\n"
    assert Transcript.from_lines(["", "  "]).messages == ()


# --- writing in blocks --------------------------------------------------------------------

ODD_LINES = [
    " 3|Distribution|Source|Bob1|quantum_marker|1\n",
    "\n",
    "7|Distillation|Bob1|Alice|qnd_outcome|Shift\n",
    "8|Handoff|Alice|Bob2|control|\u00e9t\u00e9\n",
    "12|Handoff|Alice|Bob2|control|\n",
    "13|ResultReport|Bob1|Alice|result_bit|1\n",
]


WRITTEN = {
    "run of several blocks": lambda size: run_protocol(size // 2 + 1, MIXED, seed=8, **NOISY).transcript,
    "empty": lambda size: Transcript(),
    "parsed with gaps, non-ascii and empty payloads": lambda size: Transcript.from_lines(ODD_LINES),
}


@pytest.mark.parametrize("size", [3, wire._BLOCK_LINES])
@pytest.mark.parametrize("name", sorted(WRITTEN))
def test_written_file_equals_message_by_message_rendering(name, size, tmp_path):
    path = tmp_path / "messages.log"
    with mock.patch.object(wire, "_BLOCK_LINES", size):
        transcript = WRITTEN[name](size)
        write_transcript(transcript, str(path))
    blocks = transcript._blocks
    assert all(len(block.route) <= size for block in blocks)
    if name == "run of several blocks":
        assert len(blocks) >= 3
        seqs = [msg.seq for msg in transcript.messages]
        assert seqs == list(range(1, transcript._last_seq + 1))
    assert path.read_bytes() == reference_bytes(transcript.messages)
    assert path.read_bytes() == transcript.to_bytes()
    with open(path, encoding="utf-8") as fh:
        assert Transcript.from_lines(fh).to_bytes() == transcript.to_bytes()


# --- rendering engine blocks from byte tables ---------------------------------------


def fstring_bytes(block):
    """A block rendered line by line by ``_render``."""
    return ("\n".join(wire._render(block)) + "\n").encode("utf-8")


def engine_blocks(transcript):
    """The blocks of a run's transcript, which are engine blocks in every phase."""
    blocks = transcript._blocks
    assert all(isinstance(block.payload, wire._PairPayloads) for block in blocks)
    assert {wire.ROUTES[block.route[0]][0] for block in blocks} == set(Phase)
    return blocks


def assert_byte_render_equals_fstring_render(transcript):
    for block in engine_blocks(transcript):
        assert render.render_pairs(block).tobytes() == fstring_bytes(block)
    assert transcript.to_bytes() == reference_bytes(transcript.messages)


def run_from_seq(first_seq, m, **noise):
    """A run whose transcript's seqs start at ``first_seq``."""

    class Preset(Transcript):
        def __init__(self):
            super().__init__()
            self._last_seq = first_seq - 1

    with mock.patch.object(protocol, "Transcript", Preset):
        return run_protocol(m, MIXED, seed=4, **noise)


@pytest.mark.parametrize("noise", [{}, NOISY], ids=["clean", "noisy"])
@pytest.mark.parametrize("size", [1, 2, 3, 4095, wire._BLOCK_LINES])
def test_byte_render_equals_fstring_render_in_every_phase(noise, size):
    # Every engine block holds whole pairs, even at an odd block size: it
    # starts with the first message of a pair, which in each phase goes
    # between the same two parties. At size 1 a block still takes a whole
    # two-message pair.
    with mock.patch.object(wire, "_BLOCK_LINES", size):
        transcript = run_protocol(size + 5, MIXED, seed=2, **noise).transcript
        blocks = engine_blocks(transcript)
        assert all(len(block.route) <= max(size, 2) for block in blocks)
        heads = {}
        for block in blocks:
            head = block.route[0]
            assert heads.setdefault(wire.ROUTES[head][0], head) == head
            assert len(block.route) == block.payload.width * len(block.payload.codes)
        assert_byte_render_equals_fstring_render(transcript)


@pytest.mark.parametrize("m", [1, 2, wire._BLOCK_LINES, wire._BLOCK_LINES + 1])
def test_a_run_writes_engine_blocks_only(m):
    transcript = run_protocol(m, MIXED, seed=3, **NOISY).transcript
    assert sum(len(block.route) for block in engine_blocks(transcript)) == 6 * m + 1


@pytest.mark.parametrize("first_seq", [1, 999_990, 9_999_995, 99_999_990, 10**18 - 5])
@pytest.mark.parametrize("size", [3, wire._BLOCK_LINES])
def test_byte_render_equals_fstring_render_across_decades(first_seq, size):
    # 19 seqs from first_seq cross 9 -> 10, 999 999 -> 1 000 000,
    # 9 999 999 -> 10 000 000, 99 999 999 -> 100 000 000 (a second
    # eight-digit write) and 10**18 - 1 -> 10**18 (a third).
    with mock.patch.object(wire, "_BLOCK_LINES", size):
        transcript = run_from_seq(first_seq, 3, **NOISY).transcript
        assert [msg.seq for msg in transcript.messages] == list(range(first_seq, first_seq + 19))
        assert_byte_render_equals_fstring_render(transcript)


def test_byte_render_writes_pair_numbers_across_a_decade():
    transcript = run_protocol(10_003, MIXED, seed=1).transcript
    assert any(
        9_999 in block.payload.codes and 10_000 in block.payload.codes
        for block in engine_blocks(transcript) if block.payload.table is None
    )
    assert_byte_render_equals_fstring_render(transcript)


def test_byte_render_writes_all_sixteen_angle_codes_in_one_block():
    transcript = run_protocol(wire._BLOCK_LINES, MIXED, seed=3).transcript
    [angles] = [block for block in engine_blocks(transcript)
                if wire.ROUTES[block.route[0]][0] is Phase.ANGLE_ANNOUNCEMENT]
    assert sorted(set(angles.payload.codes.tolist())) == list(range(len(SIGNED_ANGLES)))
    assert render.render_pairs(angles).tobytes() == fstring_bytes(angles)


def test_every_engine_block_is_written_from_byte_tables(tmp_path):
    transcript = run_protocol(5000, MIXED, seed=7, **NOISY).transcript
    path = tmp_path / "t.log"
    with mock.patch.object(wire, "_render", wraps=wire._render) as fstring:
        write_transcript(transcript, str(path))
    fstring.assert_not_called()
    assert path.read_bytes() == reference_bytes(transcript.messages)


def test_to_bytes_of_a_run_with_appended_messages_is_unchanged():
    lines = run_protocol(50, MIXED, seed=7, **NOISY).transcript.to_lines()
    transcript = Transcript.from_lines(
        lines + [f"{len(lines) + 1 + i}|Handoff|Alice|Bob2|control|{i}" for i in range(3)]
    )
    written = io.BytesIO()
    transcript.write(written)
    assert written.getvalue() == transcript.to_bytes() == reference_bytes(transcript.messages)


def traced_write_peak(transcript, path):
    """Peak bytes that Python allocates while writing ``transcript``."""
    tracemalloc.start()
    try:
        write_transcript(transcript, str(path))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_transcript_write_memory_stays_flat(tmp_path):
    small, large = (
        traced_write_peak(run_protocol(pairs, MIXED, seed=5).transcript, tmp_path / "t.log")
        for pairs in (5000, 80000)
    )
    assert large <= 1.5 * small


def traced_parse_work(transcript, path):
    """Peak bytes that Python allocates while ``from_lines`` parses the
    written file of ``transcript``, less what the parsed copy keeps."""
    write_transcript(transcript, str(path))
    tracemalloc.start()
    try:
        with open(path, encoding="utf-8") as fh:
            parsed = Transcript.from_lines(fh)
        kept, peak = tracemalloc.get_traced_memory()
        del parsed  # alive until now, so that ``kept`` counts it
        return peak - kept
    finally:
        tracemalloc.stop()


def test_transcript_parse_memory_stays_flat(tmp_path):
    # Parsing holds one block's arrays at a time, whatever the file's size.
    small, large = (
        traced_parse_work(run_protocol(pairs, MIXED, seed=5, **NOISY).transcript, tmp_path / "t.log")
        for pairs in (5000, 80000)
    )
    assert large <= 1.5 * small


def test_parsed_transcript_keeps_a_few_bytes_per_line(tmp_path):
    # A parsed block keeps its route codes, its payload offsets and its
    # payloads' bytes, and none of the text it was parsed from.
    path = tmp_path / "t.log"
    write_transcript(run_protocol(80_000, MIXED, seed=5, **NOISY).transcript, str(path))
    lines = path.read_bytes().count(b"\n")
    tracemalloc.start()
    try:
        with open(path, encoding="utf-8") as fh:
            parsed = Transcript.from_lines(fh)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert all(isinstance(block.payload, wire._Payloads) for block in parsed._blocks)
    assert kept <= 20 * lines


def traced_run_peak(pairs):
    """Peak bytes that Python allocates while ``execute_run`` runs a noisy
    run of ``pairs`` pairs and holds its transcript."""
    cfg = RunConfig(pairs=pairs, fidelities=MIXED, dephase_p=0.05,
                    homodyne_error=0.1, evil_bob_flip_p=0.1, seed=3)
    tracemalloc.start()
    try:
        execute_run(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_memory_per_pair_is_a_few_bytes():
    # The run keeps eight one-byte columns per pair; draws, payload text
    # and report sums live one chunk at a time.
    pair_table()
    small, large = traced_run_peak(20_000), traced_run_peak(200_000)
    assert large - small <= 16 * 180_000
