"""Dense complex linear algebra for small photonic registers.

Thin, validated layer over numpy: labeled state vectors, density
matrices, tensor products, subsystem reordering, partial traces,
fidelity and trace distance. Dimensions are capped at ``MAX_DIM``
because nothing in this simulator needs more than two photons with two
binary degrees of freedom each plus two binary measurement registers.
The tensor oracle is its one user.

Basis-label convention: every single-factor label is one whitespace-free
token ("H", "V", "a1", ...); composite labels join factor tokens with a
single space ("H a1 V b1"). This is what lets :func:`reorder_subsystems`
permute labels mechanically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .model import EPS_NORM

#: Hard cap on vector/matrix dimension (2 photons x 2 DOF plus two
#: binary outcome registers = 64).
MAX_DIM = 64

#: Tolerance for cross-validation against the full-Hilbert-space oracle.
EPS_ORACLE = 1e-10


def _as_complex_array(values, shape_hint: str) -> np.ndarray:
    arr = np.asarray(values, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{shape_hint} contains NaN or Inf entries")
    return arr


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized complex vector with one human-readable label per axis."""

    amplitudes: np.ndarray
    basis_labels: tuple[str, ...]

    def __post_init__(self):
        amps = _as_complex_array(self.amplitudes, "state vector").reshape(-1).copy()
        labels = tuple(str(x) for x in self.basis_labels)
        if not 1 <= amps.size <= MAX_DIM:
            raise ValueError(f"dimension {amps.size} outside [1, {MAX_DIM}]")
        if len(labels) != amps.size:
            raise ValueError(f"{len(labels)} labels for dimension {amps.size}")
        if len(set(labels)) != len(labels):
            raise ValueError("basis labels must be pairwise distinct")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > EPS_NORM:
            raise ValueError(f"state vector not normalized: |psi|^2 = {norm_sq!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "basis_labels", labels)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def amplitude(self, label: str) -> complex:
        """Amplitude attached to a basis label."""
        try:
            idx = self.basis_labels.index(label)
        except ValueError:
            raise KeyError(f"no basis label {label!r}") from None
        return complex(self.amplitudes[idx])

    def overlap(self, other: "StateVector") -> complex:
        """Inner product <self|other>."""
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def __repr__(self) -> str:
        terms = [
            f"({amp + 0:.4g})|{label}>"  # + 0 turns a -0.0 part into 0.0
            for amp, label in zip(self.amplitudes, self.basis_labels)
            if abs(amp) > 1e-9
        ]
        return " + ".join(terms) if terms else "0"


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix."""

    entries: np.ndarray

    def __post_init__(self):
        mat = _as_complex_array(self.entries, "density matrix")
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {mat.shape}")
        dim = mat.shape[0]
        if not 1 <= dim <= MAX_DIM:
            raise ValueError(f"dimension {dim} outside [1, {MAX_DIM}]")
        if np.max(np.abs(mat - mat.conj().T)) > EPS_NORM:
            raise ValueError("density matrix not Hermitian")
        trace = complex(np.trace(mat))
        if abs(trace - 1.0) > EPS_NORM:
            raise ValueError(f"density matrix trace {trace!r} != 1")
        if float(np.min(np.linalg.eigvalsh(mat))) < -1e-10:
            raise ValueError("density matrix has a negative eigenvalue")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)

    @classmethod
    def mixture(cls, parts: Iterable[tuple[float, StateVector]]) -> "DensityMatrix":
        """Convex combination sum_k w_k |psi_k><psi_k|."""
        acc = None
        for weight, psi in parts:
            if weight < -EPS_NORM:
                raise ValueError(f"negative mixture weight {weight!r}")
            term = weight * np.outer(psi.amplitudes, psi.amplitudes.conj())
            acc = term if acc is None else acc + term
        if acc is None:
            raise ValueError("mixture needs at least one component")
        return cls(acc)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def projector(psi: StateVector) -> DensityMatrix:
    """Rank-one density matrix |psi><psi|."""
    return DensityMatrix(np.outer(psi.amplitudes, psi.amplitudes.conj()))


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product of two states; labels concatenate pairwise."""
    dim = a.dim * b.dim
    if dim > MAX_DIM:
        raise ValueError(f"tensor product dimension {dim} exceeds {MAX_DIM}")
    amps = np.kron(a.amplitudes, b.amplitudes)
    labels = tuple(f"{la} {lb}" for la in a.basis_labels for lb in b.basis_labels)
    return StateVector(amps, labels)


def reorder_subsystems(
    psi: StateVector, perm: Sequence[int], dims: Sequence[int]
) -> StateVector:
    """Permute tensor factors of a product-basis state.

    ``perm[i]`` names the old factor that becomes the new factor ``i``.
    Labels are permuted token-wise, so every label must split into
    exactly ``len(dims)`` whitespace-separated tokens.
    """
    dims = tuple(int(d) for d in dims)
    if int(np.prod(dims)) != psi.dim:
        raise ValueError(f"factor dims {dims} do not multiply to {psi.dim}")
    if sorted(perm) != list(range(len(dims))):
        raise ValueError(f"{perm!r} is not a permutation of 0..{len(dims) - 1}")
    amps = psi.amplitudes.reshape(dims).transpose(perm).reshape(-1)
    token_rows = [label.split(" ") for label in psi.basis_labels]
    if any(len(row) != len(dims) for row in token_rows):
        raise ValueError("labels do not split into one token per factor")
    tokens = np.array(token_rows, dtype=object).reshape(dims + (len(dims),))
    tokens = tokens.transpose(tuple(perm) + (len(dims),))[..., list(perm)]
    labels = tuple(" ".join(row) for row in tokens.reshape(-1, len(dims)))
    return StateVector(amps, labels)


def fidelity(rho: DensityMatrix, psi: StateVector) -> float:
    """Overlap <psi|rho|psi> of a density matrix with a pure state."""
    if rho.dim != psi.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {psi.dim}")
    value = complex(np.vdot(psi.amplitudes, rho.entries @ psi.amplitudes))
    if abs(value.imag) > EPS_NORM:
        raise ValueError(f"fidelity has non-real value {value!r}")
    return float(value.real)


def partial_trace(
    rho: DensityMatrix, keep: Iterable[int], dims: Sequence[int]
) -> DensityMatrix:
    """Trace out every tensor factor not listed in ``keep``.

    ``dims`` gives the factor dimensions in order; kept factors stay in
    their original relative order.
    """
    dims = [int(d) for d in dims]
    n = len(dims)
    if int(np.prod(dims)) != rho.dim:
        raise ValueError(f"factor dims {dims} do not multiply to {rho.dim}")
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("must keep at least one subsystem")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep indices {keep} outside 0..{n - 1}")
    traced = [i for i in range(n) if i not in keep]
    if not traced:
        return DensityMatrix(rho.entries)
    work = rho.entries.reshape(dims + dims)
    live = list(dims)
    for idx in sorted(traced, reverse=True):
        work = np.trace(work, axis1=idx, axis2=idx + len(live))
        del live[idx]
    out_dim = int(np.prod(live))
    return DensityMatrix(work.reshape(out_dim, out_dim))


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the trace norm of rho - sigma."""
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    eigs = np.linalg.eigvalsh(rho.entries - sigma.entries)
    return float(0.5 * np.sum(np.abs(eigs)))

