"""n-qubit density-matrix state.

A density matrix (rather than a state vector) lets T1/T2 decoherence be
applied deterministically as Kraus channels, which is what the coherence
experiments of Section 8 measure.  Dimensions are 2^n x 2^n; the paper's
experiments use 1-2 qubits, and the implementation stays practical to
n ~ 6.

Qubit index convention: qubit 0 is the *least significant* bit of the
computational-basis index.
"""

from __future__ import annotations

import numpy as np


class DensityMatrix:
    """n-qubit density matrix with qubit-local operations.

    Every operation rebinds ``data`` to a new array and never writes into
    the one it read, so an array once held here never changes.  That rule
    lets a one-qubit ``QuantumDevice`` share read-only stored matrices
    between states (its exact-state memo); :meth:`copy` stays writable.
    """

    def __init__(self, n_qubits: int, data: np.ndarray | None = None):
        if n_qubits < 1:
            raise ValueError("need at least one qubit")
        self.n_qubits = n_qubits
        dim = 1 << n_qubits
        if data is None:
            data = np.zeros((dim, dim), dtype=complex)
            data[0, 0] = 1.0
        else:
            data = np.asarray(data, dtype=complex)
            if data.shape != (dim, dim):
                raise ValueError(f"expected shape {(dim, dim)}, got {data.shape}")
        self.data = data

    # -- constructors ------------------------------------------------------

    @classmethod
    def ground(cls, n_qubits: int) -> "DensityMatrix":
        """All qubits in |0...0>."""
        return cls(n_qubits)

    @classmethod
    def from_statevector(cls, psi: np.ndarray) -> "DensityMatrix":
        psi = np.asarray(psi, dtype=complex).ravel()
        n = int(np.log2(len(psi)))
        if 1 << n != len(psi):
            raise ValueError("state vector length must be a power of 2")
        norm = np.linalg.norm(psi)
        if norm == 0:
            raise ValueError("zero state vector")
        psi = psi / norm
        return cls(n, np.outer(psi, psi.conj()))

    def copy(self) -> "DensityMatrix":
        return DensityMatrix(self.n_qubits, self.data.copy())

    # -- internal tensor plumbing -----------------------------------------

    def _as_tensor(self) -> np.ndarray:
        """View rho with one axis per ket/bra qubit.

        Axis k corresponds to qubit (n-1-k) for kets, axes n..2n-1 the same
        for bras (numpy reshape is big-endian in index order).
        """
        return self.data.reshape((2,) * (2 * self.n_qubits))

    def _axis(self, qubit: int) -> int:
        """Tensor axis of ``qubit``'s ket index."""
        return self.n_qubits - 1 - qubit

    def apply_unitary(self, u: np.ndarray, qubits: tuple[int, ...] | list[int]) -> None:
        """Apply a unitary on ``qubits``: rho <- U rho U+.

        ``u`` is a 2^k x 2^k matrix whose index order matches ``qubits``,
        first listed qubit most significant.
        """
        qubits = tuple(qubits)
        k = len(qubits)
        u = np.asarray(u, dtype=complex)
        if u.shape != (1 << k, 1 << k):
            raise ValueError(f"unitary shape {u.shape} does not fit {k} qubit(s)")
        if len(set(qubits)) != k:
            raise ValueError("duplicate qubits")
        for q in qubits:
            if not 0 <= q < self.n_qubits:
                raise ValueError(f"qubit {q} out of range")

        if self.n_qubits == 1:
            self.data = u @ self.data @ u.conj().T
            return
        n = self.n_qubits
        tensor = self._as_tensor()
        u_t = u.reshape((2,) * (2 * k))
        ket_axes = [self._axis(q) for q in qubits]
        # Contract U's input legs (last k axes of u_t) with rho's ket axes.
        tensor = np.tensordot(u_t, tensor, axes=(list(range(k, 2 * k)), ket_axes))
        # tensordot puts U's output legs first; move them back in place.
        tensor = np.moveaxis(tensor, list(range(k)), ket_axes)
        # Same for the bra side with U conjugate.
        bra_axes = [n + self._axis(q) for q in qubits]
        tensor = np.tensordot(u_t.conj(), tensor, axes=(list(range(k, 2 * k)), bra_axes))
        tensor = np.moveaxis(tensor, list(range(k)), bra_axes)
        self.data = tensor.reshape(self.data.shape)

    def apply_superop(self, superop: np.ndarray) -> None:
        """Apply a single-qubit channel given as a 4x4 superoperator.

        ``superop`` acts on the row-major vectorization of rho:
        ``vec(rho') = S vec(rho)`` (for Kraus operators ``K``,
        ``S = sum_k K (x) conj(K)``).  Only defined for 1-qubit states —
        the hot path of idle decoherence in single-qubit experiments.
        """
        if self.n_qubits != 1:
            raise ValueError("apply_superop is a 1-qubit fast path")
        superop = np.asarray(superop, dtype=complex)
        if superop.shape != (4, 4):
            raise ValueError(f"superoperator shape {superop.shape} != (4, 4)")
        self.data = (superop @ self.data.reshape(4)).reshape(2, 2)

    def apply_kraus(self, kraus_ops: list[np.ndarray], qubit: int) -> None:
        """Apply a single-qubit channel: rho <- sum_k K rho K+."""
        if not 0 <= qubit < self.n_qubits:
            raise ValueError(f"qubit {qubit} out of range")
        if self.n_qubits == 1:
            self.data = sum(
                np.asarray(k, dtype=complex) @ self.data
                @ np.asarray(k, dtype=complex).conj().T
                for k in kraus_ops)
            return
        n = self.n_qubits
        ket = self._axis(qubit)
        bra = n + ket
        total = np.zeros_like(self.data).reshape((2,) * (2 * n))
        tensor = self._as_tensor()
        for kop in kraus_ops:
            kop = np.asarray(kop, dtype=complex)
            term = np.tensordot(kop, tensor, axes=([1], [ket]))
            term = np.moveaxis(term, 0, ket)
            term = np.tensordot(kop.conj(), term, axes=([1], [bra]))
            term = np.moveaxis(term, 0, bra)
            total += term
        self.data = total.reshape(self.data.shape)

    def basis_index(self) -> int | None:
        """Computational-basis index if this is *exactly* a basis state.

        Exact float comparison, deliberately: projective measurement
        collapses product states to bit-exact basis matrices (see
        :meth:`project`), and the round-replay engine's Markov-chain fast
        path is only sound for states that are exactly |i><i|.  Returns
        None otherwise.
        """
        diag = self.data.diagonal()
        idx = int(np.argmax(diag.real))
        if diag[idx] != 1.0 or np.count_nonzero(self.data) != 1:
            return None
        return idx

    # -- measurement -------------------------------------------------------

    def prob_one(self, qubit: int) -> float:
        """P(measuring |1>) on ``qubit``."""
        if self.n_qubits == 1:
            if qubit != 0:
                raise ValueError(f"qubit {qubit} out of range")
            return float(np.real(self.data[1, 1]))
        tensor = self._as_tensor()
        ket = self._axis(qubit)
        bra = self.n_qubits + ket
        # Take the |1><1| block and trace out the rest.
        block = np.take(np.take(tensor, 1, axis=ket), 1, axis=bra - 1)
        dim = 1 << (self.n_qubits - 1)
        return float(np.real(np.trace(block.reshape(dim, dim))))

    def project(self, qubit: int, outcome: int) -> float:
        """Project ``qubit`` onto ``outcome``; returns the outcome probability.

        Raises if the outcome has (near-)zero probability.
        """
        p1 = self.prob_one(qubit)
        p = p1 if outcome == 1 else 1.0 - p1
        if p < 1e-12:
            raise ValueError(f"outcome {outcome} has probability ~0")
        tensor = self._as_tensor().copy()
        ket = self._axis(qubit)
        bra = self.n_qubits + ket
        other = 1 - outcome
        # Zero the non-selected ket and bra slices.
        index = [slice(None)] * (2 * self.n_qubits)
        index[ket] = other
        tensor[tuple(index)] = 0.0
        index = [slice(None)] * (2 * self.n_qubits)
        index[bra] = other
        tensor[tuple(index)] = 0.0
        projected = tensor.reshape(self.data.shape)
        # Normalize by the projected state's own trace rather than by p:
        # the overall trace drifts at the 1e-16 level during long
        # evolutions, so dividing by p would leave the collapsed state
        # off-normalized by that drift.
        self.data = projected / np.trace(projected)
        # When the projection collapsed to a *structurally* exact basis
        # state (a single nonzero entry — zeroed slices are assigned
        # exact zeros), restore the physically exact collapse: numpy's
        # vectorized complex division rounds z/z to 1 - ulp for some
        # operands, and the round-replay engine's Markov-chain fast path
        # relies on post-measurement product states being bit-exact basis
        # matrices.
        if np.count_nonzero(self.data) == 1:
            diag = self.data.diagonal()
            idx = int(np.argmax(diag.real))
            if self.data[idx, idx] != 0.0 and abs(diag[idx] - 1.0) < 1e-9:
                self.data[idx, idx] = 1.0
        return p

    def sample_measure(self, qubit: int, rng: np.random.Generator) -> int:
        """Sample a projective measurement outcome and collapse the state."""
        p1 = self.prob_one(qubit)
        outcome = 1 if rng.random() < p1 else 0
        self.project(qubit, outcome)
        return outcome

    # -- observables -------------------------------------------------------

    def reduced(self, qubit: int) -> np.ndarray:
        """2x2 reduced density matrix of ``qubit``."""
        tensor = self._as_tensor()
        n = self.n_qubits
        ket = self._axis(qubit)
        keep_ket, keep_bra = ket, n + ket
        axes = list(range(2 * n))
        out = np.zeros((2, 2), dtype=complex)
        for i in (0, 1):
            for j in (0, 1):
                sub = np.take(np.take(tensor, i, axis=keep_ket), j, axis=keep_bra - 1)
                dim = 1 << (n - 1)
                out[i, j] = np.trace(sub.reshape(dim, dim))
        return out

    def bloch(self, qubit: int) -> tuple[float, float, float]:
        """Bloch vector (x, y, z) of ``qubit``'s reduced state."""
        r = self.reduced(qubit)
        x = float(np.real(r[0, 1] + r[1, 0]))
        y = float(np.imag(r[1, 0] - r[0, 1]))
        z = float(np.real(r[0, 0] - r[1, 1]))
        return (x, y, z)

    def fidelity_pure(self, psi: np.ndarray) -> float:
        """<psi| rho |psi> against a pure state of the full register."""
        psi = np.asarray(psi, dtype=complex).ravel()
        psi = psi / np.linalg.norm(psi)
        return float(np.real(psi.conj() @ self.data @ psi))

    def purity(self) -> float:
        return float(np.real(np.trace(self.data @ self.data)))

    def trace(self) -> float:
        return float(np.real(np.trace(self.data)))

    def is_physical(self, atol: float = 1e-8) -> bool:
        """Hermitian, unit trace, positive semidefinite (within atol)."""
        if not np.allclose(self.data, self.data.conj().T, atol=atol):
            return False
        if abs(self.trace() - 1.0) > atol:
            return False
        eigvals = np.linalg.eigvalsh(self.data)
        return bool(eigvals.min() > -atol)
