"""Gaussian states over labeled optical modes.

Covariance-matrix formalism with hbar = 1, so the vacuum quadrature variance
is 1/2.  Covariance matrices use block ordering (q_1 .. q_n, p_1 .. p_n),
which keeps the symplectic form in the block shape Omega = [[0, I], [-I, 0]]
and makes the CZ matrix sparse and readable.  States are zero-mean: every
input is squeezed vacuum, and each homodyne outcome's conditional mean shift
is cancelled by feedforward and recorded, not stored.

Emit, CZ, phase rotation, q measurement and trace are in-place kernels on a
covariance buffer and mode slots; the ``GaussianState`` operations run them
on a copy, and the streaming pipeline runs them on its preallocated live
register.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Optional, Sequence

import numpy as np

Label = Hashable

#: Quadrature variance of the vacuum state (hbar = 1 convention).
VACUUM_VARIANCE = 0.5

#: Largest |cov - cov^T| entry accepted.  ``GaussianState`` construction
#: checks and then re-symmetrizes; the streaming register's kernels keep it
#: exactly symmetric, so it is only checked, once per tick.
SYMMETRY_TOL = 1e-12

#: Marginal variances below this are treated as degenerate (no pseudo-inverse
#: fallback: finite squeezing forbids exact zeros).
MARGINAL_FLOOR = 1e-12


def db_to_r(db: float) -> float:
    """Convert squeezing in decibels to the dimensionless parameter r.

    r = dB * ln(10) / 20, so that the squeezed variance ratio relative to
    vacuum is 10^(-dB/10).
    """
    return db * math.log(10.0) / 20.0


def r_to_db(r: float) -> float:
    """Inverse of :func:`db_to_r`."""
    return 20.0 * r / math.log(10.0)


def symplectic_form(n: int) -> np.ndarray:
    """The 2n x 2n form Omega = [[0, I], [-I, 0]] in block ordering."""
    omega = np.zeros((2 * n, 2 * n))
    omega[:n, n:] = np.eye(n)
    omega[n:, :n] = -np.eye(n)
    return omega


def symplectic_defect(matrix: np.ndarray) -> float:
    """Max-norm of S^T Omega S - Omega; zero for an exact symplectic map."""
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0] // 2
    omega = symplectic_form(n)
    return float(np.max(np.abs(matrix.T @ omega @ matrix - omega))) if n else 0.0


def _check_symmetric(cov: np.ndarray) -> None:
    """Reject a covariance that is asymmetric or has a NaN or infinite entry.

    Written as ``not (defect <= tol)`` so that a NaN defect, which any NaN or
    inf entry produces, fails the test at no extra cost.
    """
    if cov.size and not (np.max(np.abs(cov - cov.T)) <= SYMMETRY_TOL):
        raise ValueError("covariance matrix is not symmetric and finite")


@dataclass(frozen=True)
class MeasurementRecord:
    """One homodyne measurement: node, basis angle, outcome, feedforward.

    ``angle`` is normalized to [0, pi); 0 means q, pi/2 means p, and
    ``outcome`` is the value of x_angle at that normalized angle.
    ``feedforward`` is the displacement applied to the survivors to cancel
    the conditional mean shift (pinned convention), so its length is
    2 * (surviving mode count).  It is recorded here; the zero-mean state
    never holds it.
    """

    node: Label
    angle: float
    outcome: float
    feedforward: np.ndarray


# In-place kernels.  Each acts on a 2n x 2n covariance buffer in block
# ordering and on mode slots 0..n-1 of it; a slot that holds no mode is all
# zeros.  They neither check nor re-symmetrize the buffer; each maps an
# exactly symmetric buffer to an exactly symmetric one.


def squeeze_slot(cov: np.ndarray, k: int, r: float) -> None:
    """Write a p-squeezed vacuum, diag(e^{2r}/2, e^{-2r}/2), into empty slot k."""
    if r < 0:
        raise ValueError("squeezing parameter must be nonnegative")
    n = len(cov) // 2
    cov[k, k] = VACUUM_VARIANCE * math.exp(2 * r)
    cov[n + k, n + k] = VACUUM_VARIANCE * math.exp(-2 * r)


def cz_slots(cov: np.ndarray, i: int, j: int) -> None:
    """Unit-weight CZ on slots i and j: two row adds, then two column adds.

    The (p_i, p_j) entry sums the same four terms as (p_j, p_i) in another
    order, so it is mirrored to keep the buffer exactly symmetric.
    """
    n = len(cov) // 2
    cov[n + i, :] += cov[j, :]
    cov[n + j, :] += cov[i, :]
    cov[:, n + i] += cov[:, j]
    cov[:, n + j] += cov[:, i]
    cov[n + j, n + i] = cov[n + i, n + j]


def clear_slot(cov: np.ndarray, k: int) -> None:
    """Discard the mode in slot k: zero its q and p rows and columns."""
    n = len(cov) // 2
    cov[k, :] = 0.0
    cov[n + k, :] = 0.0
    cov[:, k] = 0.0
    cov[:, n + k] = 0.0


def rotate_slot(cov: np.ndarray, k: int, theta: float) -> None:
    """Phase-rotate slot k: q -> q cos + p sin, p -> -q sin + p cos.

    Equal to S cov S^T with S = rotation_matrix: a 2 x 2 mix of the slot's q
    and p rows, then of its q and p columns.  The (p_k, q_k) entry sums the
    same four terms as (q_k, p_k) in another order, so it is mirrored.
    """
    n = len(cov) // 2
    j = n + k
    c, s = math.cos(theta), math.sin(theta)
    q, p = cov[k, :].copy(), cov[j, :].copy()
    cov[k, :] = c * q + s * p
    cov[j, :] = c * p - s * q
    q, p = cov[:, k].copy(), cov[:, j].copy()
    cov[:, k] = c * q + s * p
    cov[:, j] = c * p - s * q
    cov[j, k] = cov[k, j]


def measure_slot(
    cov: np.ndarray,
    k: int,
    keep: np.ndarray,
    mode: Label,
    outcome: Optional[float] = None,
    rng: Optional[np.random.Generator] = None,
) -> MeasurementRecord:
    """Homodyne-measure q on slot k: see :func:`measure_quadrature`.

    Conditions the whole buffer by one rank-1 Schur downdate
    cov -= b b^T / var, with b the q column of slot k and var its variance,
    then clears slot k.  ``keep`` lists the survivors' q and p positions in
    the order the record's feedforward follows; ``mode`` is the measured
    mode's label, for the record.  Another quadrature is measured by
    rotating the slot first (:func:`rotate_slot`).
    """
    var = cov[k, k]
    if var < MARGINAL_FLOOR:
        raise ValueError(f"degenerate marginal variance {var:.3e} on mode {mode!r}")
    if outcome is None:
        if rng is None:
            raise ValueError("either a forced outcome or an rng is required")
        outcome = math.sqrt(var) * rng.standard_normal()
    b = cov[:, k].copy()
    shift = b[keep] * (outcome / var)
    downdate = np.outer(b, b)
    downdate /= var
    cov -= downdate
    clear_slot(cov, k)
    return MeasurementRecord(node=mode, angle=0.0, outcome=float(outcome), feedforward=-shift)


@dataclass(frozen=True)
class GaussianState:
    """Zero-mean Gaussian state: covariance over an ordered set of labeled modes.

    ``cov`` is 2n x 2n in block ordering (q_1 .. q_n, p_1 .. p_n) following
    the order of ``labels``.
    """

    labels: tuple
    cov: np.ndarray

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate mode labels in {labels}")
        n = len(labels)
        cov = np.asarray(self.cov, dtype=float)
        if cov.shape != (2 * n, 2 * n):
            raise ValueError(f"cov must be {2 * n} x {2 * n}, got {cov.shape}")
        _check_symmetric(cov)
        # The symmetrized sum is a fresh array, so the input is never aliased.
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "cov", 0.5 * (cov + cov.T))

    @property
    def n_modes(self) -> int:
        return len(self.labels)

    def index(self, label: Label) -> int:
        """Position of a mode label; KeyError if unknown."""
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown mode label {label!r}") from None

    def p_index(self, label: Label) -> int:
        return self.n_modes + self.index(label)


def vacuum_state(n: int, labels: Optional[Sequence[Label]] = None) -> GaussianState:
    """n-mode vacuum: cov = (1/2) I.  Labels default to 1..n."""
    if n < 0:
        raise ValueError("mode count must be nonnegative")
    if labels is None:
        labels = tuple(range(1, n + 1))
    labels = tuple(labels)
    if len(labels) != n:
        raise ValueError(f"expected {n} labels, got {len(labels)}")
    return GaussianState(labels, VACUUM_VARIANCE * np.eye(2 * n))


def p_squeezed_state(r: float, label: Label = 1) -> GaussianState:
    """Single-mode squeezed vacuum with reduced variance in p.

    cov = diag(e^{2r}/2, e^{-2r}/2); r = 0 is the vacuum.  Negative r
    (q-squeezing) is rejected.
    """
    cov = np.zeros((2, 2))
    squeeze_slot(cov, 0, r)
    return GaussianState((label,), cov)


def append_modes(state: GaussianState, other: GaussianState) -> GaussianState:
    """Tensor product: block-direct-sum of covariances.

    Label sets must be disjoint (GaussianState rejects a repeated label);
    block (q, p) ordering is re-established.
    """
    na, nb = state.n_modes, other.n_modes
    n = na + nb
    cov = np.zeros((2 * n, 2 * n))
    idx_a = np.r_[0:na, n:n + na]
    idx_b = np.r_[na:n, n + na:2 * n]
    cov[np.ix_(idx_a, idx_a)] = state.cov
    cov[np.ix_(idx_b, idx_b)] = other.cov
    return GaussianState(state.labels + other.labels, cov)


def cz_matrix(n: int, i: int, j: int) -> np.ndarray:
    """Symplectic matrix of a unit-weight CZ on mode positions i, j of n."""
    s = np.eye(2 * n)
    s[n + i, j] += 1.0
    s[n + j, i] += 1.0
    return s


def apply_cz(state: GaussianState, a: Label, b: Label) -> GaussianState:
    """Unit-weight CZ gate: p_a -> p_a + q_b, p_b -> p_b + q_a, q's unchanged.

    Equal to S cov S^T with S = cz_matrix, but applied by the row/column
    kernel :func:`cz_slots` on a copy of cov, the kernel the streaming
    register runs.
    """
    if a == b:
        raise ValueError("CZ requires two distinct modes")
    cov = state.cov.copy()
    cz_slots(cov, state.index(a), state.index(b))
    return GaussianState(state.labels, cov)


def rotation_matrix(n: int, i: int, theta: float) -> np.ndarray:
    """Phase rotation of mode position i: q -> q cos + p sin, p -> -q sin + p cos."""
    s = np.eye(2 * n)
    c, sn = math.cos(theta), math.sin(theta)
    s[i, i] = c
    s[i, n + i] = sn
    s[n + i, i] = -sn
    s[n + i, n + i] = c
    return s


def apply_phase_rotation(state: GaussianState, mode: Label, theta: float) -> GaussianState:
    """Rotate one mode's quadratures: q -> q cos + p sin, p -> -q sin + p cos.

    Runs the kernel :func:`rotate_slot` on a copy of cov.
    """
    cov = state.cov.copy()
    rotate_slot(cov, state.index(mode), theta)
    return GaussianState(state.labels, cov)


def _drop_modes(labels: tuple, positions: Iterable[int]) -> tuple:
    drop = set(positions)
    n = len(labels)
    keep = [i for i in range(n) if i not in drop]
    keep_idx = np.array([*keep, *(n + i for i in keep)], dtype=int)
    survivors = tuple(labels[i] for i in keep)
    return survivors, keep_idx


def measure_quadrature(
    state: GaussianState,
    mode: Label,
    angle: float = 0.0,
    outcome: Optional[float] = None,
    rng: Optional[np.random.Generator] = None,
):
    """Homodyne-measure x_theta = q cos(theta) + p sin(theta) on one mode.

    The outcome of x_theta is drawn from its zero-mean marginal using ``rng``
    unless a forced ``outcome`` is given (post-selection for tests).
    Rotating the mode by theta turns x_theta into its q, so this runs
    :func:`rotate_slot` on a copy of cov and then the q measurement
    :func:`measure_slot`, which conditions the survivors by a rank-1 Schur
    complement and clears the mode; its rows and columns are then dropped.
    The conditional mean shift is cancelled by feedforward and recorded, so
    survivors stay at zero mean (pinned convention).  The record holds the
    normalized angle theta mod pi, and since x_theta = -x_{theta-pi} its
    outcome is negated when floor(theta / pi) is odd.  Returns (reduced
    state, record).
    """
    k = state.index(mode)
    survivors, keep_idx = _drop_modes(state.labels, [k])
    cov = state.cov.copy()
    rotate_slot(cov, k, angle)
    record = measure_slot(cov, k, keep_idx, mode, outcome, rng)
    half_turns, angle = divmod(angle, math.pi)
    sign = -1.0 if half_turns % 2 else 1.0
    record = MeasurementRecord(mode, angle, sign * record.outcome, record.feedforward)
    return GaussianState(survivors, cov[np.ix_(keep_idx, keep_idx)]), record


def trace_out(state: GaussianState, modes: Iterable[Label]) -> GaussianState:
    """Discard modes: delete their rows/columns from cov."""
    positions = [state.index(m) for m in modes]
    survivors, keep_idx = _drop_modes(state.labels, positions)
    return GaussianState(survivors, state.cov[np.ix_(keep_idx, keep_idx)])


def check_physicality(state_or_cov) -> float:
    """Minimum symplectic eigenvalue of a state (or bare covariance matrix).

    Computed as the minimum modulus of the eigenvalues of i Omega cov.
    Physical states satisfy min >= 1/2; pure Gaussian constructions return
    1/2 to within 1e-9.  Empty states return +inf.
    """
    if isinstance(state_or_cov, GaussianState):
        cov = state_or_cov.cov
    else:
        cov = np.asarray(state_or_cov, dtype=float)
    if cov.size == 0:
        return math.inf
    _check_symmetric(cov)
    n = cov.shape[0] // 2
    eigs = np.linalg.eigvals(1j * symplectic_form(n) @ cov)
    return float(np.min(np.abs(eigs)))


def permute_modes(state: GaussianState, new_order: Sequence[Label]) -> GaussianState:
    """Reorder the state's modes to follow ``new_order`` (a label permutation)."""
    if set(new_order) != set(state.labels) or len(new_order) != state.n_modes:
        raise ValueError("new order is not a permutation of the state's labels")
    n = state.n_modes
    pos = [state.index(lbl) for lbl in new_order]
    idx = np.array([*pos, *(n + p for p in pos)], dtype=int)
    return GaussianState(tuple(new_order), state.cov[np.ix_(idx, idx)])


def states_equal(a: GaussianState, b: GaussianState, tol: float = 1e-9) -> bool:
    """Entrywise equality of covariances over the same label set.

    b's modes are matched to a's by label, in any order.
    """
    if set(a.labels) != set(b.labels):
        raise ValueError("the states have different label sets")
    if a.n_modes == 0:
        return True
    b_aligned = permute_modes(b, a.labels)
    return bool(np.max(np.abs(a.cov - b_aligned.cov)) <= tol)
