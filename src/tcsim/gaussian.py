"""Gaussian states over labeled optical modes.

Covariance-matrix formalism with hbar = 1, so the vacuum quadrature variance
is 1/2.  Covariance matrices use block ordering (q_1 .. q_n, p_1 .. p_n),
which keeps the symplectic form in the block shape Omega = [[0, I], [-I, 0]]
and makes the CZ matrix sparse and readable.  States are zero-mean: every
input is squeezed vacuum, and each homodyne outcome's conditional mean shift
is cancelled by feedforward and recorded, not stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Optional, Sequence

import numpy as np

Label = Hashable

#: Quadrature variance of the vacuum state (hbar = 1 convention).
VACUUM_VARIANCE = 0.5

#: Covariances are re-symmetrized after every update; beyond this we refuse.
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

    def q_index(self, label: Label) -> int:
        return self.index(label)

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
    if r < 0:
        raise ValueError("squeezing parameter must be nonnegative")
    cov = np.diag([VACUUM_VARIANCE * math.exp(2 * r), VACUUM_VARIANCE * math.exp(-2 * r)])
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

    Equal to S cov S^T with S = cz_matrix, but applied as direct row/column
    updates; the gate sits in the streaming hot loop.
    """
    if a == b:
        raise ValueError("CZ requires two distinct modes")
    i, j = state.index(a), state.index(b)
    n = state.n_modes
    cov = state.cov.copy()
    cov[n + i, :] += cov[j, :]
    cov[n + j, :] += cov[i, :]
    cov[:, n + i] += cov[:, j]
    cov[:, n + j] += cov[:, i]
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

    Equal to S cov S^T with S = rotation_matrix, but applied to one copy of
    cov as a 2 x 2 mix of the mode's q and p rows, then of its q and p
    columns, with no dense matrix product.
    """
    i = state.index(mode)
    j = state.n_modes + i
    c, s = math.cos(theta), math.sin(theta)
    cov = state.cov.copy()
    q, p = cov[i, :].copy(), cov[j, :].copy()
    cov[i, :] = c * q + s * p
    cov[j, :] = c * p - s * q
    q, p = cov[:, i].copy(), cov[:, j].copy()
    cov[:, i] = c * q + s * p
    cov[:, j] = c * p - s * q
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
    unless a forced ``outcome`` is given (post-selection for tests).  A
    nonzero angle first rotates the mode by theta with
    :func:`apply_phase_rotation`, which turns x_theta into its q quadrature;
    angle 0 skips the rotation.  Survivors are then conditioned on that q by
    a rank-1 Schur complement.  The conditional mean shift is cancelled by
    feedforward and recorded, so survivors stay at zero mean (pinned
    convention).  The record holds the normalized angle theta mod pi, and
    since x_theta = -x_{theta-pi} its outcome is negated when
    floor(theta / pi) is odd.  Returns (reduced state, record).
    """
    k = state.index(mode)  # q index of the (rotated) measured quadrature
    if angle != 0.0:
        state = apply_phase_rotation(state, mode, angle)
    var = state.cov[k, k]
    if var < MARGINAL_FLOOR:
        raise ValueError(f"degenerate marginal variance {var:.3e} on mode {mode!r}")
    if outcome is None:
        if rng is None:
            raise ValueError("either a forced outcome or an rng is required")
        outcome = math.sqrt(var) * rng.standard_normal()
    survivors, keep_idx = _drop_modes(state.labels, [k])
    b = state.cov[keep_idx, k]
    shift = b * (outcome / var)
    cond_cov = state.cov[np.ix_(keep_idx, keep_idx)] - np.outer(b, b) / var
    half_turns, angle = divmod(angle, math.pi)
    if half_turns % 2:
        outcome = -outcome
    record = MeasurementRecord(
        node=mode, angle=angle, outcome=float(outcome), feedforward=-shift
    )
    return GaussianState(survivors, cond_cov), record


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


def states_equal(
    a: GaussianState,
    b: GaussianState,
    mapping: Optional[Mapping[Label, Label]] = None,
    tol: float = 1e-9,
) -> bool:
    """Entrywise equality of covariances under a label bijection.

    ``mapping`` sends a's labels to b's; identity by default.
    """
    if mapping is None:
        mapping = {lbl: lbl for lbl in a.labels}
    if set(mapping.keys()) != set(a.labels) or set(mapping.values()) != set(b.labels):
        raise ValueError("label bijection does not cover both states")
    b_aligned = permute_modes(b, [mapping[lbl] for lbl in a.labels])
    if a.n_modes == 0:
        return True
    return bool(np.max(np.abs(a.cov - b_aligned.cov)) <= tol)
