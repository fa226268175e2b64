import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcsim.canonical import build_canonical_cluster
from tcsim.gaussian import (
    GaussianState,
    append_modes,
    apply_cz,
    apply_phase_rotation,
    check_physicality,
    cz_matrix,
    db_to_r,
    measure_quadrature,
    measure_slot,
    nullifier_slot,
    p_squeezed_state,
    permute_modes,
    r_to_db,
    rotation_matrix,
    states_equal,
    symplectic_defect,
    symplectic_form,
    trace_out,
    vacuum_state,
)
from tcsim.graphs import wire_graph


def two_mode_cz_on_vacua():
    return apply_cz(vacuum_state(2, labels=("a", "b")), "a", "b")


class TestConstructors:
    def test_single_mode_vacuum(self):
        s = vacuum_state(1)
        assert np.array_equal(s.cov, np.diag([0.5, 0.5]))

    def test_empty_state(self):
        s = vacuum_state(0)
        assert s.labels == ()
        assert s.cov.shape == (0, 0)

    def test_two_mode_vacuum(self):
        assert np.array_equal(vacuum_state(2).cov, 0.5 * np.eye(4))

    def test_squeezed_r0_is_vacuum(self):
        s = p_squeezed_state(0.0)
        assert np.array_equal(s.cov, np.diag([0.5, 0.5]))

    def test_squeezed_r1(self):
        s = p_squeezed_state(1.0)
        # oracle: scalar evaluation of e^{+-2r}/2
        assert s.cov[0, 0] == pytest.approx(math.exp(2.0) / 2, abs=1e-12)
        assert s.cov[1, 1] == pytest.approx(math.exp(-2.0) / 2, abs=1e-12)

    def test_squeezed_10db(self):
        # variance ratio to vacuum is 10^(-dB/10), so var(p) = 0.05 at 10 dB
        r = db_to_r(10.0)
        assert r == pytest.approx(1.15129, abs=1e-5)
        s = p_squeezed_state(r)
        assert s.cov[1, 1] == pytest.approx(0.05, abs=1e-12)

    def test_db_roundtrip(self):
        assert r_to_db(db_to_r(7.3)) == pytest.approx(7.3, abs=1e-12)

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            p_squeezed_state(-0.1)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            GaussianState(("a", "a"), 0.5 * np.eye(4))

    def test_asymmetric_cov_rejected(self):
        cov = 0.5 * np.eye(2)
        cov[0, 1] = 1e-3
        with pytest.raises(ValueError):
            GaussianState(("a",), cov)

    # The symmetry check computes inf - inf here; that warning is expected.
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_cov_rejected(self, bad):
        cov = 0.5 * np.eye(2)
        cov[1, 1] = bad
        with pytest.raises(ValueError):
            GaussianState(("a",), cov)

    def test_wrong_cov_shape_rejected(self):
        with pytest.raises(ValueError, match="cov must be 2 x 2"):
            GaussianState(("a",), 0.5 * np.eye(4))

    def test_negative_mode_count_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            vacuum_state(-1)

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="expected 2 labels, got 1"):
            vacuum_state(2, labels=(1,))


class TestAppend:
    def test_two_vacua(self):
        s = append_modes(vacuum_state(1, labels=("a",)), vacuum_state(1, labels=("b",)))
        assert np.array_equal(s.cov, 0.5 * np.eye(4))

    def test_squeezed_plus_vacuum_block_order(self):
        r = 0.8
        s = append_modes(p_squeezed_state(r, label="s"), vacuum_state(1, labels=("v",)))
        expected = np.diag(
            [math.exp(2 * r) / 2, 0.5, math.exp(-2 * r) / 2, 0.5]
        )
        assert np.allclose(s.cov, expected, atol=1e-14)

    def test_empty_is_identity(self):
        x = p_squeezed_state(0.4, label="x")
        s = append_modes(GaussianState((), np.zeros((0, 0))), x)
        assert states_equal(s, x, tol=0.0)

    def test_duplicate_label_error(self):
        with pytest.raises(ValueError):
            append_modes(vacuum_state(1, labels=("a",)), vacuum_state(1, labels=("a",)))


class TestCZ:
    def test_restricted_matrix(self):
        # Heisenberg action: p_a -> p_a + q_b, p_b -> p_b + q_a, q's unchanged
        expected = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 1, 1, 0], [1, 0, 0, 1]], dtype=float
        )
        assert np.array_equal(cz_matrix(2, 0, 1), expected)

    def test_on_two_vacua(self):
        # oracle: explicit 4x4 product S (1/2 I) S^T
        s_mat = cz_matrix(2, 0, 1)
        oracle = s_mat @ (0.5 * np.eye(4)) @ s_mat.T
        state = two_mode_cz_on_vacua()
        assert np.allclose(state.cov, oracle, atol=1e-15)
        expected = np.array(
            [[0.5, 0, 0, 0.5], [0, 0.5, 0.5, 0], [0, 0.5, 1, 0], [0.5, 0, 0, 1]]
        )
        assert np.allclose(state.cov, expected, atol=1e-15)

    def test_matches_symplectic_path(self):
        state = vacuum_state(3)
        via_cz = apply_cz(state, 1, 3)
        s_mat = cz_matrix(3, 0, 2)
        via_dense = GaussianState(state.labels, s_mat @ state.cov @ s_mat.T)
        assert states_equal(via_cz, via_dense, tol=0.0)

    def test_symmetry(self):
        base = append_modes(p_squeezed_state(0.5, "a"), p_squeezed_state(1.0, "b"))
        ab = apply_cz(base, "a", "b")
        ba = apply_cz(base, "b", "a")
        assert np.array_equal(ab.cov, ba.cov)

    def test_errors(self):
        state = vacuum_state(2)
        with pytest.raises(ValueError):
            apply_cz(state, 1, 1)
        with pytest.raises(KeyError):
            apply_cz(state, 1, 99)

    @given(
        pairs=st.lists(
            st.tuples(st.integers(1, 4), st.integers(1, 4)).filter(lambda p: p[0] != p[1]),
            min_size=2,
            max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_cz_gates_commute(self, pairs):
        base = vacuum_state(0, labels=())
        for i in range(1, 5):
            base = append_modes(base, p_squeezed_state(0.3 * i, label=i))
        forward = base
        for a, b in pairs:
            forward = apply_cz(forward, a, b)
        backward = base
        for a, b in reversed(pairs):
            backward = apply_cz(backward, a, b)
        assert np.max(np.abs(forward.cov - backward.cov)) < 1e-12


class TestRotationAndDisplacement:
    def test_rotation_identity(self):
        s = p_squeezed_state(0.6)
        assert states_equal(apply_phase_rotation(s, 1, 0.0), s, tol=0.0)

    def test_rotation_quarter_turn_swaps_quadratures(self):
        r = 0.9
        s = apply_phase_rotation(p_squeezed_state(r), 1, math.pi / 2)
        expected = np.diag([math.exp(-2 * r) / 2, math.exp(2 * r) / 2])
        assert np.allclose(s.cov, expected, atol=1e-14)

    def test_vacuum_rotation_invariant(self):
        s = apply_phase_rotation(vacuum_state(1), 1, math.pi / 4)
        assert np.allclose(s.cov, 0.5 * np.eye(2), atol=1e-15)


@st.composite
def rotated_mode_cases(draw):
    """A 2-5 mode p-squeezed state joined by random CZs, a mode and an angle."""
    rs = draw(st.lists(st.floats(0.0, 1.5), min_size=2, max_size=5))
    n = len(rs)
    state = vacuum_state(0, labels=())
    for i, r in enumerate(rs):
        state = append_modes(state, p_squeezed_state(r, label=i))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for a, b in draw(st.lists(pair.filter(lambda p: p[0] != p[1]), max_size=6)):
        state = apply_cz(state, a, b)
    mode = draw(st.integers(0, n - 1))
    theta = draw(st.floats(-2 * math.pi, 2 * math.pi))
    return state, mode, theta


def assert_close_rel(got, want, rel=1e-12):
    assert np.max(np.abs(got - want), initial=0.0) <= rel * max(
        1.0, np.max(np.abs(want), initial=0.0)
    )


class TestRotationMatchesDense:
    """The direct row/column updates against the dense rotation_matrix route."""

    @given(case=rotated_mode_cases())
    @settings(max_examples=80, deadline=None)
    def test_rotation(self, case):
        state, mode, theta = case
        s_mat = rotation_matrix(state.n_modes, state.index(mode), theta)
        assert_close_rel(
            apply_phase_rotation(state, mode, theta).cov, s_mat @ state.cov @ s_mat.T
        )

    @given(case=rotated_mode_cases(), x=st.floats(-5.0, 5.0))
    @settings(max_examples=80, deadline=None)
    def test_rotated_measurement(self, case, x):
        state, mode, theta = case
        n, k = state.n_modes, state.index(mode)
        # reference: dense rotation, then the Schur complement on q_k
        s_mat = rotation_matrix(n, k, theta)
        cov = s_mat @ state.cov @ s_mat.T
        keep = [i for i in range(2 * n) if i not in (k, n + k)]
        b = cov[keep, k]
        want_cov = cov[np.ix_(keep, keep)] - np.outer(b, b) / cov[k, k]
        want_feedforward = -b * (x / cov[k, k])

        reduced, rec = measure_quadrature(state, mode, theta, outcome=x)
        assert_close_rel(reduced.cov, want_cov)
        assert_close_rel(rec.feedforward, want_feedforward)


@st.composite
def measure_slot_cases(draw):
    """An exactly symmetric 2-8 slot buffer, a slot to measure and an outcome.

    The buffer is 0.5 (M + M^T) with some slots empty and the measured q
    column cut to a drawn support, from its diagonal alone to fully dense;
    every zero is +0.0, as in the streaming register.
    """
    n = draw(st.integers(2, 8))
    k = draw(st.integers(0, n - 1))
    m = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((2 * n, 2 * n))
    cov = 0.5 * (m + m.T)
    empty = draw(st.sets(st.integers(0, n - 1).filter(lambda s: s != k)))
    for s in empty:
        cov[[s, n + s], :] = 0.0
        cov[:, [s, n + s]] = 0.0
    others = [i for i in range(2 * n) if i != k]
    cut = draw(st.permutations(others))[: draw(st.integers(0, len(others)))]
    cov[cut, k] = cov[k, cut] = 0.0
    cov[k, k] = abs(cov[k, k]) + 0.1
    keep = np.array([s for s in range(2 * n) if s % n != k], dtype=int)
    return cov, k, keep, draw(st.floats(-5.0, 5.0))


def dense_measure_slot(cov, k, keep, outcome):
    """Reference q measurement: a dense rank-1 downdate of the whole buffer."""
    n = len(cov) // 2
    var = cov[k, k]
    b = cov[:, k].copy()
    shift = b[keep] * (outcome / var)
    downdate = np.outer(b, b)
    downdate /= var
    cov -= downdate
    cov[[k, n + k], :] = 0.0
    cov[:, [k, n + k]] = 0.0
    return -shift


class TestMeasureSlotMatchesDense:
    """The support-restricted downdate against the dense one, bit for bit."""

    @given(case=measure_slot_cases())
    @settings(max_examples=150, deadline=None)
    def test_bitwise_equal(self, case):
        cov, k, keep, x = case
        want_cov = cov.copy()
        want_feedforward = dense_measure_slot(want_cov, k, keep, x)
        # measure_quadrature at angle 0 runs measure_slot on its state's
        # buffer, which is this one (an exactly symmetric buffer survives
        # the state's symmetrization and a rotation by 0 bit for bit)
        n = len(cov) // 2
        _, rec = measure_quadrature(GaussianState(range(n), cov), k, 0.0, outcome=x)
        # the kernel takes no outcome and returns none
        assert measure_slot(cov, k, "m") is None
        assert cov.tobytes() == want_cov.tobytes()
        assert type(rec.outcome) is float
        assert np.float64(rec.outcome).tobytes() == np.float64(x).tobytes()
        assert rec.feedforward.tobytes() == want_feedforward.tobytes()


@st.composite
def nullifier_cases(draw):
    """2-8 p-squeezed modes after random CZs, a node and some of the other
    modes' slots, in a drawn order (possibly none)."""
    n = draw(st.integers(2, 8))
    state = vacuum_state(0, labels=())
    for label in range(n):
        state = append_modes(state, p_squeezed_state(draw(st.floats(0.0, 1.5)), label=label))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    for a, b in draw(st.lists(pair, max_size=12)):
        state = apply_cz(state, a, b)
    k = draw(st.integers(0, n - 1))
    others = draw(st.permutations([i for i in range(n) if i != k]))
    return state.cov, k, others[: draw(st.integers(0, n - 1))]


class TestNullifierSlotMatchesDense:
    """The gathered quadratic form against v^T cov v over the whole buffer."""

    @given(case=nullifier_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_full_length_form(self, case):
        cov, k, neighbours = case
        n = len(cov) // 2
        v = np.zeros(2 * n)
        v[n + k] = 1.0
        v[neighbours] = -1.0
        want = v @ cov @ v
        # relative to the form's own scale |v|^T |cov| |v|, which bounds the
        # rounding of either summation order
        scale = np.abs(v) @ np.abs(cov) @ np.abs(v)
        assert abs(nullifier_slot(cov, k, neighbours) - want) <= 1e-12 * scale


class TestMeasurement:
    def test_records_compare_by_value(self):
        state = apply_cz(apply_cz(vacuum_state(3), 1, 2), 2, 3)
        _, a = measure_quadrature(state, 1, 0.0, outcome=0.25)
        _, b = measure_quadrature(state, 1, 0.0, outcome=0.25)
        assert a.feedforward is not b.feedforward
        assert a == b and not a != b
        assert a != measure_quadrature(state, 1, 0.0, outcome=0.5)[1]
        assert a != measure_quadrature(state, 2, 0.0, outcome=0.25)[1]
        assert a != (a.node, a.angle, a.outcome, a.feedforward)

    def test_vacuum_forced_zero(self):
        reduced, rec = measure_quadrature(vacuum_state(1), 1, 0.0, outcome=0.0)
        assert reduced.n_modes == 0
        assert rec.outcome == 0.0
        assert rec.feedforward.shape == (0,)

    @pytest.mark.parametrize("m", [-3.0, 0.0, 2.5])
    def test_conditioning_after_cz(self, m):
        # oracle: 2-variable Gaussian conditioning by hand on the cz(vac,vac)
        # covariance; measuring q_b with outcome m leaves survivor a with
        # cov diag(1/2, 1/2) and an (unpinned) mean shift of m on p_a.
        state = two_mode_cz_on_vacua()
        reduced, rec = measure_quadrature(state, "b", 0.0, outcome=m)
        assert np.allclose(reduced.cov, 0.5 * np.eye(2), atol=1e-14)
        # feedforward cancels the shift, so the shift itself is -feedforward
        assert -rec.feedforward[1] == pytest.approx(m, abs=1e-14)
        assert -rec.feedforward[0] == pytest.approx(0.0, abs=1e-14)

    def test_covariance_outcome_independent(self):
        state = two_mode_cz_on_vacua()
        covs = [
            measure_quadrature(state, "b", 0.3, outcome=m)[0].cov for m in (-2.0, 0.0, 5.0)
        ]
        assert np.max(np.abs(covs[0] - covs[1])) == 0.0
        assert np.max(np.abs(covs[0] - covs[2])) == 0.0

    def test_sampled_variance_matches_marginal(self):
        # p-homodyne on p_squeezed(1): outcomes ~ N(0, e^{-2}/2)
        rng = np.random.default_rng(42)
        state = p_squeezed_state(1.0)
        outcomes = np.array(
            [
                measure_quadrature(state, 1, math.pi / 2, rng=rng)[1].outcome
                for _ in range(10_000)
            ]
        )
        target = math.exp(-2.0) / 2
        assert abs(outcomes.var() - target) < 0.05 * target
        assert abs(outcomes.mean()) < 0.01

    def test_angle_normalized(self):
        _, rec = measure_quadrature(vacuum_state(1), 1, math.pi + 0.25, outcome=0.0)
        assert rec.angle == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("theta", [math.pi, math.pi + 0.25, -0.25])
    def test_record_replays_outside_half_turn(self, theta):
        # x_theta = -x_{theta - pi}: measuring at the recorded (normalized)
        # angle with the recorded outcome must reproduce the same update.
        state = build_canonical_cluster(wire_graph(3), 0.5)
        reduced, rec = measure_quadrature(state, 2, theta, outcome=0.8)
        replayed, again = measure_quadrature(state, 2, rec.angle, outcome=rec.outcome)
        assert 0.0 <= rec.angle < math.pi
        assert np.max(np.abs(again.feedforward - rec.feedforward)) < 1e-12
        assert np.max(np.abs(replayed.cov - reduced.cov)) < 1e-12
        assert again.outcome == rec.outcome

    def test_requires_outcome_or_rng(self):
        with pytest.raises(ValueError, match="either a forced outcome or an rng is required"):
            measure_quadrature(vacuum_state(1), 1, 0.0)

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            measure_quadrature(vacuum_state(1), "nope", 0.0, outcome=0.0)

    @pytest.mark.parametrize("outcome", [0.0, None])
    def test_degenerate_marginal_rejected(self, outcome):
        # checked before the outcome, so a call with neither an outcome nor
        # an rng is refused for its marginal
        state = GaussianState((1,), np.diag([1e-15, 1e15]))
        with pytest.raises(ValueError, match="degenerate marginal variance"):
            measure_quadrature(state, 1, 0.0, outcome=outcome)


class TestTraceOut:
    def test_trace_one_of_two_vacua(self):
        s = trace_out(vacuum_state(2), [2])
        assert s.labels == (1,)
        assert np.array_equal(s.cov, 0.5 * np.eye(2))

    def test_trace_cz_partner_leaves_noise(self):
        # read the sub-block of the cz(vac,vac) covariance
        s = trace_out(two_mode_cz_on_vacua(), ["b"])
        assert np.allclose(s.cov, np.diag([0.5, 1.0]), atol=1e-15)

    def test_trace_all(self):
        s = trace_out(vacuum_state(3), [1, 2, 3])
        assert s.n_modes == 0

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            trace_out(vacuum_state(1), [7])


class TestPhysicality:
    def test_vacuum(self):
        assert check_physicality(vacuum_state(2)) == pytest.approx(0.5, abs=1e-12)

    def test_squeezed_is_pure(self):
        assert check_physicality(p_squeezed_state(1.3)) == pytest.approx(0.5, abs=1e-9)

    def test_subvacuum_noise_flagged(self):
        assert check_physicality(0.25 * np.eye(2)) == pytest.approx(0.25, abs=1e-12)

    def test_asymmetric_rejected(self):
        bad = np.array([[0.5, 0.1], [0.0, 0.5]])
        with pytest.raises(ValueError):
            check_physicality(bad)

    # The symmetry check computes inf - inf here; that warning is expected.
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        cov = 0.5 * np.eye(2)
        cov[0, 0] = bad
        with pytest.raises(ValueError):
            check_physicality(cov)

    @given(
        rs=st.lists(st.floats(0.0, 1.5), min_size=2, max_size=4),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_preserved_under_cz_and_rotation(self, rs, seed):
        rng = np.random.default_rng(seed)
        state = vacuum_state(0, labels=())
        for i, r in enumerate(rs):
            state = append_modes(state, p_squeezed_state(r, label=i))
        for _ in range(3):
            a, b = rng.choice(len(rs), size=2, replace=False)
            state = apply_cz(state, int(a), int(b))
            state = apply_phase_rotation(state, int(a), float(rng.uniform(0, math.pi)))
        assert check_physicality(state) >= 0.5 - 1e-9


class TestSymplectic:
    def test_form_shape(self):
        omega = symplectic_form(2)
        assert np.array_equal(omega, -omega.T)
        assert np.array_equal(omega @ omega, -np.eye(4))

    @given(
        n=st.integers(2, 4),
        theta=st.floats(-6.0, 6.0, allow_nan=False),
        i=st.integers(0, 3),
        j=st.integers(0, 3),
    )
    @settings(max_examples=80, deadline=None)
    def test_builtin_ops_are_symplectic(self, n, theta, i, j):
        i, j = i % n, j % n
        assert symplectic_defect(rotation_matrix(n, i, theta)) < 1e-10
        if i != j:
            assert symplectic_defect(cz_matrix(n, i, j)) < 1e-10


class TestStatesEqual:
    def test_identity(self):
        s = p_squeezed_state(0.7)
        assert states_equal(s, s, tol=0.0)

    def test_vacuum_under_swap(self):
        a = vacuum_state(2, labels=("x", "y"))
        b = vacuum_state(2, labels=("y", "x"))
        assert states_equal(a, b)

    def test_distinct_states(self):
        assert not states_equal(p_squeezed_state(1.0), vacuum_state(1), tol=1e-9)

    def test_bijection_mismatch(self):
        with pytest.raises(ValueError):
            states_equal(vacuum_state(1), vacuum_state(1, labels=(2,)))

    def test_empty_states_equal(self):
        assert states_equal(vacuum_state(0), vacuum_state(0)) is True


class TestEdgeInputs:
    @pytest.mark.parametrize("order", [(1, 1), (1, 3), (1,), (1, 2, 3)])
    def test_permute_modes_needs_a_permutation(self, order):
        with pytest.raises(ValueError, match="not a permutation"):
            permute_modes(vacuum_state(2), order)

    def test_physicality_of_empty_state_is_inf(self):
        assert check_physicality(vacuum_state(0)) == math.inf
