"""The diagonal register against the dense kernels of ``tcsim.gaussian``.

Each register kernel runs on a random buffer with the register's pattern,
and the matching dense kernel on the same buffer held densely; the register's
densified result must equal the dense one bit for bit.  The rings are a
wire's K = 3, a lattice's M + 2 and a deferred run's len(range) slots.  The
kernels and reads take mode labels; label l is slot l mod K.
"""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tcsim.gaussian import (
    _check_symmetric,
    clear_slot,
    cz_slots,
    measure_slot,
    nullifier_slot,
    squeeze_slot,
)
from tcsim.register import DiagonalRegister, pattern


def pattern_mask(offsets, k):
    """Where a dense 2K x 2K buffer may be nonzero, read from ``pattern``
    alone: entry (r, c) at slot offset (c - r) mod K of its block's set."""
    allowed = [{o % k for o in block} for block in pattern(offsets)]
    mask = np.zeros((2 * k, 2 * k), dtype=bool)
    for r in range(2 * k):
        for c in range(2 * k):
            mask[r, c] = (c % k - r % k) % k in allowed[2 * (r // k) + c // k]
    return mask


@st.composite
def rings(draw):
    """Offsets and a ring size: a wire's 3 slots, a lattice's M + 2, or a
    deferred run's ring of len(range) slots, more than reach + 2."""
    offsets = draw(st.sampled_from([(1,), (1, 2), (1, 3), (1, 4), (1, 8)]))
    reach = offsets[-1]
    deferred = draw(st.booleans())
    k = draw(st.integers(reach + 3, 3 * reach + 6)) if deferred else reach + 2
    return offsets, k


@st.composite
def buffers(draw):
    """A ring and an exactly symmetric buffer with its pattern: random
    entries on the pattern, some of them zero, some slots empty, every zero
    +0.0, every q variance at least 0.1 on an occupied slot."""
    offsets, k = draw(rings())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.standard_normal((2 * k, 2 * k))
    m[rng.random((2 * k, 2 * k)) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    cov = np.where(pattern_mask(offsets, k), 0.5 * (m + m.T), 0.0)
    for s in range(k):
        cov[s, s] = abs(cov[s, s]) + 0.1
    for s in draw(st.sets(st.integers(0, k - 1), max_size=k - 2)):
        clear_slot(cov, s)
    cov += 0.0  # no -0.0
    register = DiagonalRegister(offsets, k)
    register.load(cov)
    assert register.dense().tobytes() == cov.tobytes()
    return register, cov


def occupied(cov):
    k = len(cov) // 2
    return [s for s in range(k) if cov[s, s] != 0]


class TestKernelsMatchDense:
    @given(case=buffers(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_cz(self, case, data):
        register, cov = case
        k = register.slots
        i = data.draw(st.integers(0, k - 1))
        d = data.draw(st.sampled_from([s * d for d in register.offsets for s in (1, -1)]))
        cz_slots(cov, i, (i + d) % k)
        register.cz(i, (i + d) % k)
        assert register.dense().tobytes() == cov.tobytes()

    @given(case=buffers(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_measure(self, case, data):
        register, cov = case
        k = data.draw(st.sampled_from(occupied(cov)))
        measure_slot(cov, k, "m")
        assert register.measure(k) is None
        assert register.dense().tobytes() == cov.tobytes()

    @given(case=buffers(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_emit_and_clear(self, case, data):
        register, cov = case
        k = data.draw(st.integers(0, register.slots - 1))
        clear_slot(cov, k)
        register.clear(k)
        assert register.dense().tobytes() == cov.tobytes()
        r = data.draw(st.floats(0.0, 3.0))
        squeeze_slot(cov, k, r)
        register.emit(k, r)
        assert register.dense().tobytes() == cov.tobytes()

    @given(case=buffers(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_nullifier(self, case, data):
        register, cov = case
        k = data.draw(st.integers(0, register.slots - 1))
        links = [(k + d) % register.slots for d in register.offsets]
        neighbours = data.draw(st.permutations(links))[: data.draw(st.integers(0, len(links)))]
        want = nullifier_slot(cov, k, neighbours)
        assert register.nullifier(k, neighbours).hex() == want.hex()
        assert register.dense().tobytes() == cov.tobytes()  # a read writes nothing

    @given(case=buffers(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_guard(self, case, data):
        register, cov = case
        register.check()
        _check_symmetric(cov)
        # a fault on one side of an off-diagonal stored entry, or a non-finite one
        mask = pattern_mask(register.offsets, register.slots)
        np.fill_diagonal(mask, False)
        r, c = data.draw(st.sampled_from([tuple(rc) for rc in np.argwhere(mask)]))
        fault = data.draw(st.sampled_from([1e-6, -1e-6, np.nan, np.inf, -np.inf]))
        cov[r, c] = cov[r, c] + fault if abs(fault) < 1 else fault
        register.load(cov)
        with pytest.raises(ValueError, match="symmetric and finite"):
            _check_symmetric(cov)
        with pytest.raises(ValueError, match="symmetric and finite"):
            register.check()


@st.composite
def windows(draw):
    """A buffer and a live window lo..hi of at most K labels: the slots
    outside it are empty, and an entry of two live modes is zero unless
    their label offset is on the pattern (on a small ring a slot offset
    can stand for a label offset off it)."""
    register, cov = draw(buffers())
    k = register.slots
    lo = draw(st.integers(-k, 3 * k))
    n = draw(st.integers(0, k))
    for label in range(lo + n, lo + k):
        clear_slot(cov, label % k)
    blocks = pattern(register.offsets)
    idx = positions(k, lo, lo + n - 1)
    for x, r in enumerate(idx):
        for y, c in enumerate(idx):
            if (y % n - x % n) not in blocks[2 * (x // n) + y // n]:
                cov[r, c] = 0.0
    register.load(cov)
    return register, cov, lo, lo + n - 1


def on_convention(case, data):
    """A window whose oldest label's q row over the rest of the window, its
    measured row, is on the pinned feedforward convention: each entry the
    window may hold is +0.0 or that label's q variance var, bitwise.
    Returns the window, the label's slot and the row's dense positions."""
    register, cov, lo, hi = case
    assume(lo <= hi)
    k = lo % register.slots  # the oldest label, retired
    assume(cov[k, k] > 0)  # it holds a mode
    row = positions(register.slots, lo + 1, hi)
    for c in row[np.flatnonzero(cov[k, row])]:
        cov[k, c] = cov[c, k] = data.draw(st.sampled_from([0.0, cov[k, k]]))
    register.load(cov)
    return register, cov, lo, hi, k, row


def positions(k, lo, hi):
    """Dense positions of labels lo..hi: their q slots, then their p slots."""
    q = np.arange(lo, hi + 1) % k
    return np.concatenate((q, q + k))


class TestWindowReads:
    @given(case=windows())
    @settings(max_examples=150, deadline=None)
    def test_window_is_the_dense_gather(self, case):
        register, cov, lo, hi = case
        idx = positions(register.slots, lo, hi)
        assert register.window(lo, hi).tobytes() == cov[np.ix_(idx, idx)].tobytes()

    @given(case=windows())
    @settings(max_examples=150, deadline=None)
    def test_entries_are_the_windows_stored_entries(self, case):
        # each entry on the pattern whose two modes lie in lo..hi, once, at
        # its labels, with its value; zero ones included
        register, cov, lo, hi = case
        n = hi - lo + 1
        idx = positions(register.slots, lo, hi)
        block, row, col, value = register.entries(lo, hi)
        assert np.all((lo <= row) & (row <= hi) & (lo <= col) & (col <= hi))
        x, y = (block >> 1) * n + row - lo, (block & 1) * n + col - lo
        stored = np.zeros((2 * n, 2 * n), dtype=bool)
        stored[x, y] = True
        assert stored.sum() == len(value)
        assert np.array_equal(stored, pattern_mask(register.offsets, register.slots)[np.ix_(idx, idx)])
        assert value.tobytes() == cov[idx[x], idx[y]].tobytes()

    @given(case=windows(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_measured_row_is_the_dense_row(self, case, data):
        register, cov, lo, hi, k, row = on_convention(case, data)
        var, b_keep = register.measured_row(lo, hi - lo)
        assert np.float64(var).tobytes() == cov[k, k].tobytes()
        assert b_keep.tobytes() == cov[k][row].tobytes()

    @given(case=windows(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_measured_row_off_the_convention_is_refused(self, case, data):
        register, cov, lo, hi, k, row = on_convention(case, data)
        stored = row[np.flatnonzero(pattern_mask(register.offsets, register.slots)[k, row])]
        assume(stored.size)
        c = data.draw(st.sampled_from(stored.tolist()))
        var = cov[k, k]
        wrong = [-0.0, -var, np.nextafter(var, 0.0), np.nextafter(var, np.inf), var / 3]
        cov[k, c] = cov[c, k] = data.draw(st.sampled_from(wrong))
        register.load(cov)
        with pytest.raises(ValueError, match=f"^node {lo}: stored measurement is off the pinned feedforward convention"):
            register.measured_row(lo, hi - lo)

    @pytest.mark.parametrize("var", [-2.0, 0.0, 1e-13])
    def test_measure_refuses_a_variance_that_is_not_positive(self, var):
        # measured_row reads such a row, and measure refuses it before the
        # run stores it, so every stored measurement has var > 0
        register = DiagonalRegister((1,), 3)
        cov = np.zeros((6, 6))
        cov[1, 1] = var  # label 7, in slot 1
        register.load(cov)
        register.measured_row(7, 2)
        with pytest.raises(ValueError, match=r"^degenerate marginal variance .* on mode 7$"):
            register.measure(7)

    @given(case=windows(), n=st.integers(-5, 5))
    @settings(max_examples=100, deadline=None)
    def test_roll_relabels_the_slots(self, case, n):
        register, cov, _, _ = case
        shift = positions(register.slots, -n, register.slots - 1 - n)  # slot s takes s - n
        want = cov[np.ix_(shift, shift)]
        rolled = register.rolled(n)
        register.roll(n)
        assert np.array_equal(register.diagonals, rolled)
        assert register.dense().tobytes() == want.tobytes()


def twin(register):
    """A second register of the same offsets and ring, holding the same values."""
    other = DiagonalRegister(register.offsets, register.slots)
    other.load(register.dense())
    return other


class TestLabels:
    """A kernel or read maps each label to its slot, so labels l, l + K and
    l - K address one mode: each call on labels in 0..K-1 is repeated on a
    twin register with every label moved by K or -K."""

    @given(case=buffers(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_kernels_take_any_label_of_a_slot(self, case, data):
        register, cov = case
        other, k = twin(register), register.slots

        def alias(label):
            return label + data.draw(st.sampled_from([-k, k]))

        kernel = data.draw(st.sampled_from(["emit", "cz", "measure", "clear", "nullifier"]))
        if kernel == "measure":
            label = data.draw(st.sampled_from(occupied(cov)))
        else:
            label = data.draw(st.integers(0, k - 1))
        if kernel == "emit":
            r = data.draw(st.floats(0.0, 3.0))
            register.emit(label, r)
            other.emit(alias(label), r)
        elif kernel == "cz":
            d = data.draw(st.sampled_from([s * d for d in register.offsets for s in (1, -1)]))
            register.cz(label, label + d)
            other.cz(alias(label), alias(label + d))
        elif kernel == "nullifier":
            links = [label + d for d in register.offsets]
            neighbours = data.draw(st.permutations(links))[: data.draw(st.integers(0, len(links)))]
            want = register.nullifier(label, neighbours)
            assert other.nullifier(alias(label), list(map(alias, neighbours))).hex() == want.hex()
        else:
            getattr(register, kernel)(label)
            getattr(other, kernel)(alias(label))
        assert other.diagonals.tobytes() == register.diagonals.tobytes()

    @given(case=windows(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_measured_row_takes_any_label_of_a_slot(self, case, data):
        register, _, lo, hi, _, _ = on_convention(case, data)
        var, b_keep = register.measured_row(lo, hi - lo)
        alias = lo + data.draw(st.sampled_from([-1, 1])) * register.slots
        got_var, got = twin(register).measured_row(alias, hi - lo)
        assert np.float64(got_var).tobytes() == np.float64(var).tobytes()
        assert got.tobytes() == b_keep.tobytes()


class TestPattern:
    def test_storage_is_linear_in_the_ring(self):
        # 1 qq, 4 qp, 4 pq and 9 pp diagonals, and the zero row
        for k in (66, 1026):
            assert DiagonalRegister((1, k - 2), k).diagonals.shape == (19, k)

    def test_cz_off_the_pattern_raises(self):
        register = DiagonalRegister((1, 4), 6)  # links at slot offsets 1, 2, 4, 5
        for s in range(6):
            register.emit(s, 0.5)
        with pytest.raises(ValueError, match=re.escape("off the register's diagonals")):
            register.cz(0, 3)

    def test_cz_off_the_pattern_on_empty_slots_writes_zeros(self):
        register = DiagonalRegister((1, 4), 6)
        register.cz(0, 3)
        assert not register.diagonals.any()

    def test_load_off_the_pattern_raises(self):
        register = DiagonalRegister((1, 4), 6)
        cov = np.zeros((12, 12))
        cov[0, 1] = cov[1, 0] = 0.1  # qq at slot offset 1
        with pytest.raises(ValueError, match=re.escape("off the register's diagonals")):
            register.load(cov)

    def test_pattern_is_the_closed_forms(self):
        qq, qp, pq, pp = pattern((1, 4))
        assert qq == {0} and qp == pq == {1, -1, 4, -4}
        assert pp == {0, 2, -2, 3, -3, 5, -5, 8, -8}
