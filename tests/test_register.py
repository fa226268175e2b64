"""The diagonal register against the dense kernels of ``tcsim.gaussian``.

Each register kernel runs on a random buffer with the register's pattern,
and the matching dense kernel on the same buffer held densely; the register's
densified result must equal the dense one bit for bit.  The rings are a
wire's K = 3, a lattice's M + 2 and longer rings, a comparison's 2 M + 1
slots among them.  The kernels take labels in the register's live window
lo..hi, drawn at every position on the ring; label l is slot l mod K.
"""

import gc
import os
import re
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager

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
    longer ring of more than reach + 2 slots, such as a comparison's
    2 reach + 1."""
    offsets = draw(st.sampled_from([(1,), (1, 2), (1, 3), (1, 4), (1, 8)]))
    reach = offsets[-1]
    longer = draw(st.booleans())
    k = draw(st.integers(reach + 3, 3 * reach + 6)) if longer else reach + 2
    return offsets, k


@st.composite
def buffers(draw, ring=rings()):
    """A ring and an exactly symmetric buffer with its pattern: random
    entries on the pattern, some of them zero, some slots empty, every zero
    +0.0, every q variance at least 0.1 on an occupied slot."""
    offsets, k = draw(ring)
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


@st.composite
def windows(draw, ring=rings()):
    """A buffer and a window lo..hi of at most K labels, the register's
    live window unless it is empty: the slots outside it are empty, and an
    entry of two live modes is zero unless their label offset is on the
    pattern (on a small ring a slot offset can stand for a label offset off
    it)."""
    register, cov = draw(buffers(ring))
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
    open_window(register, cov, lo, lo + n - 1)
    return register, cov, lo, lo + n - 1


def on_convention(case, data):
    """A window whose oldest label's q row over the rest of the window, its
    measured row, is on the pinned feedforward convention: each entry the
    window may hold is +0.0 or that label's q variance var, bitwise.
    Returns the window, the label's slot and the row's dense positions."""
    register, cov, lo, hi = case
    assume(lo <= hi)
    k = lo % register.slots  # the oldest label, the one measure takes
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


def open_window(register, cov, lo, hi):
    """Make lo..hi the register's live window, emitting each label in turn,
    then give it the values of the dense buffer ``cov``."""
    for label in range(lo, hi + 1):
        register.emit(label, 0.0)
    register.load(cov)


class TestKernelsMatchDense:
    @given(case=buffers(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_cz(self, case, data):
        # a window of K labels, at any position, so every pair of slots at a
        # link's offset is live
        register, cov = case
        k = register.slots
        lo = data.draw(st.integers(-k, 3 * k))
        open_window(register, cov, lo, lo + k - 1)
        a = data.draw(st.integers(lo, lo + k - 1))
        d = data.draw(st.sampled_from([s * d for d in register.offsets for s in (1, -1)]))
        assume(lo <= a + d < lo + k)
        cz_slots(cov, a % k, (a + d) % k)
        register.cz(a, a + d)
        assert register.dense().tobytes() == cov.tobytes()

    @given(case=windows(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_measure(self, case, data):
        register, cov, lo, hi, k, _ = on_convention(case, data)
        measure_slot(cov, k, "m")
        register.measure(lo)
        assert register.dense().tobytes() == cov.tobytes()
        assert (register.lo, register.hi) == (lo + 1, hi)

    @given(case=windows(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_emit_and_clear(self, case, data):
        # the oldest label out, then hi + 1 in, into the slot the window
        # reaches next: the one just cleared when the window fills the ring
        register, cov, lo, hi = case
        assume(lo <= hi)
        k = register.slots
        clear_slot(cov, lo % k)
        register.clear(lo)
        assert register.dense().tobytes() == cov.tobytes()
        r = data.draw(st.floats(0.0, 3.0))
        squeeze_slot(cov, (hi + 1) % k, r)
        register.emit(hi + 1, r)
        assert register.dense().tobytes() == cov.tobytes()
        assert (register.lo, register.hi) == (lo + 1, hi + 1)

    @given(case=windows(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_nullifier(self, case, data):
        # any live label, with its live neighbours label + d in ascending order
        register, cov, lo, hi = case
        assume(lo <= hi)
        k = register.slots
        label = data.draw(st.integers(lo, hi))
        neighbours = [(label + d) % k for d in register.offsets if label + d <= hi]
        want = nullifier_slot(cov, label % k, neighbours)
        assert register.nullifier(label).hex() == want.hex()
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


def guarded_rings():
    """A wire's ring of 3 slots, an M = 2 or M = 3 lattice's of M + 2 (at
    M = 2 its pp diagonal at offset 2 = K/2 is its own mirror), or a longer
    ring of more than reach + 2 slots."""
    streams = st.sampled_from([((1,), 3), ((1, 2), 4), ((1, 3), 5)])
    longer = st.sampled_from([(1,), (1, 2), (1, 3)]).flatmap(
        lambda offsets: st.tuples(st.just(offsets), st.integers(offsets[-1] + 3, 3 * offsets[-1] + 6))
    )
    return streams | longer


class TestGuardRefusesAPlantedFault:
    @given(case=buffers(guarded_rings()), fault=st.sampled_from([1e-6, -1e-6, np.nan, np.inf, -np.inf]))
    @settings(max_examples=60, deadline=None)
    def test_in_every_stored_entry(self, case, fault):
        # Every stored diagonal at every slot, each side of the diagonal on
        # its own: one entry of the dense buffer changed, its mirror not.  A
        # diagonal entry is its own mirror, so only a non-finite value is a
        # fault there.  inf - inf warns, in the dense guard as here.
        register, cov = case
        register.check()
        for r, c in np.argwhere(pattern_mask(register.offsets, register.slots)):
            if r == c and abs(fault) < 1:
                continue
            faulty = cov.copy()
            faulty[r, c] = cov[r, c] + fault if abs(fault) < 1 else fault
            register.load(faulty)
            with np.errstate(invalid="ignore"):
                with pytest.raises(ValueError, match="symmetric and finite"):
                    _check_symmetric(faulty)
                with pytest.raises(ValueError, match="symmetric and finite"):
                    register.check()


class TestStreamCalls:
    """A stream's tick makes at most two register calls, each with one
    window check; each runs the steps of the library kernels it stands for,
    bit for bit."""

    @given(case=windows(), r=st.floats(0.0, 3.0))
    @settings(max_examples=150, deadline=None)
    def test_emit_linked_is_emit_then_each_cz(self, case, r):
        register, cov, lo, hi = case
        label = hi + 1
        assume(lo <= label - register.offsets[-1] and label - lo < register.slots)
        twin = DiagonalRegister(register.offsets, register.slots)
        open_window(twin, cov, lo, hi)
        register.emit_linked(label, r)
        twin.emit(label, r)
        for d in twin.offsets:
            twin.cz(label - d, label)
        assert register.diagonals.tobytes() == twin.diagonals.tobytes()
        assert (register.lo, register.hi, register.high_water) == (twin.lo, twin.hi, twin.high_water)

    @given(case=windows(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_finalize_is_check_nullifier_measure(self, case, data):
        register, cov, lo, hi, _, _ = on_convention(case, data)
        twin = DiagonalRegister(register.offsets, register.slots)
        open_window(twin, cov, lo, hi)
        nullifier = data.draw(st.booleans())
        variance, var, b_keep = register.finalize(lo, nullifier)
        twin.check()
        want = twin.nullifier(lo) if nullifier else None
        want_var, want_b_keep = twin.measure(lo)
        assert (variance is None) == (want is None)
        if nullifier:
            assert variance.hex() == want.hex()
        assert var.hex() == want_var.hex() and b_keep.tobytes() == want_b_keep.tobytes()
        assert register.diagonals.tobytes() == twin.diagonals.tobytes()
        assert (register.lo, register.hi) == (twin.lo, twin.hi)

    def test_emit_range_is_each_emit(self):
        register, twin = DiagonalRegister((1, 4), 6), DiagonalRegister((1, 4), 6)
        register.emit_range(range(-3, 1), 0.5)
        for label in range(-3, 1):
            twin.emit(label, 0.5)
        assert register.diagonals.tobytes() == twin.diagonals.tobytes()
        assert (register.lo, register.hi, register.high_water) == (-3, 0, 4)

    def test_emit_linked_refuses_a_partner_not_live(self):
        # an M = 4 lattice's ring of K = 6 slots: label l links to l - 1
        # and l - 4
        register = DiagonalRegister((1, 4), 6)
        register.emit_range(range(7, 12), 0.5)
        register.clear(7)
        register.emit_linked(12, 0.5)  # 8 and 11 are live
        register.clear(8)
        register.clear(9)
        refused = r"^cannot emit {} into window 10\.\.12$"
        with unchanged(register), pytest.raises(RuntimeError, match=refused.format(13)):
            register.emit_linked(13, 0.5)  # 9 is not
        with unchanged(register), pytest.raises(RuntimeError, match=refused.format(r"14\.\.16")):
            register.emit_range(range(14, 17), 0.5)


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
    def test_measure_returns_the_dense_row(self, case, data):
        register, cov, lo, hi, k, row = on_convention(case, data)
        var, b_keep = register.measure(lo)
        assert np.float64(var).tobytes() == cov[k, k].tobytes()
        assert b_keep.tobytes() == cov[k][row].tobytes()

    @given(case=windows(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_measure_off_the_convention_is_refused(self, case, data):
        register, cov, lo, hi, k, row = on_convention(case, data)
        stored = row[np.flatnonzero(pattern_mask(register.offsets, register.slots)[k, row])]
        assume(stored.size)
        c = data.draw(st.sampled_from(stored.tolist()))
        var = cov[k, k]
        wrong = [-0.0, -var, np.nextafter(var, 0.0), np.nextafter(var, np.inf), var / 3]
        cov[k, c] = cov[c, k] = data.draw(st.sampled_from(wrong))
        register.load(cov)
        with unchanged(register), pytest.raises(
            ValueError, match=f"^node {lo}: stored measurement is off the pinned feedforward convention"
        ):
            register.measure(lo)

    @pytest.mark.parametrize("var", [-2.0, 0.0, 1e-13])
    def test_measure_refuses_a_variance_that_is_not_positive(self, var):
        # a row on the convention, read first, then the variance, refused
        # before the run stores it, so every stored measurement has var > 0
        register = DiagonalRegister((1,), 3)
        cov = np.zeros((6, 6))
        cov[1, 1] = var  # label 7, in slot 1
        open_window(register, cov, 7, 9)
        with unchanged(register), pytest.raises(
            ValueError, match=r"^degenerate marginal variance .* on mode 7$"
        ):
            register.measure(7)

    @pytest.mark.parametrize("var", [-2.0, 0.0, 1e-13])
    def test_measure_refuses_a_row_off_the_convention_before_its_variance(self, var):
        register = DiagonalRegister((1,), 3)
        cov = np.zeros((6, 6))
        cov[1, 1] = var  # label 7, in slot 1
        cov[1, 5] = cov[5, 1] = 0.25  # (q_7, p_8), neither +0.0 nor var
        open_window(register, cov, 7, 9)
        with unchanged(register), pytest.raises(ValueError, match="^node 7: stored measurement is off"):
            register.measure(7)

    @given(case=windows(), n=st.integers(-5, 5))
    @settings(max_examples=100, deadline=None)
    def test_move_rolls_the_ring(self, case, n):
        # every slot outside the window is empty, so the roll moves every
        # mode and its entries n labels on
        register, cov, _, _ = case
        lo, hi, high_water = register.lo, register.hi, register.high_water
        shift = positions(register.slots, -n, register.slots - 1 - n)  # slot s takes s - n
        want = cov[np.ix_(shift, shift)]
        moved = register.moved(n)
        register.move(n)
        assert np.array_equal(register.diagonals, moved)
        assert register.dense().tobytes() == want.tobytes()
        assert (register.lo, register.hi, register.high_water) == (lo + n, hi + n, high_water)

    @given(case=windows(), n=st.integers(0, 12))
    @settings(max_examples=100, deadline=None)
    def test_move_of_n_is_n_moves_of_one(self, case, n):
        register = case[0]
        lo, hi = register.lo, register.hi
        moved = register.moved(n)
        for _ in range(n):
            register.move(1)
        assert register.diagonals.tobytes() == moved.tobytes()
        assert (register.lo, register.hi) == (lo + n, hi + n)

    @pytest.mark.parametrize("offsets, k", [((1,), 3), ((1, 8), 10), ((1, 8), 17), ((1, 64), 66), ((1, 1024), 2049)])
    def test_moved_and_move_are_the_roll_of_the_ring(self, offsets, k):
        # np.roll is the reference: slot s takes slot s - n's values, for
        # every n, negative and past the ring size alike
        rng = np.random.default_rng(k)
        register = DiagonalRegister(offsets, k)
        values = rng.standard_normal(register.diagonals.shape)
        values[:, ::7] = -0.0
        values[:, 1::11] = np.inf
        for n in (0, 1, -1, k - 1, k, k + 1, 3 * k + 2):
            register.diagonals[...] = values
            want = np.roll(values, n, axis=1).tobytes()
            assert register.moved(n).tobytes() == want, n
            register.move(n)
            assert register.diagonals.tobytes() == want, n

    def test_a_moved_window_still_fits_the_ring(self):
        register = DiagonalRegister((1,), 3)
        for label in range(4, 7):
            register.emit(label, 0.5)
        register.move(1)  # the window 5..7 fills the ring
        with unchanged(register), pytest.raises(RuntimeError, match=r"^cannot emit 8 into window 5\.\.7$"):
            register.emit(8, 0.5)

    @given(case=windows())
    @settings(max_examples=150, deadline=None)
    def test_take_reads_the_oldest_labels_rows_and_columns_then_clears_it(self, case):
        # cell j is the dense entry (block, r, c) of key row_keys[j] =
        # 2K block + K + c - r: on the label's row at c - r >= 0, on its
        # column at c - r < 0, the other label |c - r| slots on; each stored
        # entry of the label's q and p rows and columns once
        register, cov, lo, hi = case
        assume(lo <= hi)
        k = register.slots
        s = lo % k
        blocks, offsets = np.divmod(register.row_keys, 2 * k)
        offsets -= k
        assert np.all((-k < offsets) & (offsets < k))
        other = np.where(offsets < 0, (s - offsets) % k, (s + offsets) % k)
        rows = np.where(offsets >= 0, (blocks >> 1) * k + s, (blocks >> 1) * k + other)
        cols = np.where(offsets >= 0, (blocks & 1) * k + other, (blocks & 1) * k + s)
        stored = pattern_mask(register.offsets, k)
        mine = np.zeros_like(stored)
        mine[[s, s + k], :] = mine[:, [s, s + k]] = True
        assert len(set(zip(rows.tolist(), cols.tolist()))) == len(rows) == np.count_nonzero(stored & mine)
        assert stored[rows, cols].all()
        want = cov[rows, cols]
        got = register.take(lo)
        assert got.tobytes() == want.tobytes()
        clear_slot(cov, s)
        assert register.dense().tobytes() == cov.tobytes()
        assert (register.lo, register.hi) == (lo + 1, hi)

    def test_take_checks_the_register_first(self):
        register = DiagonalRegister((1,), 3)
        cov = np.zeros((6, 6))
        cov[1, 1] = 1.0  # label 7, in slot 1
        cov[1, 5] = 0.25  # (q_7, p_8), not its mirror
        open_window(register, cov, 7, 8)
        with unchanged(register), pytest.raises(ValueError, match="symmetric and finite"):
            register.take(7)


@contextmanager
def unchanged(register):
    """Check that the block leaves the register's diagonals and window
    bitwise as they were."""
    diagonals, window = register.diagonals.tobytes(), (register.lo, register.hi)
    yield
    assert register.diagonals.tobytes() == diagonals
    assert (register.lo, register.hi) == window


class TestWindow:
    """The register keeps its live window lo..hi: a kernel refuses a label
    outside it, a measurement or trace of any label but lo, and an emission
    of any label but hi + 1 or past K labels.  A refused call writes
    nothing and leaves the window as it was."""

    @given(case=windows(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_a_label_out_of_place_is_refused(self, case, data):
        register, _, lo, hi = case
        assume(lo <= hi)
        k = register.slots
        near = st.integers(lo - 2 * k, hi + 2 * k)
        # lo + K aliases lo's slot, and hi + 1 is the slot after the window
        outside = st.sampled_from([lo + k, hi + 1, lo - 1]) | near.filter(lambda x: not lo <= x <= hi)
        kernel = data.draw(st.sampled_from(["cz", "nullifier", "measure", "clear", "emit"]))
        if kernel == "cz":
            label, live = data.draw(outside), data.draw(st.integers(lo, hi))
            pair = data.draw(st.permutations([label, live]))
            call, message = lambda: register.cz(*pair), f"label {label} is not live"
        elif kernel == "nullifier":
            label = data.draw(outside)
            call, message = lambda: register.nullifier(label), f"label {label} is not live"
        elif kernel in ("measure", "clear"):
            label = data.draw(near.filter(lambda x: x != lo))
            call, message = lambda: getattr(register, kernel)(label), f"cannot finalize {label}"
        else:
            full = hi - lo + 1 == k
            label = data.draw(near.filter(lambda x: full or x != hi + 1))
            call, message = lambda: register.emit(label, 0.5), f"cannot emit {label} into"
        message = f"^{re.escape(message)}.* window {lo}\\.\\.{hi}$"
        with unchanged(register), pytest.raises(RuntimeError, match=message):
            call()

    def test_an_alias_of_a_live_slot_is_refused(self):
        # an M = 4 lattice's ring of K = 6 slots, window 7..11: label 13 is
        # slot 1, label 7's, and label 12 is the empty slot 0
        register = DiagonalRegister((1, 4), 6)
        for label in range(7, 12):
            register.emit(label, 0.5)
        for label in range(8, 12):
            register.cz(label - 1, label)
        register.cz(7, 11)
        with unchanged(register):
            for call in (
                lambda: register.nullifier(13),
                lambda: register.cz(12, 13),
                lambda: register.cz(7, 12),
                lambda: register.measure(13),
                lambda: register.clear(8),
                lambda: register.emit(13, 0.5),
            ):
                with pytest.raises(RuntimeError, match=r"window 7\.\.11$"):
                    call()
        register.emit(12, 0.5)  # the window fills the ring
        with unchanged(register), pytest.raises(RuntimeError, match=r"^cannot emit 13 into window 7\.\.12$"):
            register.emit(13, 0.5)

    def test_the_first_emission_opens_the_window(self):
        register = DiagonalRegister((1,), 3)
        assert (register.lo, register.hi, register.high_water) == (0, -1, 0)
        register.emit(-5, 0.5)
        assert (register.lo, register.hi, register.high_water) == (-5, -5, 1)
        register.emit(-4, 0.5)
        register.cz(-5, -4)
        register.measure(-5)
        register.clear(-4)
        # empty, but opened: only hi + 1 may follow
        assert (register.lo, register.hi, register.high_water) == (-3, -4, 2)
        with pytest.raises(RuntimeError, match=r"^cannot emit 0 into window -3\.\.-4$"):
            register.emit(0, 0.5)
        register.emit(-3, 0.5)
        assert (register.lo, register.hi, register.high_water) == (-3, -3, 2)


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
        open_window(register, np.zeros((12, 12)), 0, 5)  # six live labels, every entry zero
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


def traced_peak(build):
    """``build()``'s result, with the bytes it still holds and its peak
    traced allocation."""
    gc.collect()
    tracemalloc.start()
    try:
        result = build()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


class TestSetUpAndReadMemory:
    """The register's set-up and its ``entries`` read each allocate what
    they return and little more."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_tables_are_the_broadcast_expression(self, data):
        # the in-place build against the one expression it replaced, bitwise:
        # row s holds, per entry (block, offset, shift), the flat position
        # w K + (s + shift + the column shift of row w) mod K, w the row of
        # (block, offset mod K), on the wire's ring of 3 slots and on
        # lattice rings from reach + 2 slots on
        offsets = data.draw(st.sampled_from([(1,), (1, 2), (1, 3), (1, 8)]))
        k = data.draw(st.integers(offsets[-1] + 2, 3 * offsets[-1] + 6))
        register = DiagonalRegister(offsets, k)
        entry = st.tuples(st.integers(0, 3), st.integers(-3 * k, 3 * k), st.integers(-3 * k, 3 * k))
        lists = data.draw(st.lists(st.lists(entry, max_size=12), min_size=1, max_size=4))
        tables = register._tables(*lists)
        assert len(tables) == len(lists)
        for entries, table in zip(lists, tables):
            blocks, offs, shifts = np.array(entries, dtype=np.intp).reshape(-1, 3).T
            row = {pair: w for w, pair in enumerate(register._stored)}
            rows = np.array([row.get((b, o % k), register._zero) for b, o in zip(blocks, offs)], dtype=np.intp)
            want = rows * k + (np.arange(k)[:, None] + shifts + register._shift[rows]) % k
            assert table.dtype == want.dtype and table.shape == want.shape
            assert table.tobytes() == want.tobytes()

    def test_an_unallocatable_register_fails_at_its_diagonals(self):
        # In a subprocess capped at 1 GiB of address space: the first large
        # allocation of a register of 10^8 + 2 slots is its diagonals,
        # 19 x (10^8 + 2) float64 values (14.2 GiB), so it fails there,
        # before any map or table of K entries is built or written.
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from tcsim.register import DiagonalRegister\n"
            "try:\n"
            "    DiagonalRegister((1, 10**8), 10**8 + 2)\n"
            "except MemoryError as e:\n"
            "    print(e)\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert "with shape (19, 100000002) and data type float64" in result.stdout

    def test_set_up_peaks_at_its_held_bytes(self):
        # Built as one expression, the tables held two more table-sized
        # arrays at once: 9.2 MB over the 13.9 MB held here.
        register, held, peak = traced_peak(lambda: DiagonalRegister((1, 8), 10_000))
        assert peak <= held + 0.5e6

    def test_entries_of_a_full_window_peak_at_their_outputs_plus_one_register(self):
        # Every stored entry of a full window is listed, so the outputs are
        # four register-sized arrays; the read once held six more
        # (8.7 MB of scratch over 5.8 MB of outputs here).
        k = 10_000
        register = DiagonalRegister((1, 8), k)
        entries, held, peak = traced_peak(lambda: register.entries(0, k - 1))
        outputs = sum(x.nbytes for x in entries)
        assert len(entries[3]) * 8 == register.diagonals[:-1].nbytes
        assert peak <= outputs + register.diagonals[:-1].nbytes
