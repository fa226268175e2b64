"""The streaming pipeline's live register, stored as slot-offset diagonals.

The live modes sit on a ring of K slots, label l in slot l mod K, and the
register alone knows which labels are live: it keeps the window lo..hi, a
first-in, first-out train of consecutive labels.  K is fixed when the
register is built, and a run builds one, of the most modes it holds live.
The modes' 2K x 2K covariance, in block ordering, only ever holds the
pattern of the closed form S diag(a, b) S^T of the topology's graph.  With
d, d1, d2 ranging over the topology's link offsets and their negatives,
entry (r, c), for mode labels l_r and l_c, can be nonzero only at label
offset l_c - l_r equal to

  qq: 0;  qp and pq: d;  pp: d1 - d2.

So the register stores, for each block, only the cyclic diagonals at slot
offsets o = (label offset) mod K, one row of ``diagonals`` per (block, o).
Both halves (r, c) and (c, r) of each entry are stored, as in a dense
buffer, and aligned: the mirror of diagonal (block, o) is (block^T, -o),
and the pairs come first, the rows of one half, then their mirrors in the
same order.  A row of the first half, and a diagonal that is its own mirror
(qq and pp at 0, and pp at K/2 on an even ring), holds entry (r, c) with
row slot s at column s; a mirror row holds it at column s + o, its column
slot.  So an entry and its mirror sit in the same column of their two rows,
and the guard ``check`` compares the two halves as contiguous blocks, with
no gather.  A register of K slots holds a fixed number of diagonals times K
values whatever K is.  Two reads map slots back to labels: ``entries``
lists a window's stored entries as (block, row label, column label, value)
arrays, which ``window`` scatters into a dense matrix, and ``take`` reads
the oldest label's rows and columns, which ``compare`` matches, row by row,
with the closed form.

Each kernel is the dense kernel of :mod:`tcsim.gaussian` restricted to the
pattern: the same arithmetic on the same operands in the same order, so on
a buffer whose zeros are all +0.0 (the register never stores a -0.0) every
stored entry comes out bitwise equal to the dense result.  An update that
would make an entry off the pattern nonzero raises ``ValueError``; a label
outside the window raises ``RuntimeError`` and writes nothing.  Each
kernel is a few numpy operations on index tables built once per ring size:
a kernel's table holds the flat positions of its entries at every slot, one
row per slot, so a call reads one row and runs no loop over entries.  A
stream's tick is two calls, each with one window check: ``emit_linked``
emits a label and links it to each partner, and ``finalize`` guards,
reads the nullifier, measures and clears the oldest label.  They run the
same steps as ``emit``, ``cz``, ``check``, ``nullifier``, ``measure`` and
``clear``, which each check the window on their own.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import cached_property
from itertools import accumulate, chain
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .gaussian import MARGINAL_FLOOR, SYMMETRY_TOL, VACUUM_VARIANCE

# A block is 2 * (row quadrature) + (column quadrature), q = 0 and p = 1.
QQ, QP, PQ, PP = range(4)
Q, P = 0, 1


def pattern(offsets: Sequence[int]) -> Tuple[frozenset, ...]:
    """Per block, the label offsets l_c - l_r at which an entry can be nonzero."""
    links = frozenset(s * d for d in offsets for s in (1, -1))
    return frozenset({0}), links, links, frozenset(a - b for a in links for b in links)


def _aligned(blocks: Tuple[frozenset, ...], k: int) -> Tuple[List[Tuple[int, int]], int]:
    """The stored diagonals (block, slot offset) of a K-slot ring in row
    order, and the number of mirror pairs: the pairs (qp, o) with (pq, -o)
    and (pp, o) with (pp, -o) for 0 < o < K - o, one half in ascending o,
    then the mirrors in the same order; then the diagonals that are their
    own mirrors, qq and pp at 0 and pp at K/2."""
    qp, pp = ({x % k for x in blocks[b]} for b in (QP, PP))
    half = [(QP, o) for o in sorted(qp)] + [(PP, o) for o in sorted(pp) if 0 < o < k - o]
    mirrors = [(2 * (b & 1) + (b >> 1), -o % k) for b, o in half]
    own = [(QQ, 0), (PP, 0)] + [(PP, o) for o in pp if 2 * o == k]
    return half + mirrors + own, len(half)


class DiagonalRegister:
    """The covariance of a K-slot ring, stored as its pattern's diagonals.

    ``diagonals`` has one row per stored (block, slot offset) and one more,
    the last, which is zero and stays so: a table entry off the pattern
    points into it, so a gather reads 0 there, as from a dense buffer.
    Slots that hold no mode are all zeros, as in a dense buffer.  Row w
    holds the entry of row slot s at column s + ``_shift[w]``: s, or on a
    mirror row s + its slot offset, the entry's column slot.

    The live window ``lo..hi`` opens at the first emission's label; then
    ``emit`` appends hi + 1, ``measure`` and ``clear`` take lo, and ``move``
    moves it with the data.  ``high_water`` is the most labels it has held.
    """

    def __init__(self, offsets: Sequence[int], slots: int) -> None:
        self.offsets = tuple(offsets)
        self.slots = k = slots
        # the live window lo..hi, empty while hi < lo, and its largest size
        self.lo, self.hi, self.high_water = 0, -1, 0
        self._stored, p = _aligned(pattern(self.offsets), k)
        self._pairs = p
        self._zero = len(self._stored)
        self._half_ring = self._zero - 2 * p == 3
        # the map of the stored diagonals (block, o) to their rows: the keys
        # 4 o + block, sorted, and each one's row
        self._row = np.array(sorted((4 * o + b, w) for w, (b, o) in enumerate(self._stored))).T
        self._shift = np.zeros(self._zero + 1, dtype=np.intp)
        self._shift[p : 2 * p] = [o for _, o in self._stored[p : 2 * p]]
        self.diagonals = np.zeros((self._zero + 1, k))
        self._flat = self.diagonals.reshape(-1)  # a view: every kernel writes through it
        self._qq0, self._pp0 = self._stored.index((QQ, 0)), self._stored.index((PP, 0))
        links = [o for b, o in self._stored if b == QP]  # a q row's p columns, the first rows
        self._links = links
        # each pair (a, b) of links, by position, in the downdate table's order
        self._pair = np.divmod(np.arange(len(links) ** 2), len(links))

        # The tables every run of these offsets uses, built in one pass: per
        # row at a nonzero offset, the entry of slot k's mode that column k
        # does not hold (its column's, row slot k - o, on a row whose shift
        # is 0; its row's on a mirror row), the downdate, a CZ per offset d
        # (the pipeline's cz(t - d, t)) and a nullifier form per live prefix
        # of the offsets.  Any other CZ is built on first use.
        deltas = sorted({d % k for d in self.offsets})
        keys = [tuple(d % k for d in self.offsets[:n]) for n in range(len(self.offsets) + 1)]
        self._other, self._downdate, *tables = self._tables(
            [(b, o, s - o) for (b, o), s in zip(self._stored, self._shift.tolist()) if o],
            # measure: pair (a, b) of links is the pp entry (p_{k+a}, p_{k+b})
            [(PP, b - a, a) for a in links for b in links],
            *map(self._cz_entries, deltas),
            *map(self._form_entries, keys),
        )
        self._downdate_off = np.flatnonzero(self._downdate[0] // k == self._zero)
        self._cz_kernels = {d: self._cz_kernel(t) for d, t in zip(deltas, tables)}
        self._forms = [self._form_kernel(t) for t in tables[len(deltas) :]]  # by prefix length

    @cached_property
    def row_keys(self) -> np.ndarray:
        """The key 2K block + K + c - r of each entry (block, r, c) that
        :meth:`take` reads, r or c its label and the other on the K labels
        from it on: column k of each stored row (c - r = o on a row whose
        shift is 0, o - K on a mirror row), then the ``_other`` entry of
        each row at o != 0 (the other way round)."""
        k = self.slots
        blocks, offsets = (np.array(x, dtype=np.intp) for x in zip(*self._stored))
        mirror, at = self._shift[: self._zero] != 0, offsets != 0
        offsets = np.concatenate([offsets - k * mirror, (offsets - k * ~mirror)[at]])
        return 2 * k * np.concatenate([blocks, blocks[at]]) + k + offsets

    def _tables(self, *entry_lists: Sequence[Tuple[int, int, int]]) -> List[np.ndarray]:
        """Per kernel, the flat positions of its entries (block, slot offset,
        row slot relative to the kernel's slot) at every slot: row s is the
        kernel's table at slot s.  One pass for all the lists."""
        k = self.slots
        entries = chain.from_iterable(chain.from_iterable(entry_lists))
        blocks, offsets, shifts = np.fromiter(entries, dtype=np.intp).reshape(-1, 3).T
        # each entry's stored row, or the zero row off the pattern
        keys, stored = self._row
        key = offsets % k * 4 + blocks
        at = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
        rows = np.where(keys[at] == key, stored[at], self._zero)
        shifts += self._shift[rows]  # the entry's column at slot 0
        # built in place: one table-sized array, row s holding each entry's
        # column, (s + shift) mod K, plus its row times K
        table = np.empty((k, len(shifts)), dtype=np.intp)
        table[:] = shifts
        table += np.arange(k)[:, None]
        table %= k
        rows *= k
        table += rows
        ends = list(accumulate(map(len, entry_lists)))
        return [table[:, a:b] for a, b in zip([0, *ends], ends)]

    def _refuse_off_pattern(self, values: np.ndarray) -> None:
        if values.any():
            raise ValueError("update would make an entry off the register's diagonals nonzero")

    # Kernels, on live labels: label l is slot l mod K.  Each public kernel
    # checks the window once, then runs its steps, the private methods that
    # take the slot and are the only implementation of each.

    def _live(self, label: int) -> int:
        """The slot of ``label``, which must lie in the window."""
        if not self.lo <= label <= self.hi:
            raise RuntimeError(f"label {label} is not live in window {self.lo}..{self.hi}")
        return label % self.slots

    def _oldest(self, label: int) -> int:
        """The slot of ``label``, which must be the window's oldest, lo."""
        if label != self.lo or label > self.hi:
            raise RuntimeError(f"cannot finalize {label} in window {self.lo}..{self.hi}")
        return label % self.slots

    def _append(self, first: int, last: int, r: float, reach: int = 0) -> None:
        """Let the window take labels first..last, which must start at hi + 1,
        leave at most K labels live and keep first - ``reach`` live."""
        if r < 0:
            raise ValueError("squeezing parameter must be nonnegative")
        # the first emission opens the window at its first label
        lo, hi = (self.lo, self.hi) if self.high_water else (first, first - 1)
        if first != hi + 1 or last - lo >= self.slots or first - reach < lo:
            shown = first if first == last else f"{first}..{last}"
            raise RuntimeError(f"cannot emit {shown} into window {self.lo}..{self.hi}")
        self.lo, self.hi = lo, last
        self.high_water = max(self.high_water, last - lo + 1)

    def _emit(self, k, r: float) -> None:
        """The write of :meth:`emit`, into slot k or each of an array of slots."""
        self.diagonals[self._qq0, k] = VACUUM_VARIANCE * math.exp(2 * r)
        self.diagonals[self._pp0, k] = VACUUM_VARIANCE * math.exp(-2 * r)

    def emit(self, label: int, r: float) -> None:
        """Write a p-squeezed vacuum, diag(e^{2r}/2, e^{-2r}/2), into the
        empty slot of ``label``, which must be hi + 1 and leave at most K
        labels live."""
        self._append(label, label, r)
        self._emit(label % self.slots, r)

    def emit_range(self, labels: range, r: float) -> None:
        """:meth:`emit` of each of ``labels``, a nonempty range of
        consecutive labels, in one call."""
        first, last = labels[0], labels[-1]
        self._append(first, last, r)
        self._emit(np.arange(first, last + 1) % self.slots, r)

    def emit_linked(self, label: int, r: float) -> None:
        """:meth:`emit` of ``label``, then :meth:`cz` of label - d and label
        for each offset d in turn, with one window check, which also needs
        label - reach live."""
        self._append(label, label, r, self.offsets[-1])
        self._emit(label % self.slots, r)
        for d in self.offsets:
            self._cz(label - d, label)

    def _cz_entries(self, delta: int) -> List[Tuple[int, int, int]]:
        """Slots i (at 0) and j (at ``delta``): the row adds p_i += q_j and
        p_j += q_i, then the column adds on the updated q columns, each as
        the targets, then the sources, of one add; then (p_i, p_j) and
        (p_j, p_i)."""
        links = self._links
        rows = [
            ((PQ, delta, 0), (QQ, 0, delta)),
            *(((PP, delta + o, 0), (QP, o, delta)) for o in links),
            ((PQ, -delta, delta), (QQ, 0, 0)),
            *(((PP, o - delta, delta), (QP, o, 0)) for o in links),
        ]
        # column q_s holds (p_{s-o}, q_s), the pq entry of offset o at row slot
        # s - o; the pq offsets are the links, the pattern being symmetric
        columns = [
            ((QP, -delta, delta), (QQ, 0, delta)),
            *(((PP, o - delta, delta - o), (PQ, o, delta - o)) for o in links),
            ((QP, delta, 0), (QQ, 0, 0)),
            *(((PP, delta + o, -o), (PQ, o, -o)) for o in links),
        ]
        return [
            *(t for t, _ in rows), *(s for _, s in rows),
            *(t for t, _ in columns), *(s for _, s in columns),
            (PP, delta, 0), (PP, -delta, delta),
        ]

    def _cz_kernel(self, table: np.ndarray) -> tuple:
        """A CZ table as views, one per run of its columns: the row adds'
        targets and sources, the column adds' targets and sources, and the
        mirror's target and source; then the entries of each add that fall
        off the pattern."""
        n = (table.shape[1] - 2) // 4
        off = table[0] // self.slots == self._zero
        runs = [table[:, j * n : (j + 1) * n] for j in range(4)]
        off_rows, off_columns = np.flatnonzero(off[:n]), np.flatnonzero(off[2 * n : 3 * n])
        return (*runs, table[:, -1], table[:, -2], off_rows, off_columns)

    def cz(self, a: int, b: int) -> None:
        """Unit-weight CZ on live labels a and b: :meth:`_cz`."""
        lo, hi = self.lo, self.hi
        if not (lo <= a <= hi and lo <= b <= hi):
            label = b if lo <= a <= hi else a
            raise RuntimeError(f"label {label} is not live in window {lo}..{hi}")
        self._cz(a, b)

    def _cz(self, a: int, b: int) -> None:
        """Unit-weight CZ on labels a and b, in slots i and j:
        :func:`gaussian.cz_slots` on the stored entries, the two row adds as
        one step, the two column adds (which read the updated q columns) as
        the next, then (p_j, p_i) mirrored from (p_i, p_j)."""
        i = a % self.slots
        delta = (b - a) % self.slots
        if not delta:
            raise ValueError("CZ requires two distinct slots")
        found = self._cz_kernels.get(delta)
        if found is None:
            found = self._cz_kernels[delta] = self._cz_kernel(self._tables(self._cz_entries(delta))[0])
        row_to, row_from, column_to, column_from, mirror, mirrored, off_rows, off_columns = found
        flat = self._flat
        sources = row_from[i]
        if off_rows.size:
            self._refuse_off_pattern(flat[sources[off_rows]])
        flat[row_to[i]] += flat[sources]
        sources = column_from[i]
        if off_columns.size:
            self._refuse_off_pattern(flat[sources[off_columns]])
        flat[column_to[i]] += flat[sources]
        flat[mirror[i]] = flat[mirrored[i]]

    def finalize(self, label: int, nullifier: bool) -> Tuple[Optional[float], float, np.ndarray]:
        """:meth:`check`, then :meth:`nullifier` of the oldest label if
        ``nullifier`` (else None), then :meth:`measure` of it, with one
        window check; returns the nullifier, var and b_keep."""
        k = self._oldest(label)
        self.check()
        variance = self._nullifier(label, k) if nullifier else None
        return (variance, *self._measure(label, k))

    def measure(self, label: int) -> Tuple[float, np.ndarray]:
        """Homodyne-measure q on the oldest label, in slot k:
        :func:`gaussian.measure_slot` on the stored entries, then
        :meth:`clear`.  The q column's support is slot k's q and the p of
        its links, so the downdate (b_a b_b) / var falls on the pp entries
        of those links.  Returns var and b_keep, the q row over the
        n = hi - label labels after it (their q, then their p), as a dense
        row reads it: link o is position o - 1.  This is the one check of
        the pinned feedforward convention (one unit-weight CZ, q-basis
        deletion): an entry that is not bitwise +0.0 or var is refused, as
        is a var under the floor, and a refused measurement writes nothing."""
        return self._measure(label, self._oldest(label))

    def _measure(self, label: int, k: int) -> Tuple[float, np.ndarray]:
        n = self.hi - label
        var = float(self.diagonals[self._qq0, k])
        b = self.diagonals[: len(self._links), k]
        b_keep = np.zeros(2 * n)
        for o, x in zip(self._links, b.tolist()):
            if o <= n and var and x == var:  # equal to a nonzero var: its bits
                b_keep[n + o - 1] = var
            elif o <= n and (x or math.copysign(1.0, x) < 0):
                raise ValueError(
                    f"node {label}: stored measurement is off the pinned feedforward "
                    "convention (var > 0, every b_keep entry +0.0 or var)"
                )
        if var < MARGINAL_FLOOR:
            raise ValueError(f"degenerate marginal variance {var:.3e} on mode {label!r}")
        first, second = self._pair
        downdate = b[first] * b[second]
        downdate /= var
        if self._downdate_off.size:
            self._refuse_off_pattern(downdate[self._downdate_off])
        self._flat[self._downdate[k]] -= downdate
        self._clear(label, k)
        return var, b_keep

    def clear(self, label: int) -> None:
        """Discard the oldest label's mode, in slot k: zero its q and p rows
        and their mirrors, which are its q and p columns: column k of every
        row and the entry of each row that ``_other`` gives; the window then
        starts at label + 1."""
        self._clear(label, self._oldest(label))

    def take(self, label: int) -> np.ndarray:
        """:meth:`check`, read the oldest label's q and p rows and columns
        (the cells :meth:`clear` zeroes, each once, in a new array, in
        ``row_keys``' order), then clear it, with one window check."""
        k = self._oldest(label)
        self.check()
        cells = np.concatenate((self.diagonals[: self._zero, k], self._flat[self._other[k]]))
        self._clear(label, k)
        return cells

    def _clear(self, label: int, k: int) -> None:
        self.diagonals[:, k] = 0.0
        self._flat[self._other[k]] = 0.0
        self.lo = label + 1

    @staticmethod
    def _form_entries(key: Tuple[int, ...]) -> List[Tuple[int, int, int]]:
        """The nullifier form over the q of slots k + s for s in ``key``, then
        p_k: entry [y, x] is (mode x, mode y), so its transpose is the form."""
        modes = [(Q, s) for s in key] + [(P, 0)]
        return [(2 * bx + by, sy - sx, sx) for by, sy in modes for bx, sx in modes]

    @staticmethod
    def _form_kernel(table: np.ndarray) -> tuple:
        """A form table, its size n and its vector (-1, ..., -1, 1)."""
        n = math.isqrt(table.shape[1])
        v = np.full(n, -1.0)
        v[-1] = 1.0
        return table, n, v

    def nullifier(self, label: int) -> float:
        """:func:`gaussian.nullifier_slot`: v^T C v over the q of ``label``'s
        live neighbours label + d (d in the ascending ``offsets``, up to hi),
        then its p, gathered in the same (column-major) layout as the dense
        kernel's two-step gather."""
        return self._nullifier(label, self._live(label))

    def _nullifier(self, label: int, k: int) -> float:
        table, n, v = self._forms[bisect_right(self.offsets, self.hi - label)]
        form = self._flat[table[k]].reshape(n, n).T
        return float(v @ form @ v)

    def check(self) -> None:
        """Reject a register whose stored entries are not mirrored within
        ``SYMMETRY_TOL`` or are not finite: the dense guard
        :func:`gaussian._check_symmetric` on the stored entries (off the
        pattern, the dense buffer holds zeros).  An entry and its mirror
        share a column: the mirror rows follow the first half in the same
        order, a diagonal entry is its own mirror, and pp at K/2 pairs each
        entry with the one half a ring on.  The kernels keep the register
        exactly mirrored, so it passes at once when every pair is equal and
        every entry finite; else the defects are computed."""
        p, z, d = self._pairs, self._zero, self.diagonals
        h = self.slots // 2
        ok = np.empty((z, self.slots), dtype=bool)  # a flag per stored entry
        np.equal(d[:p], d[p : 2 * p], out=ok[:p])
        np.isfinite(d[p:z], out=ok[p:])
        if self._half_ring:  # pp at K/2, the last row: a pair equal to a finite second is finite
            np.equal(d[z - 1, :h], d[z - 1, h:], out=ok[z - 1, :h])
        if np.count_nonzero(ok) == ok.size:
            return
        own = d[2 * p : 2 * p + 2]
        defects = [d[:p] - d[p : 2 * p], own - own]
        if self._half_ring:
            defects.append(d[z - 1, :h] - d[z - 1, h:])
        if not all(x.max() <= SYMMETRY_TOL and x.min() >= -SYMMETRY_TOL for x in defects):
            raise ValueError("covariance matrix is not symmetric and finite")

    # Reads and relabellings, on a window of consecutive labels.

    def entries(self, lo: int, hi: int) -> Tuple[np.ndarray, ...]:
        """Every stored entry whose two modes both lie in labels lo..hi, a
        window of at most K labels, as numpy arrays of its block, row label,
        column label and value, in flat order: a window's slot s holds label
        lo + ((s - lo) mod K)."""
        k, n = self.slots, max(hi - lo + 1, 0)
        blocks, offsets = np.array(self._stored).T
        # the window position of each stored entry's row mode, its column
        # less its row's shift, and of its column mode, in the diagonals'
        # layout: the two scratch arrays
        row = np.empty((self._zero, k), dtype=np.intp)
        row[:] = np.arange(k) - lo
        row -= self._shift[:-1, None]
        row %= k
        col = row + offsets[:, None]
        col %= k
        live = col < n
        live &= row < n
        row = row[live]
        row += lo
        col = col[live]
        col += lo
        block = np.repeat(blocks, np.count_nonzero(live, axis=1))
        return block, row, col, self.diagonals[: self._zero][live]

    def window(self, lo: int, hi: int) -> np.ndarray:
        """The dense 2n x 2n covariance of labels lo..hi, in label order:
        :meth:`entries` at their modes' window positions."""
        n = max(hi - lo + 1, 0)
        block, row, col, value = self.entries(lo, hi)
        cov = np.zeros((2 * n, 2 * n))
        cov[(block >> 1) * n + row - lo, (block & 1) * n + col - lo] = value
        return cov

    def dense(self) -> np.ndarray:
        """The dense 2K x 2K buffer, in slot order."""
        return self.window(0, self.slots - 1)

    def load(self, cov: np.ndarray) -> None:
        """Take the dense 2K x 2K buffer ``cov`` (slot order); a nonzero entry
        off the pattern is refused."""
        k = self.slots
        # every stored entry, in flat order: its block, row slot and column slot
        blocks, offsets = np.array(self._stored).T
        block = np.repeat(blocks, k)
        rslot = np.tile(np.arange(k), self._zero) - np.repeat(self._shift[:-1], k)
        rslot %= k
        cslot = (rslot + np.repeat(offsets, k)) % k
        rows, cols = (block >> 1) * k + rslot, (block & 1) * k + cslot
        rest = np.array(cov, dtype=float)
        values = rest[rows, cols]
        rest[rows, cols] = 0.0
        self._refuse_off_pattern(rest)
        self._flat[: self._zero * k] = values

    def moved(self, n: int = 1) -> np.ndarray:
        """A copy of the diagonals after the move of n labels on: the roll
        of the ring that takes slot s - n's values to slot s (a row's shift
        is the same at every column, so its entries move alike), written
        as two slice copies."""
        d, k = self.diagonals, self.slots
        n %= k
        out = np.empty_like(d)
        out[:, n:] = d[:, : k - n]
        out[:, :n] = d[:, k - n :]
        return out

    def move(self, n: int) -> None:
        """:meth:`moved` in place; the window moves n labels on."""
        self.diagonals[...] = self.moved(n)
        self.lo += n
        self.hi += n
