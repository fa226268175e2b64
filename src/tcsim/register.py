"""The streaming pipeline's live register, stored as slot-offset diagonals.

The live modes sit on a ring of K slots, label l in slot l mod K.  Every
kernel and read takes mode labels and maps each to its slot, so the ring's
layout is known to this module alone; K is fixed when the register is
built, and a run builds one, of the most modes it holds live.  The modes'
2K x 2K covariance, in block ordering, only ever holds the pattern of the
closed form S diag(a, b) S^T of the topology's graph.  With d, d1, d2
ranging over the topology's link offsets and their negatives, entry (r, c),
for mode labels l_r and l_c, can be nonzero only at label offset
l_c - l_r equal to

  qq: 0;  qp and pq: d;  pp: d1 - d2.

So the register stores, for each block, only the cyclic diagonals at slot
offsets o = (label offset) mod K: entry (r, c) with row slot s and column
slot s + o (mod K) is ``diagonals[w, s]``, w the row of (block, o).  Both
halves (r, c) and (c, r) of each entry are stored, as in a dense buffer, so
a register of K slots holds a fixed number of diagonals times K values
whatever K is.  One read, ``entries(lo, hi)``, lists the stored entries of
a window of labels as (block, row label, column label, value) arrays: it is
the one map from slots back to labels, ``window`` scatters it into a dense
matrix, and ``compare`` matches it with the per-entry closed form.

Each kernel is the dense kernel of :mod:`tcsim.gaussian` restricted to the
pattern: the same arithmetic on the same operands in the same order, so on
a buffer whose zeros are all +0.0 (the register never stores a -0.0) every
stored entry comes out bitwise equal to the dense result.  An update that
would make an entry off the pattern nonzero raises ``ValueError``.  Each
kernel is a few numpy operations on index tables built once per ring size:
a kernel's table holds the flat positions of its entries at every slot, one
row per slot, so a call reads one row and runs no loop over entries.
"""

from __future__ import annotations

import math
from itertools import accumulate, chain
from typing import List, Sequence, Tuple

import numpy as np

from .gaussian import MARGINAL_FLOOR, SYMMETRY_TOL, VACUUM_VARIANCE

# A block is 2 * (row quadrature) + (column quadrature), q = 0 and p = 1.
QQ, QP, PQ, PP = range(4)
Q, P = 0, 1


def pattern(offsets: Sequence[int]) -> Tuple[frozenset, ...]:
    """Per block, the label offsets l_c - l_r at which an entry can be nonzero."""
    links = frozenset(s * d for d in offsets for s in (1, -1))
    return frozenset({0}), links, links, frozenset(a - b for a in links for b in links)


class DiagonalRegister:
    """The covariance of a K-slot ring, stored as its pattern's diagonals.

    ``diagonals`` has one row per stored (block, slot offset) and one more,
    the last, which is zero and stays so: a table entry off the pattern
    points into it, so a gather reads 0 there, as from a dense buffer.
    Slots that hold no mode are all zeros, as in a dense buffer.
    """

    def __init__(self, offsets: Sequence[int], slots: int) -> None:
        self.offsets = tuple(offsets)
        self.slots = k = slots
        self._stored = [
            (block, o)
            for block, label_offsets in enumerate(pattern(self.offsets))
            for o in sorted({x % k for x in label_offsets})
        ]
        self._zero = len(self._stored)
        # the row of diagonal (block, o), or the zero row off the pattern
        self._row = np.full((4, k), self._zero)
        for w, (block, o) in enumerate(self._stored):
            self._row[block, o] = w
        self.diagonals = np.zeros((self._zero + 1, k))
        self._flat = self.diagonals.reshape(-1)  # a view: every kernel writes through it
        self._size = self._zero * k
        self._qq0, self._pp0 = int(self._row[QQ, 0]), int(self._row[PP, 0])
        links = [o for b, o in self._stored if b == QP]  # a q row's p columns
        self._link_rows = self._row[QP, links]
        # measured_row: each link's window position o - 1 and its row
        self._link_at = [(o - 1, int(w)) for o, w in zip(links, self._link_rows)]
        self._links = links

        # The tables every run of these offsets uses, built in one pass: the
        # mirrors, the downdate, a CZ per offset d (the pipeline's cz(t - d, t))
        # and a nullifier form per live prefix of the offsets.  Any other CZ
        # or form is built on first use.
        deltas = sorted({d % k for d in self.offsets})
        keys = [tuple(d % k for d in self.offsets[:n]) for n in range(len(self.offsets) + 1)]
        mirrors, self._downdate, *tables = self._tables(
            # the mirror (c, r) of stored entry (r, c): the entry of offset -o
            # at row slot s + o, stored too, the pattern being symmetric
            [(2 * (b & 1) + (b >> 1), -o, o) for b, o in self._stored],
            # measure: pair (a, b) of links is the pp entry (p_{k+a}, p_{k+b})
            [(PP, b - a, a) for a in links for b in links],
            *map(self._cz_entries, deltas),
            *map(self._form_entries, keys),
        )
        self._mirror = mirrors.T.ravel()  # in flat order
        self._downdate_off = np.flatnonzero(self._downdate[0] // k == self._zero)
        self._cz = {d: self._cz_kernel(t) for d, t in zip(deltas, tables)}
        self._forms = {key: self._form_kernel(t) for key, t in zip(keys, tables[len(deltas) :])}

    def _entries(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every stored entry, in flat order: its block, row slot and column slot."""
        k = self.slots
        blocks, shifts = np.array(self._stored).T
        block = np.repeat(blocks, k)
        rslot = np.tile(np.arange(k), self._zero)
        cslot = (rslot + np.repeat(shifts, k)) % k
        return block, rslot, cslot

    def _tables(self, *entry_lists: Sequence[Tuple[int, int, int]]) -> List[np.ndarray]:
        """Per kernel, the flat positions of its entries (block, slot offset,
        row slot relative to the kernel's slot) at every slot: row s is the
        kernel's table at slot s.  One pass for all the lists."""
        k = self.slots
        entries = chain.from_iterable(chain.from_iterable(entry_lists))
        blocks, offsets, shifts = np.fromiter(entries, dtype=np.intp).reshape(-1, 3).T
        table = self._row[blocks, offsets % k] * k + (np.arange(k)[:, None] + shifts) % k
        ends = list(accumulate(map(len, entry_lists)))
        return [table[:, a:b] for a, b in zip([0, *ends], ends)]

    def _refuse_off_pattern(self, values: np.ndarray) -> None:
        if values.any():
            raise ValueError("update would make an entry off the register's diagonals nonzero")

    # Kernels, on mode labels: label l is slot l mod K.

    def emit(self, label: int, r: float) -> None:
        """Write a p-squeezed vacuum, diag(e^{2r}/2, e^{-2r}/2), into the
        empty slot of ``label``."""
        if r < 0:
            raise ValueError("squeezing parameter must be nonnegative")
        k = label % self.slots
        self.diagonals[self._qq0, k] = VACUUM_VARIANCE * math.exp(2 * r)
        self.diagonals[self._pp0, k] = VACUUM_VARIANCE * math.exp(-2 * r)

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
        """A CZ table, its add length and the entries of each add that fall
        off the pattern."""
        n = (table.shape[1] - 2) // 4
        off = table[0] // self.slots == self._zero
        return table, n, np.flatnonzero(off[:n]), np.flatnonzero(off[2 * n : 3 * n])

    def cz(self, a: int, b: int) -> None:
        """Unit-weight CZ on labels a and b, in slots i and j:
        :func:`gaussian.cz_slots` on the stored entries, the two row adds as
        one step, the two column adds (which read the updated q columns) as
        the next, then (p_j, p_i) mirrored from (p_i, p_j)."""
        i = a % self.slots
        delta = (b - a) % self.slots
        if not delta:
            raise ValueError("CZ requires two distinct slots")
        found = self._cz.get(delta)
        if found is None:
            found = self._cz[delta] = self._cz_kernel(self._tables(self._cz_entries(delta))[0])
        table, n, off_rows, off_columns = found
        flat, at = self._flat, table[i]
        targets, sources = at[:n], at[n : 2 * n]
        if off_rows.size:
            self._refuse_off_pattern(flat[sources[off_rows]])
        flat[targets] += flat[sources]
        targets, sources = at[2 * n : 3 * n], at[3 * n : 4 * n]
        if off_columns.size:
            self._refuse_off_pattern(flat[sources[off_columns]])
        flat[targets] += flat[sources]
        flat[at[-1]] = flat[at[-2]]

    def measure(self, label: int) -> None:
        """Homodyne-measure q on ``label``, in slot k:
        :func:`gaussian.measure_slot` on the stored entries.  The q column's
        support is slot k's q and the p of its links, so the downdate
        (b_a b_b) / var falls on the pp entries of those links, and the mode
        is then cleared."""
        k = label % self.slots
        var = self.diagonals[self._qq0, k]
        if var < MARGINAL_FLOOR:
            raise ValueError(f"degenerate marginal variance {var:.3e} on mode {label!r}")
        b = self.diagonals[self._link_rows, k]
        downdate = b[:, None] * b
        downdate /= var
        downdate = downdate.reshape(-1)
        if self._downdate_off.size:
            self._refuse_off_pattern(downdate[self._downdate_off])
        self._flat[self._downdate[k]] -= downdate
        self.clear(label)

    def clear(self, label: int) -> None:
        """Discard ``label``'s mode, in slot k: zero its q and p rows, then
        their mirrors, which are its q and p columns."""
        k = label % self.slots
        self.diagonals[:, k] = 0.0
        self._flat[self._mirror[k :: self.slots]] = 0.0

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

    def nullifier(self, label: int, neighbours: Sequence[int]) -> float:
        """:func:`gaussian.nullifier_slot`: v^T C v over the q of the
        ``neighbours`` (labels), in the order given, then ``label``'s p,
        gathered in the same (column-major) layout as the dense kernel's
        two-step gather."""
        k = label % self.slots
        key = tuple((s - label) % self.slots for s in neighbours)
        found = self._forms.get(key)
        if found is None:
            found = self._forms[key] = self._form_kernel(self._tables(self._form_entries(key))[0])
        table, n, v = found
        form = self._flat[table[k]].reshape(n, n).T
        return float(v @ form @ v)

    def check(self) -> None:
        """Reject a register whose stored entries are not mirrored within
        ``SYMMETRY_TOL`` or are not finite: the dense guard
        :func:`gaussian._check_symmetric` on the stored entries (off the
        pattern, the dense buffer holds zeros)."""
        stored = self._flat[: self._size]
        defect = stored - self._flat[self._mirror]
        if not (defect.max() <= SYMMETRY_TOL):
            raise ValueError("covariance matrix is not symmetric and finite")

    # Reads and relabellings, on a window of consecutive labels.

    def measured_row(self, label: int, n: int) -> Tuple[float, np.ndarray]:
        """``label``'s q variance var and its q row over the n labels that
        follow it (their q, then their p, in label order), as a dense row
        reads them: a link o of the label is window position o - 1, and only
        the p entries of links can be nonzero.  This is the one check of the
        pinned feedforward convention (one unit-weight CZ, q-basis
        deletion): each entry is +0.0 or var, and one that is neither,
        bitwise, is refused."""
        column = self.diagonals[:, label % self.slots].tolist()
        var, b_keep = column[self._qq0], np.zeros(2 * n)
        for at, w in self._link_at:
            if at < n and var and column[w] == var:  # equal to a nonzero var: its bits
                b_keep[n + at] = var
            elif at < n and (column[w] or math.copysign(1.0, column[w]) < 0):
                raise ValueError(
                    f"node {label}: stored measurement is off the pinned feedforward "
                    "convention (var > 0, every b_keep entry +0.0 or var)"
                )
        return var, b_keep

    def entries(self, lo: int, hi: int) -> Tuple[np.ndarray, ...]:
        """Every stored entry whose two modes both lie in labels lo..hi, a
        window of at most K labels, as numpy arrays of its block, row label,
        column label and value, in flat order.  The one map from slots back
        to labels: a window's slot s holds label lo + ((s - lo) mod K)."""
        n = max(hi - lo + 1, 0)
        block, rslot, cslot = self._entries()
        at = (np.arange(self.slots) - lo) % self.slots
        r, c = at[rslot], at[cslot]
        live = np.flatnonzero((r < n) & (c < n))
        return block[live], lo + r[live], lo + c[live], self._flat[live]

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
        block, rslot, cslot = self._entries()
        rows, cols = (block >> 1) * k + rslot, (block & 1) * k + cslot
        rest = np.array(cov, dtype=float)
        values = rest[rows, cols]
        rest[rows, cols] = 0.0
        self._refuse_off_pattern(rest)
        self._flat[: self._size] = values

    def rolled(self, n: int) -> np.ndarray:
        """A copy of the diagonals with slot s holding slot s - n's values:
        the register relabelled n labels on."""
        return np.roll(self.diagonals, n, axis=1)

    def roll(self, n: int) -> None:
        """Relabel in place: slot s takes slot s - n's values."""
        self.diagonals[...] = self.rolled(n)
