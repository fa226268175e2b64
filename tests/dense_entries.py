"""A dense view of a covariance given entry by entry, shared by the tests
that compare the per-entry oracle with a dense reference."""

import numpy as np


def dense(entries, labels) -> np.ndarray:
    """The 2n x 2n covariance, in block ordering over the ascending
    ``labels``, that holds ``entries`` (block, row label, column label,
    value arrays) and zeros elsewhere.  An entry listed twice, or on a
    label outside ``labels``, fails."""
    block, row, col, value = entries
    labels = np.asarray(labels)
    n = len(labels)
    r, c = np.searchsorted(labels, row), np.searchsorted(labels, col)
    assert np.all(r < n) and np.all(c < n)
    assert np.array_equal(labels[r], row) and np.array_equal(labels[c], col)
    keys = (block * n + r) * n + c
    assert len(np.unique(keys)) == len(keys), "an entry is listed twice"
    cov = np.zeros((2 * n, 2 * n))
    cov[(block >> 1) * n + r, (block & 1) * n + c] = value
    return cov


def assert_lists_every_nonzero_entry(entries, labels, cov) -> None:
    """``entries`` are the nonzero entries of the dense ``cov`` (block
    ordering over ``labels``), bitwise, each listed once and none zero."""
    assert np.all(entries[3] != 0)
    assert dense(entries, labels).tobytes() == cov.tobytes()
    assert len(entries[3]) == np.count_nonzero(cov)
