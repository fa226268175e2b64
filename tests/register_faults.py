"""A faulty CZ for the live register, shared by the tests that patch it in."""


def weighted_cz(weight):
    """``DiagonalRegister._cz``, the CZ step that ``cz`` and
    ``emit_linked`` run, with a CZ of ``weight`` in place of 1: the dense
    kernel ``gaussian.cz_slots``, weighted, on the register's buffer, on
    labels a and b in slots a mod K and b mod K."""
    def cz(register, a, b):
        i, j = a % register.slots, b % register.slots
        cov = register.dense()
        n = len(cov) // 2
        cov[n + i, :] += weight * cov[j, :]
        cov[n + j, :] += weight * cov[i, :]
        cov[:, n + i] += weight * cov[:, j]
        cov[:, n + j] += weight * cov[:, i]
        cov[n + j, n + i] = cov[n + i, n + j]
        register.load(cov)
    return cz
