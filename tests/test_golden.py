"""The golden corpus (``tests/golden``): every argv's exit code, output bytes
and kernel-tick count, and every seeded comparison's gap, as the manifest
recorded them.  A change meant to keep every output byte passes unchanged;
one that changes bytes on purpose regenerates the manifest with
``tests/golden/regen.py`` and names each changed entry.

Generator values are not promised to stay the same across numpy versions
(NEP 19), so a mismatch on another numpy is a finding to record, not a
reason to loosen this test."""

import json

import pytest

from golden.regen import MANIFEST, digest, gap, run

ENTRIES = json.loads(MANIFEST.read_text())


@pytest.mark.parametrize("entry", ENTRIES["runs"], ids=[" ".join(e["argv"]) for e in ENTRIES["runs"]])
def test_run_keeps_its_bytes_exit_code_and_kernel_ticks(entry, tmp_path):
    result = run(entry["argv"], tmp_path)
    want = {key: value for key, value in entry.items() if key != "argv"}
    got = digest(result)
    if got != want:
        # the new bytes, for a diff against the parent's
        for name, data in result.items():
            if isinstance(data, bytes):
                (tmp_path / f"new.{name}").write_bytes(data)
        changed = sorted(key for key in want if got[key] != want[key])
        pytest.fail(f"tcsim {' '.join(entry['argv'])}: {', '.join(changed)} changed; new outputs in {tmp_path}")


def test_every_comparison_keeps_its_gap_bitwise():
    changed = [entry for entry in ENTRIES["gaps"] if gap(*entry[:-1]) != entry[-1]]
    assert changed == [], f"[width, N, dB, first, last, seed, recorded gap] of each changed gap: {changed}"
