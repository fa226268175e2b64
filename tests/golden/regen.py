"""The golden corpus: what the CLI and ``equivalence_check`` give on a fixed
set of inputs, recorded in ``manifest.json`` and checked by
``tests/test_golden.py``, so that a change meant to keep every output byte
is a tier-1 test.

For each argv of ``ARGVS`` the manifest holds the exit code, the sha256 and
byte length of stdout, stderr, ``--out`` and ``--csv``, and the number of
ticks that ran kernels (``TemporalPipeline.tick`` calls).  For each of
``GAP_COUNT`` seeded comparison configs it holds the config and
``equivalence_check``'s gap as ``float.hex``.

A change that alters output on purpose rewrites the manifest from the tree,
and names every changed entry and why::

    PYTHONPATH=src python tests/golden/regen.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path
from typing import Dict, List, Optional

from tcsim.cli import main
from tcsim.gaussian import db_to_r
from tcsim.pipeline import PipelineConfig, TemporalPipeline, equivalence_check

MANIFEST = Path(__file__).with_name("manifest.json")

#: Stand-ins for the files an argv writes, replaced by paths in a scratch
#: directory; their bytes are recorded as ``out`` and ``csv``.
OUT, CSV = "{out}", "{csv}"


def _bench_argvs() -> List[str]:
    """The benchmark's three workloads, at seeds 1 and 7919, at N and at
    its small N (N / 10, but at least 2M)."""
    argvs = []
    for seed in (1, 7919):
        for n in (2000, 200):
            argvs.append(f"wire --nodes {n} --squeezing-db 10.0 --emit-records --seed {seed} --out {OUT}")
        for n in (640, 128):
            argvs.append(
                f"lattice --nodes {n} --width 64 --squeezing-db 10.0 --verify --seed {seed} "
                f"--out {OUT} --csv {CSV}"
            )
        for n in (120, 16):
            argvs.append(
                f"compare --topology lattice --nodes {n} --width 8 --range {n // 3}..{n} "
                f"--squeezing-db 10.0 --seed {seed} --out {OUT}"
            )
    return argvs


#: The CI workflow's console-script argvs, each under 1 s in-process.
_CI_ARGVS = [
    "unfold --width 4 --cols 4",
    "compare --topology lattice --nodes 1000000 --width 8 --squeezing-db 10 --range 999900..1000000",
    "compare --topology lattice --nodes 1000000 --width 8 --squeezing-db 10 --range 40..120",
    "compare --topology lattice --nodes 2000 --width 64 --squeezing-db 10 --range 1500..2000",
    "compare --topology lattice --nodes 2048 --width 256 --squeezing-db 10 --range 1500..2048",
    "compare --topology lattice --nodes 1000000 --width 8 --squeezing-db 10 --range 900001..1000000",
    "compare --topology lattice --nodes 100000 --width 64 --squeezing-db 10 --range 1..20000",
    "compare --topology wire --nodes 1000000 --squeezing-db 10 --range 1..1000000",
    "compare --topology lattice --nodes 1000000 --width 1024 --squeezing-db 10 --range 1..1000000",
    f"lattice --nodes 4096 --width 1024 --squeezing-db 10 --verify --out {OUT}",
    f"lattice --nodes 8192 --width 2048 --squeezing-db 10 --verify --out {OUT}",
    f"wire --nodes 100000 --squeezing-db 10 --verify --emit-records --out {OUT}",
    f"lattice --nodes 100000 --width 8 --squeezing-db 10 --verify --emit-records --csv {CSV} --out {OUT}",
    f"lattice --nodes 100000 --width 8 --squeezing-db 10 --emit-records --out {OUT}",
    f"lattice --nodes 10000 --width 64 --squeezing-db 10 --emit-records --out {OUT}",
]

_OTHER_ARGVS = [
    # failed checks (exit 1): one ulp of 70 dB entries, and r = 10 nullifiers
    "compare --topology lattice --nodes 120 --width 8 --range 40..120 --squeezing-db 70 --seed 1",
    "wire --nodes 10 --squeezing-r 10 --verify",
    # usage errors (exit 2)
    "wire --nodes 5 --squeezing-r nan",
    "wire --nodes 5 --squeezing-r 400 --verify",
    "compare --topology wire --nodes 10 --range 5..20",
    # acceptance criterion 7's run
    f"lattice --nodes 400 --width 4 --squeezing-db 10 --seed 7 --emit-records --out {OUT}",
    # comparisons from the first stripe, short ranges, and wide squeezing
    "compare --topology lattice --nodes 120 --width 8 --squeezing-db 10 --range 1..120",
    "compare --topology lattice --nodes 60 --width 3 --squeezing-db 10 --range 30..35",
    "compare --topology lattice --nodes 40 --width 4 --squeezing-db 10 --range 1..10",
    "compare --topology wire --nodes 200 --squeezing-db 40 --range 1..200",
    "compare --topology wire --nodes 50 --squeezing-db 0 --range 20..30",
]


def _short_argvs() -> List[str]:
    """Runs of N = 2 reach + 2, too short to certify, and 2 reach + 3, with
    every output on stdout or in the CSV."""
    argvs = []
    for topology, reach in (("wire", 1), ("lattice", 3), ("lattice", 8)):
        width = f" --width {reach}" if topology == "lattice" else ""
        for n in (2 * reach + 2, 2 * reach + 3):
            argvs.append(
                f"{topology} --nodes {n}{width} --squeezing-db 10 --seed 5 --verify "
                f"--emit-records --csv {CSV}"
            )
    return argvs


ARGVS: List[List[str]] = [
    argv.split()
    for argv in _bench_argvs() + _CI_ARGVS + _OTHER_ARGVS + _short_argvs()
    + [f"unfold --width {m} --cols {k}" for m in range(2, 7) for k in range(1, 9)]
]

#: How many seeded comparison configs record their gap, and the seed.
GAP_COUNT, GAP_SEED = 400, 16


def run(argv: List[str], directory: Path) -> Dict[str, object]:
    """One in-process ``main`` call: its exit code, ticks that ran kernels,
    and the bytes of stdout, stderr and the files it wrote (None if none)."""
    files = {"out": directory / "out.json", "csv": directory / "out.csv"}
    for path in files.values():
        path.unlink(missing_ok=True)
    argv = [str(files["out"]) if a == OUT else str(files["csv"]) if a == CSV else a for a in argv]
    stdout, stderr, ticks = io.StringIO(), io.StringIO(), []
    tick = TemporalPipeline.tick

    def counted(self, t):
        if isinstance(self, TemporalPipeline):  # not ``tick_events``' stand-in
            ticks.append(t)
        tick(self, t)

    TemporalPipeline.tick = counted
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    finally:
        TemporalPipeline.tick = tick
    result = {"exit": code, "ticks": len(ticks),
              "stdout": stdout.getvalue().encode(), "stderr": stderr.getvalue().encode()}
    for name, path in files.items():
        result[name] = path.read_bytes() if path.exists() else None
    return result


def _digest(data: Optional[bytes]) -> Optional[List[object]]:
    return None if data is None else [len(data), hashlib.sha256(data).hexdigest()]


def digest(result: Dict[str, object]) -> Dict[str, object]:
    """A run's manifest entry, its argv aside: the byte outputs hashed."""
    return {key: value if key in ("exit", "ticks") else _digest(value) for key, value in result.items()}


def gap_configs() -> List[List[object]]:
    """``GAP_COUNT`` seeded comparisons as [width, N, dB, first, last, seed],
    width 0 for a wire and 2, 3, 4, 8 or 16 for a lattice, at 0-40 dB,
    each range anywhere in 1..N."""
    rng = random.Random(GAP_SEED)
    configs = []
    for _ in range(GAP_COUNT):
        width = rng.choice((0, 2, 3, 4, 8, 16))
        n = rng.randint(1, 200) if width == 0 else rng.randint(2 * width, 12 * width)
        first = rng.randint(1, n)
        last = rng.randint(first, n)
        configs.append([width, n, round(rng.uniform(0, 40), 2), first, last, rng.randint(0, 9999)])
    return configs


def gap(width: int, n: int, db: float, first: int, last: int, seed: int) -> str:
    topology = "lattice" if width else "wire"
    config = PipelineConfig(topology, n, width=width, squeezing_r=db_to_r(db), seed=seed)
    return equivalence_check(config, (first, last)).hex()


def build(directory: Path) -> Dict[str, object]:
    runs = [{"argv": argv, **digest(run(argv, directory))} for argv in ARGVS]
    gaps = [[*config, gap(*config)] for config in gap_configs()]
    return {"runs": runs, "gaps": gaps}


def write(manifest: Dict[str, object]) -> None:
    """One line per entry, so a changed entry is one line of a diff."""
    lines = ["{", '"runs": [']
    lines += [json.dumps(entry, sort_keys=True) + "," for entry in manifest["runs"]]
    lines[-1] = lines[-1].rstrip(",")
    lines += ["],", '"gaps": [']
    lines += [json.dumps(entry) + "," for entry in manifest["gaps"]]
    lines[-1] = lines[-1].rstrip(",")
    lines += ["]", "}"]
    MANIFEST.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        write(build(Path(scratch)))
    print(f"wrote {MANIFEST} ({MANIFEST.stat().st_size} bytes)", file=sys.stderr)
