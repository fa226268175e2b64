"""The benchmark's workloads: the argv each one hands to ``tcsim.cli.main``
and the checks the benchmark makes on the files that call writes.

The checks recompute every claim from the report itself instead of trusting
its ``checks`` field, so a regression that also broke the program's own
checks still counts as a failed run.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List

SQUEEZING_DB = 10.0
LATTICE_WIDTH = 64
COMPARE_WIDTH = 8

#: e^{-2r}/2 with r = dB ln10 / 20, derived here rather than taken from tcsim.
NULLIFIER_TARGET = 0.5 * math.exp(-2.0 * SQUEEZING_DB * math.log(10.0) / 20.0)

#: Absolute tolerance on each nullifier variance; at 10 dB the streaming
#: result is exact to about 1e-14.
NULLIFIER_TOL = 1e-9

#: The CLI's pipeline-vs-canonical tolerance, pinned here so that loosening it
#: in the program does not loosen the benchmark.
EQUIVALENCE_TOL = 1e-9


@dataclass(frozen=True)
class Outputs:
    """Where one call writes its report (and, if asked, its CSV)."""

    json: Path
    csv: Path


@dataclass(frozen=True)
class Workload:
    """One named CLI use: node counts, an argv builder and a checker.

    ``nodes`` is N of the timed calls.  The memory pass runs N and
    ``small_nodes``: N / 10, but at least 2M, the smallest valid lattice.
    """

    name: str
    nodes: int
    small_nodes: int
    reach: int
    argv: Callable[[int, int, Outputs], List[str]]
    check: Callable[[int, int, int, Outputs], List[str]]  # reach, N, seed, outputs


def _load_report(out: Outputs) -> Dict:
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(out.json.read_text(), parse_constant=reject)


def _common(report: Dict, nodes: int, seed: int) -> List[str]:
    errors = [f"report check {c['name']} failed" for c in report["checks"] if not c["pass"]]
    config = report["config"]
    if config["nodes"] != nodes or config["seed"] != seed:
        errors.append(f"config echoes nodes={config['nodes']} seed={config['seed']}")
    return errors


def _check_high_water(report: Dict, reach: int) -> List[str]:
    if report["high_water"] != reach + 2:
        return [f"high_water {report['high_water']} != reach + 2 = {reach + 2}"]
    return []


def _wire_argv(nodes: int, seed: int, out: Outputs) -> List[str]:
    return [
        "wire", "--nodes", str(nodes), "--squeezing-db", str(SQUEEZING_DB),
        "--emit-records", "--seed", str(seed), "--out", str(out.json),
    ]


def _check_wire(reach: int, nodes: int, seed: int, out: Outputs) -> List[str]:
    report = _load_report(out)
    errors = _common(report, nodes, seed) + _check_high_water(report, reach)
    records = report["records"]
    if len(records) != nodes:
        errors.append(f"{len(records)} records for {nodes} nodes")
    if sorted(r["node"] for r in records) != list(range(1, nodes + 1)):
        errors.append("records do not cover nodes 1..N once each")
    if not all(math.isfinite(r["outcome"]) for r in records):
        errors.append("non-finite measurement outcome")
    return errors


def _lattice_argv(nodes: int, seed: int, out: Outputs) -> List[str]:
    return [
        "lattice", "--nodes", str(nodes), "--width", str(LATTICE_WIDTH),
        "--squeezing-db", str(SQUEEZING_DB), "--verify", "--seed", str(seed),
        "--out", str(out.json), "--csv", str(out.csv),
    ]


def _check_lattice(reach: int, nodes: int, seed: int, out: Outputs) -> List[str]:
    report = _load_report(out)
    errors = _common(report, nodes, seed) + _check_high_water(report, reach)
    nulls = report["nullifiers"]
    if len(nulls) != nodes - reach:
        errors.append(f"{len(nulls)} nullifiers, expected N - M = {nodes - reach}")
    if [n["node"] for n in nulls] != list(range(reach + 1, nodes + 1)):
        errors.append("nullifier nodes are not M+1..N in order")
    worst = max((abs(n["variance"] - NULLIFIER_TARGET) for n in nulls), default=0.0)
    if not worst <= NULLIFIER_TOL:
        errors.append(f"nullifier off e^(-2r)/2 by {worst:.3e} > {NULLIFIER_TOL}")
    with out.csv.open(newline="") as fh:
        rows = [(int(r["node"]), float(r["variance"])) for r in csv.DictReader(fh)]
    if rows != [(n["node"], n["variance"]) for n in nulls]:
        errors.append("CSV rows differ from the JSON nullifiers")
    return errors


def _compare_range(nodes: int) -> str:
    return f"{nodes // 3}..{nodes}"


def _compare_argv(nodes: int, seed: int, out: Outputs) -> List[str]:
    return [
        "compare", "--topology", "lattice", "--nodes", str(nodes),
        "--width", str(COMPARE_WIDTH), "--range", _compare_range(nodes),
        "--squeezing-db", str(SQUEEZING_DB), "--seed", str(seed),
        "--out", str(out.json),
    ]


def _check_compare(reach: int, nodes: int, seed: int, out: Outputs) -> List[str]:
    report = _load_report(out)
    errors = _common(report, nodes, seed)
    if report["config"]["range"] != _compare_range(nodes):
        errors.append(f"config echoes range {report['config']['range']}")
    discrepancy = report["max_discrepancy"]
    if not 0.0 <= discrepancy <= EQUIVALENCE_TOL:
        errors.append(f"max_discrepancy {discrepancy!r} outside [0, {EQUIVALENCE_TOL}]")
    return errors


# N is sized so that one call takes about 0.25-0.4 s on a 2-core x86 host:
# with many short calls per run, the fastest one that run.py reports is
# likely to fall in one of the brief quiet phases of a shared host.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("wire-stream", 2000, 200, 1, _wire_argv, _check_wire),
        Workload("lattice-verify", 640, 2 * LATTICE_WIDTH, LATTICE_WIDTH, _lattice_argv, _check_lattice),
        Workload("compare-oracle", 120, 2 * COMPARE_WIDTH, COMPARE_WIDTH, _compare_argv, _check_compare),
    )
}
