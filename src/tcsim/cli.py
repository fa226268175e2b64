"""Command-line front end: configure runs, verify, and emit reports.

Subcommands: wire, lattice, compare, unfold.  Structured output is JSON
(``--out``).  A wire or lattice run adds its per-node nullifier variances and
their check with ``--verify`` (and writes them to CSV with ``--csv``), and its
measurement records with ``--emit-records``.  Exit code 0 iff every check
passed, 1 on a failed check, 2 on usage errors (an output that cannot be
written is one, and so are ``--out`` and ``--csv`` naming one file) and on a
measurement that the run refuses as off the pinned feedforward convention.
The ``nullifiers`` and ``records`` rows are written by the row writer
(``_render_json``) straight from the run's stretches, each in bulk, in
exactly the layout ``json.dumps(indent=2, sort_keys=True)`` would give them,
with no record built; ``json.dumps`` renders the rest.  A record's
feedforward is -(x / var) * b_keep, and the register has checked that each
b_keep entry is +0.0 or var > 0, so a row has one cell value
c = -((x / var) * var).  Each outcome is ``repr``'d once; c reuses the
outcome's text with its sign flipped when it is bitwise -x and is ``repr``'d
otherwise; a zero column reads -0.0 unless x's sign bit is set, spelled in
the row template (one per outcome sign); and the rows are joined once per
slice of at most ``_SLICE`` rows.

``build_parser`` states each subcommand once: its subparser sets the report
builder ``main`` calls and the config values the subcommand implies.  It
returns a fresh parser; ``main`` builds one on its first call and reuses it,
so importing this module builds none.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import List, Optional, Tuple

import numpy as np

from .gaussian import VACUUM_VARIANCE, db_to_r, r_to_db
from .graphs import delete_nodes, sheared_cylinder_graph, unfolds_to_grid
from .pipeline import PipelineConfig, Stretch, equivalence_check, run_pipeline

NULLIFIER_TOL = 1e-9
EQUIVALENCE_TOL = 1e-9


def _parse_range(text: str):
    try:
        lo, hi = text.split("..")
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"range must look like A..B, got {text!r}")


def decibels(text: str) -> float:
    """``--squeezing-db`` as the squeezing parameter r (argparse names the
    converter in its error, so a bad value reads "invalid decibels value")."""
    return db_to_r(float(text))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcsim",
        description="Streaming simulator for temporal-mode CV cluster states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared options: every subcommand writes a report; compare configures a
    # pipeline; wire and lattice run one and can also write what it produced.
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--out", metavar="FILE.json", help="write JSON report")
    pipeline = argparse.ArgumentParser(add_help=False, parents=[report])
    pipeline.add_argument("--nodes", type=int, required=True)
    pipeline.add_argument("--seed", type=int, default=0)
    squeezing = pipeline.add_mutually_exclusive_group()
    squeezing.add_argument(
        "--squeezing-db", type=decibels, dest="squeezing_r", metavar="SQUEEZING_DB",
        help="squeezing in decibels",
    )
    squeezing.add_argument("--squeezing-r", type=float, help="squeezing parameter r")
    pipeline.set_defaults(squeezing_r=0.0)
    run = argparse.ArgumentParser(add_help=False, parents=[pipeline])
    run.add_argument("--verify", action="store_true")
    run.add_argument("--csv", metavar="FILE.csv", help="write per-node variances")
    run.add_argument(
        "--emit-records", action="store_true", help="include measurement records"
    )

    wire = sub.add_parser("wire", parents=[run], help="run a quantum-wire pipeline")
    wire.set_defaults(build=_run_report, topology="wire", width=0)
    lattice = sub.add_parser("lattice", parents=[run], help="run a square-lattice pipeline")
    lattice.add_argument("--width", type=int, required=True)
    lattice.set_defaults(build=_run_report, topology="lattice")

    compare = sub.add_parser(
        "compare", parents=[pipeline], help="pipeline vs canonical construction"
    )
    compare.add_argument("--topology", choices=("wire", "lattice"), required=True)
    compare.add_argument("--width", type=int, default=0)
    compare.add_argument("--range", type=_parse_range, required=True, dest="node_range")
    compare.set_defaults(build=_compare_report, csv=None)

    unfold = sub.add_parser(
        "unfold", parents=[report], help="sheared-cylinder unfolding check"
    )
    unfold.add_argument("--width", type=int, required=True)
    unfold.add_argument("--cols", type=int, required=True)
    unfold.set_defaults(build=_unfold_report, csv=None)

    return parser


def _config_from_args(args) -> PipelineConfig:
    return PipelineConfig(
        topology=args.topology,
        n_pulses=args.nodes,
        width=args.width,
        squeezing_r=args.squeezing_r,
        seed=args.seed,
    )


def _config_dict(config: PipelineConfig) -> dict:
    return {
        "topology": config.topology,
        "nodes": config.n_pulses,
        "width": config.width,
        "squeezing_r": config.squeezing_r,
        "squeezing_db": r_to_db(config.squeezing_r),
        "seed": config.seed,
    }


def _check(name: str, passed: bool, value, tolerance) -> dict:
    return {"name": name, "pass": passed, "value": value, "tolerance": tolerance}


def _run_report(args) -> dict:
    if args.out and args.csv and os.path.realpath(args.out) == os.path.realpath(args.csv):
        raise ValueError(f"--out {args.out} and --csv {args.csv} name the same file")
    config = _config_from_args(args)
    report = run_pipeline(config)
    target = VACUUM_VARIANCE * math.exp(-2 * config.squeezing_r)
    high = config.reach + 2
    checks = [_check("memory_bound", report.high_water <= high, report.high_water, high)]
    nullifiers = report.nullifier_checks.stretches if args.verify else []
    if args.verify:
        err = max((abs(s.nullifier - target) for s in nullifiers), default=0.0)
        checks.append(_check("nullifier_exactness", err <= NULLIFIER_TOL, err, NULLIFIER_TOL))
    out = {
        "config": {**_config_dict(config), "mode": "verify" if args.verify else "compute"},
        "high_water": report.high_water,
        "nullifiers": nullifiers,
        "checks": checks,
    }
    if args.emit_records:
        out["records"] = report.records.stretches
    return out


def _compare_report(args) -> dict:
    config = _config_from_args(args)
    first, last = args.node_range
    discrepancy = equivalence_check(config, args.node_range)
    return {
        "config": {
            **_config_dict(config),
            "mode": "compute",
            "range": f"{first}..{last}",
        },
        "max_discrepancy": discrepancy,
        "checks": [
            _check("pipeline_matches_canonical", discrepancy <= EQUIVALENCE_TOL,
                   discrepancy, EQUIVALENCE_TOL)
        ],
    }


def _unfold_report(args) -> dict:
    m, k = args.width, args.cols
    if k < 1:
        raise ValueError("--cols must be at least 1")
    graph = sheared_cylinder_graph(m * k, m)
    reduced = delete_nodes(graph, [j for j in graph.nodes if j % m == 0])
    result = unfolds_to_grid(reduced, m)
    grid = f"{m - 1}x{k}" if result.unfolds else None
    return {
        "config": {"width": m, "cols": k},
        "unfolds": result.unfolds,
        "grid": grid,
        "checks": [
            _check("unfolds_to_grid", result.unfolds,
                   grid or f"offending edge {result.offending_edge}",
                   "exact edge-set equality")
        ],
    }


# The row writer: the run's row lists are rendered here, not by json.dumps,
# in exactly json.dumps's indent=2 layout, every float as float.__repr__ of
# a Python float.  Both keys sort after every other top-level key, so their
# rows are spliced in after json.dumps's text of the rest of the report.
# Each row starts with the separator json.dumps puts before it; the first
# row of a list drops the comma.  A stretch (``pipeline.Stretch``) is a
# block of consecutive nodes that share one measured row.  The pipeline
# measures only q, so every record's angle is 0.0.
_NULLIFIER_ROW = ',\n    {\n      "node": %%d,\n      "variance": %r\n    }'
_CELL = ",\n        "
_RECORD_HEAD = ',\n    {\n      "angle": 0.0,\n      "feedforward": '
_RECORD_NODE = ',\n      "node": '
_RECORD_OUTCOME = ',\n      "outcome": '
_RECORD_END = "\n    }"
#: Records joined into one string at a time: the writer holds one slice's
#: pieces, not one string per record.
_SLICE = 512


def _check_finite(values: np.ndarray) -> None:
    """Refuse a NaN or infinite value, as json.dumps's ``allow_nan=False``
    does, naming the first in C order, which is the rows' order."""
    bad = ~np.isfinite(values)
    if bad.any():
        raise ValueError(
            f"Out of range float values are not JSON compliant: {float(values[bad][0])!r}"
        )


def _stretch_rows(s: Stretch) -> List[str]:
    """A stretch's rows on the pinned feedforward convention (see the
    module docstring): only the outcomes and the cell values not bitwise
    equal to -x call ``repr``, once each.  The arithmetic neither warns nor
    raises: a value that overflows is refused, as json.dumps would."""
    x, b = s.outcomes, s.b_keep
    with np.errstate(all="ignore"):
        c = np.negative((x / s.var) * s.var)  # each row's live cell value
    # c is finite only if x and var are, and x / var does not overflow; then,
    # with b finite, so is every value a row holds
    if not (np.isfinite(c).all() and np.isfinite(b).all()):
        # each row's values in the order json.dumps writes them
        _check_finite(np.column_stack([s.feedforward(), x]))
    fragments = _fragments(b)
    reused = c.view(np.int64) == np.negative(x).view(np.int64)
    rows = []
    for lo in range(0, len(x), _SLICE):
        hi = lo + _SLICE
        xs = list(map(repr, x[lo:hi].tolist()))
        cells = [t[1:] if t[0] == "-" else "-" + t for t in xs]
        for j in np.flatnonzero(~reused[lo:hi]).tolist():
            cells[j] = repr(c[lo + j].item())
        signs = np.signbit(x[lo:hi]).tolist()
        # a row's pieces: fragment, cell, ..., cell, fragment, node, outcome
        columns = []
        for pair in fragments:
            columns += [map(pair.__getitem__, signs), cells]
        k = len(xs)
        columns[-1:] = [map(str, s.nodes[lo:hi]), [_RECORD_OUTCOME] * k, xs, [_RECORD_END] * k]
        parts = [None] * (k * len(columns))
        for i, column in enumerate(columns):
            parts[i::len(columns)] = column
        rows.append("".join(parts))
    return rows


def _fragments(b: np.ndarray) -> List[Tuple[str, str]]:
    """A row's text up to its node, split at its live cells: the
    (+ outcome, - outcome) pair of fragments before each live cell and
    before the node.  A zero column's cell is -((x / var) * +0.0), so it
    reads -0.0 unless the outcome's sign bit is set."""
    cols = ["\1"] * len(b)  # a zero column
    for j in np.flatnonzero(b).tolist():
        cols[j] = "\0"
    body = f"[\n        {_CELL.join(cols)}\n      ]" if cols else "[]"
    template = f"{_RECORD_HEAD}{body}{_RECORD_NODE}"
    return list(zip(*(template.replace("\1", zero).split("\0") for zero in ("-0.0", "0.0"))))


def _splice(parts: List[str], key: str, rows: List[str]) -> None:
    if not rows:
        parts.append(f',\n  "{key}": []')
        return
    rows[0] = rows[0][1:]
    parts += [f',\n  "{key}": [', *rows, "\n  ]"]


def _variances(stretches: List[Stretch]) -> List[float]:
    """Each stretch's nullifier as a Python float; a non-finite one is refused."""
    variances = np.array([s.nullifier for s in stretches], dtype=float)
    _check_finite(variances)
    return variances.tolist()


def _render_json(report: dict) -> str:
    """The report's JSON text."""
    head = {key: value for key, value in report.items() if key not in ("nullifiers", "records")}
    parts = [json.dumps(head, indent=2, sort_keys=True, allow_nan=False)[:-2]]  # drop "\n}"
    if "nullifiers" in report:
        stretches = report["nullifiers"]
        # one string of rows per stretch, formatted with one %; a stretch of
        # no nodes has no rows
        rows = [
            ((_NULLIFIER_ROW % variance) * len(s.nodes)) % tuple(s.nodes)
            for s, variance in zip(stretches, _variances(stretches))
            if s.nodes
        ]
        _splice(parts, "nullifiers", rows)
    if "records" in report:
        _splice(parts, "records", [row for s in report["records"] for row in _stretch_rows(s)])
    parts.append("\n}\n")
    return "".join(parts)


def _render_csv(nullifiers: List[Stretch]) -> str:
    lines = ["node,variance\n"]
    for s, variance in zip(nullifiers, _variances(nullifiers)):
        lines.append((f"%d,{variance!r}\n" * len(s.nodes)) % tuple(s.nodes))
    return "".join(lines)


def _write_outputs(report: dict, out: Optional[str], csv: Optional[str]) -> None:
    # Everything asked for is rendered first: a NaN, say, leaves no file behind.
    text = _render_json(report)
    if csv:
        csv_text = _render_csv(report["nullifiers"])
        with open(csv, "w") as fh:
            fh.write(csv_text)
    # The report goes last, so a run whose CSV cannot be written leaves no
    # report claiming it passed.
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


#: ``main``'s parser, built on its first call (parsing leaves it unchanged).
_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[List[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        # Squeezing that overflows the covariance, a register too large to
        # allocate, or an output that cannot be written is a usage error:
        # raise instead of printing numpy warnings or a traceback.
        with np.errstate(over="raise", invalid="raise"):
            report = args.build(args)
            _write_outputs(report, args.out, args.csv)
    except (ValueError, KeyError, ArithmeticError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if all(c["pass"] for c in report["checks"]) else 1


if __name__ == "__main__":
    sys.exit(main())
