import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import tcsim.cli
import tcsim.register
from tcsim.cli import NULLIFIER_TOL, _check, _config_dict, _config_from_args, build_parser, main
from tcsim.gaussian import VACUUM_VARIANCE, db_to_r
from tcsim.pipeline import Rows, Stretch, run_pipeline

from register_faults import weighted_cz

SRC = str(Path(tcsim.cli.__file__).resolve().parent.parent)


def run_json(args, tmp_path, name="report.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, json.loads(out.read_text())


class TestWireCommand:
    def test_r0_verify_nullifiers_half(self, tmp_path):
        code, report = run_json(
            ["wire", "--nodes", "3", "--squeezing-db", "0", "--verify"], tmp_path
        )
        assert code == 0
        assert [n["variance"] for n in report["nullifiers"]] == [0.5, 0.5]

    def test_report_keys_stable(self, tmp_path):
        _, verify = run_json(["wire", "--nodes", "5", "--verify"], tmp_path)
        _, compute = run_json(["wire", "--nodes", "5"], tmp_path)
        assert set(verify) == set(compute) == {"config", "high_water", "nullifiers", "checks"}
        assert compute["nullifiers"] == []

    def test_emit_records(self, tmp_path):
        _, report = run_json(
            ["wire", "--nodes", "4", "--emit-records", "--seed", "3"], tmp_path
        )
        assert len(report["records"]) == 4
        rec = report["records"][0]
        assert set(rec) == {"node", "angle", "outcome", "feedforward"}


class TestLatticeCommand:
    def test_10db_verify(self, tmp_path):
        code, report = run_json(
            [
                "lattice", "--nodes", "48", "--width", "4",
                "--squeezing-db", "10", "--verify",
            ],
            tmp_path,
        )
        assert code == 0
        assert report["high_water"] == 6
        for entry in report["nullifiers"]:
            assert entry["variance"] == pytest.approx(0.05, abs=1e-9)

    def test_csv_output(self, tmp_path):
        csv_path = tmp_path / "null.csv"
        code = main(
            [
                "lattice", "--nodes", "24", "--width", "3", "--verify",
                "--out", str(tmp_path / "r.json"), "--csv", str(csv_path),
            ]
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "node,variance"
        assert len(lines) == 1 + 24 - 3

    def test_seed_determinism(self, tmp_path):
        args = [
            "lattice", "--nodes", "40", "--width", "4",
            "--squeezing-db", "10", "--seed", "7", "--emit-records", "--verify",
        ]
        main(args + ["--out", str(tmp_path / "a.json")])
        main(args + ["--out", str(tmp_path / "b.json")])
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestCompareCommand:
    def test_wire_compare(self, tmp_path):
        code, report = run_json(
            [
                "compare", "--topology", "wire", "--nodes", "20",
                "--range", "5..10", "--squeezing-r", "1.0",
            ],
            tmp_path,
        )
        assert code == 0
        assert report["max_discrepancy"] < 1e-9
        assert report["checks"][0]["name"] == "pipeline_matches_canonical"

    def test_peak_memory_grows_by_at_most_16_bytes_per_pulse(self, tmp_path):
        # A 100-node range at the end of the stream: the run certifies and
        # the oracle is the range's, so what grows is the certified
        # stretch's one float64 outcome per pulse.
        def argv(n):
            return [
                "compare", "--topology", "lattice", "--nodes", str(n), "--width", "8",
                "--range", f"{n - 99}..{n}", "--squeezing-db", "10",
                "--out", str(tmp_path / "report.json"),
            ]

        def peak(n):
            gc.collect()
            tracemalloc.start()
            try:
                assert main(argv(n)) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        main(argv(1_000))  # lazy set-up outside the measured peaks
        growth = (peak(100_000) - peak(10_000)) / (100_000 - 10_000)
        assert growth <= 16


class TestRecordWriterMemory:
    def test_peak_memory_grows_by_at_most_400_bytes_per_pulse(self, tmp_path):
        # A wire's records are about 190 bytes of text each.  Joined per
        # slice, the rows and the report's text cost about twice that at
        # the final join; one string per row costs 510.
        def peak(n):
            argv = ["wire", "--nodes", str(n), "--squeezing-db", "10", "--emit-records",
                    "--out", str(tmp_path / "report.json")]
            gc.collect()
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)  # lazy set-up outside the measured peaks
        growth = (peak(10_000) - peak(1_000)) / (10_000 - 1_000)
        assert growth <= 400


class TestNullifierWriterMemory:
    def test_peak_memory_without_csv_grows_by_at_most_250_bytes_per_pulse(self, tmp_path):
        # A lattice's nullifier rows are about 60 bytes of text each; the
        # rows and the report's text cost about 220 per pulse at the final
        # join.  Building the CSV rows too, unasked, costs about 350.
        def peak(n):
            argv = ["lattice", "--nodes", str(n), "--width", "8", "--squeezing-db", "10",
                    "--verify", "--out", str(tmp_path / "report.json")]
            gc.collect()
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)  # lazy set-up outside the measured peaks
        growth = (peak(10_000) - peak(1_000)) / (10_000 - 1_000)
        assert growth <= 250


class TestUnfoldCommand:
    def test_unfold_4x4(self, tmp_path):
        code, report = run_json(["unfold", "--width", "4", "--cols", "4"], tmp_path)
        assert code == 0
        assert report["unfolds"] is True
        assert report["grid"] == "3x4"

    def test_undeleted_stripe_fails_the_check(self, tmp_path, monkeypatch):
        # Without the q deletions every 4th node stays and lands in row 0.
        monkeypatch.setattr(tcsim.cli, "delete_nodes", lambda graph, targets: graph)
        code, report = run_json(["unfold", "--width", "4", "--cols", "4"], tmp_path)
        assert code == 1
        assert report["unfolds"] is False
        assert report["checks"][0]["value"] == "offending edge ((0, 1), (0, 2))"


class TestReportFlags:
    """--out on every subcommand; --csv and --emit-records on runs only."""

    @pytest.mark.parametrize(
        "command",
        [
            ["compare", "--topology", "wire", "--nodes", "6", "--range", "2..4"],
            ["unfold", "--width", "3", "--cols", "2"],
        ],
        ids=["compare", "unfold"],
    )
    @pytest.mark.parametrize(
        "flag", [["--csv", "v.csv"], ["--emit-records"]], ids=["csv", "emit-records"]
    )
    def test_check_commands_reject_run_flags(self, command, flag, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(command + flag + ["--out", str(tmp_path / "r.json")])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "command",
        [["wire", "--nodes", "6"], ["lattice", "--nodes", "8", "--width", "4"]],
        ids=["wire", "lattice"],
    )
    def test_run_commands_keep_csv_and_records(self, command, tmp_path):
        csv_path = tmp_path / "v.csv"
        code, report = run_json(
            command + ["--verify", "--emit-records", "--csv", str(csv_path)], tmp_path
        )
        assert code == 0
        assert len(report["records"]) == report["config"]["nodes"]
        rows = csv_path.read_text().splitlines()[1:]
        assert len(rows) == len(report["nullifiers"])


class TestVerifyOnlyChoosesTheReport:
    """A run with --verify is the same run as one without: the flag only
    adds the nullifier rows and their check to what the CLI writes."""

    @pytest.mark.parametrize(
        "command",
        [
            ["wire", "--nodes", "1"],
            ["wire", "--nodes", "5"],
            ["wire", "--nodes", "300", "--seed", "7919"],
            ["lattice", "--nodes", "100", "--width", "8", "--squeezing-db", "10", "--seed", "3"],
        ],
        ids=["wire-1", "wire-5", "wire-300", "lattice-8-certified"],
    )
    def test_verify_changes_only_the_nullifier_rows(self, command, tmp_path):
        runs = {}
        for name, flag in (("compute", []), ("verify", ["--verify"])):
            out, csv_path = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
            argv = command + flag + ["--emit-records", "--out", str(out), "--csv", str(csv_path)]
            assert main(argv) == 0
            text = out.read_text()
            runs[name] = (text, json.loads(text), csv_path.read_text())
        (c_text, compute, c_csv), (v_text, verify, v_csv) = runs["compute"], runs["verify"]

        records = '\n  "records": ['
        assert c_text[c_text.index(records):] == v_text[v_text.index(records):]
        assert compute["high_water"] == verify["high_water"]
        [c_bound], [v_bound] = ([c for c in r["checks"] if c["name"] == "memory_bound"]
                                for r in (compute, verify))
        assert c_bound == v_bound
        assert compute["nullifiers"] == [] and c_csv == "node,variance\n"
        assert [c["name"] for c in verify["checks"]] == ["memory_bound", "nullifier_exactness"]

        config = _config_from_args(build_parser().parse_args(command))
        checks = list(run_pipeline(config).nullifier_checks)
        assert len(checks) == config.n_pulses - config.reach
        assert [(n["node"], n["variance"]) for n in verify["nullifiers"]] == checks
        assert v_csv == "node,variance\n" + "".join(f"{n},{v!r}\n" for n, v in checks)


class TestCheckRecords:
    @pytest.mark.parametrize(
        "command",
        [
            ["wire", "--nodes", "6", "--verify"],
            ["lattice", "--nodes", "8", "--width", "4", "--verify"],
            ["compare", "--topology", "wire", "--nodes", "6", "--range", "2..4"],
            ["unfold", "--width", "3", "--cols", "2"],
        ],
        ids=["wire", "lattice", "compare", "unfold"],
    )
    def test_every_check_has_the_same_keys(self, command, tmp_path):
        _, report = run_json(command, tmp_path)
        assert report["checks"]
        for check in report["checks"]:
            assert set(check) == {"name", "pass", "value", "tolerance"}
            assert check["pass"] is True


class TestSqueezingFlags:
    @pytest.mark.parametrize("flag", ["--squeezing-db", "--squeezing-r"])
    def test_non_numeric_value_names_the_flag(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["wire", "--nodes", "3", flag, "abc"])
        assert exc.value.code == 2
        assert f"argument {flag}: invalid" in capsys.readouterr().err

    def test_db_and_r_echo_the_same_r(self, tmp_path):
        _, by_db = run_json(["wire", "--nodes", "3", "--squeezing-db", "10"], tmp_path)
        _, by_r = run_json(
            ["wire", "--nodes", "3", "--squeezing-r", repr(db_to_r(10))], tmp_path
        )
        assert by_db["config"]["squeezing_r"] == by_r["config"]["squeezing_r"] == db_to_r(10)


class TestErrors:
    def test_wire_compare_with_width_exits_2(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        argv = ["compare", "--topology", "wire", "--nodes", "20", "--width", "5",
                "--range", "5..10", "--out", str(out)]
        assert main(argv) == 2
        assert "width applies only to a lattice" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["wire", "--nodes", "3", "--bogus"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_conflicting_squeezing_flags(self):
        with pytest.raises(SystemExit) as exc:
            main(["wire", "--nodes", "3", "--squeezing-db", "10", "--squeezing-r", "1"])
        assert exc.value.code == 2

    def test_invalid_config_returns_2(self, capsys):
        assert main(["lattice", "--nodes", "5", "--width", "4"]) == 2
        assert "error" in capsys.readouterr().err

    def test_negative_seed_returns_2_and_names_the_seed(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["wire", "--nodes", "5", "--seed", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"
        assert not out.exists()

    def test_unallocatable_register_returns_2(self, tmp_path, capsys):
        # A register of 10^8 + 2 slots: its first large allocation is its
        # diagonals, 19 x (10^8 + 2) float64 values (14.2 GiB), and nothing
        # of K entries is built or written before it, so where the system
        # cannot commit that much the run fails at once.
        out = tmp_path / "r.json"
        argv = ["lattice", "--width", "100000000", "--nodes", "200000000", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert not out.exists()

    def test_unallocatable_comparison_returns_2(self):
        # In a subprocess capped at 1 GiB of address space: a comparison
        # builds its oracle rows (a 1.49 GiB label array here), then its
        # register (28.3 GiB of diagonals), and whichever fails first is one
        # error line, with no traceback.
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from tcsim.cli import main\n"
            "sys.exit(main(['compare', '--topology', 'lattice', '--width', '100000000',\n"
            "               '--nodes', '200000000', '--range', '1..200000000']))\n"
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert result.returncode == 2, result.stderr
        assert result.stdout == ""
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "command",
        [
            ["wire", "--nodes", "4"],
            ["lattice", "--nodes", "8", "--width", "4"],
            ["compare", "--topology", "wire", "--nodes", "6", "--range", "2..4"],
        ],
        ids=["wire", "lattice", "compare"],
    )
    @pytest.mark.parametrize(
        "squeezing",
        [
            ["--squeezing-r", "nan"],
            ["--squeezing-db", "inf"],
            ["--squeezing-r", "400"],
            ["--squeezing-r", "200"],
        ],
        ids=["r-nan", "db-inf", "r-400", "r-200"],
    )
    def test_unusable_squeezing_returns_2(self, command, squeezing, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(command + squeezing + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "RuntimeWarning" not in err
        assert not out.exists()

    def test_unwritable_out_returns_2(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        assert main(["wire", "--nodes", "3", "--out", str(missing / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("spelling", ["{}", "./{}"], ids=["same", "dot-prefixed"])
    def test_out_and_csv_naming_one_file_returns_2_and_writes_nothing(
        self, spelling, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        argv = ["lattice", "--nodes", "40", "--width", "4", "--verify",
                "--out", "x", "--csv", spelling.format("x")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: --out x and --csv {spelling.format('x')} name the same file\n"
        )
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["compare", "--topology", "lattice", "--nodes", "40", "--width", "4", "--range", "20..10"],
             "node range 20..10: need 1 <= first <= last <= 40"),
            (["compare", "--topology", "wire", "--nodes", "40", "--range", "0..10"],
             "node range 0..10: need 1 <= first <= last <= 40"),
            (["compare", "--topology", "wire", "--nodes", "40", "--range", "30..41"],
             "node range 30..41: need 1 <= first <= last <= 40"),
            (["unfold", "--width", "3", "--cols", "0"], "--cols must be at least 1"),
        ],
        ids=["range-reversed", "range-below-1", "range-past-n", "no-cols"],
    )
    def test_bad_range_or_cols_states_the_rule(self, argv, message, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_wrong_cz_weight_with_records_returns_2_and_writes_nothing(
        self, tmp_path, monkeypatch, capsys
    ):
        # Off the pinned feedforward convention: each b_keep entry is var
        # times the weight, not var.
        monkeypatch.setattr(tcsim.register.DiagonalRegister, "_cz", weighted_cz(1 + 2**-50))
        out = tmp_path / "r.json"
        argv = ["lattice", "--nodes", "2000", "--width", "8", "--squeezing-db", "10",
                "--emit-records", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: node 1: stored measurement is off the pinned feedforward convention")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["lattice", "--nodes", "2000", "--width", "8", "--squeezing-db", "10", "--verify"],
            ["compare", "--topology", "lattice", "--nodes", "2000", "--width", "8",
             "--squeezing-db", "10", "--range", "1900..2000"],
        ],
        ids=["verify", "compare"],
    )
    def test_wrong_cz_weight_without_records_returns_2_and_writes_nothing(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        # The run refuses node 1's measured row, whatever the report writes.
        monkeypatch.setattr(tcsim.register.DiagonalRegister, "_cz", weighted_cz(1 + 2**-50))
        out = tmp_path / "r.json"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: node 1: stored measurement is off the pinned feedforward convention")
        assert not out.exists()

    def test_unwritable_csv_returns_2_and_writes_no_report(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        argv = ["wire", "--nodes", "3", "--verify", "--out", str(out),
                "--csv", str(tmp_path / "missing" / "v.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert not out.exists()


class TestParserReuse:
    """``main`` builds its parser on its first call and reuses it."""

    WIRE = ["wire", "--nodes", "40", "--squeezing-db", "10", "--verify", "--emit-records", "--seed", "3"]

    def test_reused_parser_carries_nothing_from_one_call_to_the_next(self, capsys):
        def call(argv):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage error
                code = exc.code
            return (code, *capsys.readouterr())

        first = call(self.WIRE)
        assert first[0] == 0
        compare = ["compare", "--topology", "lattice", "--nodes", "40", "--width", "3", "--range", "20..30"]
        assert call(compare)[0] == 0
        assert call(["unfold", "--width", "4", "--cols", "4"])[0] == 0
        code, _, err = call(["wire", "--nodes", "3", "--bogus"])
        assert code == 2
        assert "unrecognized arguments: --bogus" in err
        assert call(self.WIRE) == first

    def test_import_builds_no_parser(self):
        code = (
            "import tcsim.cli as cli\n"
            "assert cli._parser is None\n"
            "cli.main(['unfold', '--width', '4', '--cols', '4'])\n"
            "assert cli._parser is not None\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["unfolds"] is True


def record_dict(rec):
    return {
        "node": rec.node,
        "angle": rec.angle,
        "outcome": rec.outcome,
        "feedforward": rec.feedforward.tolist(),
    }


def dict_rows(report):
    """A run report in the dict form json.dumps rendered before the row writer,
    with every row of its stretches built one at a time."""
    out = {**report}
    checks = Rows(report["nullifiers"], Stretch.check)
    out["nullifiers"] = [{"node": node, "variance": var} for node, var in checks]
    if "records" in report:
        out["records"] = [record_dict(rec) for rec in Rows(report["records"], Stretch.record)]
    return out


def reference_outputs(report):
    """JSON and CSV text as json.dumps and the dict-based CSV rows wrote them."""
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    rows = ["node,variance"]
    rows += [f"{n['node']},{n['variance']}" for n in report["nullifiers"]]
    return text, "\n".join(rows) + "\n"


FINITE = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 1.7976931348623157e308, 1e16, -1e16, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False),
)
FLOATS = st.one_of(FINITE, FINITE.map(np.float64))
NODES = st.integers(0, 2**62)
# Values whose products and quotients underflow, overflow or lose a sign.
EDGES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1e16, -1e16, 0.1, 3.0])


def arrays(values, lo, hi):
    return st.lists(values, min_size=lo, max_size=hi).map(lambda v: np.array(v, dtype=float))


@st.composite
def stretch(draw, values, records):
    """A kernel tick's block of one or a certified block of any length.  A
    record stretch is drawn on the pinned feedforward convention: var > 0
    from ``values``, each b_keep entry +0.0 or var."""
    var = draw(values.filter(lambda v: v > 0) if records else values)
    entries = st.sampled_from([0.0, var]) if records else values
    outcomes = draw(st.one_of(arrays(values, 1, 1), arrays(values, 0, 5)))
    return Stretch(draw(NODES), len(outcomes), var, draw(arrays(entries, 0, 8)), draw(values), outcomes)


def blocks(values, records=False):
    """Lists of stretches of ``values``."""
    return st.lists(stretch(values, records), max_size=5)


HEAD = {
    "checks": [_check("memory_bound", True, 3, 3)],
    "config": {"mode": "verify", "nodes": 5, "squeezing_r": 1.1512925464970227},
    "high_water": 3,
}


@st.composite
def writer_stretches(draw):
    """A record stretch on the convention that reaches each branch of the
    record writer: b_keep entries from {+0.0, var}, so zero columns and
    live cells whose value is or is not -x; 1-1200 outcomes, so some
    stretches cross a slice boundary; and some outcomes +-0.0 or +-5e-324,
    so zero columns of either sign."""
    var = draw(st.one_of(st.sampled_from([0.5, 4.987091227407359]), FINITE.filter(lambda v: v > 0)))
    b_keep = np.array(draw(st.lists(st.sampled_from([0.0, var]), max_size=8)), dtype=float)
    n = draw(st.one_of(st.integers(1, 3), st.integers(1, 1200)))
    outcomes = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(n)
    special = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324]), FINITE)
    for j, value in draw(st.lists(st.tuples(st.integers(0, n - 1), special), max_size=6)):
        outcomes[j] = value
    return Stretch(draw(NODES), n, var, b_keep, None, outcomes)


def writer_branches(stretch):
    """Which of the writer's ways to spell a value a rendered stretch takes."""
    with np.errstate(all="ignore"):
        feedforward = stretch.feedforward()
    x = stretch.outcomes
    if not (np.isfinite(feedforward).all() and np.isfinite(x).all()):
        return set()  # refused
    live = feedforward[:, stretch.b_keep != 0]
    reused = live.view(np.int64) == (-x).view(np.int64)[:, None]
    branches = {
        "zero column": (stretch.b_keep == 0).any(),
        "reused -x": reused.any(),
        "repr": not reused.all(),
        "slices": len(x) > tcsim.cli._SLICE,
    }
    return {name for name, taken in branches.items() if taken}


def report_of(nullifiers, records=None):
    report = {**HEAD, "nullifiers": nullifiers}
    if records is not None:
        report["records"] = records
    return report


def render(report):
    """The report's JSON text and the CSV text of its nullifiers, the JSON
    first, as ``main`` renders them when given --csv."""
    return tcsim.cli._render_json(report), tcsim.cli._render_csv(report["nullifiers"])


class TestRowWriter:
    @given(nullifiers=blocks(FLOATS), records=st.one_of(st.none(), blocks(FLOATS, records=True)))
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_rows_render_as_json_dumps_would(self, nullifiers, records):
        assert_renders_as_json_dumps(report_of(nullifiers, records))

    @given(nullifiers=blocks(EDGES), records=blocks(EDGES, records=True))
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_certified_blocks_render_as_json_dumps_would(self, nullifiers, records):
        assert_renders_as_json_dumps(report_of(nullifiers, records))

    def test_every_way_to_spell_a_cell_renders_as_json_dumps_would(self):
        taken = set()

        # Without the shrink phase: shrinking stretches of up to 1200 rows
        # through the json.dumps reference takes minutes, so a failure
        # reports its first failing example instead.
        @given(records=st.lists(writer_stretches(), min_size=1, max_size=3))
        @settings(
            max_examples=150, derandomize=True, deadline=None,
            phases=[phase for phase in Phase if phase != Phase.shrink],
        )
        def renders(records):
            assert_renders_as_json_dumps(report_of([], records))
            for stretch in records:
                taken.update(writer_branches(stretch))

        renders()
        assert taken == {"zero column", "reused -x", "repr", "slices"}

    def test_overflowing_feedforward_is_refused_as_json_dumps_would(self):
        # x / var overflows: the live cell is -inf and the zero column nan
        stretch = Stretch(7, 2, 5e-324, np.array([5e-324, 0.0]), 0.5, np.array([1.0, 0.0]))
        report = report_of([stretch], [stretch])
        with pytest.raises(ValueError, match="not JSON compliant: -inf"):
            render(report)
        assert_renders_as_json_dumps(report)

    @pytest.mark.parametrize(
        "var, b_keep, outcome",
        [(2.0, [0.0, 2.0], math.nan), (2.0, [0.0, 2.0], -math.inf),
         (2.0, [math.inf, 2.0], 1.0), (math.inf, [0.0, math.inf], 1.0), (math.nan, [0.0, 2.0], 1.0)],
        ids=["nan-outcome", "inf-outcome", "inf-b-keep", "inf-var", "nan-var"],
    )
    def test_non_finite_stored_value_is_refused_as_json_dumps_would(self, var, b_keep, outcome):
        stretch = Stretch(7, 2, var, np.array(b_keep), None, np.array([1.0, outcome]))
        report = report_of([], [stretch])
        with pytest.raises(ValueError, match="not JSON compliant"):
            render(report)
        assert_renders_as_json_dumps(report)


def assert_renders_as_json_dumps(report):
    """The row writer's output, or its ValueError, is json.dumps's on the
    rows built one at a time (they may overflow, as the bulk path does)."""
    with np.errstate(all="ignore"):
        reference = dict_rows(report)
    try:
        expected = reference_outputs(reference)
    except ValueError as exc:
        with pytest.raises(ValueError) as refused:
            render(report)
        assert str(refused.value) == str(exc)
    else:
        assert render(report) == expected


def reference_run_report(argv):
    """The run report as _run_report built it before the row writer: a dict
    per nullifier and per record."""
    args = build_parser().parse_args(argv)
    config = _config_from_args(args)
    report = run_pipeline(config)
    target = VACUUM_VARIANCE * math.exp(-2 * config.squeezing_r)
    high = config.reach + 2
    checks = [_check("memory_bound", report.high_water <= high, report.high_water, high)]
    nullifiers = report.nullifier_checks if args.verify else []
    if args.verify:
        err = max((abs(v - target) for _, v in nullifiers), default=0.0)
        checks.append(_check("nullifier_exactness", err <= NULLIFIER_TOL, err, NULLIFIER_TOL))
    out = {
        "config": {**_config_dict(config), "mode": "verify" if args.verify else "compute"},
        "high_water": report.high_water,
        "nullifiers": [{"node": node, "variance": var} for node, var in nullifiers],
        "checks": checks,
    }
    if args.emit_records:
        out["records"] = [record_dict(rec) for rec in report.records]
    return out


class TestByteIdenticalReports:
    @pytest.mark.parametrize(
        "argv",
        [
            ["wire", "--nodes", "1", "--verify", "--emit-records"],
            ["wire", "--nodes", "40", "--seed", "3"],
            ["lattice", "--nodes", "4", "--width", "2", "--verify", "--emit-records"],
            ["wire", "--nodes", "300", "--emit-records", "--seed", "7919"],
        ],
        ids=["wire-1", "compute", "lattice-4x2", "wire-300-certified"],
    )
    def test_files_match_json_dumps_of_dict_rows(self, argv, tmp_path):
        out, csv_path = tmp_path / "r.json", tmp_path / "v.csv"
        assert main(argv + ["--out", str(out), "--csv", str(csv_path)]) == 0
        reference = reference_run_report(argv)
        text, csv_text = reference_outputs(reference)
        assert out.read_text() == text
        assert csv_path.read_text() == csv_text

    def test_edge_cases_are_reached(self):
        # wire-1's last record has an empty feedforward; compute's nullifiers
        # are empty.
        wire_1 = reference_run_report(["wire", "--nodes", "1", "--emit-records"])
        assert wire_1["records"][-1]["feedforward"] == []
        assert reference_run_report(["wire", "--nodes", "40"])["nullifiers"] == []

    def test_stdout_matches_json_dumps_of_dict_rows(self, capsys):
        argv = ["lattice", "--nodes", "12", "--width", "3", "--verify", "--emit-records"]
        assert main(argv) == 0
        assert capsys.readouterr().out == reference_outputs(reference_run_report(argv))[0]


def certified(report):
    """The run's certified stretch, its one block longer than one row."""
    [stretch] = [s for s in report.records.stretches if len(s.outcomes) > 1]
    return stretch


class TestNonFiniteRows:
    """A corrupted value in what a run stores (a kernel tick's block, or the
    certified stretch: outcomes and captured measurement) exits 2."""

    @pytest.mark.parametrize(
        "nodes, corrupt",
        [
            (4, lambda r: r.records.stretches[0].outcomes.__setitem__(0, math.nan)),
            (4, lambda r: r.records.stretches[1].b_keep.__setitem__(0, math.inf)),
            # not the first nullifier: max() skips a later NaN, so the
            # nullifier_exactness check's value stays finite
            (4, lambda r: setattr(r.nullifier_checks.stretches[-1], "nullifier", math.nan)),
            (50, lambda r: certified(r).outcomes.__setitem__(20, math.nan)),
            (50, lambda r: certified(r).b_keep.__setitem__(0, math.inf)),
            (50, lambda r: setattr(certified(r), "nullifier", math.nan)),
        ],
        ids=["nan-outcome", "inf-feedforward", "nan-nullifier",
             "stretch-nan-outcome", "stretch-inf-b-keep", "stretch-nan-nullifier"],
    )
    def test_exits_2_and_writes_nothing(self, nodes, corrupt, monkeypatch, tmp_path, capsys):
        def corrupted_run(config):
            report = run_pipeline(config)
            assert any(len(s.outcomes) > 1 for s in report.records.stretches) == (nodes == 50)
            corrupt(report)
            return report

        monkeypatch.setattr(tcsim.cli, "run_pipeline", corrupted_run)
        out, csv_path = tmp_path / "r.json", tmp_path / "v.csv"
        argv = ["wire", "--nodes", str(nodes), "--verify", "--emit-records",
                "--out", str(out), "--csv", str(csv_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()
        assert not csv_path.exists()
