import json

import pytest

import tcsim.cli
from tcsim.cli import main
from tcsim.gaussian import db_to_r


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

    def test_unallocatable_register_returns_2(self, tmp_path, capsys):
        # A 2e8-slot register needs 284 PiB, beyond any 64-bit address space,
        # so the allocation fails at once without touching memory.
        out = tmp_path / "r.json"
        argv = ["lattice", "--width", "100000000", "--nodes", "200000000", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert not out.exists()

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

    def test_unwritable_csv_returns_2_and_writes_no_report(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        argv = ["wire", "--nodes", "3", "--verify", "--out", str(out),
                "--csv", str(tmp_path / "missing" / "v.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert not out.exists()
