import json

import pytest

from tcsim.cli import main


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


class TestErrors:
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
