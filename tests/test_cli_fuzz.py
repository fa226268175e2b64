"""Property-based fuzzing of the CLI over argument vectors.

Every argv must either be rejected with exit code 2 (an argparse usage error,
or ``error:`` on stderr and no report written), or exit 0/1 with a strict
JSON report (no NaN / Infinity) whose checks agree with the exit code.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from tcsim.cli import main

NODES = st.integers(-2, 40)
WIDTH = st.integers(-1, 9)
BOUND = st.integers(-1, 45)
MALFORMED_RANGES = st.sampled_from(
    ["", "..", "5", "3..", "..7", "a..b", "1..2..3", "2.5..4", "4...6"]
)
SQUEEZING = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-1", "0", "10", "200", "1e308"]),
    st.floats(0.0, 2.0).map(repr),
)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["wire", "lattice", "compare", "unfold"]))
    argv = [command]
    if command == "unfold":
        argv += ["--width", str(draw(WIDTH)), "--cols", str(draw(WIDTH))]
    else:
        if command == "compare":
            argv += ["--topology", draw(st.sampled_from(["wire", "lattice"]))]
            if draw(st.integers(0, 3)):
                argv += ["--range", f"{draw(BOUND)}..{draw(BOUND)}"]
            else:
                argv += ["--range", draw(MALFORMED_RANGES)]
        argv += ["--nodes", str(draw(NODES)), "--seed", str(draw(st.integers(0, 3)))]
        if command == "lattice" or (command == "compare" and draw(st.booleans())):
            argv += ["--width", str(draw(WIDTH))]
        flag = draw(st.sampled_from([None, "--squeezing-db", "--squeezing-r"]))
        if flag:
            argv += [flag, draw(SQUEEZING)]
        if command != "compare" and draw(st.booleans()):
            argv.append("--verify")
    if command in ("wire", "lattice") and draw(st.booleans()):
        argv.append("--emit-records")
    return argv


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


@given(argv=argvs())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_cli_exits_2_or_reports_consistent_checks(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            try:
                code = main(argv + ["--out", str(out)])
            except SystemExit as exc:
                assert exc.code == 2, argv
                return
        if code == 2:
            assert "error:" in stderr.getvalue(), argv
            assert not out.exists(), argv
            return
        assert code in (0, 1), argv
        report = json.loads(out.read_text(), parse_constant=_reject_constant)
        assert (code == 0) == all(check["pass"] for check in report["checks"]), argv
