import contextlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from crossconn import cli, connections
from crossconn.cli import COMMANDS, RunConfig, emit, main, parse_args, run
from crossconn.errors import ParseError
from crossconn.rees import ReesSemigroup

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def p1_csv(tmp_path):
    path = tmp_path / "P1.csv"
    path.write_text("0,0\n0,1\n")
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_report(p1_csv, capsys):
    code, out, err = run_cli(["--group", "cyclic:2", "--matrix", p1_csv, "build"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["data"]["order"] == 8
    assert len(report["data"]["idempotents"]) == 4
    assert report["data"]["green_class_counts"] == {"L": 2, "R": 2, "H": 4, "D": 1}
    assert report["checks"] == []
    assert report["passed"] is True


def test_verify_passes(p1_csv, capsys):
    code, out, _ = run_cli(["--group", "cyclic:2", "--matrix", p1_csv, "verify"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert all(c["passed"] is not False for c in report["checks"])
    assert any(c["name"] == "crossconn.phi_isomorphism" for c in report["checks"])


def test_iso_check_failure_witness(capsys):
    code, out, _ = run_cli(
        ["--group", "cyclic:2", "--matrix", "identity:2x2", "iso-check"], capsys
    )
    assert code == 2
    report = json.loads(out)
    assert report["data"]["holds"] is False
    assert report["data"]["witness"] == {"g": "0", "i1": 0, "i2": 1}


def test_iso_check_holds(p1_csv, capsys):
    code, out, _ = run_cli(["--group", "cyclic:2", "--matrix", p1_csv, "iso-check"], capsys)
    assert code == 0
    assert json.loads(out)["data"]["holds"] is True


def test_green_partitions(p1_csv, capsys):
    code, out, _ = run_cli(["--group", "cyclic:2", "--matrix", p1_csv, "green"], capsys)
    assert code == 0
    partitions = json.loads(out)["data"]["partitions"]
    assert [len(cls) for cls in partitions["L"]] == [4, 4]
    assert [len(cls) for cls in partitions["H"]] == [2, 2, 2, 2]
    assert len(partitions["D"]) == 1


def test_cones_summary(p1_csv, capsys):
    code, out, _ = run_cli(["--group", "cyclic:2", "--matrix", p1_csv, "cones"], capsys)
    assert code == 0
    data = json.loads(out)["data"]
    assert data["tl_size"] == 8 and data["tr_size"] == 8
    assert data["tl_idempotents"] == 4
    assert len(data["principal"]) == 8
    entry = data["principal"][0]
    assert set(entry) == {"element", "rho", "lambda"}
    assert set(entry["rho"]) == {"tuple", "vertex"}


def test_crossconn_command(p1_csv, capsys):
    code, out, _ = run_cli(["--group", "cyclic:2", "--matrix", p1_csv, "crossconn"], capsys)
    assert code == 0
    data = json.loads(out)["data"]
    assert data["u_gamma_size"] == 8
    assert data["s_tilde_size"] == 8
    assert len(data["s_tilde"]) == 8
    pair = data["s_tilde"][0]
    assert set(pair) == {"gamma", "delta"}
    assert set(pair["gamma"]) == {"tuple", "vertex"}


def test_verify_with_skipped_checks(capsys):
    # klein 5x2 has |S| = 40 but a 5120-cone semigroup, so the scans of T_L
    # against itself are skipped, each with its cost against the budget;
    # skips must not fail the run
    code, out, _ = run_cli(
        ["--group", "klein", "--matrix", "identity:5x2", "verify"], capsys
    )
    assert code == 0
    report = json.loads(out)
    skipped = [c for c in report["checks"] if c["passed"] is None]
    assert skipped
    assert all(re.fullmatch(r"cost \S+ > budget 5e6", c["witness"]) for c in skipped)
    assert report["passed"] is True


def test_rbg_command_default_matrix(capsys):
    code, out, _ = run_cli(["--group", "cyclic:2", "rbg"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["data"]["s_tilde_size"] == 8
    assert report["passed"] is True


def test_rbg_rejects_nonidentity_matrix(p1_csv, capsys):
    code, _, err = run_cli(["--group", "cyclic:2", "--matrix", p1_csv, "rbg"], capsys)
    assert code == 1
    assert "identity" in err


def test_malformed_matrix_label(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("0,0\n0,x\n")
    code, out, err = run_cli(["--group", "cyclic:2", "--matrix", str(path), "build"], capsys)
    assert code == 1
    assert out == ""
    assert "row 1, column 1" in err


def test_missing_matrix_argument(capsys):
    code, _, err = run_cli(["--group", "cyclic:2", "build"], capsys)
    assert code == 1
    assert "--matrix" in err


def test_determinism(p1_csv):
    config = RunConfig("cyclic:2", p1_csv, "verify", 512, None, "json")
    first = emit(run(config)[1], "json")
    second = emit(run(config)[1], "json")
    assert first == second
    assert emit(run(config)[1], "text") == emit(run(config)[1], "text")


def test_reports_do_not_depend_on_the_hash_seed():
    # Every command on the string-labelled S3 fixture, in one fresh
    # interpreter per seed: set and dict orders that followed string
    # hashes would show as reports that differ between the seeds.
    group, matrix = FIXTURES / "s3_cayley.csv", FIXTURES / "s3_P.csv"
    script = f"""
from crossconn.cli import COMMANDS, main
for command in COMMANDS:
    spec = "identity:2x2" if command == "rbg" else {str(matrix)!r}
    main(["--group", {str(group)!r}, "--matrix", spec, command])
"""
    outputs = []
    for seed in ("0", "4242"):
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            timeout=120,
            env={
                **os.environ,
                "PYTHONPATH": str(SRC),
                "OPENBLAS_NUM_THREADS": "1",
                "PYTHONHASHSEED": seed,
            },
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    for command in ("verify", "crossconn", "green"):
        assert f'"command": "{command}"'.encode() in outputs[0]
    assert outputs[0] == outputs[1]


def test_text_format(p1_csv, capsys):
    code, out, _ = run_cli(
        ["--group", "cyclic:2", "--matrix", p1_csv, "--format", "text", "build"], capsys
    )
    assert code == 0
    assert out.startswith("command: build\n")
    assert out.rstrip().endswith("result: PASS")


def test_output_file(p1_csv, tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["--group", "cyclic:2", "--matrix", p1_csv, "--output", str(target), "build"],
        capsys,
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["data"]["order"] == 8


def test_env_size_guard(p1_csv, capsys, monkeypatch):
    monkeypatch.setenv("CROSSCONN_SIZE_GUARD", "4")
    code, _, err = run_cli(["--group", "cyclic:2", "--matrix", p1_csv, "build"], capsys)
    assert code == 1
    assert "guard" in err
    # an explicit flag wins over the environment
    code, out, _ = run_cli(
        ["--group", "cyclic:2", "--matrix", p1_csv, "--size-guard", "512", "build"], capsys
    )
    assert code == 0


def test_group_file_spec(tmp_path, capsys, s3):
    group_path = tmp_path / "s3.csv"
    group_path.write_text(
        ",".join(s3.names)
        + "\n"
        + "\n".join(",".join(s3.names[v] for v in row) for row in s3.array.tolist())
        + "\n"
    )
    matrix_path = tmp_path / "P.csv"
    matrix_path.write_text("012,120\n021,012\n")
    code, out, _ = run_cli(
        ["--group", str(group_path), "--matrix", str(matrix_path), "build"], capsys
    )
    assert code == 0
    assert json.loads(out)["data"]["order"] == 24


def test_bad_specs():
    with pytest.raises(ParseError):
        run(parse_args(["--group", "cyclic:x", "--matrix", "identity:2x2", "build"]))
    with pytest.raises(ParseError):
        run(parse_args(["--group", "cyclic:2", "--matrix", "identity:axb", "build"]))
    with pytest.raises(ParseError):
        run(parse_args(["--group", "dihedral:3", "--matrix", "identity:2x2", "build"]))


@pytest.mark.parametrize("spec", ["klein:7", "klein:4", "klein:x", "klein:"])
def test_klein_takes_no_order(spec, capsys):
    # `--group klein` names the Klein group; any order after it is a
    # malformed spec, not a Klein group under another name
    code, out, err = run_cli(["--group", "klein", "--matrix", "identity:1x1", "build"], capsys)
    assert code == 0, err
    assert json.loads(out)["group"] == {"spec": "klein", "order": 4, "names": ["e", "a", "b", "ab"]}
    code, out, err = run_cli(["--group", spec, "--matrix", "identity:1x1", "build"], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: bad group spec {spec!r}: klein takes no order\n"


def test_parse_args_defaults():
    config = parse_args(["verify", "--matrix", "identity:2x2"])
    assert config.group_spec == "cyclic:2"
    assert config.size_guard == 512
    assert config.fmt == "json"


def test_rbg_honours_size_guard(monkeypatch, capsys):
    # With a default guard of 4, any semigroup built without the CLI's guard
    # (8 elements here) would be refused.
    monkeypatch.setattr(ReesSemigroup.__init__, "__defaults__", (4,))
    argv = ["--matrix", "identity:2x2", "--size-guard", "100", "rbg"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    assert json.loads(out)["passed"] is True


@pytest.mark.parametrize("flag", ["--group", "--matrix"])
def test_non_utf8_file_is_an_input_error(flag, tmp_path, p1_csv, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\xff\xfe0\x00,\x001\x00\n")
    files = {"--group": str(bad), "--matrix": p1_csv}
    files[flag] = str(bad)
    argv = ["--group", files["--group"], "--matrix", files["--matrix"], "build"]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "not UTF-8" in err
    assert "Traceback" not in err


def test_output_to_a_missing_directory_is_an_input_error(tmp_path, p1_csv, capsys):
    target = tmp_path / "missing" / "report.json"
    argv = ["--group", "cyclic:2", "--matrix", p1_csv, "--output", str(target), "build"]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert not target.exists()


@pytest.mark.parametrize(
    "bom, newline",
    [("\ufeff", "\n"), ("", "\r\n"), ("\ufeff", "\r\n")],
    ids=["bom", "crlf", "bom-crlf"],
)
def test_bom_and_crlf_files_load_like_plain_ones(bom, newline, tmp_path, capsys):
    # A byte-order mark and CRLF line ends are encodings of the same table,
    # for the Cayley table loader and the matrix loader alike.
    paths = []
    for name in ("s3_cayley.csv", "s3_P.csv"):
        text = (FIXTURES / name).read_text(encoding="utf-8")
        (tmp_path / name).write_bytes((bom + text.replace("\n", newline)).encode("utf-8"))
        paths.append((str(FIXTURES / name), str(tmp_path / name)))
    reports = []
    for group, matrix in zip(*paths):
        code, out, err = run_cli(["--group", group, "--matrix", matrix, "build"], capsys)
        assert code == 0, err
        report = json.loads(out)
        del report["group"]["spec"]
        reports.append(report)
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "args",
    [["--size-guard", "abc", "build"], ["frobnicate"], ["--format", "xml", "build"], []],
    ids=["size-guard", "command", "format", "no-command"],
)
def test_malformed_arguments_are_input_errors(args, capsys):
    # Exit 2 means a failed check; a command line that does not parse is
    # malformed input, exit 1 with one error line.
    code, out, err = run_cli(["--group", "cyclic:2", "--matrix", "identity:1x1", *args], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: argument") or err.startswith("error: the following")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: crossconn" in capsys.readouterr().out


def _cap_address_space():
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize(
    "spec, extra, env, message",
    [
        ("identity:100000x100000", [], None, "20000000000 elements, above the guard 512"),
        ("identity:2x2", ["--size-guard", "7"], None, "8 elements, above the guard 7"),
        ("identity:2x2", [], "7", "8 elements, above the guard 7"),
    ],
)
def test_identity_spec_above_the_guard_builds_no_matrix(
    spec, extra, env, message, monkeypatch, capsys
):
    # The guard in force refuses an identity:RxC spec from its dimensions,
    # before R*C entries are built (10^10 of them in the first case).
    def unbuilt(*args):
        raise AssertionError("the matrix was built")

    monkeypatch.setattr(cli, "identity_matrix", unbuilt)
    if env is not None:
        monkeypatch.setenv("CROSSCONN_SIZE_GUARD", env)
    argv = ["--group", "cyclic:2", "--matrix", spec, *extra, "verify"]
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err == f"error: semigroup has {message}\n"


def test_cyclic_order_guard_comes_before_the_table():
    # cyclic:100000 would build a 10^10-entry table before FiniteGroup's
    # guard.  Under a 1 GiB address-space cap that shows as a quick
    # MemoryError traceback rather than exhausting the machine's memory.
    result = subprocess.run(
        [sys.executable, "-m", "crossconn.cli", "--group", "cyclic:100000",
         "--matrix", "identity:1x1", "build"],
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=_cap_address_space,
        env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"},
    )
    assert result.returncode == 1, result.stderr
    assert result.stdout == ""
    assert result.stderr == "error: group order 100000 exceeds the validation guard 256\n"


@pytest.mark.parametrize("command", ["verify", "crossconn", "rbg"])
def test_each_command_builds_the_linked_pairs_once(command, monkeypatch, capsys):
    calls = Counter()
    original = connections.pair_cones

    def counting(*args, **kwargs):
        calls["pair_cones"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(connections, "pair_cones", counting)
    code, _, err = run_cli(["--group", "cyclic:2", "--matrix", "identity:2x2", command], capsys)
    assert code == 0, err
    assert calls == {"pair_cones": 1}


@pytest.mark.parametrize("command", ["verify", "crossconn", "rbg"])
def test_each_command_builds_the_u_cones_once(command, monkeypatch, capsys):
    # U-Delta is u_cones of the transposed matrix: one build of each is 2 calls
    calls = Counter()
    original = connections.u_cones

    def counting(*args, **kwargs):
        calls["u_cones"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(connections, "u_cones", counting)
    code, _, err = run_cli(["--group", "cyclic:2", "--matrix", "identity:2x2", command], capsys)
    assert code == 0, err
    assert calls == {"u_cones": 2}


def _mutate(lines: list[str], kind: str, row: int, cell: int) -> list[str]:
    """One text mutation of a fixture's lines at (row, cell), both taken modulo
    the line count and the width of the chosen line."""
    lines = list(lines)
    r = row % len(lines)
    delim = "\t" if "\t" in lines[r] else ","
    cells = lines[r].split(delim)
    c = cell % len(cells)
    if kind == "duplicate":
        cells[c] = cells[(c + 1) % len(cells)]
    elif kind == "trailing":
        cells.append("")
    elif kind == "ragged":
        del cells[c]
    elif kind == "blank":
        lines.insert(r, " " * (cell % 3))
        return lines
    elif kind == "swap_line":
        delim = "," if delim == "\t" else "\t"
    elif kind == "swap_file":
        return [ln.replace(",", "\t") for ln in lines]
    lines[r] = delim.join(cells)
    return lines


MUTATIONS = st.tuples(
    st.sampled_from(["duplicate", "trailing", "ragged", "blank", "swap_line", "swap_file"]),
    st.integers(0, 20),
    st.integers(0, 20),
)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["s3_cayley.csv", "s3_P.csv"]), st.lists(MUTATIONS, min_size=1, max_size=3))
def test_mutated_input_files_exit_0_or_name_the_file(target, mutations):
    # Malformed input is one error line that names the file, exit 1; a
    # mutation that leaves a valid file builds, exit 0.  Never a traceback.
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name in ("s3_cayley.csv", "s3_P.csv"):
            lines = (FIXTURES / name).read_text().splitlines()
            if name == target:
                for mutation in mutations:
                    lines = _mutate(lines, *mutation)
            paths[name] = os.path.join(tmp, name)
            Path(paths[name]).write_text("\n".join(lines) + "\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(
                ["--group", paths["s3_cayley.csv"], "--matrix", paths["s3_P.csv"], "build"]
            )
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code == 1
        assert out.getvalue() == ""
        assert err.getvalue().startswith(f"error: {paths[target]}: ")
        assert err.getvalue().count("\n") == 1


def test_no_command_imports_numpy_ma():
    # numpy.ma costs start-up time and memory in every fresh interpreter;
    # np.unique and np.isin import it.
    group, matrix = FIXTURES / "s3_cayley.csv", FIXTURES / "s3_P.csv"
    script = f"""
import contextlib, io, sys
from crossconn.cli import main
for command in {list(COMMANDS)!r}:
    spec = "identity:2x2" if command == "rbg" else {str(matrix)!r}
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--group", {str(group)!r}, "--matrix", spec, command]) == 0, command
print("numpy.ma" in sys.modules)
"""
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


@pytest.mark.parametrize(
    "flag, command", [("--group", "build"), ("--matrix", "build"), ("--matrix", "rbg")]
)
def test_empty_path_is_an_input_error(flag, command, capsys):
    # Path("") is the current directory: without a check of its own an empty
    # spec read as '.' and failed with "[Errno 21] Is a directory".  rbg, whose
    # matrix defaults to identity:2x2, read an empty --matrix as no matrix.
    specs = {"--group": "cyclic:2", "--matrix": "identity:2x2", flag: ""}
    argv = ["--group", specs["--group"], "--matrix", specs["--matrix"], command]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err == "error: empty file name ''\n"


# the modules that only some commands run
COMMAND_MODULES = ("categories", "cones", "connections", "verify")
STARTUP_SCRIPT = """
import sys
from crossconn import cli
code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
loaded = [m for m in {modules!r} if "crossconn." + m in sys.modules]
print(code, loaded, "dataclasses" in sys.modules, file=sys.stderr)
"""


def _fresh_cli(*argv) -> tuple[str, str]:
    """(stdout, last stderr line) of one CLI run in a fresh interpreter
    without bytecode, as the CLI runs from a fresh checkout; the line gives
    the exit code, the command modules loaded and whether dataclasses was."""
    result = subprocess.run(
        [sys.executable, "-c", STARTUP_SCRIPT.format(modules=COMMAND_MODULES), *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env={
            **os.environ,
            "PYTHONPATH": str(SRC),
            "OPENBLAS_NUM_THREADS": "1",
            "PYTHONDONTWRITEBYTECODE": "1",
        },
    )
    assert result.returncode == 0, result.stderr
    return result.stdout, result.stderr.splitlines()[-1]


S3_FILES = ["--group", str(FIXTURES / "s3_cayley.csv"), "--matrix", str(FIXTURES / "s3_P.csv")]


def test_importing_the_cli_loads_no_command_module():
    assert _fresh_cli() == ("", "0 [] False")


@pytest.mark.parametrize("command", ["build", "green"])
def test_build_and_green_load_no_command_module(command):
    out, loaded = _fresh_cli(*S3_FILES, command)
    assert json.loads(out)["command"] == command
    assert loaded == "0 [] False"


def test_iso_check_loads_only_cones():
    out, loaded = _fresh_cli(*S3_FILES, "iso-check")
    assert json.loads(out)["command"] == "iso-check"
    assert loaded == "0 ['cones'] False"


def test_verify_in_a_fresh_interpreter_prints_the_in_process_report():
    out, loaded = _fresh_cli(*S3_FILES, "verify")
    assert out == emit(run(parse_args([*S3_FILES, "verify"]))[1], "json")
    assert loaded == f"0 {list(COMMAND_MODULES)} False"
