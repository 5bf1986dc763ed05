"""Front-end contract: pinned outputs, formats, determinism, exit codes."""

import hashlib
import json
import subprocess
import sys

import pytest

from wzw import cli
from wzw.errors import InternalError


def run_cli(*args, timeout=None):
    code = ("import sys; from wzw.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, timeout=timeout)


def test_dim_example():
    out = run_cli("dim", "--algebra", "A1", "--level", "1", "--genus", "2")
    assert out.returncode == 0
    assert json.loads(out.stdout) == {"dimension": 4}


def test_dehn_example():
    out = run_cli("dehn", "--algebra", "A1", "--level", "1", "--label", "1")
    assert out.returncode == 0
    assert json.loads(out.stdout) == {"exponent": "1/2",
                                      "eigenvalue": "exp(-i*pi/2)"}


def test_oracle_example():
    out = run_cli("oracle", "three-point", "--level", "1", "--labels", "1,1,0")
    assert out.returncode == 0
    assert json.loads(out.stdout) == {"rank": 1, "classical_rank": 1}


@pytest.mark.parametrize("problem,labels,points", [
    ("npoint", "1,1,2", "-5,17,14"),
    ("propagation", "1,1", "-3/2,0"),
])
def test_oracle_negative_first_point(problem, labels, points):
    # a point list starting with a minus sign is a value, not an option
    spaced = run_cli("oracle", problem, "--level", "2", "--labels", labels,
                     "--points", points)
    joined = run_cli("oracle", problem, "--level", "2", "--labels", labels,
                     f"--points={points}")
    assert joined.returncode == 0
    assert (spaced.returncode, spaced.stdout) == (0, joined.stdout)


def test_fusion_table_schema():
    out = run_cli("fusion-table", "--algebra", "A1", "--level", "2")
    data = json.loads(out.stdout)
    assert data["algebra"] == "A1" and data["level"] == 2
    assert data["labels"] == [[0], [1], [2]]
    for entry in data["coeffs"]:
        assert set(entry) == {"labels", "n"}
        assert all(0 <= i < 3 for i in entry["labels"])
        assert entry["n"] > 0
    # unit row: 0 fuses with m to m alone
    assert {"labels": [0, 1, 1], "n": 1} in data["coeffs"]


def test_fusion_table_tsv():
    out = run_cli("fusion-table", "--algebra", "A1", "--level", "1",
                  "--format", "tsv")
    lines = out.stdout.splitlines()
    assert lines[0].split("\t") == ["labels", "0", "1"]
    assert len(lines) == 5


def test_kz_matrices_rational_strings():
    out = run_cli("kz", "matrices", "--level", "2", "--labels", "1,1,2")
    data = json.loads(out.stdout)
    assert data["dim"] == 1 and data["classical_dim"] == 1
    entries = {(m["i"], m["j"]): m["entries"] for m in data["matrices"]}
    assert entries[(0, 1)] == [["-1/8"]]
    assert entries[(0, 2)] == [["1/2"]]
    assert data["base_point"] == ["2", "0", "-2"]


def test_kz_transport_round_trip(tmp_path):
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({
        "points": [[[2, 0], [0, 0], [-2, 0]], [[2, 1], [0, 0], [-2, 0]],
                   [[3, 1], [0, 0], [-2, 0]], [[3, 0], [0, 0], [-2, 0]]],
        "closed": True}))
    out = run_cli("kz", "transport", "--level", "2", "--labels", "1,1,2",
                  "--path", str(path), "--steps", "1000")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["converged"] is True
    re, im = data["matrix"][0][0]
    assert abs(re - 1) < 1e-6 and abs(im) < 1e-6


def test_kz_transport_bad_path_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\"points\": 3}")
    out = run_cli("kz", "transport", "--level", "2", "--labels", "1,1,2",
                  "--path", str(path))
    assert out.returncode == 1
    assert "points" in out.stderr


@pytest.mark.parametrize("content", [b"[1, 2]", b"\xff\xfe"], ids=["array", "not-utf8"])
def test_kz_transport_malformed_path_file_is_an_input_error(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    out = run_cli("kz", "transport", "--level", "2", "--labels", "1,1,2",
                  "--path", str(path))
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.startswith("error:") and out.stderr.count("\n") == 1


def _transport_with_first_point(tmp_path, first):
    path = tmp_path / "path.json"
    path.write_text(f'{{"points": [[{first}, [0, 0], [-2, 0]], '
                    '[[2, 1], [0, 0], [-2, 0]]], "closed": true}')
    return run_cli("kz", "transport", "--level", "2", "--labels", "1,1,2",
                   "--path", str(path), "--steps", "200")


@pytest.mark.parametrize("first", ["[NaN, 0]", "[2, Infinity]", "[-Infinity, 0]"])
def test_kz_transport_rejects_non_finite_coordinates(tmp_path, first):
    out = _transport_with_first_point(tmp_path, first)
    assert out.returncode == 1
    assert out.stdout == ""
    assert "finite" in out.stderr


@pytest.mark.parametrize("first", ["[1e300, 0]", "[1.7e308, 1.7e308]"])
def test_kz_transport_rejects_overflowing_coordinates(tmp_path, first):
    out = _transport_with_first_point(tmp_path, first)
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.startswith("error:") and "Traceback" not in out.stderr


def test_kz_transport_under_resolved_path_is_an_input_error(tmp_path):
    # the path grazes z_0 = z_1 at distance 1e-10, inside what 100 steps resolve
    path = tmp_path / "near.json"
    path.write_text(json.dumps({"points": [[[1e-10, 1], [0, 0], [-2, 0]],
                                           [[1e-10, -1], [0, 0], [-2, 0]]]}))
    out = run_cli("kz", "transport", "--level", "2", "--labels", "1,1,2",
                  "--path", str(path), "--steps", "100")
    assert out.returncode == 1
    assert out.stdout == ""
    assert "--steps" in out.stderr and "Traceback" not in out.stderr
    assert "not resolved by the steps" in out.stderr and "singular" not in out.stderr


@pytest.mark.parametrize("tolerance", ["inf", "nan", "0", "-1"])
def test_kz_transport_rejects_a_bad_tolerance(tmp_path, tolerance):
    # inf would call any error converged, and nan, 0 or -1 none at any --steps
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({"points": [[[2, 0], [0, 0], [-2, 0]],
                                           [[2, 1], [0, 0], [-2, 0]]], "closed": True}))
    out = run_cli("kz", "transport", "--level", "2", "--labels", "1,1,2",
                  "--path", str(path), "--steps", "200", f"--tolerance={tolerance}")
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.startswith("error:") and out.stderr.count("\n") == 1
    assert "tolerance" in out.stderr


HUGE_LEVEL = "99999999999999999999"


@pytest.mark.parametrize("argv", [("fusion-table",), ("dim", "--genus", "1"),
                                  ("dehn", "--label", "1")], ids=lambda argv: argv[0])
def test_level_too_large_to_enumerate_is_an_input_error(argv):
    out = run_cli(*argv, "--algebra", "A1", "--level", HUGE_LEVEL)
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.startswith("error:") and out.stderr.count("\n") == 1


def test_kz_matrices_at_a_huge_level_stop_at_the_zero_vector():
    # T^(l+1) kills V_1 (x) V_1 after two steps; the loop must not run l more
    out = run_cli("kz", "matrices", "--level", HUGE_LEVEL, "--labels", "1,1", timeout=60)
    assert out.returncode == 0
    assert json.loads(out.stdout)["matrices"][0]["entries"] == [["3/200000000000000000002"]]


def test_kz_truncation_must_be_flat(tmp_path):
    flat = run_cli("kz", "matrices", "--level", "5", "--labels", "3,3,3,3")
    assert flat.returncode == 0
    assert json.loads(flat.stdout)["truncated"] is True
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"points": [[[8, 0], [4, 0], [0, 0], [-4, 0], [-8, 0]],
                                           [[8, 1], [4, 0], [0, 0], [-4, 0], [-8, 0]]]}))
    for argv in (("matrices", "--level", "4"), ("matrices", "--level", "3"),
                 ("transport", "--level", "4", "--path", str(path))):
        out = run_cli("kz", *argv, "--labels", "2,2,2,2,2")
        assert out.returncode == 1, argv
        assert out.stdout == ""
        assert "truncation is not supported" in out.stderr


# sha256 prefixes of stdout, recorded before fusion moved to index tables (the
# fusion and dim rows), before the Fock space became the Heisenberg induced
# module (the fock and kz rows), before the algebras were tabulated and the KZ
# system lost its projection pass (the next five rows) and before the oracle,
# the KZ quotient and the Sugawara operators ran on integers (the last row)
GOLDEN = [
    (("fusion-table", "--algebra", "A2", "--level", "2"), "c523d7a4f756d0c1"),
    (("fusion-table", "--algebra", "A1", "--level", "8", "--format", "tsv"),
     "7b86dbc954cc656f"),
    (("fusion-table", "--algebra", "G2", "--level", "2"), "dd9da5ec966d0a22"),
    (("dim", "--algebra", "A2", "--level", "2", "--genus", "3"), "7e3ee70945c3b5ef"),
    (("dim", "--algebra", "A1", "--level", "4", "--genus", "2", "--labels", "1,1,2,2"),
     "3a654582736dfcad"),
    (("verify", "fusion-axioms"), "b6d024083d7e6401"),
    (("verify", "block-dimensions"), "1b2e34b36e1e6a85"),
    (("verify", "virasoro", "--kmax", "3", "--degree", "12", "--format", "tsv"),
     "3b870068d4caf681"),
    (("verify", "sugawara", "--level", "2", "--label", "1", "--degree", "4",
      "--format", "tsv"), "a3d8688b3e7445d0"),
    (("verify", "virasoro-bracket"), "b384d114a368c6ed"),
    (("verify", "gluing-recursion", "--format", "tsv"), "b32cca326a28a396"),
    (("kz", "matrices", "--level", "1", "--labels", "1,1,1,1"), "a7f1fef4dc08d475"),
    (("fusion-table", "--algebra", "B2", "--level", "2"), "f2c3da261882b80d"),
    (("fusion-table", "--algebra", "D4", "--level", "1"), "2f6b1db98144b6f6"),
    (("dehn", "--algebra", "G2", "--level", "2", "--label", "0:1"), "6599d58c1ab5ec1b"),
    (("kz", "matrices", "--level", "5", "--labels", "3,3,3,3"), "a78d41bdc72902f3"),
    (("kz", "matrices", "--level", "5", "--labels", "2,2,2,2,2"), "ddd49dd6ce933b16"),
    (("fusion-table", "--algebra", "A1", "--level", "12"), "829b652aeb71c157"),
    (("fusion-table", "--algebra", "A2", "--level", "3"), "91b5245c67a9b0aa"),
    (("dim", "--algebra", "A1", "--level", "5", "--genus", "3"), "efdb696e4de44811"),
    (("dim", "--algebra", "A2", "--level", "3", "--genus", "1", "--labels",
      "1:0,0:1,1:1,1:1"), "763256d6e3be8cc8"),
    (("dim", "--algebra", "A1", "--level", "10", "--genus", "0", "--labels",
      "1,2,3,4,5,6,1"), "35d1a10183de8d4e"),
    # mixed denominators: the oracle scales the points by their lcm 42
    (("oracle", "npoint", "--level", "3", "--labels", "1,2,3,2",
      "--points=1/2,-3/7,5,2/3"), "8e6ca64888ef0992"),
]


@pytest.mark.parametrize("args,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_golden_stdout(args, digest):
    out = run_cli(*args)
    assert out.returncode == 0
    assert hashlib.sha256(out.stdout.encode()).hexdigest()[:16] == digest


def _benchmark_loop(path, n):
    """z_0 once around z_1 = 0 on the README's rectangle; z_2, z_3, ... at -2, -4, ..."""
    rest = [[-2 * k, 0] for k in range(1, n - 1)]
    corners = [(2, 0), (2, 3), (-1, 3), (-1, -3), (2, -3)]
    path.write_text(json.dumps({"points": [[[1.0 * x, 1.0 * y], [0, 0]] + rest
                                           for x, y in corners], "closed": True}))
    return str(path)


@pytest.mark.parametrize("level,labels,steps,digest", [
    (2, "1,1,2", 4000, "777f78a1ca7a674f"),
    (4, "2,2,2,2", 8000, "b3708a2d27d0d2ef"),
])
def test_golden_transport(tmp_path, level, labels, steps, digest):
    # recorded before the RK4 step shared its midpoint connection form
    path = _benchmark_loop(tmp_path / "loop.json", len(labels.split(",")))
    out = run_cli("kz", "transport", "--level", str(level), "--labels", labels,
                  "--path", path, "--steps", str(steps))
    assert out.returncode == 0
    assert hashlib.sha256(out.stdout.encode()).hexdigest()[:16] == digest


def test_kz_transport_of_a_zero_dimensional_block(tmp_path):
    # 1 (x) 2 has no invariant, so the holonomy is the empty matrix
    path = _benchmark_loop(tmp_path / "loop.json", 2)
    out = run_cli("kz", "transport", "--level", "2", "--labels", "1,2", "--path", path)
    assert out.returncode == 0, out.stderr
    payload = json.loads(out.stdout)
    assert payload["matrix"] == []
    assert payload["error_estimate"] == 0.0 and payload["converged"] is True


def test_oracle_rejects_repeated_points_as_written():
    out = run_cli("oracle", "npoint", "--level", "2", "--labels", "1,1",
                  "--points=1/3,1/3")
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr == "error: points must be pairwise distinct, got 1/3,1/3\n"


def test_closed_stdout_exits_one_without_traceback():
    code = ("import sys; from wzw.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    proc = subprocess.Popen([sys.executable, "-c", code, "kz", "matrices", "--level", "1",
                             "--labels", "1,1,1,1"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()  # the reader is gone before the first write
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err


@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_answer_past_the_digit_limit_is_rejected_whole(fmt):
    # the dimension 2^15000 has 4516 digits, past Python's default 4300-digit
    # limit for converting an integer to text
    out = run_cli("dim", "--algebra", "A1", "--level", "1", "--genus", "15000",
                  "--format", fmt)
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr == ("error: the answer has more than 4300 digits, "
                          "Python's limit for printing an integer\n")


def test_verify_virasoro_report():
    out = run_cli("verify", "virasoro", "--kmax", "1", "--degree", "6")
    data = json.loads(out.stdout)
    assert out.returncode == 0
    assert all(set(row) == {"name", "window", "residual_norm"}
               for row in data["checks"])
    assert all(row["residual_norm"] == "0" for row in data["checks"])


def test_verify_sugawara_report():
    out = run_cli("verify", "sugawara", "--algebra", "A1", "--level", "1",
                  "--label", "1", "--degree", "4")
    data = json.loads(out.stdout)
    assert out.returncode == 0
    names = [row["name"] for row in data["checks"]]
    assert any(n.startswith("sugawara-bracket") for n in names)
    assert any(n.startswith("current") for n in names)
    assert any(n.startswith("L0-spectrum") for n in names)
    assert all(row["residual_norm"] == "0" for row in data["checks"])


def test_verify_virasoro_rejects_negative_kmax():
    # kmax < 0 used to print no rows and exit 0 after checking nothing
    out = run_cli("verify", "virasoro", "--kmax", "-1")
    assert out.returncode == 1
    assert out.stdout == ""
    assert "kmax" in out.stderr


@pytest.mark.parametrize("argv,flag", [
    (("sugawara", "--kmax", "5"), "--kmax"),
    (("virasoro", "--level", "2"), "--level"),
    (("fusion-axioms", "--algebra", "A2", "--level", "7"), "--algebra"),
    (("block-dimensions", "--label", "1"), "--label"),
    (("all", "--degree", "4"), "--degree"),
])
def test_verify_rejects_a_flag_the_target_does_not_read(argv, flag):
    out = run_cli("verify", *argv)
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr == f"error: verify {argv[0]} does not read {flag}\n"


@pytest.mark.parametrize("argv,flag", [
    (("oracle", "three-point", "--labels", "1,1,0", "--points=0,1,2"), "--points"),
    (("kz", "matrices", "--labels", "1,1", "--steps", "5"), "--steps"),
    (("kz", "matrices", "--labels", "1,1", "--path", "missing.json", "--tolerance", "-1"),
     "--path"),
    (("kz", "matrices", "--labels", "1,1", "--tolerance", "1e-3"), "--tolerance"),
], ids=["three-point --points", "matrices --steps", "matrices --path", "matrices --tolerance"])
def test_a_flag_the_command_does_not_read_is_rejected(argv, flag):
    # an unread flag is an error, not silently ignored
    out = run_cli(*argv, "--level", "1")
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr == f"error: {argv[0]} {argv[1]} does not read {flag}\n"


def test_kz_transport_flag_defaults(tmp_path, capsys):
    # --steps 10000 and --tolerance 1e-6 when left out
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({"points": [[[2, 0], [0, 0], [-2, 0]],
                                           [[2, 1], [0, 0], [-2, 0]]], "closed": True}))
    argv = ["kz", "transport", "--level", "2", "--labels", "1,1,2", "--path", str(path)]
    assert cli.main(argv) == 0
    default = capsys.readouterr().out
    assert json.loads(default)["steps"] == 10000
    assert cli.main(argv + ["--steps", "10000", "--tolerance", "1e-6"]) == 0
    assert capsys.readouterr().out == default


def test_verify_single_check_by_name():
    out = run_cli("verify", "virasoro-bracket")
    data = json.loads(out.stdout)
    assert out.returncode == 0
    assert data["checks"][0]["name"] == "virasoro-bracket"
    assert data["checks"][0]["status"] == "pass"


def test_byte_identical_reruns():
    for args in (("fusion-table", "--algebra", "A2", "--level", "1"),
                 ("kz", "matrices", "--level", "1", "--labels", "1,1,1,1"),
                 ("dim", "--algebra", "A1", "--level", "3", "--genus", "1")):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0


def test_exit_code_one_on_bad_input():
    assert run_cli("dim", "--algebra", "A1", "--level", "1",
                   "--genus", "-3").returncode == 1
    assert run_cli("dehn", "--algebra", "A1", "--level", "1",
                   "--label", "9").returncode == 1
    assert run_cli("nonsense").returncode == 1
    assert run_cli("dim", "--algebra", "A1", "--level", "1",
                   "--genus", "2", "--bogus-flag").returncode == 1


def test_exit_code_two_on_internal_error(monkeypatch, capsys):
    def boom(kmax, degree):
        raise InternalError("synthetic invariant violation")
    monkeypatch.setattr(cli.checks, "virasoro_rows", boom)
    code = cli.main(["verify", "virasoro"])
    assert code == 2
    assert "internal error" in capsys.readouterr().err


def test_exit_code_two_on_unexpected_exception(monkeypatch, capsys):
    def boom(kmax, degree):
        raise RuntimeError("synthetic bug")
    monkeypatch.setattr(cli.checks, "virasoro_rows", boom)
    code = cli.main(["verify", "virasoro"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "internal error: RuntimeError('synthetic bug')"]


def test_main_returns_zero_in_process(capsys):
    assert cli.main(["dehn", "--algebra", "A1", "--level", "2",
                     "--label", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"exponent": "1", "eigenvalue": "-1"}
