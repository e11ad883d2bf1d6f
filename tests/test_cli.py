"""Command-line interface: exit codes, reports, determinism, round trips."""

import functools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import whsic
from whsic import cli, crt, dims, fileio, mub
from whsic.cli import main
from whsic.clifford import random_symplectic
from whsic.dims import Dimension, PhasePermutation, tau_powers
from whsic.errors import NotOrthonormal
from whsic.monomial import monomial_weyl_generators
from whsic.sic import Fiducial, fiducial_n4, search_fiducial
from whsic.weyl import standard_generators

from oracles import dense_v
from report_parity import CLOSED_FORMS, REPORTS, moved_rows, table_rows


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_sic_builtins_pass(capsys):
    for builtin in ("n4", "n9"):
        code, rep = run(["verify", "sic", "--builtin", builtin], capsys)
        assert code == 0
        assert rep["pass"] is True
        assert rep["metrics"]["max_abs_deviation"] < 1e-10


def test_verify_sic_n16_passes_at_default_tol(capsys):
    for branch in ("1", "-1"):
        code, rep = run(["verify", "sic", "--builtin", "n16",
                         "--t2-branch", branch], capsys)
        assert code == 0 and rep["pass"] is True
        assert rep["inputs"]["tol"] == 1e-10


def test_verify_sic_n16_conjugate_orbit(capsys):
    """--conjugate-orbit reaches the second N = 16 orbit, 16b."""
    vectors = {}
    for orbit in ("0", "1"):
        code, rep = run(["generate", "sic", "--dim", "16",
                         "--conjugate-orbit", orbit], capsys)
        assert code == 0 and rep["inputs"]["conjugate_orbit"] == int(orbit)
        prov = rep["artifacts"]["fiducial"]["provenance"]
        assert prov["conjugate_orbit"] is (orbit == "1")
        assert prov["orbit"] == ("16b" if orbit == "1" else "16a")
        vectors[orbit] = rep["artifacts"]["fiducial"]["amplitudes"]
        code, rep = run(["verify", "sic", "--builtin", "n16",
                         "--conjugate-orbit", orbit], capsys)
        assert code == 0 and rep["pass"] is True
    assert vectors["0"] != vectors["1"]
    assert main(["verify", "sic", "--builtin", "n16",
                 "--conjugate-orbit", "2"]) == 2
    assert main(["verify", "sic", "--builtin", "n4",
                 "--conjugate-orbit", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_verify_sic_from_file(tmp_path, capsys):
    path = tmp_path / "f.json"
    fileio.save_fiducial(fiducial_n4(1, 2, 3, 0), path)
    code, rep = run(["verify", "sic", "--file", str(path)], capsys)
    assert code == 0
    assert rep["metrics"]["N"] == 4
    # the n4 construction flags have defaults but are not read for a file
    assert rep["inputs"] == {"file": str(path), "tol": 1e-10}


def test_verify_sic_failing_vector_exits_one(tmp_path, capsys):
    e0 = np.zeros(4, dtype=complex)
    e0[0] = 1.0
    path = tmp_path / "bad.json"
    fileio.save_fiducial(Fiducial(Dimension(4), "standard", e0), path)
    code, rep = run(["verify", "sic", "--file", str(path)], capsys)
    assert code == 1
    assert rep["pass"] is False
    assert rep["metrics"]["worst_displacement"] == [0, 1]


def test_verify_sic_takes_exactly_one_fiducial_source(tmp_path, capsys):
    path = tmp_path / "f.json"
    fileio.save_fiducial(fiducial_n4(0, 0, 0, 0), path)
    assert main(["verify", "sic", "--file", str(path), "--builtin", "n9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with" in captured.err
    assert main(["verify", "sic"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--builtin" in captured.err and "--file" in captured.err


def test_verify_mub_names_its_worst_pair(capsys, monkeypatch):
    """A copy of basis "zero" in place of the last basis is biased against
    "zero" alone: the report names that pair and its lines 0 and 0, which
    meet in all n points, and counts every pair."""
    from whsic import mub
    prime_family = mub.prime_family

    def with_copy(p):
        bases = prime_family(p)
        return bases[:-1] + [mub.Basis(*bases[0][:-1], "copy")]

    code, rep = run(["verify", "mub", "--p", "3"], capsys)
    assert code == 0 and rep["metrics"]["checked_pairs"] == 6
    assert rep["metrics"]["witness"] is None
    monkeypatch.setattr(mub, "prime_family", with_copy)
    code, rep = run(["verify", "mub", "--p", "3"], capsys)
    assert code == 1
    assert rep["metrics"]["witness"] == ["zero", "copy", 0, 0, 3]
    assert rep["metrics"]["checked_pairs"] == 6
    assert "max_abs_deviation" not in rep["metrics"]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19])
def test_verify_mub_certifies_every_prime_to_the_cap(p, capsys, monkeypatch):
    """No pair has a witness, every pair is counted, and no dense vector
    is built."""
    from whsic import mub

    def no_vectors(self):
        raise AssertionError("verify mub built a dense basis")

    monkeypatch.setattr(mub.Basis, "vectors", property(no_vectors))
    code, rep = run(["verify", "mub", "--p", str(p)], capsys)
    assert code == 0 and rep["pass"] is True
    assert rep["metrics"]["witness"] is None
    assert rep["metrics"]["checked_pairs"] == p * (p + 1) // 2


def test_verify_sic_corrupt_file_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["verify", "sic", "--file", str(path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("literal,value", [("NaN", np.nan),
                                           ("Infinity", np.inf)])
def test_non_finite_amplitude_exits_two(literal, value, tmp_path, capsys):
    """json reads NaN and Infinity, and a NaN norm compares False both
    ways: a norm that is not finite is a parse error, so no report carries
    a NaN deviation, which would not be JSON."""
    d = fileio.fiducial_to_dict(fiducial_n4(0, 0, 0, 0))
    d["amplitudes"][1][0] = value
    path = tmp_path / "f.json"
    path.write_text(json.dumps(d))
    assert literal in path.read_text()
    assert main(["verify", "sic", "--file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "vector norm" in captured.err
    with pytest.raises(ValueError, match="fiducial norm"):
        Fiducial(Dimension(2), "standard", np.array([value, 1.0]))


N4_DOCUMENT = fileio.fiducial_to_dict(fiducial_n4(0, 0, 0, 0))
# each malformed fiducial document, with what its error names
MALFORMED = {
    "list": ([], "JSON object"),
    "no-N": ({k: v for k, v in N4_DOCUMENT.items() if k != "N"}, "'N'"),
    "null-N": ({**N4_DOCUMENT, "N": None}, "'N'"),
    "number-amplitude": ({**N4_DOCUMENT, "amplitudes": [1]}, "'amplitudes'"),
    "string-amplitude": ({**N4_DOCUMENT, "amplitudes": [["a", "b"]]},
                         "'amplitudes'"),
    "list-provenance": ({**N4_DOCUMENT, "provenance": [1]}, "'provenance'"),
}


@pytest.mark.parametrize("doc,names", MALFORMED.values(), ids=MALFORMED)
def test_malformed_fiducial_file_exits_two_naming_the_field(doc, names,
                                                            tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "sic", "--file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and names in captured.err
    assert captured.err.count("\n") == 1


def test_fiducial_file_above_the_cap_exits_two(tmp_path, capsys):
    """A file one above the cap is refused after it is read, before any
    N x N array is built."""
    N = cli.FILE_DIM_CAP + 1
    e0 = np.zeros(N, dtype=complex)
    e0[0] = 1.0
    path = tmp_path / "f.json"
    fileio.save_fiducial(Fiducial(Dimension(N), "standard", e0), path)
    assert main(["verify", "sic", "--file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {path}: N = {N} is above the verify sic "
                            f"--file cap {cli.FILE_DIM_CAP}\n")


def _fiducial_file(path, N, amplitudes, indent=None, size=0):
    """A standard-basis fiducial file, written by json with the given indent
    and padded with spaces to size bytes."""
    doc = {"format_version": 1, "N": N, "basis": "standard",
           "amplitudes": amplitudes,
           "provenance": {"construction": "search", "nfev": 1234,
                          "nit": 1000, "residual": -1.2345678901234567e-100,
                          "restart": 2499, "rng_seed": 1234567890,
                          "stop": "line search"}}
    path.write_text(json.dumps(doc, indent=indent).ljust(size))


def test_the_byte_cap_admits_every_fiducial_of_the_n_cap(tmp_path):
    """MAX_BYTES is above an N = 1224 file of the longest float reprs, 24
    characters, with and without indentation."""
    N = cli.FILE_DIM_CAP
    tiny = -1.2345678901234567e-100
    amps = [[1.0, tiny]] + [[tiny, tiny]] * (N - 1)
    assert {len(repr(x)) for pair in amps[1:] for x in pair} == {24}
    for indent in (None, 4):
        path = tmp_path / f"f{indent}.json"
        _fiducial_file(path, N, amps, indent)
        assert path.stat().st_size <= fileio.MAX_BYTES
        assert fileio.load_fiducial(str(path)).dim.N == N


def test_a_file_longer_than_the_byte_cap_is_never_parsed(tmp_path, capsys,
                                                          monkeypatch):
    """A file of exactly MAX_BYTES is read; one a byte longer, and a
    1.6 MB file of N = 200000, exit 2 without a call to json's parser."""
    path, large = tmp_path / "f.json", tmp_path / "large.json"
    amps = [[0.5, 0.0]] * 4
    _fiducial_file(path, 4, amps, size=fileio.MAX_BYTES)
    assert path.stat().st_size == fileio.MAX_BYTES
    code, rep = run(["verify", "sic", "--file", str(path)], capsys)
    assert code == 1 and rep["metrics"]["N"] == 4
    _fiducial_file(path, 4, amps, size=fileio.MAX_BYTES + 1)
    _fiducial_file(large, 200000, [[1, 0]] + [[0, 0]] * 199999)
    assert large.stat().st_size > 1.6e6

    def parse(*args, **kwargs):
        raise AssertionError("json parsed a file above the byte cap")
    monkeypatch.setattr(json, "load", parse)
    monkeypatch.setattr(json, "loads", parse)
    for f in (path, large):
        assert main(["verify", "sic", "--file", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {f}: longer than "
                                f"{fileio.MAX_BYTES} bytes\n")


def test_a_non_finite_report_exits_two_with_nothing_on_stdout(capsys,
                                                              monkeypatch):
    command = cli.COMMANDS["verify zauner"]
    monkeypatch.setitem(cli.COMMANDS, "verify zauner", command._replace(
        run=lambda args: {"pass": True, "metrics": {"margin": np.nan}}))
    assert main(["verify", "zauner", "--dim", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "JSON" in captured.err


def test_verify_mub_and_crt_and_zauner(capsys):
    code, rep = run(["verify", "mub", "--p", "3"], capsys)
    assert code == 0 and rep["metrics"]["num_bases"] == 4
    code, rep = run(["verify", "crt", "--dim", "6"], capsys)
    assert code == 0
    assert rep["metrics"]["witness"] is None
    assert rep["metrics"]["checked_displacements"] == "36"
    assert rep["metrics"]["symplectic_samples"] == 20
    assert 20 <= rep["metrics"]["checked_chirps"] <= 40
    assert "max_abs_deviation" not in rep["metrics"]
    code, rep = run(["verify", "zauner", "--dim", "11"], capsys)
    assert code == 0 and rep["metrics"]["measured_dims"] == [4, 4, 3]
    assert rep["metrics"]["cube_root"] == (1 - 11) % 8
    # sum_s tau^{s^2} = sum_s tau^{3 s^2} = sqrt(11) e^{3 pi i/2}
    assert rep["metrics"]["gauss_sums"] == [[11, "3/2"], [11, "3/2"]]
    assert not {"cube_deviation", "dims_margin"} & rep["metrics"].keys()


def test_verify_crt_count_is_exact_for_double_readers(capsys):
    """At the --dim cap N^2 = 10^24 is past 2^53; as a decimal string it
    survives a reader that parses every JSON number as a double."""
    assert main(["verify", "crt", "--dim", "1000000000000"]) == 0
    rep = json.loads(capsys.readouterr().out, parse_int=float)
    assert rep["metrics"]["checked_displacements"] == "1" + "0" * 24


@pytest.mark.parametrize("N", [6, 10, 12, 15, 30])
def test_verify_crt_untwisted_factor_map_exits_one_with_its_witness(
        N, capsys, monkeypatch):
    """F'_j = F mod nbar_j without the kappa_j twist: the report names the
    G and entry that `symplectic_witness` names for the same draws."""
    monkeypatch.setattr(crt, "f_prime", lambda G, j, fact:
                        G.reduced(fact.factors[j].nbar))
    code, rep = run(["verify", "crt", "--dim", str(N), "--seed", "3"], capsys)
    rng = np.random.default_rng(3)
    Gs = [random_symplectic(Dimension(N), rng)
          for _ in range(crt.SYMPLECTIC_SAMPLES)]
    (G, uv), _ = crt.symplectic_witness(crt.factor_dimension(N), Gs)
    assert code == 1 and rep["pass"] is False
    assert rep["metrics"]["witness"] == {
        "symplectic": [G.alpha, G.beta, G.gamma, G.delta], "entry": list(uv)}
    assert rep["metrics"]["checked_chirps"] >= crt.SYMPLECTIC_SAMPLES


@pytest.mark.parametrize("N,ab", [(6, [0, 1]), (10, [0, 1]), (12, [0, 1]),
                                  (15, [0, 1]), (30, [1, 1])])
def test_verify_crt_kappa_one_exits_one_at_a_displacement(N, ab, capsys,
                                                          monkeypatch):
    """With every kappa_j = 1 the displacement half fails first and no chirp
    is checked: at D_01, or at D_11 for N = 30, where the constant K of the
    `crt` docstring is 3*15 + 4*10 + 6*6 - 31 = 90 = N mod 2N."""
    factor_dimension = crt.factor_dimension
    monkeypatch.setattr(crt, "factor_dimension", lambda N: crt.Factorization(
        N, tuple(f._replace(kappa=1) for f in factor_dimension(N).factors)))
    code, rep = run(["verify", "crt", "--dim", str(N)], capsys)
    assert code == 1 and rep["pass"] is False
    assert rep["metrics"]["witness"] == {"displacement": ab}
    assert rep["metrics"]["checked_chirps"] == 0


# the monkeypatched function is looked up in whsic.clifford at each call;
# with no float margin, each control fails on a table of integers that
# differs from the prediction, or on counts that are no integers
@pytest.mark.parametrize("name,wrong,table_differs", [
    # z omega has the same cube, so only the multiplicities rotate
    ("zauner_angle", lambda f: lambda dim: f(dim) + Fraction(2, 3), True),
    # z e^{i pi/7} makes U no order-3 unitary: its counts are no integers
    ("zauner_angle", lambda f: lambda dim: f(dim) + Fraction(1, 7), False),
    ("predicted_eigenspace_dims", lambda f: lambda dim: f(dim)[::-1], True),
])
def test_verify_zauner_negative_controls_exit_one(name, wrong, table_differs,
                                                  monkeypatch, capsys):
    from whsic import clifford
    monkeypatch.setattr(clifford, name, wrong(getattr(clifford, name)))
    code, rep = run(["verify", "zauner", "--dim", "7"], capsys)
    assert code == 1 and rep["pass"] is False
    m = rep["metrics"]
    assert m["cube_root"] == (1 - 7) % 8
    if table_differs:
        assert m["measured_dims"] != m["predicted_dims"]
        assert sorted(m["measured_dims"]) == sorted(m["predicted_dims"])
    else:
        assert m["measured_dims"] == [None, None, None]


def test_verify_monomial(capsys):
    code, rep = run(["verify", "monomial", "--dim", "9", "--samples", "5"],
                    capsys)
    assert code == 0
    assert rep["metrics"]["witness"] is None
    assert rep["metrics"]["checked_displacements"] == 5 * 81


# no command raises --tol: these checks deviate by about 1e-16 in float64
@pytest.mark.parametrize("argv", [
    ["generate", "sic", "--dim", "4"],
    ["verify", "sic", "--builtin", "n4"],
    ["generate", "sic", "--dim", "16"],
])
def test_tol_is_the_tolerance_compared_against(argv, capsys):
    code, rep = run(argv + ["--tol", "1e-20"], capsys)
    assert code == 1 and rep["pass"] is False
    assert rep["inputs"]["tol"] == 1e-20
    code, rep = run(argv + ["--tol", "1e-12"], capsys)
    assert code == 0 and rep["pass"] is True
    assert "effective_tol" not in rep["metrics"]


def run_python(args, env=None, stdout=subprocess.PIPE):
    """Run the interpreter in a fresh process with this whsic importable;
    env sets variables, and unsets those it maps to None."""
    path = [str(Path(whsic.__file__).resolve().parent.parent),
            os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)),
           **(env or {})}
    return subprocess.run([sys.executable, *args],
                          env={k: v for k, v in env.items() if v is not None},
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          timeout=60)


# one argv per exit code, which between them write stdout, stderr, --out
# and --fiducial-out
@pytest.mark.parametrize("argv,code", [
    (["search", "--dim", "5", "--seed", "0", "--fiducial-out", "F"], 0),
    (["verify", "sic", "--builtin", "n4", "--tol", "1e-20", "--out", "R"], 1),
    (["verify", "mub", "--dim", "9"], 2),
])
def test_the_process_entry_writes_what_main_writes(argv, code, tmp_path,
                                                    capsys):
    """`python -m whsic.cli` ends without interpreter teardown: it still
    gives main's exit code and every byte main writes."""
    argv = [str(tmp_path / a) if a in ("F", "R") else a for a in argv]
    files = [Path(a) for a in argv if a.startswith(str(tmp_path))]
    assert main(argv) == code
    captured = capsys.readouterr()
    written = [f.read_bytes() for f in files]
    for f in files:
        f.unlink()
    proc = run_python(["-m", "whsic.cli", *argv])
    assert proc.returncode == code
    assert (proc.stdout, proc.stderr) == (captured.out, captured.err)
    assert [f.read_bytes() for f in files] == written
    assert any([captured.out, captured.err, *written])


def test_the_process_entry_runs_atexit_handlers():
    """A handler registered before `cli.run` runs, and what it prints to a
    buffered stdout arrives after the report."""
    proc = run_python(["-c", "import atexit, sys, whsic.cli; "
                             "atexit.register(print, 'handler ran'); "
                             "sys.argv[1:] = ['verify', 'zauner', '--dim', "
                             "'5']; whsic.cli.run()"],
                      env={"PYTHONUNBUFFERED": None})
    assert proc.returncode == 0, proc.stderr
    report, handler = proc.stdout.splitlines()
    assert json.loads(report)["pass"] is True and handler == "handler ran"


def test_a_profiled_process_still_prints_its_profile():
    """Under a profiler the process entry keeps the teardown in which
    cProfile prints its table."""
    proc = run_python(["-m", "cProfile", "-m", "whsic.cli", "verify",
                       "zauner", "--dim", "11"])
    assert proc.returncode == 0, proc.stderr
    report, *table = proc.stdout.splitlines()
    assert json.loads(report)["pass"] is True
    assert any("function calls" in line for line in table), table
    assert any(line.split()[:1] == ["ncalls"] for line in table), table


class _Monitoring:
    """A stand-in for `sys.monitoring` with one tool id in use."""

    def __init__(self, used):
        self.used = used

    def get_tool(self, tool_id):
        return "tool" if tool_id == self.used else None


@pytest.mark.parametrize("used", [0, 2, 5])
def test_a_monitoring_tool_keeps_the_teardown(monkeypatch, used):
    """From Python 3.12 cProfile and coverage attach through
    `sys.monitoring`, where sys.getprofile() and sys.gettrace() read None;
    a tool there, at any id, makes the process entry end by sys.exit."""
    monkeypatch.setattr(sys, "getprofile", lambda: None)
    monkeypatch.setattr(sys, "gettrace", lambda: None)
    monkeypatch.setattr(sys, "monitoring", _Monitoring(None), raising=False)
    assert not cli._observed()
    monkeypatch.setattr(sys, "monitoring", _Monitoring(used))
    assert cli._observed()

    def no_teardown(code):
        raise AssertionError("os._exit under a monitoring tool")
    monkeypatch.setattr(cli, "main", lambda: 1)
    monkeypatch.setattr(os, "_exit", no_teardown)
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == 1


# the report is flushed inside main, so a closed pipe is an OSError there,
# whatever the buffering; a buffered report would otherwise fail only at
# exit, after main has returned its code
@pytest.mark.parametrize("unbuffered", ["1", None])
@pytest.mark.parametrize("argv", [["verify", "zauner", "--dim", "7"],
                                  ["verify", "sic", "--builtin", "n4"]])
def test_a_report_to_a_closed_pipe_exits_two(argv, unbuffered):
    read, write = os.pipe()
    os.close(read)
    try:
        proc = run_python(["-m", "whsic.cli", *argv],
                          env={"PYTHONUNBUFFERED": unbuffered}, stdout=write)
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert proc.stderr == "error: [Errno 32] Broken pipe\n"


def test_verify_monomial_dim_one_terminates():
    """random_symplectic once looped forever at N = 1, where nbar = 1."""
    proc = run_python(["-m", "whsic.cli", "verify", "monomial", "--dim", "1"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"] is True


def test_cli_import_leaves_scipy_unloaded():
    """No command needs scipy: not even the search, whose optimizer is
    numpy alone."""
    proc = run_python(["-c", "import os, sys, whsic.cli; "
                             "code = whsic.cli.main(['search', '--dim', '5', "
                             "'--seed', '0', '--out', os.devnull]); "
                             "print(code, 'scipy' in sys.modules)"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 False"


# each handler imports the modules it runs: a command leaves the others
# unloaded, and parsing alone loads none beyond dims and errors; numpy is
# loaded exactly when a case does not list it, by the commands that build
# arrays, which the closed-form commands `verify sic --builtin`, `generate
# sic` and `generate projection` do not. The records are NamedTuples, so no
# command loads `dataclasses`, and a numpy-free one loads no `inspect`
# either (numpy imports it)
NO_NUMPY = {"numpy", "dataclasses", "inspect"}


@pytest.mark.parametrize("argv,unloaded", [
    ([], {*NO_NUMPY, "adapted16", "clifford", "crt", "fileio", "monomial",
          "mub", "sic", "weyl"}),
    (["verify", "zauner", "--dim", "7"],
     {*NO_NUMPY, "sic", "monomial", "mub", "crt", "adapted16", "fileio",
      "weyl"}),
    (["verify", "mub", "--p", "3"], {*NO_NUMPY, "sic", "crt", "adapted16",
                                     "fileio", "clifford", "monomial",
                                     "weyl"}),
    (["verify", "sic", "--builtin", "n4"], {*NO_NUMPY, "adapted16", "clifford",
                                             "crt", "fileio", "mub", "weyl"}),
    (["verify", "sic", "--builtin", "n9"], {*NO_NUMPY, "adapted16", "clifford",
                                             "crt", "fileio", "mub", "weyl"}),
    (["generate", "mub", "--p", "19"], {*NO_NUMPY, "sic", "crt", "adapted16",
                                        "fileio", "clifford", "monomial",
                                        "weyl"}),
    (["verify", "zauner", "--dim", "1000000000000"],
     {*NO_NUMPY, "sic", "monomial", "mub", "crt", "adapted16", "fileio",
      "weyl"}),
    (["verify", "sic", "--builtin", "n16", "--tol", "1e-8"],
     {*NO_NUMPY, "clifford", "crt", "fileio", "monomial", "mub", "weyl"}),
    (["generate", "sic", "--dim", "4"], {*NO_NUMPY, "adapted16", "clifford",
                                         "crt", "mub", "weyl"}),
    (["generate", "sic", "--dim", "9"], {*NO_NUMPY, "adapted16", "clifford",
                                         "crt", "mub", "weyl"}),
    (["generate", "sic", "--dim", "16", "--tol", "1e-8"],
     {*NO_NUMPY, "clifford", "crt", "monomial", "mub", "weyl"}),
    (["generate", "projection", "--dim", "4"],
     {*NO_NUMPY, "adapted16", "clifford", "crt", "fileio", "mub", "weyl"}),
    (["generate", "projection", "--dim", "9", "--m4", "1"],
     {*NO_NUMPY, "adapted16", "clifford", "crt", "fileio", "mub", "weyl"}),
    (["search", "--dim", "5", "--seed", "0"],
     {"dataclasses", "adapted16", "crt", "monomial", "mub", "weyl"}),
])
def test_command_loads_only_the_modules_it_runs(argv, unloaded):
    proc = run_python(["-c", "import os, sys, whsic.cli; "
                             f"argv = {argv!r}; "
                             "code = whsic.cli.main(argv + ['--out', "
                             "os.devnull]) if argv else 0; "
                             "print(code, *sorted(m for m in sys.modules "
                             "if m.startswith('whsic.') or m in "
                             "('numpy', 'dataclasses', 'inspect')))"])
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.split()
    assert code == "0"
    loaded = {m.removeprefix("whsic.") for m in loaded}
    assert {"cli", "dims", "errors"} <= loaded
    assert not unloaded & loaded, loaded
    assert ("numpy" in loaded) == ("numpy" not in unloaded), loaded
    if not argv:
        assert len(loaded) == 3, loaded


def test_sic_certificate_in_the_standard_basis_loads_no_clifford():
    """`whsic.sic` imports `clifford` and `monomial` only inside the
    functions that use them: importing it, and certifying a standard-basis
    vector, loads neither."""
    proc = run_python(["-c", "import sys, numpy as np, whsic.sic as s; "
                             "from whsic.dims import Dimension; "
                             "print(*sorted(m for m in sys.modules "
                             "if m.startswith('whsic.'))); "
                             "s.verify_sic(s.Fiducial(Dimension(3), "
                             "'standard', np.ones(3) / np.sqrt(3))); "
                             "print(*sorted(m for m in sys.modules "
                             "if m.startswith('whsic.')))"])
    assert proc.returncode == 0, proc.stderr
    for line in proc.stdout.splitlines():
        assert "whsic.sic" in line.split()
        assert not {"whsic.clifford", "whsic.monomial"} & set(line.split())


# each bounded flag's cap + 1 is refused by the parser, before any command
# module is imported or anything is allocated; the cap itself parses
@pytest.mark.parametrize("command,flag", [
    (command, flag) for command, cmd in cli.COMMANDS.items()
    for flag in cmd.bounds])
def test_dim_cap_plus_one_exits_two_at_once(command, flag):
    bound = cli.COMMANDS[command].bounds[flag]
    cap, low = bound[-1], bound[0]
    # the search requires --dim
    base = command.split() + (["--dim", "5"] if command == "search"
                              and flag != "dim" else [])
    assert getattr(cli.parse_args(base + [f"--{flag}", str(cap)]), flag) == cap
    # 40401 = 201^2: above the monomial cap, and square
    for value in (v for v in sorted({cap + 1, 40401, low - 1})
                  if v not in bound):
        proc = run_python(["-c", "import sys, whsic.cli; "
                                 f"code = whsic.cli.main({base!r} + "
                                 f"['--{flag}', '{value}']); "
                                 "print(code, sorted(m for m in sys.modules "
                                 "if m.startswith('whsic.')))"])
        assert proc.stdout.strip() == (
            "2 ['whsic.cli', 'whsic.dims', 'whsic.errors']"), (
                value, proc.stdout, proc.stderr)
        assert f"argument --{flag}: must be in {low}..{cap}" in proc.stderr


# one case per command: the builtin chooses which construction flags count
@pytest.mark.parametrize("argv,inputs", [
    (["verify", "crt", "--dim", "6"], {"dim": 6, "seed": 0}),
    (["verify", "sic", "--builtin", "n9", "--m3", "2"],
     {"builtin": "n9", "tol": 1e-10, "s0": 1, "s1": 1, "s2": 1, "m3": 2,
      "m4": 0}),
    (["verify", "mub", "--p", "3"], {"p": 3}),
    (["verify", "monomial", "--dim", "4", "--samples", "2"],
     {"dim": 4, "samples": 2, "seed": 0}),
    (["verify", "zauner", "--dim", "7"], {"dim": 7}),
    (["generate", "sic", "--dim", "4", "--slot", "2"],
     {"dim": 4, "tol": 1e-10, "slot": 2, "s": 0, "t": 0, "u": 0}),
    (["generate", "mub", "--p", "2"], {"p": 2}),
    (["generate", "projection", "--dim", "9", "--s1", "-1"],
     {"dim": 9, "s0": 1, "s1": -1, "s2": 1, "m3": 0, "m4": 0}),
    (["generate", "operators", "--dim", "5"], {"dim": 5}),
    (["search", "--dim", "5", "--seed", "1", "--restarts", "3"],
     {"dim": 5, "restarts": 3, "seed": 1, "tol": 1e-10}),
])
def test_report_inputs_are_the_flags_read(argv, inputs, capsys):
    code, rep = run(argv, capsys)
    assert code == 0
    assert rep["inputs"] == inputs


@pytest.mark.parametrize("argv", [
    ["verify", "monomial", "--samples", "0"],
    ["verify", "monomial", "--samples", "-3"],
    ["search", "--dim", "5", "--restarts", "0"],
    ["search", "--dim", "5", "--restarts", "-2"],
    ["verify", "sic", "--builtin", "n4", "--tol", "nan"],
    ["verify", "sic", "--builtin", "n4", "--tol", "inf"],
    ["verify", "sic", "--builtin", "n4", "--tol", "-1"],
    ["--tol", "nan", "search", "--dim", "5"],
    # flags the command does not read
    ["verify", "mub", "--dim", "9"],
    ["verify", "zauner", "--dim", "7", "--samples", "100"],
    ["generate", "mub", "--p", "2", "--slot", "3"],
    ["generate", "operators", "--dim", "4", "--p", "3"],
    ["verify", "mub", "--seed", "5"],
    ["verify", "monomial", "--dim", "4", "--tol", "1e-3"],
    ["generate", "operators", "--dim", "3", "--tol", "1e-3"],
    # construction flags the chosen fiducial does not take
    ["verify", "sic", "--builtin", "n4", "--m3", "2"],
    ["verify", "sic", "--file", "F", "--slot", "1"],
    ["generate", "sic", "--dim", "4", "--t2-branch", "-1"],
    ["generate", "projection", "--dim", "9", "--slot", "1"],
    # no abbreviations: --s is n4's flag, not --seed
    ["verify", "crt", "--dim", "6", "--s", "5"],
    # flags follow the command
    ["--seed", "9", "generate", "operators", "--dim", "3"],
    # the exact CRT certificate compares integers: there is no tolerance
    ["verify", "crt", "--dim", "6", "--tol", "1e-9"],
    # nor has the exact Zauner certificate
    ["verify", "zauner", "--dim", "7", "--tol", "1e-9"],
    # nor the exact unbiasedness certificate
    ["verify", "mub", "--p", "3", "--tol", "1e-10"],
])
def test_vacuous_or_invalid_inputs_exit_two(argv, tmp_path, capsys):
    path = tmp_path / "f.json"
    fileio.save_fiducial(fiducial_n4(0, 0, 0, 0), path)
    assert main([str(path) if a == "F" else a for a in argv]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["verify", "crt", "--dim", "6"],
    ["verify", "monomial", "--dim", "4"],
    ["search", "--dim", "5"],
])
def test_negative_seed_is_a_usage_error_naming_the_flag(argv, capsys):
    """numpy's own refusal of a negative seed names no flag."""
    assert main(argv + ["--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --seed: must be non-negative" in captured.err


# a valid value for each flag, with the selectors of a builtin fiducial
SWEEP_VALUES = {"tol": 1e-9, "seed": 1, "builtin": "n4", "file": "F",
                "dim": 4, "p": 3, "samples": 2, "restarts": 1,
                "fiducial_out": "G", "slot": 1, "s": 1, "t": 1, "u": 1,
                "s0": -1, "s1": -1, "s2": -1, "t2_branch": -1, "m3": 1,
                "m4": 1, "conjugate_orbit": 1}
SWEEP_SELECTORS = [[], ["--builtin", "n4"], ["--builtin", "n9"],
                   ["--builtin", "n16"], ["--file", "F"], ["--dim", "4"],
                   ["--dim", "9"], ["--dim", "16"]]


def test_every_flag_is_read_or_refused(tmp_path, capsys, monkeypatch):
    """Each flag given to a command either exits 2 with nothing on stdout
    or shows up, with its value, in the report's inputs."""
    assert set(SWEEP_VALUES) == set(cli.FLAGS) - {"out"}
    # parsing leaves a parser as it was, so one per command serves the
    # whole sweep
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser))
    paths = {"F": str(tmp_path / "f.json"), "G": str(tmp_path / "g.json")}
    fileio.save_fiducial(fiducial_n4(0, 0, 0, 0), paths["F"])
    for command in cli.COMMANDS:
        base = command.split() + (["--restarts", "1"]
                                  if command == "search" else [])
        for selector in SWEEP_SELECTORS:
            for name, value in SWEEP_VALUES.items():
                value = paths.get(value, value)
                argv = [paths.get(a, a) for a in base + selector] + [
                    "--" + name.replace("_", "-"), str(value)]
                code = main(argv)
                out = capsys.readouterr().out
                if code == 2:
                    assert out == "", argv
                else:
                    assert json.loads(out)["inputs"][name] == value, argv


def test_verify_out_of_range_flag_exits_two(capsys):
    assert main(["verify", "sic", "--builtin", "n9", "--m3", "5"]) == 2
    assert main(["verify", "sic", "--builtin", "n4", "--slot", "4"]) == 2
    assert main(["verify", "sic", "--builtin", "n9", "--s0", "0"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_sic_report_round_trips(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = main(["generate", "sic", "--dim", "9", "--s1", "-1",
                 "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    f = fileio.fiducial_from_dict(rep["artifacts"]["fiducial"])
    assert f.dim.N == 9
    # the embedded fiducial re-verifies after the JSON round trip
    code2, rep2 = run(["verify", "sic", "--builtin", "n9", "--s1", "-1"],
                      capsys)
    assert code2 == 0
    assert np.max(np.abs(
        f.amplitudes - fileio.fiducial_from_dict(rep["artifacts"]["fiducial"])
        .amplitudes)) == 0.0


def construction_argv(builtin: str, args: tuple) -> list[str]:
    """The construction flags that build the closed form of args."""
    return [x for k, v in zip(cli.BUILTINS[builtin][-1], args)
            for x in ("--" + k.replace("_", "-"), str(v))]


def test_generate_sic_reports_the_certificate_of_verify_sic(capsys):
    """For the flags of every closed form, `generate sic` reports the
    deviation and witness of `verify sic --builtin`, and its artifact is
    the unit vector that certificate checked: the normalized closed form,
    bit for bit, within 1e-15 of the numpy oracle, and `verify_sic` on the
    loaded artifact agrees with the report to 1e-14."""
    from whsic import sic
    for builtin, args in CLOSED_FORMS:
        argv = construction_argv(builtin, args)
        code, verify = run(["verify", "sic", "--builtin", builtin, *argv],
                           capsys)
        code2, generate = run(["generate", "sic", "--dim", builtin[1:],
                               *argv], capsys)
        assert code == code2 == 0
        metrics = verify["metrics"]
        assert generate["metrics"] == {
            "max_abs_deviation": metrics["max_abs_deviation"],
            "worst_displacement": metrics["worst_displacement"]}
        c = getattr(sic, "closed_" + builtin)(*args).normalized()
        art = generate["artifacts"]["fiducial"]
        assert [[x.hex() for x in xy] for xy in art["amplitudes"]] == [
            [z.real.hex(), z.imag.hex()] for z in c.amplitudes]
        assert art == fileio.fiducial_to_dict(c)
        oracle = getattr(sic, "fiducial_" + builtin)(*args)
        assert np.abs(np.array(c.amplitudes) - oracle.amplitudes).max() <= 1e-15
        f = fileio.fiducial_from_dict(art)
        assert abs(sic.verify_sic(f, 1e-8).max_abs_deviation
                   - metrics["max_abs_deviation"]) < 1e-14


def test_generate_sic_artifacts_load_bit_for_bit():
    """Each of the closed forms' unit vectors, as `generate sic` writes it,
    loads from its JSON text as the bits it holds."""
    from whsic import sic
    for builtin, args in CLOSED_FORMS:
        c = getattr(sic, "closed_" + builtin)(*args).normalized()
        text = json.dumps(fileio.fiducial_to_dict(c))
        f = fileio.fiducial_from_dict(json.loads(text))
        assert np.array_equal(f.amplitudes, np.array(c.amplitudes)), (
            builtin, args)


@pytest.mark.parametrize("N", [5, 7, 8, 11, 12])
def test_searched_fiducial_file_repeats_the_search_certificate(N, tmp_path,
                                                               capsys):
    """A `search --fiducial-out` file loads as the vector the search
    certified, so `verify sic --file` reports the same deviation and
    witness."""
    path = tmp_path / "f.json"
    code, found = run(["search", "--dim", str(N), "--seed", "0",
                       "--fiducial-out", str(path)], capsys)
    assert code == 0
    f = search_fiducial(Dimension(N), rng_seed=0)
    assert np.array_equal(fileio.load_fiducial(path).amplitudes, f.amplitudes)
    code, again = run(["verify", "sic", "--file", str(path)], capsys)
    assert code == 0
    for key in ("max_abs_deviation", "worst_displacement"):
        assert again["metrics"][key] == found["metrics"][key]


def test_a_file_off_the_unit_sphere_loads_normalized():
    """Amplitudes whose norm is off 1 by more than 1e-12, but within the
    1e-6 the parser accepts, are divided by it."""
    d = fileio.fiducial_to_dict(fiducial_n4(0, 0, 0, 0))
    d["amplitudes"] = [[x * (1 + 1e-9), y * (1 + 1e-9)]
                       for x, y in d["amplitudes"]]
    f = fileio.fiducial_from_dict(d)
    assert abs(np.linalg.norm(f.amplitudes) - 1.0) <= 1e-15


def test_reports_and_fiducial_files_are_one_line(tmp_path, capsys):
    code = main(["search", "--dim", "5", "--seed", "0",
                 "--fiducial-out", str(tmp_path / "f.json")])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and out.endswith("\n")
    assert (tmp_path / "f.json").read_text().count("\n") == 1


def test_indented_fiducial_file_still_loads(tmp_path, capsys):
    """Files written with indentation, as earlier versions did, load and
    verify the same as one-line files."""
    f = fiducial_n4(1, 2, 3, 0)
    path, one_line = tmp_path / "indented.json", tmp_path / "one_line.json"
    path.write_text(json.dumps(fileio.fiducial_to_dict(f), indent=2,
                               sort_keys=True) + "\n")
    fileio.save_fiducial(f, one_line)
    g, h = fileio.load_fiducial(path), fileio.load_fiducial(one_line)
    assert np.array_equal(g.amplitudes, h.amplitudes)
    assert (g.basis, g.provenance) == (h.basis, h.provenance) == (
        f.basis, f.provenance)
    code, rep = run(["verify", "sic", "--file", str(path)], capsys)
    assert code == 0 and rep["metrics"]["N"] == 4


def test_generate_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["generate", "sic", "--dim", "4", "--slot", "2",
                     "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_projection_counts_distinct(capsys):
    for dim, n in (("4", 4), ("9", 9)):
        code, rep = run(["generate", "projection", "--dim", dim], capsys)
        assert code == 0
        assert rep["metrics"]["num_distinct"] == n
        assert abs(rep["metrics"]["sum_p_squared"] - 2.0 / (n + 1)) < 1e-10


@pytest.mark.parametrize("argv,builtin", [
    (["--dim", b[1:], *construction_argv(b, args)], (b, args))
    for b, args in CLOSED_FORMS if b in ("n4", "n9")])
def test_generate_projection_is_the_dense_orbit(argv, builtin, capsys):
    """For every n4 and n9 closed form, each point, |a|^2 permuted by the
    image of D_ij in the fiducial's basis, is |V^dag D_ij V a|^2 from the
    dense standard stack to roundoff."""
    from whsic import sic
    from whsic.weyl import all_displacements
    name, args = builtin
    f = getattr(sic, "fiducial_" + name)(*args)
    V = dense_v(f.dim, f.basis)
    dense = np.abs(all_displacements(f.dim) @ (V @ f.amplitudes)
                   @ V.conj()) ** 2
    code, rep = run(["generate", "projection", *argv], capsys)
    assert code == 0 and rep["metrics"]["num_distinct"] == f.dim.N
    points = np.array(rep["artifacts"]["probability_vectors"])
    assert np.abs(points - dense).max() < 1e-14


def test_generate_mub_and_operators(capsys):
    code, rep = run(["generate", "mub", "--p", "2"], capsys)
    assert code == 0 and rep["metrics"]["num_bases"] == 3
    assert all(set(d) == {"format_version", "label", "N", "lines", "expo",
                          "fourier"} and d["format_version"] == 2
               for d in rep["artifacts"]["bases"])
    code, rep = run(["generate", "operators", "--dim", "4"], capsys)
    assert code == 0
    assert set(rep["artifacts"]) == {"standard", "monomial"}
    code, rep = run(["generate", "operators", "--dim", "5"], capsys)
    assert code == 0
    assert set(rep["artifacts"]) == {"standard"}
    # the exponents of Z = omega^u = tau^2u, mod the order of tau, N = 5
    assert rep["artifacts"]["standard"] == {
        "format_version": 2, "X": {"image": [1, 2, 3, 4, 0], "expo": [0] * 5},
        "Z": {"image": [0, 1, 2, 3, 4], "expo": [0, 2, 4, 1, 3]}}


def decode_basis(d: dict) -> mub.Basis:
    """A `generate mub` basis, rebuilt from its JSON lists: construction
    proves it orthonormal."""
    return mub.Basis(Dimension(d["N"]), d["lines"], d["expo"], d["fourier"],
                     d["label"])


def decode_operator(N: int, d: dict) -> PhasePermutation:
    return PhasePermutation(Dimension(N), np.array(d["image"]),
                            np.array(d["expo"]))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_generate_mub_decodes_to_the_family_bit_for_bit(p, capsys):
    """The README's decoder, |a+nb> = n^-1/2 sum_r
    tau^(expo[a][r] + fourier b r) |lines[a][r]>, vector by vector, and the
    rebuilt `mub.Basis`, both give the dense bases of `prime_family`."""
    code, rep = run(["generate", "mub", "--p", str(p)], capsys)
    assert code == 0
    family = mub.prime_family(p)
    assert len(rep["artifacts"]["bases"]) == len(family) == p + 1
    for d, basis in zip(rep["artifacts"]["bases"], family):
        dim, n = basis.dim, basis.dim.n
        assert d["label"] == basis.label and d["N"] == dim.N
        rebuilt = decode_basis(d)
        assert np.array_equal(rebuilt.vectors, basis.vectors)
        V = np.zeros((dim.N, dim.N), dtype=complex)
        for a in range(n):
            for b in range(n):
                V[d["lines"][a], a + n * b] = tau_powers(
                    dim, np.add(d["expo"][a], d["fourier"] * b * np.arange(n))
                ) / np.sqrt(n)
        assert np.array_equal(V, basis.vectors)


@pytest.mark.parametrize("N", [*range(1, 41), 49, 64])
def test_generate_operators_decodes_to_the_generators_bit_for_bit(N, capsys):
    """M[image[v], v] = tau^expo[v] gives each generator's dense matrix,
    as does the rebuilt `PhasePermutation`; square N adds the monomial
    pair."""
    code, rep = run(["generate", "operators", "--dim", str(N)], capsys)
    assert code == 0
    dim = Dimension(N)
    pairs = {"standard": standard_generators(dim)}
    if dim.n is not None:
        pairs["monomial"] = monomial_weyl_generators(dim)
    assert set(rep["artifacts"]) == set(pairs)
    for key, pair in pairs.items():
        for name, P in zip("XZ", pair):
            d = rep["artifacts"][key][name]
            assert sorted(d["image"]) == list(range(N))
            M = np.zeros((N, N), dtype=complex)
            M[d["image"], np.arange(N)] = tau_powers(dim, d["expo"])
            assert np.array_equal(M, P.dense())
            assert np.array_equal(decode_operator(N, d).dense(), P.dense())


def test_generate_builds_no_dense_matrix(capsys, monkeypatch):
    def dense(*args, **kwargs):
        raise AssertionError("generate built a dense matrix")

    monkeypatch.setattr(mub.Basis, "vectors", property(dense))
    monkeypatch.setattr(dims.PhasePermutation, "dense", dense)
    monkeypatch.setattr(dims.PhasePermutation, "__array__", dense)
    with pytest.raises(AssertionError, match="dense matrix"):
        np.asarray(standard_generators(Dimension(3))[0])
    code, rep = run(["generate", "mub", "--p", "13"], capsys)
    assert code == 0 and len(rep["artifacts"]["bases"]) == 14
    code, rep = run(["generate", "operators", "--dim", "324"], capsys)
    assert code == 0 and set(rep["artifacts"]) == {"standard", "monomial"}


def test_a_tampered_artifact_fails_to_decode_or_decodes_differently(capsys):
    code, rep = run(["generate", "mub", "--p", "3"], capsys)
    d = rep["artifacts"]["bases"][2]
    good = decode_basis(d).vectors
    # lines 0 and 1 share a point, so the lines do not partition the grid
    lines = [row[:] for row in d["lines"]]
    lines[0][1] = lines[1][0]
    with pytest.raises(NotOrthonormal, match="partition"):
        decode_basis({**d, "lines": lines})
    expo = [row[:] for row in d["expo"]]
    expo[1][2] += 1
    assert not np.array_equal(decode_basis({**d, "expo": expo}).vectors, good)
    code, rep = run(["generate", "operators", "--dim", "9"], capsys)
    Z = rep["artifacts"]["monomial"]["Z"]
    flipped = {**Z, "expo": [Z["expo"][0] + 1, *Z["expo"][1:]]}
    assert not np.array_equal(decode_operator(9, flipped).dense(),
                              decode_operator(9, Z).dense())


@pytest.mark.parametrize("key,name", [("standard", "X"), ("standard", "Z"),
                                      ("monomial", "X"), ("monomial", "Z")])
def test_an_operator_artifact_with_a_repeated_image_entry_fails_to_decode(
        key, name, capsys):
    code, rep = run(["generate", "operators", "--dim", "9"], capsys)
    d = rep["artifacts"][key][name]
    decode_operator(9, d)
    image = [d["image"][1], *d["image"][1:]]
    with pytest.raises(NotOrthonormal, match="permutation"):
        decode_operator(9, {**d, "image": image})


def test_generate_sic_unsupported_dim_exits_two(capsys):
    assert main(["generate", "sic", "--dim", "7"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def test_search_finds_and_saves(tmp_path, capsys):
    fpath = tmp_path / "found.json"
    code, rep = run(["search", "--dim", "5", "--seed", "0",
                     "--fiducial-out", str(fpath)], capsys)
    assert code == 0
    assert rep["metrics"]["found"] is True
    assert rep["metrics"]["max_abs_deviation"] < 1e-8
    i, j = rep["metrics"]["worst_displacement"]
    assert 0 <= i < 5 and 0 <= j < 5 and (i, j) != (0, 0)
    g = fileio.load_fiducial(fpath)
    assert g.dim.N == 5
    # the one optimizer pass of the winning restart, in the report and in
    # the saved file
    prov = rep["artifacts"]["fiducial"]["provenance"]
    assert g.provenance == prov
    assert prov["restart"] == rep["metrics"]["restart"]
    assert 0 <= prov["nit"] < prov["nfev"]
    assert prov["stop"] in ("gtol", "ftol", "line search", "maxiter")
    assert set(prov) == {"construction", "rng_seed", "restart", "residual",
                         "nit", "nfev", "stop"}
    # and the saved file verifies through the CLI as well
    code2, rep2 = run(["verify", "sic", "--file", str(fpath),
                       "--tol", "1e-8"], capsys)
    assert code2 == 0


def test_search_dim_cap_exits_two(capsys):
    assert main(["search", "--dim", "49"]) == 2
    assert main(["search", "--dim", "1"]) == 2
    capsys.readouterr()


def test_flags_follow_the_command(capsys):
    # the error names the flag: argparse alone would take the flag's value
    # for the command and call it an invalid choice
    for argv in (["--tol", "1e-8", "verify", "sic", "--builtin", "n4"],
                 ["--seed", "9", "generate", "operators"],
                 ["verify", "--dim", "7"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        flag = next(a for a in argv if a.startswith("-"))
        assert (f"{flag} comes before the command: flags go after the "
                "command") in captured.err
        assert "invalid choice" not in captured.err
    code, rep = run(["verify", "sic", "--builtin", "n4", "--tol", "1e-8"],
                    capsys)
    assert code == 0 and rep["inputs"]["tol"] == 1e-8


def test_unknown_arguments_exit_two(capsys):
    assert main(["verify", "sic", "--nope"]) == 2
    assert capsys.readouterr().out == ""
    # words that start no command are no command, with a flag after them
    # or not
    for argv in (["frobnicate"], [], ["verify"], ["generate"],
                 ["verify", "frob"], ["verify", "frob", "--dim", "3"],
                 ["frobnicate", "--dim", "3"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"no command in {argv}: the commands are" in captured.err


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["verify", "-h"]])
def test_help_lists_every_command_and_bound(argv, capsys):
    """The help text is the module docstring: its line for each command
    gives every bound of the table as LO..HI."""
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    for command, cmd in cli.COMMANDS.items():
        line = next(l for l in lines if f"whsic {command} " in l)
        for flag, bound in cmd.bounds.items():
            assert f"--{flag} {bound[0]}..{bound[-1]}" in line, (command, flag)


# every row of the closed-form and report parity table: about 0.4 s on 2
# vCPUs, within 1.5 s; `tests/report_parity.py` prints the rows that moved
def test_report_parity_table():
    assert len(CLOSED_FORMS) == 332
    assert len(table_rows()) == len(CLOSED_FORMS) + len(REPORTS)
    assert moved_rows() == []
