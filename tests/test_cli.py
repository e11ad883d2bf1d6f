"""Command-line interface: exit codes, reports, determinism, round trips."""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import whsic
from whsic import cli, fileio
from whsic.cli import main
from whsic.dims import Dimension
from whsic.sic import Fiducial, fiducial_n4


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
    "zero" alone: the report names that pair, the first at the largest
    deviation 1 - 1/N, and counts every pair."""
    from whsic import mub
    prime_family = mub.prime_family

    def with_copy(p):
        bases = prime_family(p)
        return bases[:-1] + [mub.Basis(bases[0].dim, bases[0].vectors, "copy")]

    code, rep = run(["verify", "mub", "--p", "3"], capsys)
    assert code == 0 and rep["metrics"]["checked_pairs"] == 6
    monkeypatch.setattr(mub, "prime_family", with_copy)
    code, rep = run(["verify", "mub", "--p", "3"], capsys)
    assert code == 1
    assert rep["metrics"]["worst_pair"] == ["zero", "copy"]
    assert rep["metrics"]["checked_pairs"] == 6
    assert abs(rep["metrics"]["max_abs_deviation"] - (1 - 1 / 9)) < 1e-12


def test_verify_sic_corrupt_file_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["verify", "sic", "--file", str(path)]) == 2
    capsys.readouterr()


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
    assert "cube_deviation" not in rep["metrics"]


def test_verify_crt_count_is_exact_for_double_readers(capsys):
    """At the --dim cap N^2 = 10^24 is past 2^53; as a decimal string it
    survives a reader that parses every JSON number as a double."""
    assert main(["verify", "crt", "--dim", "1000000000000"]) == 0
    rep = json.loads(capsys.readouterr().out, parse_int=float)
    assert rep["metrics"]["checked_displacements"] == "1" + "0" * 24


# the monkeypatched function is looked up in whsic.clifford at each call;
# each control fails on the table or on the margin, not on both
@pytest.mark.parametrize("name,wrong,table_differs", [
    # z omega has the same cube, so only the multiplicities rotate
    ("zauner_phase", lambda f: lambda dim: f(dim) * np.exp(2j * np.pi / 3),
     True),
    # z e^{i pi/7} makes U no order-3 unitary: its counts are no integers
    ("zauner_phase", lambda f: lambda dim: f(dim) * np.exp(1j * np.pi / 7),
     False),
    ("predicted_eigenspace_dims", lambda f: lambda dim: f(dim)[::-1], True),
])
def test_verify_zauner_negative_controls_exit_one(name, wrong, table_differs,
                                                  monkeypatch, capsys):
    from whsic import clifford
    monkeypatch.setattr(clifford, name, wrong(getattr(clifford, name)))
    code, rep = run(["verify", "zauner", "--dim", "7"], capsys)
    assert code == 1 and rep["pass"] is False
    m = rep["metrics"]
    assert (m["measured_dims"] != m["predicted_dims"]) == table_differs
    assert (m["dims_margin"] > clifford.ROUNDING_BOUND) != table_differs


def test_verify_monomial(capsys):
    code, rep = run(["verify", "monomial", "--dim", "9", "--samples", "5"],
                    capsys)
    assert code == 0
    assert rep["metrics"]["witness"] is None
    assert rep["metrics"]["checked_displacements"] == 5 * 81


# no command raises --tol: these checks deviate by about 1e-16 in float64
@pytest.mark.parametrize("argv", [
    ["verify", "mub", "--p", "3"],
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


def run_python(args):
    """Run the interpreter in a fresh process with this whsic importable."""
    path = [str(Path(whsic.__file__).resolve().parent.parent),
            os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=60)


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
# unloaded, and parsing alone loads none beyond dims and errors
@pytest.mark.parametrize("argv,unloaded", [
    ([], {"adapted16", "clifford", "crt", "fileio", "monomial", "mub", "sic",
          "weyl"}),
    (["verify", "zauner", "--dim", "7"],
     {"sic", "monomial", "mub", "crt", "adapted16", "fileio"}),
    (["verify", "mub", "--p", "3"], {"sic", "crt", "adapted16", "fileio"}),
    (["verify", "sic", "--builtin", "n4"], {"adapted16", "crt", "mub"}),
])
def test_command_loads_only_the_modules_it_runs(argv, unloaded):
    proc = run_python(["-c", "import os, sys, whsic.cli; "
                             f"argv = {argv!r}; "
                             "code = whsic.cli.main(argv + ['--out', "
                             "os.devnull]) if argv else 0; "
                             "print(code, *sorted(m for m in sys.modules "
                             "if m.startswith('whsic.')))"])
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.split()
    assert code == "0"
    assert {"whsic.cli", "whsic.dims", "whsic.errors"} <= set(loaded)
    assert not {"whsic." + m for m in unloaded} & set(loaded), loaded
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
    (["verify", "mub", "--p", "3"], {"p": 3, "tol": 1e-10}),
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
    (["--dim", "4", "--slot", "2", "--t", "1"], ("n4", (2, 0, 1, 0))),
    (["--dim", "9", "--s1", "-1", "--m4", "2"], ("n9", (1, -1, 1, 0, 2))),
])
def test_generate_projection_is_the_dense_orbit(argv, builtin, capsys):
    """Each point, |a|^2 permuted by the image of D_ij in the fiducial's
    basis, is |V^dag D_ij V a|^2 from the dense standard stack to
    roundoff."""
    from whsic import sic
    from whsic.weyl import all_displacements
    name, flags = builtin
    f = getattr(sic, cli.BUILTINS[name][0])(*flags)
    V = sic.basis_change(f.dim, f.basis)
    dense = np.abs(all_displacements(f.dim) @ (V @ f.amplitudes)
                   @ V.conj()) ** 2
    code, rep = run(["generate", "projection", *argv], capsys)
    assert code == 0 and rep["metrics"]["num_distinct"] == f.dim.N
    points = np.array(rep["artifacts"]["probability_vectors"])
    assert np.abs(points - dense).max() < 1e-14


def test_generate_mub_and_operators(capsys):
    code, rep = run(["generate", "mub", "--p", "2"], capsys)
    assert code == 0 and rep["metrics"]["num_bases"] == 3
    code, rep = run(["generate", "operators", "--dim", "4"], capsys)
    assert code == 0
    assert set(rep["artifacts"]) == {"standard", "monomial"}
    code, rep = run(["generate", "operators", "--dim", "5"], capsys)
    assert code == 0
    assert set(rep["artifacts"]) == {"standard"}


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
