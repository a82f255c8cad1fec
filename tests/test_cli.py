import concurrent.futures
import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from spinmagic import cli, xyz
from spinmagic.cli import (
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_TOLERANCE,
    EXIT_USAGE,
    fmt,
    config_flags,
    write_rows,
    main,
    parse_floats,
    parse_ints,
)


def run(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


def test_fmt_and_parsers():
    assert fmt(0.5) == "0.5"
    assert fmt(None) == ""
    assert fmt(7) == "7"
    assert parse_floats("0.1,0.2,") == [0.1, 0.2]
    assert parse_ints("3,5") == [3, 5]
    assert cli.parse_methods("brute,, closed,") == ["brute", "closed"]


def test_sre_w_csv_agreement(capsys):
    code, out = run(["sre", "--kind", "w", "--L", "5", "--ell", "1"], capsys)
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "kind,L,ell,method,m2,delta"
    assert len(lines) == 4  # brute, structured, closed
    m2 = float(lines[1].split(",")[4])
    assert m2 == pytest.approx(2.3808218, abs=1e-6)


def test_sre_output_is_deterministic(capsys):
    argv = ["sre", "--kind", "w", "--L", "5", "--ell", "2", "--workers", "2"]
    _, first = run(argv, capsys)
    _, second = run(argv, capsys)
    assert first == second


def test_sre_json_format(capsys):
    code, out = run(["sre", "--kind", "w", "--L", "3", "--format", "json"], capsys)
    assert code == EXIT_OK
    rows = json.loads(out)
    assert rows[0]["method"] == "brute"
    assert rows[0]["m2"] == pytest.approx(math.log2(9.0 / 5.0), abs=1e-10)


def test_sre_omega_matches_w_closed_form(capsys):
    # the Clifford image has the same magic as the W-state, so the W formulas
    # cross-check the omega constructor end to end
    code, out = run(["sre", "--kind", "omega", "--L", "5", "--ell", "1",
                     "--method", "brute,structured,closed"], capsys)
    assert code == EXIT_OK
    assert len(out.splitlines()) == 4


def test_sre_tolerance_breach_exit_code(capsys):
    code, _ = run(["sre", "--kind", "w", "--L", "3", "--tol", "0"], capsys)
    assert code == EXIT_TOLERANCE


@pytest.mark.parametrize("method, message", [("bogus", "unknown method 'bogus'"),
                                             ("brute,bogus", "unknown method 'bogus'"),
                                             (",", "expected a non-empty")])
def test_bad_method_exit_code(capsys, method, message):
    with pytest.raises(SystemExit) as exc:
        main(["sre", "--kind", "w", "--L", "3", "--method", method])
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and f"argument --method: {message}" in captured.err


@pytest.mark.parametrize("argv", [["--kind", "phi", "--ell", "1", "--method", "brute,closed"],
                                  ["--kind", "ground", "--method", "brute,structured"]],
                         ids=["phi-closed", "ground-structured"])
def test_w_formulas_need_a_w_state(capsys, argv):
    # structured and closed give W's M2: on another state they would report a
    # false tolerance breach
    assert main(["sre", "--L", "5"] + argv) == EXIT_SOLVER
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: method ")


def test_output_file_and_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 5\nell = 1  # momentum index\nkind = w\n")
    out = tmp_path / "rows.csv"
    code = main(["sre", "--L", "3", "--config", str(cfg), "--out", str(out)])
    capsys.readouterr()
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    # explicit --L 3 wins over the config value, ell comes from the config
    assert lines[1].split(",")[1] == "3"
    assert lines[1].split(",")[2] == "1"


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    # `me` names no flag, though it is a prefix of --method; a line without
    # `=` is a bare flag, unknown or missing its value
    for line, error in (("banana = 1", "unrecognized arguments: --banana=1"),
                        ("me = brute", "unrecognized arguments: --me=brute"),
                        ("banana", "unrecognized arguments: --banana"),
                        ("L", "argument --L: expected one argument")):
        cfg.write_text(line + "\n")
        with pytest.raises(SystemExit) as exc:
            main(["sre", "--L", "3", "--config", str(cfg)])
        assert exc.value.code == EXIT_USAGE
        assert error in capsys.readouterr().err


def test_flag_prefixes_are_usage_errors(capsys):
    # jump-scaling has no --h; a prefix match would read it as --help and exit 0
    with pytest.raises(SystemExit) as exc:
        main(["jump-scaling", "--L", "5", "--h", "0.5"])
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments: --h 0.5" in capsys.readouterr().err


@pytest.mark.parametrize("flag, path", [("--config", "missing.cfg"),
                                        ("--out", "missing/rows.csv")])
def test_missing_paths_exit_solver(tmp_path, capsys, flag, path):
    code = main(["sre", "--L", "3", flag, str(tmp_path / path)])
    assert code == EXIT_SOLVER
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["format = xml", "kind = bogus", "L = abc"])
def test_config_values_are_checked_like_flags(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    with pytest.raises(SystemExit) as exc:
        main(["sre", "--L", "3", "--config", str(cfg)])
    assert exc.value.code == EXIT_USAGE
    assert "invalid" in capsys.readouterr().err


@pytest.mark.parametrize("argv, text, column, expected", [
    # a required flag may come from the file
    (["sre"], "L = 5\nkind = w\nell = 1\n", "L", [5, 5, 5]),
    # `key = value` is `--key=value`, so a negative comma list needs no quoting
    (["hstar-map", "--jy", "0.33", "--L", "5", "--tol", "1e-2"], "jz = -0.2,0.0\n",
     "jz", [-0.2, 0.0]),
], ids=["required-L", "negative-list"])
def test_config_supplies_flags(tmp_path, capsys, argv, text, column, expected):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code, out = run(argv + ["--config", str(cfg), "--format", "json"], capsys)
    assert code == EXIT_OK
    assert [r[column] for r in json.loads(out)] == expected


def test_negative_lists_need_no_equals_sign(capsys):
    # argparse alone would take a separate "-0.2,0.0" for an option
    spaced = run(["hstar-map", "--jy", "0.33", "--jz", "-0.2,0.0", "--L", "5"], capsys)
    attached = run(["hstar-map", "--jy", "0.33", "--jz=-0.2,0.0", "--L", "5"], capsys)
    assert spaced == attached
    assert spaced[0] == EXIT_OK and len(spaced[1].splitlines()) == 3
    assert cli.attach_negative_lists(["ratio", "--L", "-5,7", "--jy", "-0.3", "--h", "1"]) == [
        "ratio", "--L=-5,7", "--jy=-0.3", "--h", "1"]


@pytest.mark.parametrize("argv, flag, value", [
    (["sre", "--kind", "ground", "--L", "5"], "--jz", "-1e-3"),
    (["sre", "--kind", "ground", "--L", "5"], "--h", "-2.5E-2"),
    (["sre", "--kind", "phi", "--L", "5", "--ell", "1"], "--theta", "-1e-3"),
    (["hstar-map", "--jy", "0.33", "--L", "5"], "--jz", "-1e-3,0.0"),
], ids=["sre-jz", "sre-h", "sre-theta", "hstar-map-jz-list"])
def test_negative_exponent_numbers_need_no_equals_sign(capsys, argv, flag, value):
    # argparse alone takes only -1 and -0.5 for negative numbers, not -1e-3
    spaced = run(argv + [flag, value], capsys)
    attached = run(argv + [f"{flag}={value}"], capsys)
    assert spaced == attached
    assert spaced[0] == EXIT_OK and spaced[1].count("\n") >= 2


BAD_LISTS = [(["jump-scaling"], "L", "7,abc"), (["jump-scaling"], "L", ","),
             (["ratio"], "L", ""), (["ratio"], "L", "5.0"),
             (["hstar-map", "--jz", "0"], "jy", ""), (["hstar-map", "--jy", "0.3"], "jz", "0,x")]


@pytest.mark.parametrize("from_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize("argv, key, value", BAD_LISTS,
                         ids=[f"{a[0]}-{k}={v!r}" for a, k, v in BAD_LISTS])
def test_malformed_and_empty_lists_are_usage_errors(tmp_path, capsys, argv, key, value,
                                                    from_config):
    if from_config:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        argv = argv + ["--config", str(cfg)]
    else:
        argv = argv + [f"--{key}={value}"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and f"argument --{key}: " in captured.err


def test_config_flags_parsing(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# header\nL = 7\njump-eps = 0.1  # trailing\n\nbanana\n")
    assert config_flags(["sre", "--config", str(cfg)]) == ["--L=7", "--jump_eps=0.1",
                                                           "--banana"]
    assert config_flags(["sre", "--L", "3"]) == []


def test_ent_profile_amplitude_row(capsys):
    code, out = run(
        ["ent-profile", "--kind", "phi", "--L", "7", "--ell", "1", "--format", "json"],
        capsys,
    )
    assert code == EXIT_OK
    rows = json.loads(out)
    assert len(rows) == 8
    assert rows[-1]["amplitude_times_L"] == pytest.approx(4.31, abs=0.2)


def test_ent_profile_flat_for_w(capsys):
    code, out = run(
        ["ent-profile", "--kind", "w", "--L", "7", "--ell", "2", "--format", "json"],
        capsys,
    )
    assert code == EXIT_OK
    assert json.loads(out)[-1]["amplitude"] < 1e-10


def test_ent_profile_ground_state(capsys):
    code, out = run(
        ["ent-profile", "--kind", "ground", "--L", "7", "--h", "0.5", "--format", "json"],
        capsys,
    )
    assert code == EXIT_OK
    # a momentum eigenstate is translation invariant, so its profile is flat
    assert json.loads(out)[-1]["amplitude"] < 1e-10


@pytest.mark.parametrize("measure", ["renyi2", "von_neumann"])
def test_ent_profile_base_e_is_base_2_times_ln2(measure, capsys):
    rows = {}
    for base in ("2", "e"):
        argv = ["ent-profile", "--kind", "phi", "--L", "7", "--ell", "1",
                "--measure", measure, "--base", base, "--format", "json"]
        code, out = run(argv, capsys)
        assert code == EXIT_OK
        rows[base] = json.loads(out)
    bits = [r["entropy"] for r in rows["2"][:-1]]
    nats = [r["entropy"] for r in rows["e"][:-1]]
    assert min(bits) > 0.1
    assert nats == pytest.approx([s * math.log(2.0) for s in bits], rel=1e-15)


@pytest.mark.parametrize("a", ["0", "-1", "5"])
def test_ent_profile_subsystem_out_of_range(a, capsys):
    # --a 0 is an explicit size, not the half-chain default
    assert main(["ent-profile", "--kind", "w", "--L", "5", f"--a={a}"]) == EXIT_SOLVER
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"subsystem size a={a} out of range" in captured.err


def test_hstar_map_small_grid(capsys):
    code, out = run(
        ["hstar-map", "--jy", "0.33", "--jz", "0.0,-0.5", "--L", "5", "--tol", "1e-2"],
        capsys,
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 3
    h1 = float(lines[1].split(",")[3])
    h2 = float(lines[2].split(",")[3])
    assert h1 > 0.0
    assert h2 == 0.0  # jz < -jy: no finite-momentum phase


def test_hstar_map_pool_sized_by_grid(monkeypatch, capsys):
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    code, out = run(["hstar-map", "--jy", "0.33", "--jz", "0.0,0.1", "--L", "5",
                     "--tol", "1e-2", "--workers", "8"], capsys)
    assert code == EXIT_OK
    assert sizes == [2]
    assert len(out.strip().splitlines()) == 3


def test_hstar_map_process_pool_matches_serial(capsys):
    # a real pool pickles the point function, which the serial path never does
    argv = ["hstar-map", "--jy", "0.1,0.33", "--jz", "0.0", "--L", "5", "--tol", "1e-2"]
    pooled = run(argv + ["--workers", "2"], capsys)
    assert pooled == run(argv + ["--workers", "1"], capsys)
    assert pooled[0] == EXIT_OK and len(pooled[1].splitlines()) == 3


def test_ratio_small_size(capsys):
    code, out = run(["ratio", "--L", "7", "--format", "json"], capsys)
    assert code == EXIT_OK
    row = json.loads(out)[0]
    assert row["one_minus_R"] == pytest.approx(0.1123, abs=5e-3)


def _fake_hstar(jy, jz, L, tol):
    if jy == 0.3:
        raise ValueError("no sign change in the bracket")
    return SimpleNamespace(hstar=0.5, bracket_width=0.25, note="")


ODD = "solver failure: L must be odd and >= 3, got"
ZERO = "zero-momentum ground state (h >= h*?)"
COUPLINGS = "solver failure: |Jy| and |Jz| must be < 1 (Jx sets the scale)"


@pytest.mark.parametrize("argv, rows, count", [
    # row index, CSV line, non-null JSON fields
    (["jump-scaling", "--L", "5,8"],
     [(1, '8,,,,,,,,,,,,"' + ODD + ' 8"', {"L": 8, "note": ODD + " 8"})], 2),
    (["ratio", "--L", "6,7"],
     [(0, '6,,,,,,,"' + ODD + ' 6"', {"L": 6, "note": ODD + " 6"})], 2),
    (["ratio", "--L", "5,7", "--h", "2.0"],
     [(0, "5,,,,,,," + ZERO, {"L": 5, "note": ZERO}),
      (1, "7,,,,,,," + ZERO, {"L": 7, "note": ZERO})], 2),
    (["hstar-map", "--jy", "0.1,0.3", "--jz", "0.0", "--L", "5"],
     [(0, "0.10000000000000001,0,5,0.5,0.25,",
       {"jy": 0.1, "jz": 0.0, "L": 5, "hstar": 0.5, "bracket_width": 0.25, "note": ""}),
      (1, "0.29999999999999999,0,5,,,solver failure: no sign change in the bracket",
       {"jy": 0.3, "jz": 0.0, "L": 5,
        "note": "solver failure: no sign change in the bracket"})], 2),
    # jz < -jy has no finite-momentum phase, but the chain is checked first
    (["hstar-map", "--jy", "0.3", "--jz=-0.5", "--L", "4"],
     [(0, '0.29999999999999999,-0.5,4,,,"' + ODD + ' 4"',
       {"jy": 0.3, "jz": -0.5, "L": 4, "note": ODD + " 4"})], 1),
    (["hstar-map", "--jy", "0.3", "--jz=-5", "--L", "5"],
     [(0, "0.29999999999999999,-5,5,,," + COUPLINGS,
       {"jy": 0.3, "jz": -5.0, "L": 5, "note": COUPLINGS})], 1),
], ids=["jump-even-L", "ratio-even-L", "ratio-zero-momentum", "hstar-map-failed-search",
        "hstar-map-even-L-no-phase", "hstar-map-bad-coupling-no-phase"])
def test_failure_rows_are_pinned(monkeypatch, capsys, argv, rows, count):
    if argv[:3] == ["hstar-map", "--jy", "0.1,0.3"]:  # a search that fails at one grid point
        monkeypatch.setattr(cli, "find_hstar", _fake_hstar)
    code, csv_out = run(argv, capsys)
    assert code == EXIT_SOLVER
    lines = csv_out.splitlines()
    assert len(lines) == count + 1
    code, json_out = run(argv + ["--format", "json"], capsys)
    assert code == EXIT_SOLVER
    table = json.loads(json_out)
    assert len(table) == count
    # a note that holds a comma is quoted, so every line has the header's width
    header, *body = csv.reader(lines)
    assert all(len(fields) == len(header) for fields in body)
    for i, line, fields in rows:
        assert lines[i + 1] == line
        assert table[i] == {c: fields.get(c) for c in header}


def test_invalid_state_parameters_exit_solver(capsys):
    code, _ = run(["sre", "--kind", "w", "--L", "4"], capsys)
    assert code == EXIT_SOLVER


def _arpack_fails(monkeypatch):
    """Make every ARPACK solve fail; an L whose blocks (of dimension about
    2^L / 2L = 315) exceed DENSE_BLOCK_MAX, so go to ARPACK, and the message."""
    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("No convergence", [], [])

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    return 13, "ARPACK error -1: No convergence"


def _lapack_fails(monkeypatch):
    """Make every dense solve fail, as LAPACK's syevr reports it: the real
    routine runs and its info is replaced by 2, an internal error.  An L
    whose blocks are dense, and the message."""
    get_lapack_funcs = scipy.linalg.get_lapack_funcs

    def failing(routine):
        def failed(*args, **kwargs):
            *out, _ = routine(*args, **kwargs)
            return *out, 2

        return failed

    def patched(names, arrays=()):
        funcs = get_lapack_funcs(names, arrays)
        return tuple(failing(f) if name == "syevr" else f for name, f in zip(names, funcs))

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", patched)
    return 5, "LAPACK syevr failed with info = 2"


@pytest.mark.parametrize("failure", [_arpack_fails, _lapack_fails])
def test_solver_failure_exit_code(monkeypatch, capsys, failure):
    # the real solver fails inside scipy, which xyz imports on first use
    L, message = failure(monkeypatch)
    code = main(["sre", "--kind", "ground", "--L", str(L)])
    captured = capsys.readouterr()
    assert code == EXIT_SOLVER
    assert captured.out == "" and captured.err == f"error: {message}\n"
    code, out = run(["jump-scaling", "--L", str(L), "--format", "json"], capsys)
    assert code == EXIT_SOLVER
    assert json.loads(out)[0]["note"] == f"solver failure: {message}"


def test_phi_defaults_to_ell_one(capsys):
    # phi has no ell = 0 member, so sre gives it ell = 1 without --ell, as ent-profile does
    code, out = run(["sre", "--kind", "phi", "--L", "11", "--format", "json"], capsys)
    assert code == EXIT_OK
    assert [row["ell"] for row in json.loads(out)] == [1]
    assert main(["sre", "--kind", "phi", "--L", "11", "--ell", "0"]) == EXIT_SOLVER
    assert capsys.readouterr().err == "error: phi(p, theta) requires ell != 0\n"
    code, out = run(["sre", "--kind", "w", "--L", "5", "--format", "json"], capsys)
    assert code == EXIT_OK and {row["ell"] for row in json.loads(out)} == {0}


def _modules_after(code):
    """The scipy modules, and whether concurrent.futures, are loaded after
    ``code`` runs in a fresh interpreter."""
    code += ("\nimport sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),"
             " 'concurrent.futures' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    return out.splitlines()[-1]


def test_import_and_pauli_commands_load_no_scipy():
    # scipy is loaded by the XYZ solver alone, and concurrent.futures by the
    # process pool of hstar-map and the threads of a kernel of two blocks or more
    assert _modules_after("import spinmagic, spinmagic.cli") == "[] False"
    assert _modules_after("from spinmagic import cli; cli.main(['sre', '--kind', 'w', "
                          "'--L', '5'])") == "[] False"
    # the sector blocks of L <= 11 are dense, so their solves and certificates
    # load scipy.linalg alone
    ground = _modules_after("from spinmagic import cli; cli.main(['sre', '--kind', 'ground', "
                            "'--L', '5'])")
    assert "'scipy.linalg'" in ground and "'scipy.sparse'" not in ground
    jump = _modules_after("from spinmagic import cli; cli.main(['jump-scaling', '--L', '7,9,11'])")
    assert "'scipy.linalg'" in jump and "'scipy.sparse'" not in jump


def _out_of_memory(*args, **kwargs):
    # what numpy raises for an array larger than the machine, without allocating
    raise MemoryError("Unable to allocate 32.0 TiB for an array with shape (2199023255552,)")


def test_memory_errors_are_solver_failures(monkeypatch, capsys):
    monkeypatch.setattr(cli.wstates, "build_w", _out_of_memory)
    assert main(["sre", "--kind", "w", "--L", "41"]) == EXIT_SOLVER
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: Unable to allocate")
    # H at the orbit representatives is the first array of an eigensolve
    monkeypatch.setattr(xyz, "_orbit_rows", _out_of_memory)
    code, out = run(["hstar-map", "--jy", "0.3", "--jz", "0", "--L", "41", "--format", "json"],
                    capsys)
    assert code == EXIT_SOLVER
    assert json.loads(out)[0]["note"].startswith("solver failure: Unable to allocate")


def test_programming_errors_are_not_solver_failures(monkeypatch, capsys):
    def broken_search(*args, **kwargs):
        raise TypeError("a bug, not a failed solve")

    monkeypatch.setattr(cli, "find_hstar", broken_search)
    with pytest.raises(TypeError):
        main(["jump-scaling", "--L", "5"])
    assert capsys.readouterr().out == ""


def test_nan_inputs_are_rejected(capsys):
    code = main(["sre", "--kind", "phi", "--L", "5", "--ell", "1", "--theta", "nan",
                 "--format", "json"])
    assert code == EXIT_SOLVER
    assert "error:" in capsys.readouterr().err
    code, _ = run(["sre", "--kind", "w", "--L", "3", "--tol", "nan"], capsys)
    assert code == EXIT_TOLERANCE
    # a non-finite field is refused by the chain, before it reaches scipy
    for h in ("nan", "inf", "-inf"):
        assert main(["sre", "--kind", "ground", "--L", "5", "--h", h]) == EXIT_SOLVER
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: the field h must be finite, got {h}\n"
        code, out = run(["ratio", "--L", "5", "--h", h, "--format", "json"], capsys)
        assert code == EXIT_SOLVER
        assert json.loads(out)[0]["note"] == f"solver failure: the field h must be finite, got {h}"


def test_workers_only_on_parallel_commands():
    with pytest.raises(SystemExit):
        main(["ent-profile", "--L", "5", "--workers", "2"])


@pytest.mark.parametrize("workers", ["0", "-2"])
@pytest.mark.parametrize("argv", [["sre", "--L", "3"], ["hstar-map", "--jy", "0.3", "--jz", "0"],
                                  ["jump-scaling", "--L", "5"], ["ratio", "--L", "5"]],
                         ids=lambda argv: argv[0])
def test_workers_below_one_are_usage_errors(argv, workers, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--workers", workers])
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "--workers: must be at least 1" in captured.err


@pytest.mark.parametrize("spaced", [False, True], ids=["attached", "spaced"])
@pytest.mark.parametrize("eps", ["0", "-1e-3", "nan", "inf"])
def test_jump_eps_must_be_positive_and_finite(eps, spaced, capsys):
    # 0 measured both sides at h*, and a negative eps swapped them; written
    # as a separate word, -1e-3 reaches --eps too.  The search's --tol is
    # checked alike: at inf it stopped on the first bracket, h* = 0.5
    for flag in ("--eps", "--tol"):
        with pytest.raises(SystemExit) as exc:
            main(["jump-scaling", "--L", "5"] + ([flag, eps] if spaced else [f"{flag}={eps}"]))
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and f"{flag}: must be a positive finite number" in captured.err


def test_json_refuses_non_finite_values(monkeypatch, capsys):
    with pytest.raises(ValueError):
        write_rows([{"x": math.nan}], ["x"], None, "json")
    monkeypatch.setattr(cli.closed_forms, "m2_w_closed", lambda L, ell: math.inf)
    code = main(["sre", "--kind", "w", "--L", "3", "--format", "json"])
    captured = capsys.readouterr()
    assert code == EXIT_SOLVER
    assert captured.out == "" and captured.err.startswith("error: ")


def test_verify_passes(tmp_path, capsys):
    table = tmp_path / "verify.json"
    code, out = run(["verify", "--out", str(table), "--format", "json"], capsys)
    checks = [line for line in out.splitlines() if not line.startswith("NOTE")]
    assert code == EXIT_OK
    assert any("reduced vs full SRE kernel" in line for line in checks)
    assert any("Pauli kernel vs single strings L=5" in line for line in checks)
    for L in (3, 5, 7):
        assert any(f"clifford circuit S is Clifford L={L}" in line for line in checks)
    for L in (5, 7):
        assert any(f"sector blocks vs full H L={L}" in line for line in checks)
        assert any(f"spin flip: sector (ell,-1) at h vs (ell,+1) at -h L={L}" in line
                   for line in checks)
        assert any(f"inertia certificate vs eigvalsh L={L}" in line for line in checks)
    assert checks and all(line.startswith("PASS") for line in checks)
    rows = json.loads(table.read_text())
    assert len(rows) == len(checks) == 30
    assert all(row["status"] == "PASS" for row in rows)


def test_jump_scaling_fits_only_two_sizes_or_more(capsys):
    # a line through the points of a single L is no power law
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["jump-scaling", "--L", "5,5"]) == EXIT_OK
    captured = capsys.readouterr()
    assert caught == [] and captured.err == ""
    assert len(captured.out.splitlines()) == 3 and "power-law fit" not in captured.out
    assert cli._fit_exponent([5, 7], [0.1, 0.0]) is None  # no log of a nonpositive value
    code, out = run(["jump-scaling", "--L", "5,7"], capsys)
    assert code == EXIT_OK and out.splitlines()[-1].endswith("power-law fit over the L sweep")


def test_jump_scaling_without_a_crossing_writes_the_note(capsys):
    # jz < -jy has no finite-momentum phase: h* = 0 and the note, no ground
    # states on either side, no fit through the rounding noise of dm2 = 0
    code, out = run(["jump-scaling", "--jy", "0.2", "--jz=-0.5", "--L", "7,9"], capsys)
    assert code == EXIT_OK
    assert out.splitlines() == [
        "L,hstar,ell_below,ell_above,m2_below,m2_above,s2_below,s2_above,dm2,ds2,"
        "fit_dm2_exponent,fit_ds2_exponent,note",
        "7,0,,,,,,,,,,,no finite-momentum phase",
        "9,0,,,,,,,,,,,no finite-momentum phase",
    ]
    # points with a crossing still make the fit row
    code, out = run(["jump-scaling", "--L", "5,7", "--format", "json"], capsys)
    assert code == EXIT_OK
    assert [r["note"] for r in json.loads(out)] == [None, None, "power-law fit over the L sweep"]
