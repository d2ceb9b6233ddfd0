import argparse
import importlib.metadata as md
import re
import runpy
import sys
from pathlib import Path

import pytest

from modchain import cli
from modchain.chains import bundled_chain_text
from modchain.cli import main, parse_solutions_text


FAMILY_M2 = "direction: 3=sum2\n2^7 * 5 * 17\n"


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# ---------------------------------------------------------------------------
# solve


def test_solve_text(capsys):
    code, out, err = run(capsys, "solve", "--direction", "3=sum2", "--n", "3")
    assert code == 0
    assert out.splitlines() == ["3^4 = 2^0 + 2^4 + 2^6"]
    assert "n=3 3=sum2: 1 solution(s), settled at step 10" in err
    assert re.search(r"\d+\.\d\ds \(base \d+\.\d\ds\)$", err.strip()), err


def test_solve_machine_roundtrip(capsys):
    code, out, _ = run(capsys, "solve", "--direction", "3=sum2", "--n", "6",
                       "--format", "machine")
    assert code == 0
    pairs = parse_solutions_text(out)

    def bits(x):
        v = 3**x
        return tuple(i for i in range(v.bit_length()) if v >> i & 1)

    expected = [(x, bits(x)) for x in (5, 6, 8)]
    assert pairs == expected
    for x, exps in pairs:
        assert 3**x == sum(2**a for a in exps)


def test_solve_mirror_parity(capsys):
    code, out, err = run(capsys, "solve", "--direction", "2=sum3", "--n", "5")
    assert code == 0
    assert out == ""
    assert "settled at parity" in err


def test_solve_mirror_n4(capsys):
    code, out, _ = run(capsys, "solve", "--direction", "2=sum3", "--n", "4")
    assert code == 0
    assert out.splitlines() == ["2^8 = 3^0 + 3^1 + 3^2 + 3^5"]


def test_solve_chain_exhausted(tmp_path, capsys):
    chain = tmp_path / "short.chain"
    chain.write_text(FAMILY_M2)
    code, out, err = run(capsys, "solve", "--chain", str(chain), "--n", "3")
    assert code == 3
    assert "chain exhausted after 1 steps" in err
    # the exact solution is still printed before bailing out
    assert "3^4 = 2^0 + 2^4 + 2^6" in out


def test_solve_memory_cap(capsys):
    code, _, err = run(capsys, "solve", "--direction", "3=sum2", "--n", "6",
                       "--memory-cap", "2")
    assert code == 4
    assert "resource limit" in err


def test_solve_base_modulus_too_large(tmp_path, capsys):
    # 3,000,010 powers of 2 modulo the first modulus, past the base search's bound
    chain = tmp_path / "wide.chain"
    chain.write_text("direction: 3=sum2\n2^4 * 7 * 73 * 1000003\n")
    code, out, err = run(capsys, "solve", "--chain", str(chain), "--n", "3")
    assert (code, out) == (4, "")
    assert err.startswith("resource limit: 3000010 distinct summand powers")


def test_solve_checkpoint(tmp_path, capsys):
    chain = tmp_path / "short.chain"
    chain.write_text(FAMILY_M2)
    ckpt = tmp_path / "state.txt"
    code, _, _ = run(capsys, "solve", "--chain", str(chain), "--n", "3",
                     "--checkpoint", str(ckpt), "--format", "machine")
    assert code == 3
    text = ckpt.read_text()
    assert text.startswith("# step 1\n")
    # the identity is settled early, so only the extraneous class stays live
    assert parse_solutions_text(text, "ckpt") == [(20, (0, 4, 14))]
    # each step is written to a temporary file and renamed over the checkpoint
    assert sorted(p.name for p in tmp_path.iterdir()) == ["short.chain", "state.txt"]


@pytest.mark.parametrize("line", ["2^0", "3^0", "2^4 * 2^3"])
def test_solve_rejects_degenerate_factor_line(tmp_path, capsys, line):
    chain = tmp_path / "bad.chain"
    chain.write_text(f"direction: 3=sum2\n2^4 * 7 * 73\n{line}\n3^3 * 19\n")
    code, out, err = run(capsys, "solve", "--chain", str(chain), "--n", "3")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {chain}:3: ")


def test_solve_needs_some_chain(capsys):
    code, _, err = run(capsys, "solve", "--n", "3")
    assert code == 2
    assert "need --chain or --direction" in err


def test_solve_direction_contradiction(tmp_path, capsys):
    chain = tmp_path / "short.chain"
    chain.write_text(FAMILY_M2)
    code, _, err = run(capsys, "solve", "--chain", str(chain),
                       "--direction", "2=sum3", "--n", "2")
    assert code == 2
    assert "contradicts" in err


def test_solve_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--direction", "3=sum2"])  # --n missing
    assert exc.value.code == 2


def test_solve_does_not_load_the_planner(fresh_python):
    out = fresh_python(
        "import sys\n"
        "from modchain import cli\n"
        "code = cli.main(['solve', '--direction', '3=sum2', '--n', '3'])\n"
        "print(code, 'modchain.planner' in sys.modules)\n"
    )
    assert out.splitlines()[-1] == "0 False"


SOLVE_N3 = ("solve", "--direction", "3=sum2", "--n", "3")


@pytest.mark.parametrize("workers_env, argv, want", [
    ("abc", SOLVE_N3, 2),
    ("abc", ("verify-table1", "--x-max", "1"), 0),  # only solve reads MODCHAIN_WORKERS
    (None, SOLVE_N3 + ("--workers", "0"), 2),
    (None, SOLVE_N3 + ("--memory-cap", "-1"), 2),
    (None, ("solve", "--chain", "missing.chain", "--n", "3"), 2),
    (None, ("validate", "--direction", "3=sum2", "--solutions", "missing.txt"), 2),
    (None, ("validate", "--direction", "3=sum2", "--solutions", "binary.txt"), 2),
    (None, SOLVE_N3 + ("--checkpoint", "no/such/dir/ck.txt"), 2),
    (None, SOLVE_N3 + ("--checkpoint", "."), 2),  # a directory: the rename fails
])
def test_bad_input_exit_codes(tmp_path, monkeypatch, capsys, workers_env, argv, want):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "binary.txt").write_bytes(b"\xff\xfe not utf-8")
    if workers_env is None:
        monkeypatch.delenv("MODCHAIN_WORKERS", raising=False)
    else:
        monkeypatch.setenv("MODCHAIN_WORKERS", workers_env)
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    err = capsys.readouterr().err
    assert code == want, err
    if want == 2:
        assert "error:" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["binary.txt"]  # no stray files


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SWEEP = SCRIPTS / "sweep_solutions.py"
AUDIT = SCRIPTS / "audit_orders.py"


def run_script(monkeypatch, script, *argv) -> int:
    monkeypatch.setattr(sys, "argv", [str(script), *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(script), run_name="__main__")
    return exc.value.code


@pytest.mark.parametrize("flag", ["--workers", "--n-max"])
@pytest.mark.parametrize("value", ["0", "-1", "two"])
def test_sweep_script_rejects_non_positive(monkeypatch, capsys, flag, value):
    assert run_script(monkeypatch, SWEEP, flag, value) == 2
    assert "expected an integer >= 1" in capsys.readouterr().err


BAD_CHAIN_ARGV = [
    ("--chain", "missing.chain"),
    ("--chain", "binary.chain"),  # not UTF-8
    ("--chain", "."),  # a directory: unreadable as a file
    ("--chain", "bad.chain"),  # no factor lines
    ("--chain", "m2.chain", "--direction", "2=sum3"),  # contradicts the file
]


def write_chain_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "binary.chain").write_bytes(b"\xff\xfe not utf-8")
    (tmp_path / "bad.chain").write_text("direction: 3=sum2\n")
    (tmp_path / "m2.chain").write_text(FAMILY_M2)


def assert_usage_error(capsys):
    cap = capsys.readouterr()
    assert cap.err.startswith("error:"), cap.err
    assert "Traceback" not in cap.err
    assert cap.out == ""


@pytest.mark.parametrize("argv", BAD_CHAIN_ARGV)
def test_sweep_script_bad_chain_file(tmp_path, monkeypatch, capsys, argv):
    write_chain_files(tmp_path, monkeypatch)
    assert run_script(monkeypatch, SWEEP, *argv, "--n-max", "1") == 2
    assert_usage_error(capsys)


def test_sweep_script_resource_limit(tmp_path, monkeypatch, capsys):
    # the chain of test_solve_base_modulus_too_large: exit 4 as `modchain solve` does
    (tmp_path / "wide.chain").write_text("direction: 3=sum2\n2^4 * 7 * 73 * 1000003\n")
    assert run_script(monkeypatch, SWEEP, "--chain", str(tmp_path / "wide.chain"),
                      "--n-max", "2") == 4
    err = capsys.readouterr().err
    assert err.startswith("resource limit: 3000010 distinct summand powers"), err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", BAD_CHAIN_ARGV)
def test_audit_script_bad_chain_file(tmp_path, monkeypatch, capsys, argv):
    write_chain_files(tmp_path, monkeypatch)
    assert run_script(monkeypatch, AUDIT, *argv) == 2
    assert_usage_error(capsys)


def test_audit_script_reads_the_chain_file(tmp_path, monkeypatch, capsys):
    write_chain_files(tmp_path, monkeypatch)
    assert run_script(monkeypatch, AUDIT, "--chain", "m2.chain") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:2] == ["i", "factor"]
    assert lines[1].split()[:4] == ["1", "2^7", "*", "5"]
    assert lines[-1] == "# final modulus: 14 bits, tail2=7 tail3=0"


def test_sweep_script_reads_the_report(tmp_path, monkeypatch, capsys):
    # the chain file's direction is used, and the times come from the run report
    (tmp_path / "t.chain").write_text(bundled_chain_text("t3.chain"))  # direction: 2=sum3
    assert run_script(monkeypatch, SWEEP, "--chain", str(tmp_path / "t.chain"), "--n-max", "4") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["n", "count", "step", "base", "seconds", "solutions"]
    rows = [line.split() for line in lines[2:-1]]
    assert [row[:3] for row in rows] == [
        ["1", "1", "1"], ["2", "1", "1"], ["3", "0", "par"], ["4", "1", "5"],
    ]
    assert rows[3][5] == "x=8"
    assert all(0 <= float(row[3]) <= float(row[4]) for row in rows)


# ---------------------------------------------------------------------------
# verify-table1


def test_verify_table1_default(capsys):
    code, out, err = run(capsys, "verify-table1")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "# x bits ones"
    assert len(lines) == 27
    assert lines[1] == "0 1 1"
    assert lines[-1] == "25 40 18"


def test_verify_table1_one_row(capsys):
    code, out, _ = run(capsys, "verify-table1", "--x-max", "0")
    assert code == 0
    assert out.splitlines() == ["# x bits ones", "0 1 1"]


def test_verify_table1_beyond_stored(capsys):
    code, out, _ = run(capsys, "verify-table1", "--x-max", "40")
    assert code == 0
    assert len(out.splitlines()) == 42


def test_verify_table1_detects_mismatch(capsys, monkeypatch):
    bad = ((9, 9),) + cli.DIGIT_GOLDENS[1:]
    monkeypatch.setattr(cli, "DIGIT_GOLDENS", bad)
    code, _, err = run(capsys, "verify-table1")
    assert code == 1
    assert "1 row(s) disagree" in err


# ---------------------------------------------------------------------------
# validate


def test_validate_flags_hazard(tmp_path, capsys):
    chain = tmp_path / "short.chain"
    chain.write_text(FAMILY_M2)
    sols = tmp_path / "sols.txt"
    sols.write_text("# known identity\n4 0,4,6\n")
    code, out, _ = run(capsys, "validate", "--chain", str(chain),
                       "--solutions", str(sols))
    assert code == 1
    assert "1 hazard(s)" in out
    assert "HAZARD 4 0,4,6" in out
    assert "3^20 = c + 2^14 (mod M)" in out
    assert "note:" in out


def test_validate_bundled_clean(tmp_path, capsys):
    sols = tmp_path / "sols.txt"
    sols.write_text("0 0\n1 0,1\n2 0,3\n4 0,4,6\n3 0,1,3,4\n")
    code, out, _ = run(capsys, "validate", "--direction", "3=sum2",
                       "--solutions", str(sols))
    assert code == 0
    assert "0 hazard(s)" in out
    assert "3 protected" in out
    assert "2 unchecked" in out


def test_validate_empty_solutions(tmp_path, capsys):
    sols = tmp_path / "sols.txt"
    sols.write_text("# nothing yet\n")
    code, out, _ = run(capsys, "validate", "--direction", "3=sum2",
                       "--solutions", str(sols))
    assert code == 0
    assert "checked 0 solution(s)" in out


def test_validate_rejects_non_identity(tmp_path, capsys):
    sols = tmp_path / "sols.txt"
    sols.write_text("5 0,4,6\n")
    code, _, err = run(capsys, "validate", "--direction", "3=sum2",
                       "--solutions", str(sols))
    assert code == 2
    assert "not an integer identity" in err

    # identities whose exponents are unsorted or repeated are rejected too
    for line in ("4 6,4,0\n", "1 0,0,0\n"):
        sols.write_text(line)
        code, _, err = run(capsys, "validate", "--direction", "3=sum2",
                           "--solutions", str(sols))
        assert code == 2
        assert "strictly increasing" in err


def test_validate_rejects_negative_exponents(tmp_path, capsys):
    # 2**-1100 and 3**-800 + 3**-700 both round to 0.0, which once passed as an identity
    sols = tmp_path / "sols.txt"
    for line in ("-1100 -800,-700\n", "8 -1,0,1,2,5\n", "-1 0\n"):
        sols.write_text(line)
        code, out, err = run(capsys, "validate", "--direction", "2=sum3",
                             "--solutions", str(sols))
        assert (code, out) == (2, ""), line
        assert err.startswith("error:") and "negative exponent" in err, line


def test_validate_bad_line(tmp_path, capsys):
    sols = tmp_path / "sols.txt"
    sols.write_text("4 0 4 6\n")
    code, _, err = run(capsys, "validate", "--direction", "3=sum2",
                       "--solutions", str(sols))
    assert code == 2
    assert "expected 'x a1,a2,...'" in err


# ---------------------------------------------------------------------------
# plan


def test_plan_window(capsys):
    code, out, _ = run(capsys, "plan", "--two-val", "4", "--p-max", "300")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# p ord2 ord3 v2(ord3) v3(ord2)"
    ps = [int(l.split()[0]) for l in lines[1:]]
    assert ps == [17, 97, 113, 193, 241, 257]
    row97 = next(l for l in lines if l.startswith("97 "))
    assert row97 == "97 2^4*3 2^4*3 4 1"


def test_plan_fermat(capsys):
    code, out, _ = run(capsys, "plan", "--two-val", "16", "--p-max", "65600")
    assert code == 0
    (row,) = out.splitlines()[1:]
    fields = row.split()
    assert fields[0] == "65537"
    assert fields[2] == "2^16"
    assert fields[3] == "16"


def test_plan_candidates(capsys):
    code, out, _ = run(capsys, "plan", "--two-val", "24",
                       "--candidates", "167772161")
    assert code == 0
    (row,) = out.splitlines()[1:]
    assert row.startswith("167772161 ")
    assert row.split()[3] == "25"


def test_plan_bad_input(capsys):
    code, _, err = run(capsys, "plan", "--two-val", "-1", "--p-max", "10")
    assert code == 2
    code, _, err = run(capsys, "plan")
    assert code == 2
    assert "p_max" in err
    code, _, err = run(capsys, "plan", "--candidates", "abc")
    assert code == 2
    assert "bad candidate list" in err


# ---------------------------------------------------------------------------
# solutions text parser


def test_parse_solutions_text():
    text = "# c\n\n4 0,4,6\n0 0\n"
    assert parse_solutions_text(text) == [(4, (0, 4, 6)), (0, (0,))]
    from modchain import InvalidInput

    with pytest.raises(InvalidInput, match="<s>:2"):
        parse_solutions_text("# ok\n4 0,x\n", "<s>")


def _check_console_scripts(scripts, source):
    # scripts: the console_scripts table {name: "module:attr"} read from source
    where = f"console_scripts from {source}: {scripts!r}"
    assert scripts.get("modchain") == "modchain.cli:main", where
    ep = md.EntryPoint(name="modchain", value=scripts["modchain"],
                       group="console_scripts")
    assert ep.load() is main, where


def test_console_script_entry():
    # An installed distribution must agree with the checkout, so a stale
    # install is caught; a PYTHONPATH-only checkout has no metadata at all.
    try:
        dist = md.distribution("modchain")
    except md.PackageNotFoundError:
        pass
    else:
        installed = {e.name: e.value
                     for e in dist.entry_points.select(group="console_scripts")}
        _check_console_scripts(installed, f"installed modchain {dist.version}")

    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10; skips only this last check
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as f:
        declared = tomllib.load(f).get("project", {}).get("scripts", {})
    _check_console_scripts(declared, f"{pyproject} [project.scripts]")


def test_readme_documents_every_option():
    # every option that a subcommand takes, and nothing more, is named in the
    # README's "Command line" section
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {
        opt
        for p in sub.choices.values()
        for action in p._actions
        for opt in action.option_strings
        if opt not in ("-h", "--help")
    }
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    assert documented == parsed
