import hashlib
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import mwkit
from mwkit import cli, kmwterm
from mwkit.cli import InputFileError, build_parser, main
from mwkit.errors import InputError
from mwkit.finring import RingElement, RingError, RingSpecError
from mwkit.qform import QformError
from mwkit.termparse import ParseError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gw_json_report(capsys):
    code, out, err = run_cli(capsys, "gw", "--ring", "Z/4", "--kind", "reduced", "--out", "json")
    assert code == 0 and not err
    report = json.loads(out)
    assert report["rank"] == 2
    assert report["torsion"] == []
    assert report["minus_one_is_one"] is False
    assert report["split"] == {
        "plus_rank": 1, "minus_rank": 1, "plus_torsion_odd": [], "minus_torsion_odd": [],
    }


def test_sumsq_json_report(capsys):
    code, out, _ = run_cli(capsys, "sumsq", "--ring", "Z/4")
    assert code == 0
    report = json.loads(out)
    assert report["minus_one_exponent"] is None
    assert report["exponents"] == {"1": 0}


def test_ringinfo(capsys):
    code, out, _ = run_cli(capsys, "ringinfo", "--ring", "Z/12")
    assert code == 0
    report = json.loads(out)
    assert report["cardinality"] == 12
    assert report["units"] == ["1", "5", "7", "11"]


@pytest.mark.parametrize("spec", ["GF(2^16)", "prod(GF(2^8),Z/251)"])
def test_ringinfo_builds_no_unit_list(spec, capsys, monkeypatch):
    # a count, not a time: the units, their squares and their texts are read
    # on coordinates, and at most a few constants such as one, zero and -1 are
    # built as elements, where the unit lists of the ring and its factors
    # would build 65,535 and 64,255
    built = []
    init = RingElement.__init__
    monkeypatch.setattr(RingElement, "__init__",
                        lambda self, ring, coords: built.append(1) or init(self, ring, coords))
    code, out, _ = run_cli(capsys, "ringinfo", "--ring", spec)
    assert code == 0 and json.loads(out)["n_units"] > 60000
    assert len(built) <= 3


@pytest.mark.parametrize("spec", ["GF(2^16)", "Z/65521", "Z/65536", "prod(Z/2,GF(2^15))"])
@pytest.mark.parametrize("command", ["gw", "compare"])
def test_gw_and_compare_build_no_unit_list(command, spec, capsys, monkeypatch):
    # a count, not a time: the presentation and the comparison read the
    # units on coordinates, and gw builds only 1 and -1 as elements (for
    # <-1> = <1>), where the unit list would build 65,535, 65,520, 32,768
    # or 32,767; the last two have a residue field F_2 and a square other
    # than 1, so the comparison names the two units of its witness
    built = []
    init = RingElement.__init__
    monkeypatch.setattr(RingElement, "__init__",
                        lambda self, ring, coords: built.append(1) or init(self, ring, coords))
    code, out, _ = run_cli(capsys, command, "--ring", spec)
    assert code == 0 and json.loads(out)["ring"] == spec
    assert len(built) <= 3


def test_prove_success_exit_zero(capsys):
    code, out, err = run_cli(
        capsys, "prove", "--mode", "hopf-steinberg",
        "--hyp", "unit(a),unit(1-a)", "<a>+<1-a> = 1+<a*(1-a)>",
    )
    assert code == 0, err
    report = json.loads(out)
    assert report["status"] == "proved"
    assert report["checked"] is True
    assert report["steps"]
    for step in report["steps"]:
        assert {"axiom", "direction", "pos", "instance"} == set(step)


def test_prove_unknown_exit_two(capsys):
    code, out, _ = run_cli(capsys, "prove", "--depth", "2", "<a> = <-1>")
    assert code == 2
    report = json.loads(out)
    assert (report["status"], report["reason"]) == ("unknown", "max_depth")
    code, out, _ = run_cli(capsys, "prove", "eta = 0", "--out", "csv")
    assert code == 2
    assert out.splitlines()[1].endswith(",unknown,frontier_exhausted")


@pytest.mark.parametrize("flag,value", [("--depth", "0"), ("--max-words", "-1")])
def test_prove_bad_limits_exit_one(flag, value, capsys):
    # each ended in a ValueError traceback from ProveConfig.validate
    code, out, err = run_cli(capsys, "prove", "eta h = 0", flag, value)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    assert f"error: {flag} must be positive" in err


def test_prove_refuses_hints_with_undeclared_sums(capsys):
    identity = "<a> + <-a> = <1> + <-1>"
    code, out, err = run_cli(capsys, "prove", identity, "--hints", "1-a")
    assert (code, out) == (1, "")
    assert err == "error: sum expressions need a unit(...) hypothesis: (1-a)\n"
    code, out, err = run_cli(capsys, "prove", identity, "--hints", "1-a", "--hyp", "unit(1-a)")
    assert code == 0 and json.loads(out)["checked"] is True


def test_prove_reads_file(tmp_path, capsys):
    path = tmp_path / "identity.txt"
    path.write_text("eta h = 0\n")
    code, out, _ = run_cli(capsys, "prove", "--file", str(path))
    assert code == 0
    assert json.loads(out)["status"] == "proved"


def test_parse_error_exit_one(capsys):
    code, out, err = run_cli(capsys, "prove", "<a> +")
    assert code == 1
    assert not out
    assert "error:" in err and "column" in err


@pytest.mark.parametrize("flag", ["prove --file", "table --family"])
def test_non_utf8_input_file_exit_one(flag, tmp_path, capsys):
    # a file starting with a UTF-16 byte-order mark ended in a UnicodeDecodeError traceback
    path = tmp_path / "input.txt"
    path.write_bytes(b"\xff\xfeZ/3\n")
    code, out, err = run_cli(capsys, *flag.split(), str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    # the message names the option and the file
    assert f"{flag.split()[1]} {path}" in err


@pytest.mark.parametrize("flag,text", [("prove --file", "<a> + <-a> = <1> + <-1>\n"),
                                       ("table --family", "Z/9\n")])
def test_byte_order_mark_is_not_input(flag, text, tmp_path, capsys):
    # a UTF-8 byte-order mark before the first line made it unreadable
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(text.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    want = run_cli(capsys, *flag.split(), str(plain))
    assert want[0] == 0 and not want[2]
    assert run_cli(capsys, *flag.split(), str(marked)) == want


@pytest.mark.parametrize("flag", ["prove --file", "table --family"])
def test_decode_error_offset_counts_the_byte_order_mark(flag, tmp_path, capsys):
    path = tmp_path / "input.txt"
    path.write_bytes(b"\xef\xbb\xbfZ/3\n\xffZ/5\n")  # the bad byte is at offset 7
    code, out, err = run_cli(capsys, *flag.split(), str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {flag.split()[1]} {path}: not UTF-8 text (invalid start byte at byte 7)\n"


USAGE_ERRORS = [
    "gw",  # a missing --ring
    "frobnicate --ring Z/7",  # an unknown subcommand
    "gw --ring Z/7 --kind spin",
    "prove <a>=<a> --mode free",
    "prove <a>=<a> --depth abc",
    "",  # no subcommand
]


@pytest.mark.parametrize("argv", USAGE_ERRORS)
def test_usage_error_exit_one(argv, capsys):
    # argparse's own usage exit is 2, the code of a prover Unknown
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out) == (1, "")
    assert "usage: mwkit" in err and "error:" in err


@pytest.mark.parametrize("argv", ["--help", "gw --help"])
def test_help_exit_zero(argv, capsys):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 0 and out and not err


SUBCOMMANDS = ["ringinfo", "gw", "sumsq", "prove", "compare", "validate", "table"]

# the last line of each usage error of the top-level parser
TOP_LEVEL_ERRORS = {
    "": "mwkit: error: the following arguments are required: command",
    "frobnicate --ring Z/7": "mwkit: error: argument command: invalid choice: 'frobnicate' "
                             "(choose from 'ringinfo', 'gw', 'sumsq', 'prove', 'compare', "
                             "'validate', 'table')",
    "gw --ring Z/5 extra": "mwkit: error: unrecognized arguments: extra",
}


def _subcommand_names(parser) -> list:
    return list(parser._subparsers._group_actions[0].choices)


def _new_parser(monkeypatch):
    """Make main parse with a new parser; returns its subcommand names."""
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "_PARSER", parser)
    return _subcommand_names(parser)


@pytest.mark.parametrize("argv", ["--help", "--version", "-h gw", "gw --ring Z/5 extra"]
                         + [f"{name} --help" for name in SUBCOMMANDS] + USAGE_ERRORS)
def test_one_subparser_prints_what_the_full_parser_prints(argv, capsys, monkeypatch):
    # each argv prints on main's parser what it prints on a new one, and a
    # top-level error names every subcommand in its usage line
    words = argv.split()
    code, out, err = run_cli(capsys, *words)
    assert out or err
    if argv in TOP_LEVEL_ERRORS:
        assert "{" + ",".join(SUBCOMMANDS) + "} ..." in err
        assert err.endswith(TOP_LEVEL_ERRORS[argv] + "\n")
    assert _new_parser(monkeypatch) == SUBCOMMANDS
    assert run_cli(capsys, *words) == (code, out, err)


@pytest.mark.parametrize("argv,message", [
    ("gw --ring GR(4)", "GR spec needs two arguments in 'GR(4)'"),
    ("gw --ring GR(4,x)", "bad degree 'x' in 'GR(4,x)'"),
    ("table --ring Z/5 --metrics bogus",
     "unknown metric 'bogus'; choose from ['compare', 'gw', 'split', 'sumsq', 'units']"),
    ("prove", "no identity given (positional argument or --file)"),
    # a position in --hyp or --hints text names the option, and a hint's text
    ("prove <a>=<a> --hyp unit(1-a),unit(0)", "--hyp: 0 is not a unit at line 1, column 16"),
    ("prove <a>=<a> --hints a*b,1/0", "--hints '1/0': 0 is not a unit at line 1, column 3"),
    # a fault of the whole identity has no position
    ("prove <a>=[a]", "sides have different degrees (0 vs 1)"),
    ("prove [1-a]=0", "sum expressions need a unit(...) hypothesis: (1-a)"),
])
def test_refusal_prints_one_error_line(argv, message, capsys):
    assert run_cli(capsys, *argv.split()) == (1, "", f"error: {message}\n")


def test_ring_error_exit_one(capsys):
    code, out, err = run_cli(capsys, "gw", "--ring", "Z/1")
    assert code == 1
    assert "error:" in err


# each ring subcommand, validate, then prove; run in a fresh interpreter
# so that no other test has imported the prover modules or qform already
_IMPORT_PROBE = textwrap.dedent("""
    import contextlib, io, json, sys
    from mwkit.cli import main
    seen = []
    for argv in json.loads(sys.argv[1]):
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        seen.append([code, sorted(m for m in ("mwkit.kmwterm", "mwkit.qform", "mwkit.termparse")
                                  if m in sys.modules)])
    print(json.dumps(seen))
""")


def _fresh_python(*args):
    """``python *args`` in a fresh interpreter that imports this mwkit."""
    src = str(Path(mwkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_only_prove_and_validate_load_their_modules():
    ring_argvs = [["gw", "--ring", "Z/5"], ["compare", "--ring", "Z/5"],
                  ["table", "--ring", "Z/5"], ["sumsq", "--ring", "Z/5"],
                  ["ringinfo", "--ring", "Z/5"]]
    argvs = ring_argvs + [["validate", "--ring", "Z/5"], ["prove", "eta h = 0"]]
    run = _fresh_python("-c", _IMPORT_PROBE, json.dumps(argvs))
    run.check_returncode()
    seen = json.loads(run.stdout)
    assert seen == [[0, []]] * len(ring_argvs) + [
        [0, ["mwkit.qform"]], [0, ["mwkit.kmwterm", "mwkit.qform", "mwkit.termparse"]]]


def test_prove_without_identity_loads_no_prover_module():
    run = _fresh_python("-c", _IMPORT_PROBE, json.dumps([["prove"]]))
    run.check_returncode()
    assert json.loads(run.stdout) == [[1, []]]
    assert run.stderr == "error: no identity given (positional argument or --file)\n"


def test_python_m_prints_the_version():
    run = _fresh_python("-m", "mwkit.cli", "--version")
    assert (run.returncode, run.stdout, run.stderr) == (0, f"mwkit {mwkit.__version__}\n", "")


TYPED_ERRORS = [RingError, RingSpecError, QformError, ParseError, kmwterm.UnitExprError,
                kmwterm.IdentityError, kmwterm.EvalError, kmwterm.ConfigError, InputFileError]


@pytest.mark.parametrize("cls", TYPED_ERRORS, ids=lambda cls: cls.__name__)
def test_typed_errors_derive_from_input_error(cls):
    assert issubclass(cls, InputError)


@pytest.mark.parametrize("argv,raised", [
    ("gw --ring Z/1", RingError),
    ("validate --ring Z/4", QformError),
    ("prove <a", ParseError),
    ("prove <a>=<a> --hints 1-a", kmwterm.IdentityError),
    ("prove <a>=<a> --depth 0", kmwterm.ConfigError),
    ("prove --file NON_UTF8", InputFileError),
    ("prove", InputError),
], ids=lambda v: v if isinstance(v, str) else v.__name__)
def test_each_typed_error_exits_one(argv, raised, tmp_path, capsys):
    path = tmp_path / "input.txt"
    path.write_bytes(b"\xff\xfe<a>=<a>\n")
    argv = [str(path) if arg == "NON_UTF8" else arg for arg in argv.split()]
    args = build_parser().parse_args(argv)
    with pytest.raises(raised):
        cli._subcommands()[args.command][1](args)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


def test_a_bare_value_error_is_not_caught(monkeypatch):
    # InputError narrows what main reports: a plain ValueError is a bug
    def fail(args):
        raise ValueError("not an input error")

    monkeypatch.setattr(cli, "cmd_gw", fail)
    with pytest.raises(ValueError, match="not an input error"):
        main(["gw", "--ring", "Z/5"])


def test_main_builds_no_parser(capsys, monkeypatch):
    # twelve calls, each with arguments of its own, parse with the parser
    # built when cli loaded
    built, parser = [], cli._PARSER
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1))
    argvs = [[cmd, "--ring", spec] + out
             for spec in ("Z/5", "Z/7")
             for out in ([], ["--out", "csv"])
             for cmd in ("gw", "compare", "sumsq")]
    assert len(argvs) == 12
    for argv in argvs:
        assert run_cli(capsys, *argv)[0] == 0
    assert built == [] and cli._PARSER is parser
    assert _subcommand_names(parser) == SUBCOMMANDS


def test_a_reused_parser_keeps_no_arguments(capsys, monkeypatch):
    # the defaults of the second call (kind reduced, json) are not those the
    # first call typed
    argv = ["gw", "--ring", "Z/5"]
    _new_parser(monkeypatch)
    fresh = run_cli(capsys, *argv)
    _new_parser(monkeypatch)
    first = run_cli(capsys, "gw", "--ring", "Z/5", "--kind", "hopf", "--out", "markdown")
    assert first[0] == 0 and first[1] != fresh[1]
    assert run_cli(capsys, *argv) == fresh
    assert json.loads(fresh[1])["kind"] == "reduced"


def test_a_reused_parser_calls_the_current_handler(capsys, monkeypatch):
    parser = cli._PARSER
    assert run_cli(capsys, "gw", "--ring", "Z/5")[0] == 0

    def fail(args):
        raise ValueError("not an input error")

    monkeypatch.setattr(cli, "cmd_gw", fail)
    with pytest.raises(ValueError, match="not an input error"):
        main(["gw", "--ring", "Z/5"])
    assert cli._PARSER is parser


def test_a_reused_parser_prints_what_a_new_one_prints(capsys, monkeypatch):
    # each argv alone on a new parser, then all of them twice on one parser:
    # every call prints what its call on a new parser printed
    argvs = list(TOP_LEVEL_ERRORS) + USAGE_ERRORS + ["--help", "--version", "-h gw"]
    fresh = {}
    for argv in argvs:
        _new_parser(monkeypatch)
        fresh[argv] = run_cli(capsys, *argv.split())
        assert fresh[argv][0] in (0, 1) and (fresh[argv][1] or fresh[argv][2])
    _new_parser(monkeypatch)
    for _ in range(2):
        for argv in argvs:
            assert run_cli(capsys, *argv.split()) == fresh[argv], argv


def test_a_reused_parser_reads_the_terminal_width_per_call(capsys, monkeypatch):
    # help is wrapped to COLUMNS when printed, not when the parser is built
    _new_parser(monkeypatch)
    monkeypatch.setenv("COLUMNS", "200")
    wide = run_cli(capsys, "gw", "--help")
    monkeypatch.setenv("COLUMNS", "30")
    narrow = run_cli(capsys, "gw", "--help")
    assert narrow != wide
    _new_parser(monkeypatch)
    assert run_cli(capsys, "gw", "--help") == narrow


def test_compare_and_validate(capsys):
    code, out, _ = run_cli(capsys, "compare", "--ring", "Z/16")
    assert code == 0
    report = json.loads(out)
    assert isinstance(report["extra_relations_implied"], bool)

    code, out, _ = run_cli(capsys, "validate", "--ring", "Z/7")
    assert code == 0
    report = json.loads(out)
    assert report["lattices_equal"] is True
    assert (report["rank"], report["torsion"]) == (1, [2])


def test_byte_identical_reruns(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "gw", "--ring", "GF(3^2)", "--kind", "hopf")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "sumsq", "--ring", "GR(4,2)", "--out", "csv")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_table_family(tmp_path, capsys):
    family = tmp_path / "family.txt"
    family.write_text("# odd prime fields\nZ/3\nZ/5\nZ/4\n")
    code, out, _ = run_cli(capsys, "table", "--family", str(family), "--metrics", "units,sumsq")
    assert code == 0
    rows = json.loads(out)
    assert [r["ring"] for r in rows] == ["Z/3", "Z/5", "Z/4"]
    assert [r["minus_one_exponent"] for r in rows] == [1, 0, None]
    assert [r["n_units"] for r in rows] == [2, 4, 2]


def test_table_galois_ring_minus_one(tmp_path, capsys):
    family = tmp_path / "family.txt"
    family.write_text("GR(4,2)\nGR(4,3)\n")
    code, out, _ = run_cli(capsys, "table", "--family", str(family), "--metrics", "sumsq")
    assert code == 0
    rows = json.loads(out)
    # -1 is a sum of two Teichmueller squares in GR(4,2); in GR(4,3) no
    # pair of squares reaches it and the fixpoint needs a second round
    assert [r["minus_one_exponent"] for r in rows] == [1, 2]


def test_table_power_of_two_family(tmp_path, capsys):
    family = tmp_path / "family.txt"
    family.write_text("Z/4\nZ/8\nZ/16\n")
    code, out, _ = run_cli(capsys, "table", "--family", str(family), "--metrics", "sumsq")
    assert code == 0
    rows = json.loads(out)
    assert [r["minus_one_exponent"] for r in rows] == [None, None, None]


def test_table_row_errors_are_isolated(tmp_path, capsys):
    family = tmp_path / "family.txt"
    family.write_text("Z/3\nZ/1\nZ/5\n")
    code, out, _ = run_cli(capsys, "table", "--family", str(family), "--metrics", "units")
    assert code == 1
    rows = json.loads(out)
    assert rows[0]["n_units"] == 2
    assert "error" in rows[1]
    assert rows[2]["n_units"] == 4


def test_table_family_without_a_ring_is_refused(tmp_path, capsys):
    family = tmp_path / "family.txt"
    family.write_text("# no ring yet\n\n   \n# Z/3\n")
    code, out, err = run_cli(capsys, "table", "--family", str(family), "--metrics", "units")
    assert code == 1 and not out
    assert err == f"error: --family {family}: lists no ring\n"
    family.write_text("")
    code, out, err = run_cli(capsys, "table", "--family", str(family))
    assert code == 1 and not out
    assert err == f"error: --family {family}: lists no ring\n"
    # with --ring as well there is a ring to report
    code, out, _ = run_cli(capsys, "table", "--family", str(family), "--ring", "Z/3",
                           "--metrics", "units")
    assert code == 0
    assert [r["ring"] for r in json.loads(out)] == ["Z/3"]
    code, out, err = run_cli(capsys, "table")
    assert code == 1 and not out
    assert err == "error: table needs --family FILE or --ring SPEC\n"


def test_table_markdown_and_csv(tmp_path, capsys):
    family = tmp_path / "family.txt"
    family.write_text("Z/3\nZ/5\n")
    code, out, _ = run_cli(capsys, "table", "--family", str(family),
                           "--metrics", "units", "--out", "markdown")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("| ring |")
    assert len(lines) == 4
    code, out, _ = run_cli(capsys, "table", "--family", str(family),
                           "--metrics", "units", "--out", "csv")
    assert code == 0
    assert out.splitlines()[0] == "ring,n_units"


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert out.startswith("mwkit ")


def test_gw_full_table_for_small_family(tmp_path, capsys):
    family = tmp_path / "family.txt"
    family.write_text("Z/3\nZ/4\n")
    code, out, _ = run_cli(capsys, "table", "--family", str(family))
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["reduced_rank"] == 1
    assert rows[0]["reduced_torsion"] == [2]
    assert rows[1]["reduced_rank"] == 2
    assert rows[1]["plus_rank"] == 1 and rows[1]["minus_rank"] == 1
    assert rows[0]["comparison"] is True


def test_table_builds_each_lattice_once(tmp_path, capsys, monkeypatch):
    # a row that reads both kinds builds the hopf presentation only when the
    # comparison fails, i.e. when the two lattices differ: Z/16, whose unit
    # 3 squares to 9, builds two; Z/12 has residue field F_2 too, but its
    # units square to 1, so it builds one
    from mwkit import gwring

    built = []
    rows_of = gwring._presented_rows

    def counted(ring, kind):
        built.append(ring.spec_string())
        return rows_of(ring, kind)

    monkeypatch.setattr(gwring, "_presented_rows", counted)
    family = tmp_path / "family.txt"
    family.write_text("Z/9\nZ/12\nGF(2^3)\nZ/19\nGR(8,2)\nZ/16\n")
    once = ["Z/9", "Z/12", "GF(2^3)", "Z/19", "GR(2^3,2)", "Z/16"]
    tables = {}
    for metrics, want in (("gw", once + ["Z/16"]), ("", once + ["Z/16"]), ("split", once),
                          ("units", [])):
        built.clear()
        code, out, _ = run_cli(capsys, "table", "--family", str(family), "--metrics", metrics)
        assert code == 0 and sorted(built) == sorted(want), metrics
        tables[metrics] = json.loads(out)
    monkeypatch.undo()
    for row in tables["gw"]:
        hopf, reduced = gwring.present(row["ring"], "hopf"), gwring.present(row["ring"], "reduced")
        assert row == {"ring": row["ring"], "hopf_rank": hopf.rank, "hopf_torsion": list(hopf.torsion),
                       "reduced_rank": reduced.rank, "reduced_torsion": list(reduced.torsion)}


# stdout of each command, recorded from the all-pairs builders these replaced;
# "{family}" stands for a family file with the listed ring specs
GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda c: " ".join(c["argv"]))
def test_cli_golden_output(case, tmp_path, capsys):
    family = tmp_path / "family.txt"
    family.write_text(GOLDEN["family"])
    argv = [str(family) if a == "{family}" else a for a in case["argv"]]
    code, out, _ = run_cli(capsys, *argv)
    assert (code, out) == (case["code"], case["stdout"])


# gw and compare on larger rings, recorded from the dense echelon lattice
# that the reduced Hermite lattice replaced; the torsion cells of the two
# GR(4,3) markdown rungs edited since to escape their | as \|
@pytest.mark.parametrize("case", GOLDEN["rungs"], ids=lambda c: " ".join(c["argv"]))
def test_cli_golden_rungs(case, capsys):
    code, out, _ = run_cli(capsys, *case["argv"])
    assert (code, out) == (case["code"], case["stdout"])


def _markdown_cell_counts(text):
    # cells split on each | that is not escaped as \|
    return [len(re.split(r"(?<!\\)\|", line)) - 2 for line in text.strip().splitlines()]


def test_markdown_rows_have_the_header_cell_count(capsys):
    # an unescaped |-joined list once split its cell, so the row outgrew its header
    goldens = [c["stdout"] for c in GOLDEN["cases"] + GOLDEN["rungs"] if "markdown" in c["argv"]]
    code, out, _ = run_cli(capsys, "table", "--ring", "prod(Z/2,GF(2^2))", "--out", "markdown")
    assert code == 0 and "2\\|2" in out
    for text in goldens + [out]:
        counts = _markdown_cell_counts(text)
        assert counts == [counts[0]] * len(counts), text


# sha256 of the stdout of ringinfo, sumsq and validate, recorded while Galois
# products still went through _poly_mul and _poly_rem_monic and product
# coordinates were factor elements; sumsq on prod(GF(2^6),Z/61), Z/4093 and
# GR(27,2) and ringinfo on GR(2,3) and prod(GF(2^8),Z/251) recorded while
# every unit was squared with the ring product and the fixpoint scanned all
# pairs of reached units; sumsq on GR(4,6), prod(Z/3,Z/3,Z/3,Z/3,Z/3) and
# prod(Z/5,Z/13,Z/3) recorded while each new class was summed against every
# reached unit; sumsq on GR(8,2) and prod(Z/2,prod(GR(8,2),Z/9)) recorded
# while square classes were numbered in the order of their first units;
# sumsq on prod(GF(2^4),Z/61) recorded while the witness pass scanned the
# reached units in unit order for every new unit; validate on Z/3, Z/5, Z/7,
# Z/11, Z/13 and GR(3,2) in each output format, and its refusals of Z/17,
# GF(2^2) and Z/9, recorded while the form oracle emitted a row for every
# isometric pair of forms and scanned every second column of each orbit
@pytest.mark.parametrize("case", GOLDEN["arith"], ids=lambda c: " ".join(c["argv"]))
def test_cli_golden_arith(case, capsys):
    code, out, _ = run_cli(capsys, *case["argv"])
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (case["code"],
                                                                case["stdout_sha256"])


# sha256 of the stdout of gw in both kinds and of compare on rings of 32 to
# 256 units, recorded while every lattice was seeded from all unit pairs; gw
# on Z/509 and reduced gw on GF(2^8) recorded while the Smith form ran over
# the whole Hermite basis; gw on Z/1021, GF(2^10) and Z/1024 and compare on
# Z/1021 recorded while the hopf lattice was spun up under unit generators
# and the reduced one built in dimension |U|; compare on Z/1024,
# prod(Z/16,Z/5) and prod(Z/2,Z/1021) and reduced gw on Z/16384 recorded
# while the comparison on an F_2-residue ring tested unit generators
# against the hopf lattice and scanned the rows for the witness; gw on
# GR(4,5), prod(Z/3,Z/3,Z/3,Z/3,Z/3) and prod(Z/5,Z/13,Z/3) in both kinds
# and reduced gw on GR(4,6) recorded while family (iii) summed the first
# unit of each square class with every unit; gw on
# prod(Z/3,Z/3,Z/3,Z/3,Z/3,Z/3,Z/3,Z/3) in both kinds (a 128 x 129 Smith
# core) recorded while the Smith form still kept U and V^-1; gw on GR(8,2)
# and prod(Z/2,prod(GR(8,2),Z/9)) in both kinds recorded while square
# classes were numbered in the order of their first units; gw on GR(4,7) in
# both kinds recorded while family (iii) had a row for every class and every
# pair of the unit-sum table; gw on GF(2^16) in both kinds, reduced gw on
# Z/65536, compare on GR(4,8) and sumsq on GR(27,3), rings at the element
# bound, recorded while the bound was a constructor parameter and the Galois
# kernel kept an 8-byte slot width and a schoolbook fallback; hopf gw on
# Z/4096 recorded while the F_2-residue hopf kind was presented in dimension
# |U| and a class query on it read the projections through a Python loop
@pytest.mark.parametrize("case", GOLDEN["ladder"], ids=lambda c: " ".join(c["argv"]))
def test_cli_golden_ladder(case, capsys):
    code, out, _ = run_cli(capsys, *case["argv"])
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (case["code"],
                                                                case["stdout_sha256"])


def test_compare_finishes_on_gf128(capsys):
    # the dense echelon lattice did not finish this in 200 s
    code, out, _ = run_cli(capsys, "compare", "--ring", "GF(2^7)")
    assert code == 0
    assert json.loads(out)["extra_relations_implied"] is True


# prove --out json for the benchmark's corpus and [a][1-a] = 0, and three
# searches that end on their state budget with the sha256 of the states they
# create, in order; all recorded before the prover's hashing and memoisation
# changed, so a change to the search order fails here
PROVE_GOLDEN = json.loads((Path(__file__).parent / "prove_golden.json").read_text())


@pytest.mark.parametrize("case", PROVE_GOLDEN["cases"], ids=lambda c: c["argv"][1])
def test_prove_golden_output(case, capsys):
    code, out, _ = run_cli(capsys, *case["argv"])
    assert (code, out) == (case["code"], case["stdout"])


@pytest.mark.parametrize("case", PROVE_GOLDEN["budget"], ids=lambda c: c["identity"])
def test_prove_budget_searches_stay_unknown(case):
    import hashlib

    from mwkit import kmwterm, termparse
    from test_prove_search import logged_search

    identity = termparse.parse_identity(case["identity"], case["hyp"])
    result, states = logged_search(identity, case["mode"],
                                   kmwterm.ProveConfig(max_states=case["max_states"]))
    assert ("unknown" if result.proof is None else "proved") == case["status"]
    digest = hashlib.sha256("".join(text + "\n" for text in states).encode())
    assert digest.hexdigest() == case["states_sha256"]
