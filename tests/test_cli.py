import hashlib
import json
from pathlib import Path

import pytest

from mwkit.cli import main


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


def test_ring_error_exit_one(capsys):
    code, out, err = run_cli(capsys, "gw", "--ring", "Z/1")
    assert code == 1
    assert "error:" in err


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
# that the reduced Hermite lattice replaced
@pytest.mark.parametrize("case", GOLDEN["rungs"], ids=lambda c: " ".join(c["argv"]))
def test_cli_golden_rungs(case, capsys):
    code, out, _ = run_cli(capsys, *case["argv"])
    assert (code, out) == (case["code"], case["stdout"])


# sha256 of the stdout of ringinfo, sumsq and validate, recorded while Galois
# products still went through _poly_mul and _poly_rem_monic and product
# coordinates were factor elements
@pytest.mark.parametrize("case", GOLDEN["arith"], ids=lambda c: " ".join(c["argv"]))
def test_cli_golden_arith(case, capsys):
    code, out, _ = run_cli(capsys, *case["argv"])
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (case["code"],
                                                                case["stdout_sha256"])


# sha256 of the stdout of gw in both kinds and of compare on rings of 32 to
# 256 units, recorded while every lattice was seeded from all unit pairs; gw
# on Z/509 and reduced gw on GF(2^8) recorded while the Smith form ran over
# the whole Hermite basis
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
