"""Command-line front end.

Subcommands: ringinfo, gw, sumsq, prove, compare, validate, table.
Reports are deterministic byte-for-byte across runs: fixed enumeration
orders, no timestamps, and the version string only appears under
--version.  Exit codes: 0 success, 1 input or usage error (diagnostics on
stderr), 2 the prover returned Unknown.  ``main`` parses every call with
one parser of all seven subcommands (``build_parser``), built when the
module loads, and reads the handler of the parsed subcommand at call time.
Each report is json, or a table that one writer (``_table``) prints as csv
or markdown: a scalar report as one row of columns in csv and as key and
value rows in markdown, a ``table`` report as one row per ring.  Only ``prove``
imports the prover modules ``kmwterm`` and ``termparse``, and only
``validate`` imports ``qform``; every typed input error derives from
``mwkit.errors.InputError``, so ``main`` catches them without loading any
of the three.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .. import __version__
from ..errors import InputError
from ..finring import RingError, make_ring
from ..gwring import PresentationKind, compare_presentations, present
from ..sumsq import unit_square_closure

TABLE_METRICS = {
    "units": ["n_units"],
    "sumsq": ["minus_one_exponent"],
    "gw": ["hopf_rank", "hopf_torsion", "reduced_rank", "reduced_torsion"],
    "split": ["plus_rank", "minus_rank"],
    "compare": ["comparison"],
}

TABLE_COLUMNS = ["ring"] + [c for cols in TABLE_METRICS.values() for c in cols]


def _flatten(value):
    if isinstance(value, (list, tuple)):
        return "|".join(str(v) for v in value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _table(header: list, rows: list, fmt: str) -> str:
    """``rows``, each a list of values under ``header``, as csv or else as a
    markdown table, whose cells escape ``|``."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_flatten(v) for v in row] for row in rows)
        return buf.getvalue()
    lines = ["| " + " | ".join(header) + " |", "| " + " | ".join("---" for _ in header) + " |"]
    for row in rows:
        lines.append("| " + " | ".join(_flatten(v).replace("|", "\\|") for v in row) + " |")
    return "\n".join(lines) + "\n"


def _emit_scalar(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    # a nested dict's entries are named key.entry; csv lists them after the
    # plain entries, markdown where the dict stands
    keys = sorted(report, key=lambda k: isinstance(report[k], dict)) if fmt == "csv" else report
    flat = []
    for k in keys:
        v = report[k]
        flat.extend([(f"{k}.{kk}", vv) for kk, vv in v.items()] if isinstance(v, dict) else [(k, v)])
    if fmt == "csv":
        return _table([k for k, _ in flat], [[v for _, v in flat]], fmt)
    return _table(["key", "value"], flat, fmt)


def _emit_rows(rows: list[dict], columns: list[str], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    return _table(columns, [[row.get(c) for c in columns] for row in rows], fmt)


def cmd_ringinfo(args) -> tuple[int, str]:
    ring = make_ring(args.ring)
    units = ring.unit_texts()
    squares = set(ring.unit_square_map())  # a unit square is a unit: format it once
    report = {
        "ring": ring.spec_string(),
        "cardinality": ring.card,
        "characteristic": ring.characteristic(),
        "n_units": len(units),
        "units": units,
        "unit_squares": sorted(units[k] for k in squares),
    }
    return 0, _emit_scalar(report, args.out)


def cmd_gw(args) -> tuple[int, str]:
    ring = make_ring(args.ring)
    report = present(ring, PresentationKind.coerce(args.kind)).report()
    return 0, _emit_scalar(report, args.out)


def cmd_sumsq(args) -> tuple[int, str]:
    report = unit_square_closure(make_ring(args.ring)).to_json()
    return 0, _emit_scalar(report, args.out)


def cmd_compare(args) -> tuple[int, str]:
    report = compare_presentations(make_ring(args.ring)).to_json()
    return 0, _emit_scalar(report, args.out)


def cmd_validate(args) -> tuple[int, str]:
    from ..qform import cross_validate

    report = cross_validate(make_ring(args.ring)).to_json()
    return 0, _emit_scalar(report, args.out)


class InputFileError(InputError):
    """An input file could not be read as text, or holds no input."""


def _read_text(path: str, option: str) -> str:
    """The text of the UTF-8 file given to ``option``, less a leading byte-order mark."""
    try:
        with open(path, encoding="utf-8") as fh:
            # a leading byte-order mark is not text; utf-8-sig would drop
            # it too, but would count a decode error's offset without it
            return fh.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise InputFileError(
            f"{option} {path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _parsed(parse, text: str, source: str):
    """parse(text), with a ``ParseError`` raised again under the name of
    ``source``, the option that ``text`` came from."""
    from ..termparse import ParseError

    try:
        return parse(text)
    except ParseError as exc:
        raise ParseError(f"{source}: {exc.message}", exc.line, exc.col) from None


def cmd_prove(args) -> tuple[int, str]:
    text = _read_text(args.file, "--file") if args.file else args.identity
    if text is None:  # no text, so no position in it to name
        raise InputError("no identity given (positional argument or --file)")
    from .. import kmwterm, termparse

    hints = tuple(_parsed(termparse.parse_unit, h, f"--hints {h!r}") for h in _split_list(args.hints))
    # parse_identity reads the hypotheses too, and its errors would not say
    # which text their positions are in, so --hyp is checked first
    hyp = args.hyp or ""
    _parsed(termparse.parse_hypotheses, hyp, "--hyp")
    identity = termparse.parse_identity(text, hyp)
    # ProveConfig.validate would name its fields; name the flags typed
    for flag, value in (("--depth", args.depth), ("--max-words", args.max_words)):
        if value <= 0:
            raise kmwterm.ConfigError(f"{flag} must be positive")
    config = kmwterm.ProveConfig(
        max_depth=args.depth,
        max_term_words=args.max_words,
        hint_units=hints,
    )
    result = kmwterm.search(identity, args.mode, config)
    proof = result.proof
    base = {
        "identity": str(identity),
        "mode": args.mode,
        "hypotheses": [kmwterm.render_unit(h) for h in identity.hypotheses],
    }
    if proof is None:
        base["status"] = "unknown"
        base["reason"] = result.reason
        return 2, _emit_scalar(base, args.out)
    check = kmwterm.check_proof(proof)
    base["status"] = "proved"
    base["checked"] = bool(check)
    base["n_steps"] = len(proof.steps)
    if args.out == "json":
        base["steps"] = proof.to_json()
    return 0, _emit_scalar(base, args.out)


def _split_list(text) -> list[str]:
    if not text:
        return []
    return [part.strip() for part in text.split(",") if part.strip()]


def _table_row(spec: str, metrics: list[str]) -> dict:
    row = {"ring": spec}
    try:
        ring = make_ring(spec)
        row["ring"] = ring.spec_string()
        if "n_units" in metrics:
            row["n_units"] = len(ring.unit_index_by_coords())
        if "minus_one_exponent" in metrics:
            closure = unit_square_closure(ring)
            row["minus_one_exponent"] = closure.exponent(ring.minus_one())
        if "comparison" in metrics or "hopf_rank" in metrics:
            implied = compare_presentations(ring).extra_relations_implied
        if set(TABLE_METRICS["gw"] + TABLE_METRICS["split"]) & set(metrics):
            reduced = present(ring, PresentationKind.REDUCED)
            if "hopf_rank" in metrics:
                # the comparison holds exactly when the two lattices are
                # equal, and then the reduced presentation is the hopf one
                hopf = reduced if implied else present(ring, PresentationKind.HOPF)
                row["hopf_rank"] = hopf.rank
                row["hopf_torsion"] = list(hopf.torsion)
            row["reduced_rank"] = reduced.rank
            row["reduced_torsion"] = list(reduced.torsion)
            if "plus_rank" in metrics or "minus_rank" in metrics:
                split = reduced.invert_two_split()
                row["plus_rank"] = split.plus_rank
                row["minus_rank"] = split.minus_rank
        if "comparison" in metrics:
            row["comparison"] = implied
    except ValueError as exc:
        row["error"] = str(exc)
    return row


def cmd_table(args) -> tuple[int, str]:
    specs = []
    if args.family:
        for line in _read_text(args.family, "--family").split("\n"):
            line = line.split("#", 1)[0].strip()
            if line:
                specs.append(line)
    if args.ring:
        specs.append(args.ring)
    if not specs:
        if args.family:
            raise InputFileError(f"--family {args.family}: lists no ring")
        raise RingError("table needs --family FILE or --ring SPEC")
    metric_names = _split_list(args.metrics) or list(TABLE_METRICS)
    metrics: list[str] = []
    for name in metric_names:
        if name not in TABLE_METRICS:
            raise RingError(f"unknown metric {name!r}; choose from {sorted(TABLE_METRICS)}")
        metrics.extend(TABLE_METRICS[name])
    columns = ["ring"] + [c for c in TABLE_COLUMNS[1:] if c in metrics]
    rows = [_table_row(spec, metrics) for spec in specs]
    failed = any("error" in row for row in rows)
    if failed:
        columns = columns + ["error"]
    return (1 if failed else 0), _emit_rows(rows, columns, args.out)


def _ring_arguments(p) -> None:
    p.add_argument("--ring", required=True)


def _gw_arguments(p) -> None:
    _ring_arguments(p)
    p.add_argument("--kind", choices=["hopf", "reduced"], default="reduced")


def _prove_arguments(p) -> None:
    p.add_argument("identity", nargs="?", help="identity like '<a>+<-a> = <1>+<-1>'")
    p.add_argument("--file", help="read the identity from a file instead")
    p.add_argument("--mode", choices=["hopf", "hopf-steinberg", "reduced"], default="hopf")
    p.add_argument("--hyp", default="", help="hypotheses, e.g. 'unit(a),unit(1-a)'")
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--max-words", type=int, default=16, dest="max_words")
    p.add_argument("--hints", default="", help="comma-separated extra unit expressions")


def _table_arguments(p) -> None:
    p.add_argument("--family", help="file with one ring spec per line (# comments)")
    p.add_argument("--ring", help="single extra ring spec")
    p.add_argument("--metrics", default="", help=f"subset of {sorted(TABLE_METRICS)}")


def _subcommands() -> dict:
    """name -> (help line, handler, arguments before --out), in the order
    ``--help`` lists them.  ``main`` reads the handler on each call."""
    return {
        "ringinfo": ("cardinality, units and unit squares of a ring", cmd_ringinfo,
                     _ring_arguments),
        "gw": ("present Z[R^x]/I and report its invariants", cmd_gw, _gw_arguments),
        "sumsq": ("unit sum-of-squares exponents by fixpoint", cmd_sumsq, _ring_arguments),
        "prove": ("search for a rewrite certificate for an identity", cmd_prove,
                  _prove_arguments),
        "compare": ("do the hopf relations imply the reduced ones?", cmd_compare,
                    _ring_arguments),
        "validate": ("cross-validate a field against the form oracle", cmd_validate,
                     _ring_arguments),
        "table": ("batch report over a family of rings", cmd_table, _table_arguments),
    }


def build_parser() -> argparse.ArgumentParser:
    """The mwkit parser of all seven subcommands; each call returns a new one."""
    parser = argparse.ArgumentParser(
        prog="mwkit",
        description="Symbol relations, presented rings and unit sums of squares over finite rings.",
    )
    parser.add_argument("--version", action="version", version=f"mwkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _, add_arguments) in _subcommands().items():
        p = sub.add_parser(name, help=text)
        add_arguments(p)
        p.add_argument("--out", choices=["json", "csv", "markdown"], default="json")
    return parser


# the parser of every call of main, built here so that no call pays for it
# and the first call of a subcommand in a process costs what later ones do;
# parse_args leaves a parser as it was, and help and usage are formatted
# when printed, so one serves every call
_PARSER = build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help or --version
        return 1 if exc.code else 0
    try:
        code, text = _subcommands()[args.command][1](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return code


def console_main() -> None:
    raise SystemExit(main())
