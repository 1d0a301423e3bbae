"""A seeded fuzz of the command line.

The README quick-start (``simulate --preset paper-sec4``, ``infer`` on its
observations, ``summarize`` of the chain) runs once; its config echoes and
the CSV files the commands read are the seeds. Each case mutates one of
them once: a field dropped, nulled, given the wrong type or a non-finite or
out-of-range value; a CSV row made short or long, a cell made non-numeric
or non-finite, a comment-only body, CRLF line ends, a BOM, an empty file.
Every case must exit 0, or exit 2 with a one-line error that names the
field or the file and leave no output behind. Nothing may end in a
traceback or a warning. The one runtime failure allowed is a simulation
that leaves the double range (exit 1, as
`test_path_out_of_double_range_is_a_one_line_error` pins).

Whole-number fields (``chains``, ``infer.n_mc``, ``lattice.j`` and the rest)
are mutated only to invalid values, never to large valid ones, so that no
case runs long, builds O(j^2) tables or starts worker processes.
"""

import json
import os
import random
import re
import warnings

import numpy as np
import pytest

from staghmc.cli import SCHEMA, _number, _whole, _float_pair, _text, _texts, main

SEED = 20261019
N_CONFIG_CASES = 140
N_CSV_CASES = 60
N_MC = 40  # iterations of every infer case; the quick-start's 4 000 would take seconds

# the config documents, by the command that reads them
DOCS = {
    "simulate": "simulate",
    "infer": "infer",
    "infer-tabulated": "infer",
    "summarize": "summarize",
}
# the CSV files, by the document whose path field reads them
CSV_FILES = {
    "observations": ("infer", ("infer", "observations_file")),
    "signal": ("infer-tabulated", ("signal", "file")),
    "chain": ("summarize", ("summarize", "chain_files")),
}
INPUT_FILES = {("infer", "observations_file"), ("signal", "file")}


def _fuzzed_schema():
    """SCHEMA with its retired keys back in their old places: ``signal.value``
    of the deleted ``constant`` input kind; ``simulate.factor``,
    ``simulate.s0`` and ``summarize.density_points``, which no run set; and
    ``simulate.truth_file`` and ``simulate.observations_file``, now fixed
    names. A config that still sets one must be refused by name (``unknown
    config key``), and the case list, from which the tier-1 sample is drawn
    by position, keeps its order."""
    retired = {
        "value": _number, "factor": _whole, "s0": _number, "density_points": _whole,
        "truth_file": _text, "observations_file": _text,
    }
    old_order = {
        "signal": ("kind", "a", "omega", "b", "value", "file"),
        "simulate": ("factor", "s0", "truth_file", "observations_file"),
        "summarize": ("chain_files", "discard", "density_points"),
    }
    return {
        **SCHEMA,
        **{
            block: {key: SCHEMA[block].get(key) or retired[key] for key in keys}
            for block, keys in old_order.items()
        },
    }


def _leaves(schema, path=()):
    for key, rule in schema.items():
        if isinstance(rule, dict):
            yield (*path, key), None
            yield from _leaves(rule, (*path, key))
        else:
            yield (*path, key), rule


def _field_values(field, rule):
    """(id, value) of every mutation of a field whose conversion is ``rule``
    (None for a block)."""
    out = [("drop", "<drop>"), ("null", None)]
    if rule is None:
        return out + [("number", 5), ("list", [1])]
    if rule is _whole:
        # invalid values only: a large valid count would make a long run
        return out + [
            ("zero", 0), ("negative", -1), ("fraction", 2.5), ("nan", float("nan")),
            ("inf", float("inf")), ("bool", True), ("text", "3"), ("list", [3]),
        ]
    if rule is _number:
        return out + [
            ("zero", 0.0), ("negative", -1.0), ("nan", float("nan")), ("inf", float("inf")),
            ("-inf", float("-inf")), ("tiny", 1e-300), ("huge", 1e300), ("bool", True),
            ("text", "1.5"), ("list", [1.0]), ("block", {"x": 1}),
        ]
    if rule is _float_pair:
        return out + [
            ("short", [1.0]), ("long", [1.0, 1.0, 1.0]), ("nan", [float("nan"), 1.0]),
            ("zero", [0.0, 1.0]), ("text", [1.0, "x"]), ("number", 5.0),
        ]
    if rule is _texts:
        return out + [("text", "a.csv"), ("numbers", [5]), ("empty", []),
                      ("missing", ["absent.csv"])]
    values = out + [("number", 5), ("bool", True), ("list", ["a"])]
    if field in INPUT_FILES:
        values += [("missing", "absent.csv"), ("directory", ".")]
    if field == ("signal", "kind"):
        values += [("unknown", "square"), ("constant", "constant"), ("tabulated", "tabulated")]
    return values


def config_cases():
    cases = []
    for doc in DOCS:
        for field, rule in _leaves(_fuzzed_schema()):
            for name, value in _field_values(field, rule):
                cases.append((f"{doc}-{'.'.join(field)}-{name}", doc, field, value))
        for name in ("empty", "bom", "crlf", "truncated", "list"):
            cases.append((f"{doc}-document-{name}", doc, None, name))
    return cases


CSV_EDITS = (
    "short-row", "long-row", "text-cell", "empty-cell", "separator-cell", "nan-cell",
    "inf-cell", "-inf-cell", "zero-cell", "negative-cell", "comment-only", "header-only",
    "empty-file", "crlf", "bom", "blank-lines", "duplicate-row", "swapped-rows",
    "wrong-header",
)


def csv_cases():
    return [
        (f"{kind}-{edit}-{k}", kind, edit, k)
        for kind in CSV_FILES for edit in CSV_EDITS for k in range(3)
    ]


def _sample(cases, k, salt):
    rng = random.Random(f"{SEED}-{salt}")
    return sorted(rng.sample(cases, min(k, len(cases))))


CONFIG_CASES = _sample(config_cases(), N_CONFIG_CASES, "config")
CSV_CASES = _sample(csv_cases(), N_CSV_CASES, "csv")


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    """The quick-start's config echoes and CSV texts."""
    root = tmp_path_factory.mktemp("quick-start")
    run = root / "run"
    assert main(["simulate", "--preset", "paper-sec4", "--seed", "2718", "--out", str(run)]) == 0
    infer = {"infer": {"observations_file": str(run / "observations.csv"), "n_mc": N_MC}}
    (root / "infer.json").write_text(json.dumps(infer))
    assert main(["infer", "--preset", "paper-sec4", "--seed", "7",
                 "--config", str(root / "infer.json"), "--out", str(run)]) == 0
    summ = {"summarize": {"chain_files": [str(run / "chain00.csv")], "discard": 0.25}}
    (root / "summ.json").write_text(json.dumps(summ))
    summary = run / "summary"  # summarize may not overwrite infer's summary.json
    assert main(["summarize", "--config", str(root / "summ.json"), "--out", str(summary)]) == 0

    outs = {"simulate": run, "infer": run, "summarize": summary}
    docs = {
        name: json.loads((outs[command] / f"config_{command}.json").read_text())
        for name, command in DOCS.items()
    }
    t = np.linspace(0.0, 833.0, 101)
    r = np.sin(0.01 * t) ** 2 + 0.1
    signal_csv = "t,r\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(t, r))
    (run / "signal.csv").write_text(signal_csv)
    docs["infer-tabulated"]["signal"] = {"kind": "tabulated", "file": str(run / "signal.csv")}
    texts = {
        "observations": (run / "observations.csv").read_text(),
        "signal": signal_csv,
        "chain": (run / "chain00.csv").read_text(),
    }
    return docs, texts


def _set(doc, field, value):
    block = doc
    for key in field[:-1]:
        if not isinstance(block.get(key), dict):
            block[key] = {}
        block = block[key]
    if isinstance(value, str) and value == "<drop>":
        block.pop(field[-1], None)
    else:
        block[field[-1]] = value


def _edit_csv(text, edit, k):
    """``text`` with one ``edit``; ``k`` picks the row and the cell."""
    header, *rows = text.splitlines()
    rng = random.Random(f"{SEED}-{edit}-{k}")
    i = rng.randrange(len(rows))
    cells = rows[i].split(",")
    c = rng.randrange(len(cells))
    cell = {
        "text-cell": "abc", "empty-cell": "", "separator-cell": "1_0", "nan-cell": "nan",
        "inf-cell": "inf", "-inf-cell": "-inf", "zero-cell": "0", "negative-cell": "-1",
    }
    if edit in cell:
        cells[c] = cell[edit]
        rows[i] = ",".join(cells)
    elif edit == "short-row":
        rows[i] = ",".join(cells[:-1])
    elif edit == "long-row":
        rows[i] = ",".join(cells + ["1"])
    elif edit == "comment-only":
        rows = ["# no rows here"]
    elif edit == "header-only":
        rows = []
    elif edit == "empty-file":
        return ""
    elif edit == "crlf":
        return "\r\n".join([header, *rows]) + "\r\n"
    elif edit == "bom":
        return "\ufeff" + text
    elif edit == "blank-lines":
        rows.insert(i, "")
        rows.insert(i, "# a note")
    elif edit == "duplicate-row":
        rows.insert(i, rows[i])
    elif edit == "swapped-rows":
        j = (i + 1) % len(rows)
        rows[i], rows[j] = rows[j], rows[i]
    elif edit == "wrong-header":
        header = header.upper()
    return "\n".join([header, *rows]) + "\n"


def _edit_document(text, edit):
    return {
        "empty": "",
        "bom": "\ufeff" + text,
        "crlf": text.replace("\n", "\r\n"),
        "truncated": text[: len(text) // 2],
        "list": "[" + text + "]",
    }[edit]


def _run(tmp_path, monkeypatch, capsys, command, doc_text):
    """Run ``command`` on the document, from an empty working directory,
    with every warning an error; return the exit code, stderr and whether
    anything was written."""
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    config = tmp_path / "config.json"
    config.write_text(doc_text, encoding="utf-8", newline="")
    before = sorted(os.listdir(tmp_path))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([command, "--config", str(config)])
    err = capsys.readouterr().err
    wrote = sorted(os.listdir(tmp_path)) != before or bool(os.listdir(work))
    return rc, err, wrote


def _check(rc, err, wrote, names):
    assert "Traceback" not in err
    if rc == 0:
        return
    assert err.startswith("error: ") and err.count("\n") == 1, err
    if rc == 1 and err.startswith("error: non-finite simulated "):
        return  # a simulation beyond the double range: a runtime failure, by design
    assert rc == 2, err
    assert any(name(err) for name in names), err
    assert not wrote, err


def _names_field(field):
    """Tests of an error message for naming the dotted ``field``: the whole
    dotted name, or the block of a dataclass-built config and the leaf."""
    dotted = ".".join(field)
    block, leaf = ".".join(field[:-1]), field[-1]
    tests = [lambda err: dotted in err]
    if block:
        tests.append(
            lambda err: f"config block {block}:" in err and re.search(rf"\b{leaf}\b", err)
        )
    else:
        tests.append(lambda err: re.search(rf"\b{leaf}\b", err) is not None)
    return tests


@pytest.mark.parametrize(
    "doc, field, value", [c[1:] for c in CONFIG_CASES], ids=[c[0] for c in CONFIG_CASES]
)
def test_mutated_config(seeds, tmp_path, monkeypatch, capsys, doc, field, value):
    docs, _ = seeds
    base = json.loads(json.dumps(docs[doc]))
    base["out"] = str(tmp_path / "out")
    if field is None:
        text = _edit_document(json.dumps(base, indent=2), value)
        names = [lambda err: str(tmp_path / "config.json") in err]
    else:
        _set(base, field, value)
        text = json.dumps(base)
        names = _names_field(field)
        if field == ("signal", "kind"):
            # another kind needs its own fields, and the error names them
            names.append(lambda err: "missing config field signal." in err)
    rc, err, wrote = _run(tmp_path, monkeypatch, capsys, DOCS[doc], text)
    _check(rc, err, wrote, names)


@pytest.mark.parametrize(
    "kind, edit, k", [c[1:] for c in CSV_CASES], ids=[c[0] for c in CSV_CASES]
)
def test_mutated_csv(seeds, tmp_path, monkeypatch, capsys, kind, edit, k):
    docs, texts = seeds
    doc, field = CSV_FILES[kind]
    path = tmp_path / f"{kind}.csv"
    path.write_text(_edit_csv(texts[kind], edit, k), encoding="utf-8", newline="")
    base = json.loads(json.dumps(docs[doc]))
    base["out"] = str(tmp_path / "out")
    _set(base, field, [str(path)] if kind == "chain" else str(path))
    rc, err, wrote = _run(tmp_path, monkeypatch, capsys, DOCS[doc], json.dumps(base))
    _check(rc, err, wrote, [lambda err: str(path) in err])
