"""Command-line front end: dataset simulation, inference, and summaries.

Three subcommands share one JSON configuration document:

* ``simulate`` integrates the reservoir SDE and writes a truth path plus
  noisy observations.
* ``infer`` runs HMC chains against an observation file and writes one CSV
  per chain plus their posterior summary.
* ``summarize`` re-reads chain CSVs and writes the same summary JSON, and
  density curves of the draws each chain keeps after its burn-in.

Configuration precedence, lowest to highest: built-in defaults, a named
preset, the ``--config`` file, then individual flags. One pass over the
merged document, before any command runs, rejects unknown keys and checks
every value, in every block, whether the command reads it or not, by the
rule that owns it (`errors._positive`, `_count` and the rest, the rules
its dataclass checks it with). A refused value reads as its rule's
message named by the dotted field, ``infer.n_mc must be >= 1, got 0``;
only a refusal across a block's fields names the block, ``config block
model: ...``. Every run writes the fully resolved configuration next to
its outputs so it can be reproduced exactly.

Exit codes: 0 success, 1 runtime failure, 2 validation failure.
"""

from __future__ import annotations

import argparse
import copy
import errno
import functools
import json
import os
import reprlib
import sys
from dataclasses import asdict, fields

import numpy as np

from .diagnostics import (
    _kept_rows,
    _pooled_summary,
    discard_start,
    kde,
    silverman_bandwidth,
    summarize,
    write_density_csv,
)
from .errors import DomainError, NonFiniteError, StagHmcError, ValidationError
from .errors import _count, _naming, _positive, _positive_pair, _real, _seed, _sized
from .integrator import IntegratorConfig
from .lattice import MassConfig
from .model import (
    InputSignal,
    ObservationModel,
    PhysicalParams,
    TimeSeriesData,
    fine_grid,
    generate_observations,
    simulate_truth,
    to_dimensionless,
)
from .sampler import ChainRecord, HmcConfig, InferenceProblem, _start_chain
from .sampler import run_parallel_chains

__all__ = ["main"]

DEFAULTS = {
    "seed": 0,
    "chains": 1,
    "out": ".",
    "infer": {
        "observations_file": "observations.csv",
        "discard": 0.2,
    },
    "summarize": {"chain_files": [], "discard": 0.2},
}

# the points of each density curve that summarize writes
DENSITY_POINTS = 256

# benchmark configuration used throughout the docs: sinusoidal drive,
# 10 observation segments over T=833, 30 staging beads per segment
PRESETS = {
    "paper-sec4": {
        "model": {"K": 50.0, "gamma": 0.2, "T": 833.0},
        "signal": {"kind": "sinusoid", "a": 1.0, "omega": 0.01, "b": 0.1},
        "observation": {"sigma": 0.1, "n": 10},
        "lattice": {"j": 30},
        "infer": {
            "n_mc": 10000,
            "start": {"K": 200.0, "gamma": 0.5},
            "masses": {"M": 720.0, "m_prime": 130.0, "m_alpha": [150.0, 150.0]},
            "integrator": {"d_tau": 0.25, "P": 3},
        },
    },
}


def _json_int(rule):
    """The integer ``rule`` as a config leaf: a whole float, as JSON may
    spell 3 (``3.0``), is passed to it as an int."""

    @functools.wraps(rule)  # so inspect.unwrap gives the rule itself
    def leaf(name: str, value):
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        return rule(name, value)

    return leaf


def _text(name: str, value) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"{name} must be a string, got {reprlib.repr(value)}")
    return value


def _texts(name: str, value) -> list:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValidationError(f"{name} must be a list of strings, got {reprlib.repr(value)}")
    return list(value)


# every key the config document may contain, each leaf the (name, value)
# rule that owns its value, the one its dataclass checks it with; "command"
# is in every config echo, so an echo re-loads as a config
SCHEMA = {
    "command": _text,
    "seed": _json_int(_seed),
    "chains": _json_int(_count),
    "out": _text,
    "model": {"K": _positive, "gamma": _positive, "T": _positive},
    "signal": {"kind": _text, "a": _real, "omega": _real, "b": _real, "file": _text},
    "observation": {"sigma": _positive, "n": _json_int(_count)},
    "lattice": {"j": _json_int(_count)},
    "simulate": {},  # no settings: a retired key under it is refused by its dotted name
    "infer": {
        "n_mc": _json_int(_count),
        "start": {"K": _positive, "gamma": _positive},
        "masses": {"M": _positive, "m_prime": _positive, "m_alpha": _positive_pair},
        "integrator": {"d_tau": _positive, "P": _json_int(_count)},
        "observations_file": _text,
        "discard": _real,
    },
    "summarize": {"chain_files": _texts, "discard": _real},
}


def _typed(doc: dict, schema: dict, path: str = "") -> dict:
    """A copy of ``doc`` with every non-null leaf checked by its ``schema``
    rule, ``rule(<dotted field>, value)``, and set to what it returns. An
    unknown key, a block where a value belongs or a non-object where a
    block belongs is a ValidationError naming the dotted field; a value
    its rule refuses, the rule's own, named by the dotted field."""
    out = {}
    for key, value in doc.items():
        where = f"{path}.{key}" if path else key
        if key not in schema:
            raise ValidationError(f"unknown config key {reprlib.repr(where)}")
        rule = schema[key]
        if isinstance(rule, dict):
            if not isinstance(value, dict):
                raise ValidationError(
                    f"config field {where} has an invalid value {reprlib.repr(value)}: not a block"
                )
            value = _typed(value, rule, where)
        elif value is not None:
            value = rule(where, value)
        out[key] = value
    return out


def _deep_merge(base: dict, extra: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def resolve_config(args: argparse.Namespace) -> dict:
    """Merge defaults, preset, config file, and flags into one document,
    every value checked by its ``SCHEMA`` rule; a null seed or chains is
    refused."""
    cfg = copy.deepcopy(DEFAULTS)
    if args.preset is not None:
        if args.preset not in PRESETS:
            raise ValidationError(
                f"unknown preset {reprlib.repr(args.preset)}; available: {sorted(PRESETS)}"
            )
        cfg = _deep_merge(cfg, PRESETS[args.preset])
    if args.config is not None:
        if not os.path.isfile(args.config):
            raise ValidationError(f"config file not found: {args.config}")
        with open(args.config, "r", encoding="utf-8-sig") as fh:  # with or without a BOM
            try:
                loaded = json.load(fh)
            except ValueError as exc:  # a JSONDecodeError, or an integer past int's digit limit
                raise ValidationError(f"config file {args.config} is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise ValidationError(f"config file {args.config} must hold a JSON object")
        cfg = _deep_merge(cfg, loaded)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.chains is not None:
        cfg["chains"] = args.chains
    if args.out is not None:
        cfg["out"] = args.out
    cfg = _typed(cfg, SCHEMA)
    _need(cfg, "seed")
    _need(cfg, "chains")
    return cfg


def _need(cfg: dict, field: str):
    """The value of the dotted config field ``field``, such as ``model.K``;
    a missing or null field, or a missing block on the way, is a
    ValidationError naming the field."""
    value = cfg
    for key in field.split("."):
        value = value.get(key)
        if value is None:
            raise ValidationError(
                f"missing config field {field}; supply it with --config or --preset"
            )
    return value


def _build(cls, cfg: dict, block: str, **given):
    """``cls`` with each init field not in ``given`` read by `_need` as
    ``block.<field>``, which its ``SCHEMA`` leaf, the field's own rule, has
    checked; a ValidationError of ``cls``, a refusal across its fields, is
    prefixed with the block."""
    read = {
        f.name: _need(cfg, f"{block}.{f.name}")
        for f in fields(cls)
        if f.init and f.name not in given
    }
    with _naming(f"config block {block}"):
        return cls(**read, **given)


def _build_signal(cfg: dict) -> tuple[InputSignal, str, tuple[str, ...]]:
    """The config's signal, the name its refusals carry and the config
    fields it was read from. The name is the file of a table,
    ``<file> (config field signal.file)``, or ``config block signal`` for a
    sinusoid. A signal that cannot be read where the lattice or the
    simulation grid reads it is refused under this name (`_naming`), when
    it is read: a sinusoid's a, omega and b have no other check."""
    kind = _need(cfg, "signal.kind")
    if kind == "sinusoid":
        fields = ("signal.a", "signal.omega", "signal.b")
        signal = InputSignal.sinusoid(*(_need(cfg, field) for field in fields))
        return signal, "config block signal", fields
    if kind == "tabulated":
        path = _input_file(_need(cfg, "signal.file"), "signal.file")
        return InputSignal.from_csv(path), f"{path} (config field signal.file)", ("signal.file",)
    raise ValidationError(f"config field signal.kind has an unknown value {reprlib.repr(kind)}")


def _input_file(path: str, field: str) -> str:
    """``path``, read from the config field ``field``, if it names a file."""
    if not os.path.isfile(path):
        raise ValidationError(f"file not found: {path} (config field {field})")
    return path


def _write_json(doc: dict, out_dir: str, name: str) -> str:
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_echo(cfg: dict, command: str, out_dir: str) -> str:
    """Write the config echo, each command's first file, making ``out_dir``:
    a command calls it only after every check of its settings (for `simulate`,
    after the simulation), so a rejected config leaves no output directory."""
    os.makedirs(out_dir, exist_ok=True)
    return _write_json({**cfg, "command": command}, out_dir, f"config_{command}.json")


def cmd_simulate(cfg: dict) -> int:
    out_dir = cfg["out"]
    params = _build(PhysicalParams, cfg, "model")
    signal, signal_name, _ = _build_signal(cfg)
    n = _need(cfg, "observation.n")
    obs = _build(ObservationModel, cfg, "observation")
    j = _need(cfg, "lattice.j")

    rng = np.random.default_rng(np.random.SeedSequence(cfg["seed"]))
    # an array NumPy cannot allocate is refused naming these config fields
    with _sized(**{"observation.n": n, "lattice.j": j}):
        grid = fine_grid(params.T, n, j)
        with _naming(signal_name):
            truth = simulate_truth(params, signal, grid, seed=rng)
    obs_times = np.linspace(0.0, params.T, n + 1)
    data = generate_observations(truth, obs_times, params, obs, seed=rng)

    # written once the run has succeeded, so a failed simulation leaves no files
    echo_path = _write_echo(cfg, "simulate", out_dir)
    truth_path = os.path.join(out_dir, "truth.csv")
    obs_path = os.path.join(out_dir, "observations.csv")
    truth.to_csv(truth_path)
    data.to_csv(obs_path)
    print(f"config echo: {echo_path}")
    print(f"truth path ({grid.size} points): {truth_path}")
    print(f"observations ({data.times.size} points): {obs_path}")
    return 0


def cmd_infer(cfg: dict) -> int:
    out_dir = cfg["out"]
    obs_file = _input_file(_need(cfg, "infer.observations_file"), "infer.observations_file")
    data = TimeSeriesData.from_csv(obs_file)
    signal, signal_name, signal_fields = _build_signal(cfg)
    obs = _build(ObservationModel, cfg, "observation")
    j = _need(cfg, "lattice.j")
    # each value the plan takes has passed its own checks above, so the plan
    # has two refusals left: a lattice too large to allocate, and a signal
    # that cannot be read at the lattice's times (a table that stops short
    # of the data, or an r that is not positive and finite there)
    with _sized(**{"lattice.j": j}), _naming(signal_name):
        problem = InferenceProblem(data, signal, obs, j)

    start = _build(PhysicalParams, cfg, "infer.start", T=data.horizon)
    theta0 = to_dimensionless(start)
    masses = _build(MassConfig, cfg, "infer.masses")
    integ = _build(IntegratorConfig, cfg, "infer.integrator")
    hmc = _build(
        HmcConfig, cfg, "infer", theta0=(theta0.beta, theta0.gamma), masses=masses,
        integrator=integ, seed=cfg["seed"], chains=cfg["chains"],
    )
    # one chain's table of its n_mc iterations, sized here so that an n_mc
    # NumPy cannot allocate is refused before the first write
    with _sized(**{"infer.n_mc": hmc.n_mc}):
        np.empty((6, hmc.n_mc))
    discard = _need(cfg, "infer.discard")
    with _naming("config field infer.discard"):
        discard_start(discard, hmc.n_mc)
    # every chain starts here: a start whose force is not finite on this
    # problem is refused before the first write, naming each setting that
    # fixes that force. Its beta and gamma are positive and finite
    # (`PhysicalParams`), so the start's kernel pass has no DomainError to
    # raise
    with _naming("config block infer.start"):
        try:
            _start_chain(problem, hmc)
        except NonFiniteError as exc:
            fields = (
                "infer.observations_file", *signal_fields, "observation.sigma", "lattice.j",
            )
            # each value as the config holds it: a path in full, a number's repr
            named = ", ".join(f"{field} = {_need(cfg, field)}" for field in fields)
            raise ValidationError(
                f"no chain can start at K = {start.K!r}, gamma = {start.gamma!r} "
                f"with {named}: {exc}"
            ) from None

    echo_path = _write_echo(cfg, "infer", out_dir)
    records = run_parallel_chains(problem, hmc)
    chain_paths = []
    for i, rec in enumerate(records):
        path = os.path.join(out_dir, f"chain{i:02d}.csv")
        rec.to_csv(path)
        chain_paths.append(path)

    summary = asdict(summarize(*records, discard=discard))
    summary["chains_meta"] = [rec.meta for rec in records]
    summary_path = _write_json(summary, out_dir, "summary.json")

    print(f"config echo: {echo_path}")
    for path in chain_paths:
        print(f"chain record: {path}")
    print(f"summary: {summary_path}")
    for name in ("K", "gamma"):
        p = summary["parameters"][name]
        lo, hi = p["ci95"]
        print(f"{name}: mean {p['mean']:.4g}, 95% interval [{lo:.4g}, {hi:.4g}]")
    print(f"acceptance rate: {summary['acceptance_rate']:.3f}")
    # a chain that stopped moving: no acceptance in the second half of the
    # rows the summary keeps, if not in all of them
    for i, rec in enumerate(records):
        n = rec.n_rows
        kept = discard_start(discard, n)
        late = (kept + n) // 2
        if rec.accepted[late:].any():
            continue
        if rec.acceptance_rate == 0.0:
            why = f"of its {n} proposals; its draws are the starting values"
        elif not rec.accepted[kept:].any():
            why = f"after its first {kept} of {n} proposals; it stopped moving"
        else:
            last = np.flatnonzero(rec.accepted)[-1] + 1
            why = f"in its last {n - late} of {n} proposals; it last accepted proposal {last}"
        print(f"warning: chain {i:02d} accepted none {why}", file=sys.stderr)
    return 0


def cmd_summarize(cfg: dict) -> int:
    out_dir = cfg["out"]
    chain_files = _need(cfg, "summarize.chain_files")
    if not chain_files:
        raise ValidationError("summarize.chain_files must list at least one chain CSV")
    # a file listed twice would pool its chain twice, whatever the spelling:
    # each file is keyed by its device and inode, one stat each, to the
    # index of its first listing
    first = {}
    for i, path in enumerate(chain_files):
        st = os.stat(_input_file(path, "summarize.chain_files"))
        j = first.setdefault((st.st_dev, st.st_ino), i)
        if j != i:
            raise ValidationError(
                f"config field summarize.chain_files lists one file twice: {chain_files[j]}, {path}"
            )
    discard = _need(cfg, "summarize.discard")
    records = [ChainRecord.from_csv(path) for path in chain_files]
    with _naming("config field summarize.discard"):
        kept = _kept_rows(records, discard)
    with _naming("config field summarize.chain_files"):
        summary = _pooled_summary(records, kept, discard)
    # infer's summary.json holds chains_meta, which no chain CSV does
    old_path = os.path.join(out_dir, "summary.json")
    try:
        with open(old_path, encoding="utf-8") as fh:
            old = json.load(fh)
    except (OSError, ValueError):
        old = None
    if isinstance(old, dict) and "chains_meta" in old:
        raise ValidationError(
            f"{old_path} is the summary that infer wrote, with its chains_meta; "
            "give summarize another --out"
        )

    # every check above runs before the first file write
    echo_path = _write_echo(cfg, "summarize", out_dir)
    summary_path = _write_json(asdict(summary), out_dir, "summary.json")
    print(f"config echo: {echo_path}")
    print(f"summary: {summary_path}")

    for name in ("beta", "gamma", "K"):
        series = kept[name]
        try:
            h = silverman_bandwidth(series)
            pad = 3.0 * h
            grid = np.linspace(series.min() - pad, series.max() + pad, DENSITY_POINTS)
            density = kde(series, grid, bandwidth=h)
        except DomainError as exc:
            print(f"density for {name} skipped: {exc}", file=sys.stderr)
            continue
        path = os.path.join(out_dir, f"density_{name}.csv")
        write_density_csv(path, grid, density)
        print(f"density curve: {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="staghmc",
        description="Simulate, infer, and summarize the noisy reservoir model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "integrate the SDE and write truth + observation files"),
        ("infer", "run HMC chains against an observation file"),
        ("summarize", "merge chain CSVs into summary JSON and density curves"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="JSON configuration file")
        p.add_argument("--seed", type=int, metavar="U64", help="master RNG seed")
        p.add_argument("--chains", type=int, metavar="INT", help="number of chains")
        p.add_argument("--preset", metavar="NAME", help="named base configuration (paper-sec4)")
        p.add_argument("--out", metavar="DIR", help="output directory")
    return parser


COMMANDS = {"simulate": cmd_simulate, "infer": cmd_infer, "summarize": cmd_summarize}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        out = _need(cfg, "out")
        if out == "":  # a whitespace-only name is a legal directory
            raise ValidationError("config field out has an invalid value '': not a directory name")
        # each command makes its output directory only at its first write;
        # an --out that names a file still fails up front, as a runtime error
        if os.path.exists(out) and not os.path.isdir(out):
            raise FileExistsError(errno.EEXIST, "output path is not a directory", out)
        return COMMANDS[args.command](cfg)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (StagHmcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
