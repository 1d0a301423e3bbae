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
merged document rejects unknown keys and converts every value to its type
before any command runs. Every run writes the fully resolved configuration
next to its outputs so it can be reproduced exactly.

Exit codes: 0 success, 1 runtime failure, 2 validation failure.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import errno
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
from .errors import _count, _naming, _seed
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


def _number(value) -> float:
    """``float(value)`` for a JSON number; a bool or a string is rejected
    instead of converted."""
    if isinstance(value, (bool, str)):
        raise TypeError(f"a {type(value).__name__} is not a number")
    return float(value)


def _whole(value) -> int:
    """``int(value)`` for a whole number; a bool, a string or a fractional
    or non-finite float is rejected instead of converted or truncated."""
    if isinstance(value, (bool, str)):
        raise TypeError(f"a {type(value).__name__} is not an integer")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("not a whole number")
    return int(value)


def _float_pair(value) -> tuple:
    if not isinstance(value, list) or len(value) != 2:
        raise TypeError("not a list of two numbers")
    return (_number(value[0]), _number(value[1]))


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError("not a string")
    return value


def _texts(value) -> list:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TypeError("not a list of strings")
    return list(value)


# every key the config document may contain, each leaf the conversion of its
# value; "command" is in every config echo, so an echo re-loads as a config
SCHEMA = {
    "command": _text,
    "seed": _whole,
    "chains": _whole,
    "out": _text,
    "model": {"K": _number, "gamma": _number, "T": _number},
    "signal": {
        "kind": _text, "a": _number, "omega": _number, "b": _number, "file": _text,
    },
    "observation": {"sigma": _number, "n": _whole},
    "lattice": {"j": _whole},
    "simulate": {},  # no settings: a retired key under it is refused by its dotted name
    "infer": {
        "n_mc": _whole,
        "start": {"K": _number, "gamma": _number},
        "masses": {"M": _number, "m_prime": _number, "m_alpha": _float_pair},
        "integrator": {"d_tau": _number, "P": _whole},
        "observations_file": _text,
        "discard": _number,
    },
    "summarize": {"chain_files": _texts, "discard": _number},
}


def _typed(doc: dict, schema: dict, path: str = "") -> dict:
    """A copy of ``doc`` with every non-null leaf converted by its ``schema``
    entry. An unknown key, a block where a value belongs, a non-object where
    a block belongs, or a value its conversion rejects is a ValidationError
    naming the dotted field."""
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
            out[key] = _typed(value, rule, where)
        elif value is None:
            out[key] = None
        else:
            try:
                out[key] = rule(value)
            except (TypeError, ValueError, OverflowError) as exc:  # 10**400 is no float
                raise ValidationError(
                    f"config field {where} has an invalid value {reprlib.repr(value)}: {exc}"
                ) from None
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
    every value converted by its ``SCHEMA`` entry."""
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
    _seed("seed", _need(cfg, "seed"))
    _count("chains", _need(cfg, "chains"))
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


def _need_count(cfg: dict, field: str) -> int:
    """The config field ``field``, read by `_need`, if it is a count (`_count`)."""
    return _count(field, _need(cfg, field))


def _build(cls, cfg: dict, block: str, **given):
    """``cls`` with each init field not in ``given`` read by `_need` as
    ``block.<field>``; a ValidationError of ``cls`` is prefixed with the block."""
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


@contextlib.contextmanager
def _allocating(cfg: dict, *sizes: str):
    """Refuse, naming the config fields ``sizes`` and their values, an array
    of the block that NumPy cannot allocate: a MemoryError, or the
    ValueError of a size past its limit. The package's own errors pass."""
    try:
        yield
    except StagHmcError:
        raise
    except (MemoryError, ValueError) as exc:
        named = " and ".join(f"{field} = {reprlib.repr(_need(cfg, field))}" for field in sizes)
        raise ValidationError(
            f"arrays sized by {named} are too large to allocate: {str(exc) or type(exc).__name__}"
        ) from None


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
    n = _need_count(cfg, "observation.n")
    obs = _build(ObservationModel, cfg, "observation")
    j = _need_count(cfg, "lattice.j")

    rng = np.random.default_rng(np.random.SeedSequence(cfg["seed"]))
    with _allocating(cfg, "observation.n", "lattice.j"):
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
    j = _need_count(cfg, "lattice.j")
    # each value the plan takes has passed its own checks above, so the plan
    # has two refusals left: a lattice too large to allocate, and a signal
    # that cannot be read at the lattice's times (a table that stops short
    # of the data, or an r that is not positive and finite there)
    with _allocating(cfg, "lattice.j"), _naming(signal_name):
        problem = InferenceProblem(data, signal, obs, j)

    start = _build(PhysicalParams, cfg, "infer.start", T=data.horizon)
    theta0 = to_dimensionless(start)
    masses = _build(MassConfig, cfg, "infer.masses")
    integ = _build(IntegratorConfig, cfg, "infer.integrator")
    hmc = _build(
        HmcConfig, cfg, "infer", theta0=(theta0.beta, theta0.gamma), masses=masses,
        integrator=integ, seed=cfg["seed"], chains=cfg["chains"],
    )
    discard = _need(cfg, "infer.discard")
    with _naming("config field infer.discard"):
        discard_start(discard, hmc.n_mc)
    # every chain starts here: a start whose force is not finite on this
    # problem is refused before the first write, naming each setting that
    # fixes that force. Its beta and gamma are positive and finite
    # (`PhysicalParams`), so `Chain` has no DomainError to raise
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
    for i, path in enumerate(chain_files):
        _input_file(path, "summarize.chain_files")
        # a file listed twice would pool its chain twice, whatever the spelling
        first = next((p for p in chain_files[:i] if os.path.samefile(p, path)), None)
        if first is not None:
            raise ValidationError(
                f"config field summarize.chain_files lists one file twice: {first}, {path}"
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
