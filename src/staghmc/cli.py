"""Command-line front end: dataset simulation, inference, and summaries.

Three subcommands share one JSON configuration document:

* ``simulate`` integrates the reservoir SDE and writes a truth path plus
  noisy observations.
* ``infer`` runs HMC chains against an observation file and writes one CSV
  per chain plus a pooled posterior summary.
* ``summarize`` re-reads chain CSVs, applies a burn-in discard, and writes
  summary JSON and density curves.

Configuration precedence, lowest to highest: built-in defaults, a named
preset, the ``--config`` file, then individual flags. Unknown keys anywhere
in the document are rejected. Every run writes the fully resolved
configuration next to its outputs so it can be reproduced exactly.

Exit codes: 0 success, 1 runtime failure, 2 validation failure.
"""

from __future__ import annotations

import argparse
import copy
import errno
import json
import os
import sys

import numpy as np

from .diagnostics import kde, silverman_bandwidth, summarize, write_density_csv
from .errors import DomainError, StagHmcError, ValidationError
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
from .sampler import ChainRecord, HmcConfig, InferenceProblem, run_parallel_chains

__all__ = ["main"]

DEFAULTS = {
    "seed": 0,
    "chains": 1,
    "out": ".",
    "simulate": {
        "factor": 20,
        "s0": None,
        "truth_file": "truth.csv",
        "observations_file": "observations.csv",
    },
    "infer": {
        "observations_file": "observations.csv",
        "discard": 0.2,
        "checkpoint_every": 0,
    },
    "summarize": {"chain_files": [], "discard": 0.2, "density_points": 256},
}

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

# every key the config document may contain; None marks a leaf.
# "command" is written into config echoes, so echoes re-load as configs.
SCHEMA = {
    "command": None,
    "seed": None,
    "chains": None,
    "out": None,
    "model": {"K": None, "gamma": None, "T": None},
    "signal": {"kind": None, "a": None, "omega": None, "b": None, "value": None, "file": None},
    "observation": {"sigma": None, "n": None},
    "lattice": {"j": None},
    "simulate": {"factor": None, "s0": None, "truth_file": None, "observations_file": None},
    "infer": {
        "n_mc": None,
        "start": {"K": None, "gamma": None},
        "masses": {"M": None, "m_prime": None, "m_alpha": None},
        "integrator": {"d_tau": None, "P": None},
        "observations_file": None,
        "discard": None,
        "checkpoint_every": None,
    },
    "summarize": {"chain_files": None, "discard": None, "density_points": None},
}


def _check_keys(cfg: dict, schema: dict, path: str = "") -> None:
    for key, value in cfg.items():
        where = f"{path}.{key}" if path else key
        if key not in schema:
            raise ValidationError(f"unknown config key {where!r}")
        sub = schema[key]
        if isinstance(value, dict):
            if not isinstance(sub, dict):
                raise ValidationError(f"config key {where!r} does not take a block")
            _check_keys(value, sub, where)


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
    with ``seed`` and ``chains`` cast to int."""
    cfg = copy.deepcopy(DEFAULTS)
    if args.preset is not None:
        if args.preset not in PRESETS:
            raise ValidationError(
                f"unknown preset {args.preset!r}; available: {sorted(PRESETS)}"
            )
        cfg = _deep_merge(cfg, PRESETS[args.preset])
    if args.config is not None:
        if not os.path.exists(args.config):
            raise ValidationError(f"config file not found: {args.config}")
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"config file {args.config} is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise ValidationError("config file must hold a JSON object")
        _check_keys(loaded, SCHEMA)
        cfg = _deep_merge(cfg, loaded)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.chains is not None:
        cfg["chains"] = args.chains
    if args.out is not None:
        cfg["out"] = args.out
    _check_keys(cfg, SCHEMA)
    cfg["seed"] = _require_field(cfg, "seed", "", _whole)
    if not (0 <= cfg["seed"] < 2**64):
        raise ValidationError("seed must fit in an unsigned 64-bit integer")
    cfg["chains"] = _require_field(cfg, "chains", "", _whole)
    if cfg["chains"] < 1:
        raise ValidationError(f"chains must be >= 1, got {cfg['chains']}")
    return cfg


def _require(cfg: dict, block: str, command: str) -> dict:
    if block not in cfg:
        raise ValidationError(
            f"{command} needs a {block!r} config block; supply --config or --preset"
        )
    return cfg[block]


def _float_pair(value) -> tuple:
    return tuple(float(v) for v in value)


def _whole(value) -> int:
    """``int(value)`` for a whole number; a bool or a fractional or
    non-finite float is rejected instead of truncated."""
    if isinstance(value, bool):
        raise TypeError("a bool is not an integer")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("not a whole number")
    return int(value)


def _require_field(block: dict, name: str, where: str, cast=None):
    """The value of config field ``where.name`` (``name`` at the top level,
    where ``where`` is empty), converted by ``cast`` if one is given; a
    missing field, or one that ``cast`` rejects with ValueError or
    TypeError, is a ValidationError naming the field."""
    key = f"{where}.{name}" if where else name
    if name not in block or block[name] is None:
        raise ValidationError(f"missing config field {key}")
    value = block[name]
    if cast is None:
        return value
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"config field {key} has an invalid value {value!r}: {exc}") from None


def _build_signal(block: dict) -> InputSignal:
    kind = _require_field(block, "kind", "signal")
    if kind == "sinusoid":
        return InputSignal.sinusoid(
            _require_field(block, "a", "signal", float),
            _require_field(block, "omega", "signal", float),
            _require_field(block, "b", "signal", float),
        )
    if kind == "constant":
        return InputSignal.constant(_require_field(block, "value", "signal", float))
    if kind == "tabulated":
        path = _require_field(block, "file", "signal")
        if not os.path.exists(path):
            raise ValidationError(f"signal file not found: {path}")
        return InputSignal.from_csv(path)
    raise ValidationError(f"unknown signal kind {kind!r}")


def _write_echo(cfg: dict, command: str, out_dir: str) -> str:
    """Write the config echo, each command's first file, creating ``out_dir``
    first: a command calls it only after every check of its settings, so a
    rejected config leaves no output directory behind."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"config_{command}.json")
    echo = dict(cfg)
    echo["command"] = command
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(echo, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _discard_start(discard: float, n_rows: int) -> int:
    """First kept row of an ``n_rows``-row chain after the burn-in fraction;
    rejects a fraction outside [0, 1) or one that would keep no row."""
    if not (0.0 <= discard < 1.0):
        raise ValidationError(f"discard fraction must be in [0, 1), got {discard}")
    start = int(round(n_rows * discard))
    if start >= n_rows:
        raise ValidationError(f"discard={discard} leaves no rows of a {n_rows}-row chain")
    return start


def _pooled_record(records: list[ChainRecord], discard: float) -> ChainRecord:
    """Drop the burn-in fraction from each chain, then concatenate."""
    kept = []
    for rec in records:
        start = _discard_start(discard, rec.n_rows)
        kept.append(
            ChainRecord(
                beta=rec.beta[start:],
                gamma=rec.gamma[start:],
                K=rec.K[start:],
                accepted=rec.accepted[start:],
                h_before=rec.h_before[start:],
                h_after=rec.h_after[start:],
                dh=rec.dh[start:],
                meta=rec.meta,
            )
        )
    return ChainRecord(
        beta=np.concatenate([r.beta for r in kept]),
        gamma=np.concatenate([r.gamma for r in kept]),
        K=np.concatenate([r.K for r in kept]),
        accepted=np.concatenate([r.accepted for r in kept]),
        h_before=np.concatenate([r.h_before for r in kept]),
        h_after=np.concatenate([r.h_after for r in kept]),
        dh=np.concatenate([r.dh for r in kept]),
        meta={"pooled_from": len(records), "discard": discard},
    )


def _summary_dict(records: list[ChainRecord], pooled: ChainRecord, discard: float) -> dict:
    out = summarize(pooled, discard=0.0).as_dict()
    out["discard"] = discard
    out["chains"] = len(records)
    out["n_total"] = int(sum(r.n_rows for r in records))
    return out


def cmd_simulate(cfg: dict) -> int:
    out_dir = cfg["out"]
    model = _require(cfg, "model", "simulate")
    obs_block = _require(cfg, "observation", "simulate")
    lattice = _require(cfg, "lattice", "simulate")
    sim = cfg["simulate"]

    params = PhysicalParams(
        K=_require_field(model, "K", "model", float),
        gamma=_require_field(model, "gamma", "model", float),
        T=_require_field(model, "T", "model", float),
    )
    signal = _build_signal(_require(cfg, "signal", "simulate"))
    n = _require_field(obs_block, "n", "observation", _whole)
    if n < 1:
        raise ValidationError(f"observation.n must be >= 1, got {n}")
    sigma = _require_field(obs_block, "sigma", "observation", float)
    j = _require_field(lattice, "j", "lattice", _whole)
    factor = _require_field(sim, "factor", "simulate", _whole)

    echo_path = _write_echo(cfg, "simulate", out_dir)
    rng = np.random.default_rng(np.random.SeedSequence(cfg["seed"]))
    grid = fine_grid(params.T, n, j, factor)
    s0 = sim.get("s0")
    truth = simulate_truth(params, signal, grid, seed=rng, s0=s0)
    obs_times = np.linspace(0.0, params.T, n + 1)
    data = generate_observations(truth, obs_times, params, ObservationModel(sigma), seed=rng)

    truth_path = os.path.join(out_dir, sim["truth_file"])
    obs_path = os.path.join(out_dir, sim["observations_file"])
    truth.to_csv(truth_path)
    data.to_csv(obs_path)
    print(f"config echo: {echo_path}")
    print(f"truth path ({grid.size} points): {truth_path}")
    print(f"observations ({data.times.size} points): {obs_path}")
    return 0


def _write_summary(summary: dict, out_dir: str) -> str:
    path = os.path.join(out_dir, "summary.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def cmd_infer(cfg: dict) -> int:
    out_dir = cfg["out"]
    infer = _require(cfg, "infer", "infer")
    obs_block = _require(cfg, "observation", "infer")
    lattice = _require(cfg, "lattice", "infer")

    obs_file = infer["observations_file"]
    if not os.path.exists(obs_file):
        raise ValidationError(f"observations file not found: {obs_file}")
    data = TimeSeriesData.from_csv(obs_file)
    signal = _build_signal(_require(cfg, "signal", "infer"))
    sigma = _require_field(obs_block, "sigma", "observation", float)
    j = _require_field(lattice, "j", "lattice", _whole)
    problem = InferenceProblem(data, signal, ObservationModel(sigma), j)

    start = _require_field(infer, "start", "infer")
    start_params = PhysicalParams(
        K=_require_field(start, "K", "infer.start", float),
        gamma=_require_field(start, "gamma", "infer.start", float),
        T=data.horizon,
    )
    theta0 = to_dimensionless(start_params)
    masses_block = _require_field(infer, "masses", "infer")
    masses = MassConfig(
        M=_require_field(masses_block, "M", "infer.masses", float),
        m_prime=_require_field(masses_block, "m_prime", "infer.masses", float),
        m_alpha=_require_field(masses_block, "m_alpha", "infer.masses", _float_pair),
    )
    integ_block = _require_field(infer, "integrator", "infer")
    integ = IntegratorConfig(
        d_tau=_require_field(integ_block, "d_tau", "infer.integrator", float),
        P=_require_field(integ_block, "P", "infer.integrator", _whole),
    )
    checkpoint_every = _require_field(infer, "checkpoint_every", "infer", _whole)
    n_mc = _require_field(infer, "n_mc", "infer", _whole)
    discard = _require_field(infer, "discard", "infer", float)
    _discard_start(discard, n_mc)
    hmc = HmcConfig(
        n_mc=n_mc,
        theta0=(theta0.beta, theta0.gamma),
        masses=masses,
        integrator=integ,
        seed=cfg["seed"],
        chains=cfg["chains"],
        checkpoint_every=checkpoint_every,
        checkpoint_dir=os.path.join(out_dir, "checkpoints") if checkpoint_every > 0 else None,
    )
    # every check above runs before the first file write or sampling step
    if hmc.checkpoint_dir:
        os.makedirs(hmc.checkpoint_dir, exist_ok=True)

    echo_path = _write_echo(cfg, "infer", out_dir)
    records = run_parallel_chains(problem, hmc)
    chain_paths = []
    for i, rec in enumerate(records):
        path = os.path.join(out_dir, f"chain{i:02d}.csv")
        rec.to_csv(path)
        chain_paths.append(path)

    summary = _summary_dict(records, _pooled_record(records, discard), discard)
    summary["chains_meta"] = [rec.meta for rec in records]
    summary_path = _write_summary(summary, out_dir)

    print(f"config echo: {echo_path}")
    for path in chain_paths:
        print(f"chain record: {path}")
    print(f"summary: {summary_path}")
    for name in ("K", "gamma"):
        p = summary["parameters"][name]
        lo, hi = p["ci95"]
        print(f"{name}: mean {p['mean']:.4g}, 95% interval [{lo:.4g}, {hi:.4g}]")
    print(f"acceptance rate: {summary['acceptance_rate']:.3f}")
    for i, rec in enumerate(records):
        if rec.acceptance_rate == 0.0:
            print(
                f"warning: chain {i:02d} accepted none of its {rec.n_rows} proposals;"
                " its draws are the starting values",
                file=sys.stderr,
            )
    return 0


def cmd_summarize(cfg: dict) -> int:
    out_dir = cfg["out"]
    block = cfg["summarize"]
    chain_files = block["chain_files"]
    if not chain_files:
        raise ValidationError("summarize.chain_files must list at least one chain CSV")
    for path in chain_files:
        if not os.path.exists(path):
            raise ValidationError(f"chain file not found: {path}")
    points = _require_field(block, "density_points", "summarize", _whole)
    if points < 2:
        raise ValidationError(f"summarize.density_points must be >= 2, got {points}")
    discard = _require_field(block, "discard", "summarize", float)
    records = [ChainRecord.from_csv(path) for path in chain_files]
    pooled = _pooled_record(records, discard)

    # every check above runs before the first file write
    echo_path = _write_echo(cfg, "summarize", out_dir)
    summary_path = _write_summary(_summary_dict(records, pooled, discard), out_dir)
    print(f"config echo: {echo_path}")
    print(f"summary: {summary_path}")

    for name in ("beta", "gamma", "K"):
        series = getattr(pooled, name)
        try:
            h = silverman_bandwidth(series)
            pad = 3.0 * h
            grid = np.linspace(series.min() - pad, series.max() + pad, points)
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
        out = cfg["out"]
        # each command makes its output directory only at its first write;
        # an --out that names a file still fails up front, as a runtime error
        if isinstance(out, str) and os.path.exists(out) and not os.path.isdir(out):
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
