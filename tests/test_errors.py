"""One check per input rule: every count setting, the sampled-series rule
and the seed range are each checked in one place, so each has one wording
wherever the setting is given."""

import re

import numpy as np
import pytest

from staghmc import cli
from staghmc.errors import ValidationError
from staghmc.integrator import IntegratorConfig
from staghmc.lattice import LatticeLayout, MassConfig
from staghmc.model import InputSignal, ObservationModel, TimeSeriesData, fine_grid
from staghmc.sampler import HmcConfig, InferenceProblem

SIGNAL = InputSignal.sinusoid(1.0, 0.01, 0.1)
DATA = TimeSeriesData(times=np.linspace(0.0, 40.0, 5), values=np.full(5, 0.5))
MASSES = MassConfig(M=720.0, m_prime=130.0, m_alpha=(150.0, 150.0))
STEP = IntegratorConfig(d_tau=0.25, P=3)
NOISE = ObservationModel(0.1)


def hmc(**kw):
    return HmcConfig(**{"n_mc": 20, "theta0": (1.0, 0.5), "masses": MASSES,
                        "integrator": STEP, **kw})


def need_count(field, value):
    """The CLI's read of the whole-number config field ``field``."""
    block, leaf = field.split(".")
    return cli._need_count({block: {leaf: value}}, field)


def resolve_chains(value):
    return cli.resolve_config(cli.build_parser().parse_args(["infer", "--chains", str(value)]))


# each count setting: (the name its message gives, a call that sets it)
COUNTS = {
    "HmcConfig.n_mc": ("n_mc", lambda v: hmc(n_mc=v)),
    "HmcConfig.chains": ("chains", lambda v: hmc(chains=v)),
    "IntegratorConfig.P": ("P", lambda v: IntegratorConfig(d_tau=0.25, P=v)),
    "InferenceProblem.j": ("j", lambda v: InferenceProblem(DATA, SIGNAL, NOISE, v)),
    "LatticeLayout.n": ("n", lambda v: LatticeLayout(n=v, j=3, T=10.0)),
    "LatticeLayout.j": ("j", lambda v: LatticeLayout(n=2, j=v, T=10.0)),
    "fine_grid.n": ("n", lambda v: fine_grid(10.0, v, 3)),
    "fine_grid.j": ("j", lambda v: fine_grid(10.0, 2, v)),
    "fine_grid.factor": ("factor", lambda v: fine_grid(10.0, 2, 3, v)),
    **{
        f"cli.{field}": (field, lambda v, field=field: need_count(field, v))
        for field in ("observation.n", "lattice.j", "simulate.factor", "infer.n_mc")
    },
}


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("setting", [*COUNTS, "cli.chains"])
def test_count_below_one_rejected(setting, value):
    name, build = COUNTS.get(setting, ("chains", resolve_chains))
    with pytest.raises(ValidationError, match=f"^{re.escape(name)} must be >= 1, got {value}$"):
        build(value)


# the CLI's chains are excluded: its schema takes 2.0 as 2 and refuses a
# bool before the count rule sees them
@pytest.mark.parametrize("value", [2.0, True])
@pytest.mark.parametrize("setting", COUNTS)
def test_count_that_is_not_an_integer_rejected(setting, value):
    name, build = COUNTS[setting]
    message = f"^{re.escape(name)} must be an integer, got {value!r}$"
    with pytest.raises(ValidationError, match=message):
        build(value)


@pytest.mark.parametrize("setting", COUNTS)
def test_count_of_one_accepted(setting):
    _, build = COUNTS[setting]
    build(np.int64(1))


SERIES = {
    "observation": lambda t, v: TimeSeriesData(times=t, values=v),
    "tabulated input": InputSignal.tabulated,
}
BAD_SERIES = [
    ([0.0, 1.0, 2.0], [1.0, 1.0], "needs matching 1-d time/value arrays with >= 2 points"),
    ([0.0], [1.0], "needs matching 1-d time/value arrays with >= 2 points"),
    ([[0.0, 1.0]], [[1.0, 1.0]], "needs matching 1-d time/value arrays with >= 2 points"),
    ([0.0, np.nan, 2.0], [1.0, 1.0, 1.0], "times and values must be finite"),
    ([0.0, 1.0, 2.0], [1.0, np.inf, 1.0], "times and values must be finite"),
    ([0.0, 1.0, 1.0], [1.0, 1.0, 1.0], "times must be strictly increasing"),
    ([0.0, 2.0, 1.0], [1.0, 1.0, 1.0], "times must be strictly increasing"),
    ([0.0, 1.0, 2.0], [1.0, 0.0, 1.0], "values must be strictly positive"),
    ([0.0, 1.0, 2.0], [1.0, 1.0, -1.0], "values must be strictly positive"),
]


@pytest.mark.parametrize("times, values, message", BAD_SERIES)
@pytest.mark.parametrize("what", SERIES)
def test_series_rule_has_one_wording(what, times, values, message):
    with pytest.raises(ValidationError, match=f"^{what} {message}$"):
        SERIES[what](times, values)


def test_tabulated_input_needs_neither_observation_rule():
    # t0 = 0 and equidistant times are the observations' own rules
    InputSignal.tabulated([1.0, 2.0, 4.5], [1.0, 1.0, 1.0])


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_range_has_one_wording(seed):
    message = "^seed must fit in an unsigned 64-bit integer$"
    with pytest.raises(ValidationError, match=message):
        hmc(seed=seed)
    with pytest.raises(ValidationError, match=message):
        cli.resolve_config(cli.build_parser().parse_args(["infer", "--seed", str(seed)]))
