"""One check per input rule: every count setting, the sampled-series rule
and the seed range are each checked in one place, so each has one wording
wherever the setting is given. And one rule for a frozen object: every
array it holds, and every array that one is a view of, is read-only; the
data containers hold copies, so no array a caller keeps can change them;
and a pickled copy is rebuilt from the init fields, so it equals the
original, hashes alike and holds read-only arrays too."""

import inspect
import pickle
import re
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from staghmc import cli, diagnostics, energy, integrator, lattice, model, sampler
from staghmc.errors import ValidationError
from staghmc.integrator import IntegratorConfig, OscillatorBank
from staghmc.lattice import LatticeLayout, MassConfig
from staghmc.model import (
    InputSignal, ObservationModel, PhysicalParams, TimeSeriesData, fine_grid, simulate_truth,
)
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
        for field in ("observation.n", "lattice.j")
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


TRUTH = PhysicalParams(K=30.0, gamma=0.4, T=40.0)


def built_from_arrays(kind):
    """(an object built from new arrays of a caller, those arrays, the plan
    built from the object or None) for each way arrays are handed over."""
    t, v = np.linspace(0.0, 40.0, 5), np.full(5, 0.5)
    if kind == "observation":
        data = TimeSeriesData(t, v)
        return data, (t, v), InferenceProblem(data, SIGNAL, NOISE, 3)
    if kind == "tabulated input":
        signal = InputSignal.tabulated(t, v)
        return signal, (t, v), InferenceProblem(DATA, signal, NOISE, 3)
    return simulate_truth(TRUTH, SIGNAL, t, seed=1), (t,), None


@pytest.mark.parametrize("kind", ["observation", "tabulated input", "truth path"])
def test_writing_the_callers_arrays_changes_nothing(kind):
    built, arrays, plan = built_from_arrays(kind)
    want = built_from_arrays(kind)[0]
    key = hash(built)
    for a in arrays:
        assert a.flags.writeable  # the caller's own arrays are not frozen
        a[1] *= 2.0
    assert built == want and hash(built) == key
    if plan is not None:  # the plan's tables still follow from its inputs
        rebuilt = InferenceProblem(plan.data, plan.signal, plan.obs, plan.j)
        assert rebuilt.lnyr.tobytes() == plan.lnyr.tobytes()


def array_fields(obj):
    """(field name, array) of every array field of the dataclass ``obj``,
    in a tuple field or a dataclass field too, and of every array that one
    is a view of (its ``.base``, followed to the owner)."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from array_fields(value)
        for item in value if isinstance(value, tuple) else (value,):
            while isinstance(item, np.ndarray):
                yield f.name, item
                item = item.base


LAYOUT = LatticeLayout(n=4, j=3, T=40.0)
# MassConfig, IntegratorConfig and HmcConfig hold no arrays: their pairs
# are tuples of floats
WITH_ARRAYS = {
    "LatticeLayout": lambda: LAYOUT,
    "OscillatorBank": lambda: OscillatorBank(LAYOUT, MASSES, 0.25),
    "InferenceProblem": lambda: InferenceProblem(
        DATA, InputSignal.tabulated([0.0, 40.0], [1.0, 2.0]), NOISE, 3
    ),
    "InputSignal": lambda: InputSignal.tabulated([0.0, 40.0], [1.0, 2.0]),
    "TimeSeriesData": lambda: TimeSeriesData([0.0, 20.0, 40.0], [1.0, 2.0, 1.0]),
    "TruthPath": lambda: simulate_truth(TRUTH, SIGNAL, np.linspace(0.0, 40.0, 9), seed=1),
}


@pytest.mark.parametrize("kind", WITH_ARRAYS)
def test_every_array_field_is_read_only(kind):
    found = list(array_fields(WITH_ARRAYS[kind]()))
    assert found
    for name, a in found:
        assert not a.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 1.0


def _summaries():
    problem = InferenceProblem(DATA, SIGNAL, NOISE, 3)
    return diagnostics.summarize(sampler.run_chain(problem, hmc(seed=5)))


# the name of every frozen dataclass of the package
FROZEN_CLASSES = sorted(
    cls.__name__
    for module in (model, lattice, integrator, energy, sampler, diagnostics)
    for cls in vars(module).values()
    if inspect.isclass(cls) and cls.__module__ == module.__name__ and is_dataclass(cls)
    and cls.__dataclass_params__.frozen
)
# one instance of each, the array holders as above
FROZEN = {
    **WITH_ARRAYS,
    "PhysicalParams": lambda: TRUTH,
    "DimensionlessParams": lambda: model.DimensionlessParams(1.2, 0.4),
    "ObservationModel": lambda: NOISE,
    "MassConfig": lambda: MASSES,
    "IntegratorConfig": lambda: STEP,
    "HmcConfig": lambda: hmc(seed=3, chains=2),
    "ParameterSummary": lambda: _summaries().parameters["K"],
    "PosteriorSummary": _summaries,
}
# they hold dicts, so they stay unhashable
UNHASHABLE = {"ParameterSummary", "PosteriorSummary"}


@pytest.mark.parametrize("name", FROZEN_CLASSES)
def test_pickled_copy_equals_the_original(name):
    obj = FROZEN[name]()
    back = pickle.loads(pickle.dumps(obj))
    assert back is not obj and type(back) is type(obj)
    assert back == obj and not back != obj
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(back)
    else:
        assert hash(back) == hash(obj)


@pytest.mark.parametrize("kind", WITH_ARRAYS)
def test_pickled_copy_holds_only_read_only_arrays(kind):
    back = pickle.loads(pickle.dumps(WITH_ARRAYS[kind]()))
    found = list(array_fields(back))
    assert found
    for name, a in found:
        assert not a.flags.writeable, name


def test_chain_records_compare_by_identity():
    rec = sampler.run_chain(InferenceProblem(DATA, SIGNAL, NOISE, 3), hmc(seed=5))
    twin = sampler.ChainRecord(**{f.name: getattr(rec, f.name) for f in fields(rec)})
    assert rec == rec
    assert not rec == twin and rec != twin
