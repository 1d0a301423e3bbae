"""One check per input rule: every count setting, the sampled-series rule
and the seed range are each checked in one place, so each has one wording
wherever the setting is given. And one rule for a frozen object: every
array it holds, and every array that one is a view of, is read-only; the
data containers hold copies, so no array a caller keeps can change them;
and a pickled copy is rebuilt from the init fields, so it equals the
original, hashes alike and holds read-only arrays too. A setting is
stored as its rule returns it, so one given as a NumPy scalar is the
Python number it equals, and runs the same chain."""

import inspect
import json
import pickle
import re
import reprlib
from dataclasses import asdict, fields, is_dataclass

import numpy as np
import pytest

from staghmc import cli, diagnostics, energy, integrator, lattice, model, sampler
from staghmc.errors import StagHmcError, ValidationError
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
    """The rule of the whole-number config field ``field``: the one its
    ``cli.SCHEMA`` leaf wraps."""
    block, leaf = field.split(".")
    return inspect.unwrap(cli.SCHEMA[block][leaf])(field, value)


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
# a row refused by errors._vector, in its wording, keeps the id it was first
# listed under, so a test keeps its id across a rewording
BAD_SERIES = [
    ([0.0, 1.0, 2.0], [1.0, 1.0], "needs matching 1-d time/value arrays with >= 2 points"),
    ([0.0], [1.0], "needs matching 1-d time/value arrays with >= 2 points"),
    pytest.param([[0.0, 1.0]], [[1.0, 1.0]], r"times must be 1-d, got shape \(1, 2\)",
                 id="times2-values2-needs matching 1-d time/value arrays with >= 2 points"),
    ([0.0, np.nan, 2.0], [1.0, 1.0, 1.0], "times and values must be finite"),
    ([0.0, 1.0, 2.0], [1.0, np.inf, 1.0], "times and values must be finite"),
    ([0.0, 1.0, 1.0], [1.0, 1.0, 1.0], "times must be strictly increasing"),
    ([0.0, 2.0, 1.0], [1.0, 1.0, 1.0], "times must be strictly increasing"),
    ([0.0, 1.0, 2.0], [1.0, 0.0, 1.0], "values must be strictly positive"),
    ([0.0, 1.0, 2.0], [1.0, 1.0, -1.0], "values must be strictly positive"),
    pytest.param("x", [1.0, 1.0], "times must be real numbers, got 'x'",
                 id="x-values9-times and values must be real numbers"),
    pytest.param([0.0, 1.0], "ab", "values must be real numbers, got 'ab'",
                 id="times10-ab-times and values must be real numbers"),
    pytest.param([0, 2**1100], [1.0, 1.0],
                 "times must be real numbers, got " + re.escape(reprlib.repr([0, 2**1100])),
                 id="times11-values11-times and values must be finite"),
    pytest.param([0.0, 1.0], [1, 2**1100],
                 "values must be real numbers, got " + re.escape(reprlib.repr([1, 2**1100])),
                 id="times12-values12-times and values must be finite"),
]


@pytest.mark.parametrize("times, values, message", BAD_SERIES)
@pytest.mark.parametrize("what", SERIES)
def test_series_rule_has_one_wording(what, times, values, message):
    with pytest.raises(ValidationError, match=f"^{what} {message}$"):
        SERIES[what](times, values)


# a sinusoid's a, omega or b that is not a real number of the double range:
# (value, the end of its refusal)
NOT_REAL = {
    "complex": (0.5 + 3j, "must be a real number, got (0.5+3j)"),
    "bool": (True, "must be a real number, got True"),
    "string": ("0.5", "must be a real number, got '0.5'"),
    "list": ([0.5, 1.0], "must be a real number, got [0.5, 1.0]"),
    "past-double": (2**1100, f"must be within the double range, got {reprlib.repr(2**1100)}"),
}
# each reader of r: a plan, a simulation and a chain's start
SIGNAL_READERS = {
    "problem": lambda signal: InferenceProblem(DATA, signal, NOISE, 3),
    "simulation": lambda signal: simulate_truth(TRUTH, signal, np.linspace(0.0, 40.0, 5), seed=1),
    "start": lambda signal: lattice.initial_state(
        DATA, signal, model.DimensionlessParams(1.0, 0.5), LAYOUT),
}


@pytest.mark.filterwarnings("error")  # a ComplexWarning: a field cut to its real part
@pytest.mark.parametrize("reader", SIGNAL_READERS)
@pytest.mark.parametrize("field", ["a", "omega", "b"])
@pytest.mark.parametrize("kind", NOT_REAL)
def test_sinusoid_field_that_is_not_real_refused_where_r_is_read(kind, field, reader):
    # refused, naming the field, before r is evaluated: neither run on its
    # real part nor raised raw by NumPy or float()
    value, message = NOT_REAL[kind]
    signal = InputSignal.sinusoid(**{"a": 1.0, "omega": 0.01, "b": 0.1, field: value})
    with pytest.raises(ValidationError, match=f"^input signal {field} {re.escape(message)}$"):
        SIGNAL_READERS[reader](signal)


# a size past NumPy's limit or the double range, refused naming n and j:
# (a call with that size, its n and j, NumPy's or float()'s reason)
SIZES = {
    "LatticeLayout.j": (lambda: LatticeLayout(n=4, j=2**1100, T=40.0), (4, 2**1100),
                        "int too large to convert to float"),
    "LatticeLayout.n": (lambda: LatticeLayout(n=10**30, j=3, T=40.0), (10**30, 3),
                        "Maximum allowed dimension exceeded"),
    "InferenceProblem.j": (lambda: InferenceProblem(DATA, SIGNAL, NOISE, 2**1100), (4, 2**1100),
                           "int too large to convert to float"),
    "fine_grid.n": (lambda: fine_grid(40.0, 2**1100, 5), (2**1100, 5),
                    "Maximum allowed size exceeded"),
    "fine_grid.j": (lambda: fine_grid(40.0, 4, 10**30), (4, 10**30),
                    "Maximum allowed size exceeded"),
}


@pytest.mark.parametrize("setting", SIZES)
def test_size_too_large_to_allocate_named(setting):
    build, (n, j), reason = SIZES[setting]
    named = f"n = {reprlib.repr(n)} and j = {reprlib.repr(j)}"
    message = f"arrays sized by {named} are too large to allocate: {reason}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("n_mc", [10**15, 2**1100], ids=["10**15", "2**1100"])
def test_chain_table_too_large_to_allocate_named(n_mc):
    # not a raw MemoryError of 42.6 PiB, nor NumPy's dimension error
    named = f"arrays sized by n_mc = {reprlib.repr(n_mc)} are too large to allocate: "
    with pytest.raises(StagHmcError, match=f"^chain 0: AllocationError: {re.escape(named)}"):
        sampler.run_chain(InferenceProblem(DATA, SIGNAL, NOISE, 3), hmc(n_mc=n_mc))


def test_step_count_has_no_upper_bound():
    # a step allocates nothing, so no P is too large to allocate
    assert IntegratorConfig(d_tau=0.25, P=2**1100).P == 2**1100


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


@pytest.mark.parametrize("d_tau", [-0.5, 0.0, np.nan, np.inf])
def test_bank_step_follows_the_positive_rule(d_tau):
    with pytest.raises(ValidationError, match=f"^d_tau must be positive and finite, got {d_tau}$"):
        OscillatorBank(LAYOUT, MASSES, d_tau)


@pytest.mark.parametrize(
    "steps", [(np.float32(0.25), 0.25), (0.25, np.float32(0.25))],
    ids=["float32-first", "float-first"],
)
def test_bank_of_a_numpy_step_is_the_bank_of_its_float(steps):
    OscillatorBank.build.cache_clear()
    try:
        first, second = [OscillatorBank.build(LAYOUT, MASSES, d_tau) for d_tau in steps]
    finally:
        OscillatorBank.build.cache_clear()
    assert second is first
    assert type(first.d_tau) is float and first.d_tau == 0.25
    assert first.kick_full.dtype == np.float64


HUGE = 10**400  # an integer past the double range: float() overflows on it
PAST_DOUBLE_RANGE = {
    "M": lambda: MassConfig(M=HUGE, m_prime=130.0, m_alpha=(150.0, 150.0)),
    "m_alpha": lambda: MassConfig(M=720.0, m_prime=130.0, m_alpha=(150.0, HUGE)),
    "d_tau": lambda: IntegratorConfig(d_tau=HUGE, P=3),
}


@pytest.mark.parametrize("name", PAST_DOUBLE_RANGE)
def test_integer_past_the_double_range_is_not_positive_and_finite(name):
    message = f"^{name} must be positive and finite, got {re.escape(reprlib.repr(HUGE))}$"
    with pytest.raises(ValidationError, match=message):
        PAST_DOUBLE_RANGE[name]()


def python_number(x):
    return x


def numpy_scalar(kind):
    """Each setting as a NumPy scalar: a count or a seed as np.int64, a float
    as ``kind``, which holds each float of `SETTINGS` exactly; np.int64 takes
    the whole floats and leaves the others Python floats."""
    def convert(x):
        if isinstance(x, int):
            return np.int64(x)
        if kind is np.int64 and not x.is_integer():
            return x
        assert kind(x) == x
        return kind(x)
    return convert


KINDS = {"float32": np.float32, "float64": np.float64, "int64": np.int64}
# each class with float or count settings, built with every setting passed
# through ``num``
SETTINGS = {
    "PhysicalParams": lambda num: PhysicalParams(K=num(30.0), gamma=num(0.375), T=num(40.0)),
    "DimensionlessParams": lambda num: model.DimensionlessParams(num(1.25), num(0.375)),
    "ObservationModel": lambda num: ObservationModel(num(0.5)),
    "MassConfig": lambda num: MassConfig(
        M=num(720.0), m_prime=num(130.0), m_alpha=(num(150.0), num(150.0))
    ),
    "IntegratorConfig": lambda num: IntegratorConfig(d_tau=num(0.25), P=num(3)),
    "HmcConfig": lambda num: HmcConfig(
        n_mc=num(20), theta0=(num(1.0), num(0.5)), masses=SETTINGS["MassConfig"](num),
        integrator=SETTINGS["IntegratorConfig"](num), seed=num(7), chains=num(1),
    ),
    "LatticeLayout": lambda num: LatticeLayout(n=num(4), j=num(3), T=num(40.0)),
}


def assert_same_fields(obj, want):
    """Each field of ``obj``, derived ones too, is of the type of ``want``'s
    and equal to it, a Python int or float (or a tuple of floats) for a
    setting, an array of the same dtype and bytes for a table."""
    for f in fields(want):
        value, expected = getattr(obj, f.name), getattr(want, f.name)
        if is_dataclass(expected):
            assert_same_fields(value, expected)
        elif isinstance(expected, np.ndarray):
            assert value.dtype == expected.dtype, f.name
            assert value.tobytes() == expected.tobytes(), f.name
        else:
            assert type(value) is type(expected) and value == expected, f.name
            pairs = zip(value, expected) if isinstance(expected, tuple) else [(value, expected)]
            for got, x in pairs:
                assert type(x) in (int, float) and type(got) is type(x), f.name


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", SETTINGS)
def test_numpy_scalar_settings_are_stored_as_python_numbers(name, kind):
    obj, want = SETTINGS[name](numpy_scalar(KINDS[kind])), SETTINGS[name](python_number)
    assert_same_fields(obj, want)
    assert obj == want and hash(obj) == hash(want)
    if name == "HmcConfig":  # a chain's meta["config"]
        assert json.dumps(asdict(obj)) == json.dumps(asdict(want))


def chain_of(num):
    problem = InferenceProblem(DATA, SIGNAL, SETTINGS["ObservationModel"](num), num(3))
    OscillatorBank.build.cache_clear()  # each run builds its own bank
    try:
        return sampler.run_chain(problem, SETTINGS["HmcConfig"](num))
    finally:
        OscillatorBank.build.cache_clear()


@pytest.mark.parametrize("numpy_first", [True, False], ids=["numpy-first", "python-first"])
@pytest.mark.parametrize("kind", KINDS)
def test_numpy_scalar_settings_run_the_python_chain(kind, numpy_first):
    builds = {"numpy": numpy_scalar(KINDS[kind]), "python": python_number}
    order = ["numpy", "python"] if numpy_first else ["python", "numpy"]
    records = {name: chain_of(builds[name]) for name in order}
    chain, want = records["numpy"], records["python"]
    for name, _ in sampler.CHAIN_COLUMNS:
        got, expected = getattr(chain, name), getattr(want, name)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), name
    assert json.dumps(chain.meta["config"]) == json.dumps(want.meta["config"])


@pytest.mark.parametrize("kind", KINDS)
def test_numpy_scalar_settings_simulate_the_python_path(kind):
    paths = [
        simulate_truth(
            SETTINGS["PhysicalParams"](num), SIGNAL, fine_grid(num(40.0), num(4), num(3)),
            seed=num(1),
        )
        for num in (numpy_scalar(KINDS[kind]), python_number)
    ]
    for name in ("times", "S", "q"):
        assert getattr(paths[0], name).tobytes() == getattr(paths[1], name).tobytes(), name


# every public callable that takes an array, by argument: (the name its
# refusal gives, a call with ``x`` in that argument and valid others). A
# 2-d TruthPath or density used to be written as rows wider than the header
GOOD = np.linspace(0.0, 40.0, 5)
ARRAY_ARGUMENTS = {
    "TimeSeriesData.times": ("observation times", lambda x: TimeSeriesData(x, GOOD + 1.0)),
    "TimeSeriesData.values": ("observation values", lambda x: TimeSeriesData(GOOD, x)),
    "tabulated.times": ("tabulated input times", lambda x: InputSignal.tabulated(x, GOOD + 1.0)),
    "tabulated.values": ("tabulated input values", lambda x: InputSignal.tabulated(GOOD, x)),
    "TruthPath.times": ("truth path times", lambda x: model.TruthPath(x, GOOD, GOOD)),
    "TruthPath.S": ("truth path S", lambda x: model.TruthPath(GOOD, x, GOOD)),
    "TruthPath.q": ("truth path q", lambda x: model.TruthPath(GOOD, GOOD, x)),
    "simulate_truth.times": (
        "simulation grid", lambda x: simulate_truth(TRUTH, SIGNAL, x, seed=1)),
    "generate_observations.obs_times": (
        "observation times", lambda x: model.generate_observations(
            simulate_truth(TRUTH, SIGNAL, GOOD, seed=1), x, TRUTH, NOISE, seed=2)),
    "ess.series": ("a series of draws", diagnostics.ess),
    "silverman_bandwidth.series": ("a series of draws", diagnostics.silverman_bandwidth),
    "kde.series": ("a series of draws", lambda x: diagnostics.kde(x, GOOD)),
    "kde.grid": ("kde grid", lambda x: diagnostics.kde(GOOD, x)),
    "write_density_csv.grid": ("grid", lambda x: diagnostics.write_density_csv("d.csv", x, GOOD)),
    "write_density_csv.density": (
        "density", lambda x: diagnostics.write_density_csv("d.csv", GOOD, x)),
    "PolymerState.u": ("u", lambda x: lattice.PolymerState(x, GOOD[:2], GOOD, GOOD[:2])),
    "PolymerState.theta": ("theta", lambda x: lattice.PolymerState(GOOD, x, GOOD, GOOD[:2])),
    "PolymerState.p": ("p", lambda x: lattice.PolymerState(GOOD, GOOD[:2], x, GOOD[:2])),
    "PolymerState.pi": ("pi", lambda x: lattice.PolymerState(GOOD, GOOD[:2], GOOD, x)),
    "staging_forward.q": ("q", lambda x: lattice.staging_forward(x, LAYOUT)),
    "staging_inverse.u": ("u", lambda x: lattice.staging_inverse(x, LAYOUT)),
    "staging_adjoint.g_q": ("g_q", lambda x: lattice.staging_adjoint(x, LAYOUT)),
}
# values no array argument takes
NOT_ARRAYS = {
    "complex-ndarray": GOOD + 1j,
    "complex-list": [0.0, 1.0 + 2j, 2.0],
    "string": "0.5",
    "past-double": [0.0, 1.0, 2**1100],
    "ragged": [[0.0, 1.0], [2.0]],
    "2-d": np.ones((2, 5)),
    "0-d": np.float64(1.5),
}


@pytest.mark.filterwarnings("error")  # a ComplexWarning: an array cut to its real part
@pytest.mark.parametrize("value", NOT_ARRAYS)
@pytest.mark.parametrize("argument", ARRAY_ARGUMENTS)
def test_array_argument_read_by_one_rule(argument, value, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where a density that is not refused is written
    name, call = ARRAY_ARGUMENTS[argument]
    with pytest.raises(ValidationError, match=f"^{name} must be (real numbers|1-d), got "):
        call(NOT_ARRAYS[value])
