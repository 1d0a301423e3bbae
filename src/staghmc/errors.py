"""Exception types shared across the package, the one check of each input
rule (an integer, a count, a u64 seed, a positive number, a real number, a
positive pair, real numbers as a float array, and an array argument as a
1-d one), the prefix that names where a rejected value came from, the one
refusal of an array too large to allocate, and the one rule for a frozen
object: what it is (`_frozen`), how a field declares its check (`_rule`)
and how its fields are set (`_set`).

Every setting, in a library config or on the command line, goes through
its rule's check, so each rule has one wording, such as ``<name> must be
>= 1, got <value>`` for every count; on the command line the name is the
dotted config field, such as ``infer.n_mc``. Every array argument, a
series, a grid, a path or a state's beads, is read by `_vector`, with the
wordings ``<name> must be real numbers, got <value>`` and ``<name> must
be 1-d, got shape <shape>``, and a signal's times of any shape by
`_reals`, with the first: a complex array is refused, not cut to its real
part. A checked field of a frozen object names its rule beside its type,
``d_tau: float = _rule(_positive)``; `_frozen` runs the rules in field
order, before the class's own ``__post_init__``, and stores what each
returns, a Python float, int or tuple of floats, so a NumPy scalar
setting is kept as the Python number it equals and two equal objects run
equal chains. The first bad field in that order is the one a refusal
names: for `HmcConfig`, n_mc, theta0, seed, then chains. A frozen object
is its init fields: it compares, hashes and pickles as them, so
unpickling rebuilds it through its rules and ``__post_init__``. Every
normalised or derived field is set once, by `_set`, which makes each
array it sets read-only, and every array that one is a view of, so no
array a frozen object holds (a table, or a data container's copy of its
series) can change under a plan built from it, in this process or in a
worker it was pickled to."""

import contextlib
import dataclasses
import math
import numbers
import reprlib

import numpy as np


class StagHmcError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(StagHmcError, ValueError):
    """Bad user input: config files, CLI arguments, malformed data files."""


def _integer(name: str, value) -> int:
    """``value`` as a Python int, if it is a Python or NumPy integer; a bool,
    a float (even a whole one) or any other type raises ValidationError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {reprlib.repr(value)}")
    return int(value)


def _count(name: str, value) -> int:
    """``value`` as a Python int, if it is an integer (`_integer`) >= 1:
    n, j, P, n_mc and chains."""
    value = _integer(name, value)
    if value < 1:
        raise ValidationError(f"{name} must be >= 1, got {value}")
    return value


def _seed(name: str, value) -> int:
    """``value`` as a Python int, if it is an integer (`_integer`) that fits
    in an unsigned 64-bit word, the range of a run's seed."""
    value = _integer(name, value)
    if not 0 <= value < 2**64:
        raise ValidationError(f"{name} must fit in an unsigned 64-bit integer")
    return value


def _positive(name: str, value) -> float:
    """``value`` as a Python float, if it is a positive finite number; zero,
    a negative number, NaN, an infinity, an integer past the double range,
    a bool, a string or any other non-number raises ValidationError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a number, got {reprlib.repr(value)}")
    try:
        number = float(value)
    except OverflowError:  # an integer past the double range, such as 10**400
        number = math.inf
    if not 0.0 < number < math.inf:
        raise ValidationError(f"{name} must be positive and finite, got {reprlib.repr(value)}")
    return number


def _real(name: str, value) -> float:
    """``value`` as a Python float, if it is a real number of the double
    range, NaN and the infinities included; a bool, a complex number, a
    string, a list, an integer past the double range or any other non-real
    raises ValidationError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {reprlib.repr(value)}")
    try:
        return float(value)
    except OverflowError:  # an integer past the double range, such as 10**400
        raise ValidationError(
            f"{name} must be within the double range, got {reprlib.repr(value)}"
        ) from None


def _reals(name: str, value) -> np.ndarray:
    """``value``, a real number or an array of them of any shape, as a
    float array of its shape, the one read of real numbers as an array.
    An array that is one already is returned as it is, not copied; integer
    and bool entries are converted as NumPy converts them. A complex
    entry, text or any other entry that is not a real number, an integer
    past the double range and a ragged list raise ValidationError naming
    ``name``; a complex array is not cut to its real part."""
    try:
        x = np.asarray(value)
        # Python numbers NumPy keeps as objects, such as ints past 64 bits;
        # a text entry among them is not parsed, as astype would
        if x.dtype.kind == "O" and all(isinstance(v, numbers.Real) for v in x.flat):
            x = x.astype(float)
        real = x.dtype.kind in "biuf"
    except (ValueError, OverflowError):  # a ragged list, an integer past the double range
        real = False
    if not real:
        raise ValidationError(f"{name} must be real numbers, got {reprlib.repr(value)}")
    return x.astype(float, copy=False)


def _vector(name: str, value) -> np.ndarray:
    """``value`` as a 1-d float array (`_reals`), the one read of an array
    argument: a series, a grid, a path or a state's beads. Any shape that
    is not 1-d raises ValidationError naming ``name``."""
    x = _reals(name, value)
    if x.ndim != 1:
        raise ValidationError(f"{name} must be 1-d, got shape {x.shape}")
    return x


def _positive_pair(name: str, value) -> tuple[float, float]:
    """``value`` as a tuple of two floats, if it is a pair (a tuple, a list
    or a 1-d array of two entries) of positive finite numbers; anything
    else, a string or a pair of three included, raises ValidationError."""
    try:
        items = tuple(value)
    except TypeError:
        items = None
    if isinstance(value, str) or items is None or len(items) != 2:
        raise ValidationError(f"{name} must be a pair of two numbers, got {reprlib.repr(value)}")
    return tuple(_positive(name, x) for x in items)


def _rule(check, **kwargs):
    """An init field checked by ``check(name, value)``: `_frozen` stores what
    the check returns in its place. ``kwargs`` go to ``dataclasses.field``."""
    return dataclasses.field(metadata={"rule": check}, **kwargs)


def _frozen(cls):
    """``cls`` as a frozen dataclass that is its init fields. Each field
    declared with `_rule` is checked, in field order, and set to what its
    check returns, before the class's own ``__post_init__`` runs. Two
    objects are equal, and hash alike, when their init fields are, a 1-d
    array keyed by its values as Python floats (-0.0 and 0.0 alike); the
    derived fields (``init=False``) follow from them and take no part. An
    object pickles as its init fields, so unpickling rebuilds it: its rules
    check it again and its ``__post_init__`` freezes its arrays again."""
    own_post_init = cls.__dict__.get("__post_init__", lambda self: None)

    def __post_init__(self):
        _set(self, **{name: check(name, getattr(self, name)) for name, check in rules})
        own_post_init(self)

    # set before dataclass() runs: its generated __init__ calls
    # __post_init__ only if the class has one by then
    cls.__post_init__ = __post_init__
    cls = dataclasses.dataclass(frozen=True, eq=False)(cls)
    init_fields = [f for f in dataclasses.fields(cls) if f.init]
    # (name, check) of each ruled field, in field order, which __post_init__ reads
    rules = tuple((f.name, f.metadata["rule"]) for f in init_fields if "rule" in f.metadata)
    # taken once: a fields() call per hash would slow every cache lookup
    names = tuple(f.name for f in init_fields)

    def init_values(self):
        return tuple(getattr(self, name) for name in names)

    def key(self):
        values = init_values(self)
        return tuple(tuple(v.tolist()) if isinstance(v, np.ndarray) else v for v in values)

    cls.__eq__ = lambda self, other: (
        key(self) == key(other) if type(other) is type(self) else NotImplemented
    )
    cls.__hash__ = lambda self: hash(key(self))
    cls.__reduce__ = lambda self: (type(self), init_values(self))
    return cls


def _set(obj, **fields):
    """Set each of ``fields`` on the frozen dataclass ``obj`` (from its
    rules or its ``__post_init__``), after making every NumPy array among the values,
    and among the items of a tuple value, read-only, together with the
    array it is a view of (its ``.base``, followed to the owner)."""
    for name, value in fields.items():
        for item in value if isinstance(value, tuple) else (value,):
            while isinstance(item, np.ndarray):
                item.setflags(write=False)
                item = item.base
        object.__setattr__(obj, name, value)


@contextlib.contextmanager
def _naming(where: str):
    """Prefix a ValidationError raised in the block with ``where``, the
    file or config field its value came from. A size refusal
    (`AllocationError`) passes as it is: it names its sizes."""
    try:
        yield
    except AllocationError:
        raise
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


class AllocationError(ValidationError):
    """Arrays sized by ``args[0]``, a dict of sizes by name, that NumPy
    cannot allocate, for the reason ``args[1]``."""

    def __str__(self):
        sizes, reason = self.args
        named = " and ".join(f"{name} = {reprlib.repr(size)}" for name, size in sizes.items())
        return f"arrays sized by {named} are too large to allocate: {reason}"


@contextlib.contextmanager
def _sized(**sizes):
    """Refuse as an `AllocationError` naming ``sizes`` (such as n = 4 and
    j = 3) an array of the block that NumPy cannot allocate: a MemoryError,
    the ValueError of a size past its limit, or the OverflowError of a size
    past the double range. An `AllocationError` from an inner block is
    named anew, so the outermost names win; the package's other errors
    pass."""
    try:
        yield
    except AllocationError as exc:
        raise AllocationError(sizes, exc.args[1]) from None
    except StagHmcError:
        raise
    except (MemoryError, OverflowError, ValueError) as exc:
        raise AllocationError(sizes, str(exc) or type(exc).__name__) from None


class DomainError(StagHmcError, ValueError):
    """Mathematically invalid argument, e.g. gamma = 0 where 1/gamma is needed."""


_SHOWN_INDICES = 5  # at most this many indices are spelled out in a message


class NonFiniteError(StagHmcError, ArithmeticError):
    """An energy, gradient, or state component became NaN or infinite.

    Carries enough context to locate the failure (``what``, and the offending
    ``indices``); the sampler turns this into a rejected proposal rather
    than a crash, so the message names only how many indices failed and the
    first few of them.
    """

    def __init__(self, what: str, indices):
        self.what = what
        self.indices = indices
        flat = np.ravel(indices)
        head = ", ".join(str(int(i)) for i in flat[:_SHOWN_INDICES])
        more = ", ..." if flat.size > _SHOWN_INDICES else ""
        noun = "index" if flat.size == 1 else "indices"
        super().__init__(f"non-finite {what} at {flat.size} {noun} [{head}{more}]")

    def __reduce__(self):
        return type(self), (self.what, self.indices)
