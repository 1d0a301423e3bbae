"""The package's design rules, checked on its source.

`OWNERS` maps each guarded literal to the owner of every `src/staghmc`
line that holds it, in file and line order: ``module:name``, the line's
top-level def or class (decorators included), or ``module:`` outside one.
A retired name or wording has no owner. A rule is added, moved or retired
by editing its row. Three rules are read from the syntax tree: a field's
check is its `errors._rule`, never a call in a ``__post_init__``; a
config field that the CLI builds into a dataclass field is checked by that
field's rule, its ``cli.SCHEMA`` leaf; and a public name (imported by
``staghmc/__init__.py`` or in a module's ``__all__``) has a caller outside
the tests or is in README's oracle table.
"""

import ast
import dataclasses
import inspect
import itertools
import pathlib

import pytest

from staghmc import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = {path.stem: path.read_text(encoding="utf-8")
           for path in sorted((ROOT / "src" / "staghmc").glob("*.py"))}
TREES = {module: ast.parse(text) for module, text in SOURCES.items()}

OWNERS = {
    # one setter of frozen fields
    "object.__setattr__": ["errors:_set"],
    "dataclass(frozen=True": ["errors:_frozen"],
    ".setflags(": ["errors:_set"],
    # one chain runner: streams are spawned once, and one caller runs a seeded chain
    ".spawn(": ["sampler:run_parallel_chains"],
    "_run_seeded(": ["sampler:_run_seeded", "sampler:_chain_worker"],
    # one dispatcher forks the worker processes and hands them chains over
    # plain pipes: no pool is made, and nothing imports multiprocessing
    "os.fork(": ["sampler:_dispatch"], "import multiprocessing": [], ".Pool(": [],
    # one energy scorer, and h_N, h_n and h_1 each name one energy
    "_end_energy(": ["energy:_end_energy", "energy:h_total"] + ["sampler:hmc_iteration"] * 2,
    "_start_energy": [], "_pieces": [], "Potential": [],
    # one signal rule: a signal of either kind is checked where it is read
    "_signal_over(": ["energy:InferenceProblem", "lattice:initial_state",
                      "model:_signal_over", "model:simulate_truth"],
    "must stay positive": [], "must stay finite": [], "sinusoid input": [],
    # one real-number rule, which a sinusoid's a, omega and b pass where r is read
    "_real(": ["errors:_real", "model:_signal_over"],
    # one size rule: an array NumPy cannot allocate is refused by the names of its sizes
    "_sized(": ["cli:cmd_simulate"] + ["cli:cmd_infer"] * 2 + [
        "errors:_sized", "lattice:LatticeLayout", "model:fine_grid", "sampler:_run_seeded"],
    "_allocating(": [],
    # one order statistic, diagnostics._percentiles: NumPy's import numpy.ma
    "np.median(": [], "np.percentile(": [], "np.quantile(": [],
    # one array rule: errors._vector reads every array argument of a public
    # callable, and errors._reals a signal's times of any shape; np.asarray
    # is left only to _signal_over's read of r
    "_vector(": ["diagnostics:ess", "diagnostics:silverman_bandwidth"] + ["diagnostics:kde"] * 2
                + ["diagnostics:write_density_csv", "errors:_vector", "lattice:PolymerState",
                   "lattice:_check_size", "model:_series", "model:TruthPath",
                   "model:simulate_truth", "model:generate_observations"],
    "_reals(": ["errors:_reals", "errors:_vector", "model:InputSignal", "model:InputSignal"],
    "np.asarray(": ["errors:_reals", "model:_signal_over"],
    # one draw-series rule: _vector reads a series, diagnostics._spread judges it
    "_draws(": [], "np.asarray(series": [],
    "_never_moved": [], "_check_moved": [], "_check_finite_series": [],
    # one check per config value: each cli.SCHEMA leaf is the rule that owns it
    "_number(": [], "_whole(": [], "_float_pair(": [], "_need_count(": [],
}
# the checks that a field names as its `errors._rule`
RULES = {"_positive", "_count", "_positive_pair", "_seed"}
ORACLE_HEADER = "| function | what it computes | criterion |"


def owners(module: str, literal: str) -> list[str]:
    """The owner of each line of ``module`` that holds ``literal``."""
    spans = [(min([node.lineno, *(d.lineno for d in node.decorator_list)]), node.end_lineno,
              node.name) for node in TREES[module].body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    return [f"{module}:" + next((name for lo, hi, name in spans if lo <= number <= hi), "")
            for number, line in enumerate(SOURCES[module].splitlines(), 1) if literal in line]


@pytest.mark.parametrize("literal", OWNERS)
def test_literal_has_its_owners(literal):
    assert [owner for module in SOURCES for owner in owners(module, literal)] == OWNERS[literal]


def test_each_rule_is_on_a_field_and_in_no_post_init():
    called, ruled = [], set()
    for module, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
                called += [f"{module}:{call.lineno} {call.func.id}" for call in ast.walk(node)
                           if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                           and call.func.id in RULES]
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "_rule" and node.args
                    and isinstance(node.args[0], ast.Name)):
                ruled.add(node.args[0].id)
    assert (called, sorted(RULES - ruled)) == ([], [])


# the config fields that cli._build reads into a dataclass field
BUILT = {"model.K", "model.gamma", "model.T", "observation.sigma", "infer.n_mc",
         "infer.start.K", "infer.start.gamma", "infer.masses.M", "infer.masses.m_prime",
         "infer.masses.m_alpha", "infer.integrator.d_tau", "infer.integrator.P"}


def test_each_config_field_built_into_a_dataclass_is_checked_by_its_fields_rule():
    # each cli._build(cls, cfg, block, **given) reads the fields of cls not
    # given from block.<field>, whose SCHEMA leaf must unwrap to its _rule
    built, other = set(), []
    for node in ast.walk(TREES["cli"]):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_build":
            cls, block = getattr(cli, node.args[0].id), node.args[2].value
            given = {keyword.arg for keyword in node.keywords}
            for field in dataclasses.fields(cls):
                if field.init and field.name not in given:
                    leaf = cli.SCHEMA
                    for key in (*block.split("."), field.name):
                        leaf = leaf[key]
                    built.add(f"{block}.{field.name}")
                    if inspect.unwrap(leaf) is not field.metadata.get("rule"):
                        other.append(f"{block}.{field.name}")
    assert (sorted(built), other) == (sorted(BUILT), [])


def public() -> dict[str, str]:
    """Each public name and where it is public: ``staghmc`` for the
    package's imports, then ``staghmc.<module>`` for each ``__all__``."""
    names = {alias.asname or alias.name: "staghmc" for node in TREES["__init__"].body
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    for module, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                for name in ast.literal_eval(node.value):
                    names.setdefault(name, f"staghmc.{module}")
    return names


def oracles() -> dict[str, str]:
    """The ``module.name`` entries of README's oracle table, by name."""
    lines = [line.strip() for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines()]
    # the rows past the header and its rule
    rows = itertools.takewhile(lambda line: line.startswith("|"),
                               lines[lines.index(ORACLE_HEADER) + 2:])
    entries = [row.split("|")[1].strip().strip("`") for row in rows]
    return {entry.rsplit(".", 1)[-1]: entry for entry in entries}


def test_every_public_name_has_a_caller_outside_the_tests_or_is_an_oracle():
    # a name or an attribute in a package module or a benchmark script: a
    # definition, an import or an __all__ string is not a use
    trees = [tree for module, tree in TREES.items() if module != "__init__"]
    trees += [ast.parse(path.read_text(encoding="utf-8"))
              for path in sorted(ROOT.glob("bench/*.py"))]
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    allowed = oracles()
    assert [f"{where}.{name}" for name, where in public().items()
            if name not in used and name not in allowed] == []


def test_every_oracle_is_public():
    names = public()
    assert [entry for name, entry in oracles().items() if name not in names] == []
