"""Spans around the package's layer boundaries, for the traced run.

`bind` swaps timing wrappers in for each entry point as its caller looks it
up (``staghmc.integrator.grad_hprime`` is the gradient the integrator calls,
``staghmc.sampler.h_total`` the energy the sampler calls, and so on), and
puts the originals back on exit. Nothing under ``src/`` changes.

A span is (name, parent, start, end, tag), kept in flat arrays in memory.
Chains that run in forked pool workers record their spans in the worker;
``workloads.instrumented_pool`` brings them back to the parent and merges
them under the parent's pool span.
"""

from __future__ import annotations

import contextlib
import math
from array import array
from time import perf_counter

import numpy as np

import staghmc.cli
import staghmc.diagnostics
import staghmc.energy
import staghmc.integrator
import staghmc.model
import staghmc.sampler

# tag bits of a sampler.hmc_iteration span
TAG_ACCEPTED = 1
TAG_PATHOLOGY = 2


class Tracer:
    """In-memory span store with a stack of the spans still open."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.clear()

    def clear(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tag = array("q")
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.tag.append(0)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(self.name_id(name))
        try:
            yield idx
        finally:
            self.close(idx)

    def wrap(self, fn, name: str, observe=None):
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if observe is not None:
                self.tag[idx] = observe(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def export(self) -> dict:
        return {
            "names": list(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "tag": np.frombuffer(self.tag, dtype=np.int64).copy(),
        }

    def merge(self, spans: dict, under: int):
        """Append spans recorded elsewhere; their roots become children of
        span ``under``."""
        remap = np.array([self.name_id(n) for n in spans["names"]], dtype=np.int32)
        base = len(self.start)
        parent = spans["parent"].astype(np.int64)
        parent = np.where(parent < 0, under, parent + base)
        self.name.extend(remap[spans["name"]].tolist())
        self.parent.extend(parent.tolist())
        self.start.extend(spans["start"].tolist())
        self.end.extend(spans["end"].tolist())
        self.tag.extend(spans["tag"].tolist())

    def save(self, path: str):
        data = self.export()
        names = data.pop("names")
        np.savez_compressed(path, names=np.array(names), **data)


def _iteration_tag(out) -> int:
    _, stats = out
    return (TAG_ACCEPTED if stats.accepted else 0) | (
        TAG_PATHOLOGY if stats.pathology is not None else 0
    )


@contextlib.contextmanager
def bind(tracer: Tracer):
    """Install the timing wrappers for the duration of the block."""
    sampler, energy, integrator = staghmc.sampler, staghmc.energy, staghmc.integrator
    model, cli, diagnostics = staghmc.model, staghmc.cli, staghmc.diagnostics
    record_cls = sampler.ChainRecord
    plan = [
        (model, "simulate_truth", "model.simulate_truth"),
        (cli, "simulate_truth", "model.simulate_truth"),
        (model, "generate_observations", "model.generate_observations"),
        (cli, "generate_observations", "model.generate_observations"),
        (energy, "staging_inverse", "lattice.staging_inverse"),
        (energy, "staging_adjoint", "lattice.staging_adjoint"),
        (integrator, "grad_hprime", "energy.grad_hprime"),
        (sampler, "h_total", "energy.h_total"),
        (sampler, "trotter_propagate", "integrator.trotter_propagate"),
        (sampler, "sample_momenta", "sampler.sample_momenta"),
        (sampler, "metropolis_accept", "sampler.metropolis_accept"),
        (record_cls, "to_csv", "sampler.ChainRecord.to_csv"),
        (diagnostics, "summarize", "diagnostics.summarize"),
        (cli, "summarize", "diagnostics.summarize"),
        (diagnostics, "ess", "diagnostics.ess"),
        (cli, "kde", "diagnostics.kde"),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in plan]
    saved.append((sampler, "hmc_iteration", sampler.hmc_iteration))
    try:
        for owner, attr, name in plan:
            setattr(owner, attr, tracer.wrap(owner.__dict__[attr], name))
        sampler.hmc_iteration = tracer.wrap(
            sampler.hmc_iteration, "sampler.hmc_iteration", observe=_iteration_tag
        )
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# aggregation


class SpanTable:
    """Per-name totals over a tracer's spans: calls, time, self time, and
    which spans sit inside a sampler iteration."""

    def __init__(self, tracer: Tracer):
        data = tracer.export()
        self.names = data["names"]
        self.name = data["name"]
        self.parent = data["parent"]
        self.tag = data["tag"]
        self.dur = data["end"] - data["start"]
        child_time = np.zeros(self.dur.size)
        has_parent = self.parent >= 0
        np.add.at(child_time, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child_time
        # parents precede their children, so one forward pass finds the
        # sampler.hmc_iteration each span runs under (-1: none)
        iter_id = self._id("sampler.hmc_iteration")
        owner = np.full(self.dur.size, -1, dtype=np.int64)
        for i in range(self.dur.size):
            p = self.parent[i]
            if p >= 0:
                owner[i] = p if self.name[p] == iter_id else owner[p]
        self.iteration_of = owner

    def _id(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def mask(self, name: str) -> np.ndarray:
        return self.name == self._id(name)

    def mask_parent(self, name: str) -> np.ndarray:
        """Spans whose parent span has this name."""
        has_parent = self.parent >= 0
        out = np.zeros(self.name.size, dtype=bool)
        out[has_parent] = self.name[self.parent[has_parent]] == self._id(name)
        return out

    def calls_per_clean_iteration(self, name: str) -> float:
        """Calls per sampler iteration, over iterations whose proposal met
        no pathology (a raised pathology cuts an iteration short)."""
        clean = self.mask("sampler.hmc_iteration") & (self.tag & TAG_PATHOLOGY == 0)
        n_clean = int(clean.sum())
        if n_clean == 0:
            return 0.0
        owner = self.iteration_of[self.mask(name)]
        return float(clean[owner[owner >= 0]].sum()) / n_clean

    def total(self, name: str) -> float:
        return float(self.dur[self.mask(name)].sum())

    def self_total(self, name: str) -> float:
        return float(self.self_time[self.mask(name)].sum())

    def mean_scaled(self, name: str, scale: float) -> float:
        """Mean span duration times ``scale`` (0 for a layer never called)."""
        m = self.mask(name)
        return float(self.dur[m].mean()) * scale if m.any() else 0.0

    def tags(self, name: str) -> np.ndarray:
        return self.tag[self.mask(name)]
