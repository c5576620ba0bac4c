"""Layer spans and counters for the traced run, installed from outside genlab.

`Tracer.install()` replaces the listed genlab functions and methods with
wrappers, in every genlab module that bound them at import (and in the CLI's
experiment table), and `restore()` puts the originals back. Spans are kept in
memory with a parent per thread; a span's self time is its duration minus the
time covered by its children. A span that starts on a worker thread with no
open span of its own is a child of the span open on the installing thread, so
the experiment runner's self time excludes the trials its pool ran; busy time
summed over worker threads can then exceed wall time.

Hot primitives (`domain_error`, `derive_seed`, `h_divergence`) get counts
only: a span on each call would cost more than the call.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

# Span name -> functions or methods ("module:qualname") whose self time it sums.
SPANS = {
    "core.domain_risk": ["core:domain_risk"],
    "dimensions.induce": ["dimensions:induce_partial_class"],
    "dimensions.search": ["dimensions:partial_vc_dim"],
    "dimensions.witness": ["dimensions:gdim"],  # gdim minus induce and search
    "dimensions.verify": ["dimensions:verify_certificate"],
    "learner.error_table": ["learner:ErrorTable.__post_init__"],
    "learner.minmax": ["learner:minmax_erm"],
    "learner.draw": ["learner:draw_domain_indices"],
    "learner.sample": ["learner:sample_training_set"],
    "learner.estimate": ["learner:estimate_errors"],
    "constructions.build": [
        "constructions:large_k_family", "constructions:product_family",
        "constructions:lower_bound_family", "constructions:unanimous_point_mass",
        "constructions:odd_even_domain",
    ],
    "constructions.adversarial_meta": ["constructions:adversarial_meta"],
    "divergence.greedy_cover": ["divergence:greedy_cover"],
    "divergence.cover_is_valid": ["divergence:cover_is_valid"],
    "experiments.exposure": ["experiments:exposure_trial"],
    "experiments.self": [
        "experiments:run_scaling", "experiments:run_uniform_convergence",
        "experiments:run_lower_bound",
    ],
    "experiments.report": [
        "experiments:ExperimentReport.to_csv_text",
        "experiments:ExperimentReport.to_json_dict",
        "experiments:ExperimentReport.series",
    ],
    "seeding.rng_for": ["seeding:rng_for"],
    "serialize.load": [
        "serialize:load_domain", "serialize:load_hypothesis_class",
        "serialize:load_family", "serialize:load_meta", "serialize:load_certificate",
    ],
    "serialize.write": ["serialize:write_json_atomic", "serialize:write_text_atomic"],
    "cli.self": ["cli:main"],
}

COUNTED = {
    "core.domain_error": "core:domain_error",
    "divergence.h_divergence": "divergence:h_divergence",
    "seeding.derive_seed": "seeding:derive_seed",
}

# Per-layer metric -> the end-to-end metric and workload it should move.
PREDICTS = {
    "core.domain_error.calls": "secondary_s on both family workloads; primary_s and pass_s on family-product",
    "core.domain_error.distinct_ratio": "same as core.domain_error.calls",
    "core.domain_risk_s": "primary_s and secondary_s on trials-exact",
    "dimensions.induce_s": "primary_s on family-product",
    "dimensions.search_s": "primary_s, mostly on family-random",
    "dimensions.witness_s": "primary_s on family-product",
    "dimensions.verify_s": "pass_s on family-product",
    "learner.error_table_s": "primary_s and secondary_s on trials-exact",
    "learner.error_table.cells": "primary_s and secondary_s on trials-exact",
    "learner.minmax_s": "primary_s and secondary_s on trials-exact",
    "learner.minmax.distinct_column_ratio": "primary_s and secondary_s on trials-exact",
    "learner.draw_s": "primary_s and secondary_s on trials-exact",
    "learner.draws": "primary_s and secondary_s on trials-exact",
    "learner.sample_s": "primary_s on trials-sampled",
    "learner.points_sampled": "primary_s on trials-sampled",
    "learner.estimate_s": "primary_s on trials-sampled",
    "constructions.build_s": "secondary_s on trials-exact, where the k=8 family is rebuilt by every command",
    "constructions.adversarial_meta_s": "primary_s and secondary_s on trials-exact",
    "divergence.greedy_cover_s": "secondary_s on both family workloads",
    "divergence.cover_is_valid_s": "secondary_s on both family workloads",
    "divergence.h_divergence.calls": "secondary_s on both family workloads",
    "divergence.h_divergence.distinct_pair_ratio": "secondary_s on both family workloads",
    "experiments.exposure_s": "secondary_s on trials-sampled",
    "experiments.self_s": "every experiment metric on both trials workloads",
    "experiments.report_s": "every experiment metric on both trials workloads",
    "seeding.rng_for_s": "primary_s and secondary_s on trials-exact (one rng_for per domain draw)",
    "seeding.derive_seed.calls": "primary_s and secondary_s on trials-exact",
    "serialize.load_s": "primary_s, secondary_s and pass_s on family-product",
    "serialize.write_s": "every experiment metric on both trials workloads",
    "cli.self_s": "the family metrics",
    "trace.overhead_s": "none: traced pass wall minus untraced pass wall",
    "trace.busy_ratio": "none: summed self time over traced wall, above 1 when worker threads overlap",
}


def _resolve(spec: str) -> tuple[Any, str, Any]:
    """(owner, attribute, original) for "module:name" or "module:Class.method"."""
    module_name, _, qualname = spec.partition(":")
    owner: Any = importlib.import_module(f"genlab.{module_name}")
    *outer, attr = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


class _Frame:
    __slots__ = ("name", "start", "children", "adopted", "ident")

    def __init__(self, name: str, ident: int) -> None:
        self.name = name
        self.ident = ident
        self.children: list[tuple[float, float]] = []
        self.adopted = False
        self.start = time.perf_counter()


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, int, float, float, float]] = []
        self.counts: dict[str, int] = {}
        self._distinct: dict[str, dict[Any, Any]] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[_Frame] = []
        self._main_thread = threading.get_ident()
        self._next_id = itertools.count().__next__
        self._patched: list[tuple[Any, str, Any]] = []

    # -- span bookkeeping ---------------------------------------------------
    def _stack(self) -> list[_Frame]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[_Frame]) -> _Frame | None:
        if stack:
            return stack[-1]
        if stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]
            parent.adopted = True
            return parent
        return None

    def _enter(self, name: str) -> tuple[list[_Frame], _Frame, _Frame | None]:
        stack = self._stack()
        parent = self._parent(stack)
        frame = _Frame(name, self._next_id())
        stack.append(frame)
        return stack, frame, parent

    def _exit(self, stack: list[_Frame], frame: _Frame, parent: _Frame | None) -> None:
        end = time.perf_counter()
        stack.pop()
        if frame.adopted:
            covered = _covered(frame.children)
        else:
            covered = sum(b - a for a, b in frame.children)
        if parent is not None:
            parent.children.append((frame.start, end))
        self.spans.append((
            frame.ident, None if parent is None else parent.ident, frame.name,
            threading.get_ident(), frame.start, end, end - frame.start - covered,
        ))

    def _exclude(self, start: float) -> None:
        """Charge tracer work since `start` to no span: mark it covered in the
        open parent so the parent's self time does not include it."""
        parent = self._parent(self._stack())
        if parent is not None:
            parent.children.append((start, time.perf_counter()))

    def _count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def _count_distinct(self, name: str, key: Any, keep: Any) -> None:
        # `keep` holds the keyed objects alive so their ids are not reused
        with self._lock:
            self.counts[f"{name}.calls"] = self.counts.get(f"{name}.calls", 0) + 1
            seen = self._distinct.setdefault(name, {})
            if key not in seen:
                seen[key] = keep
                self.counts[f"{name}.distinct"] = self.counts.get(f"{name}.distinct", 0) + 1

    # -- wrappers -----------------------------------------------------------
    def _span(self, name: str, fn: Callable[..., Any], after: Callable[..., None] | None) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack, frame, parent = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(stack, frame, parent)
            if after is not None:
                start = time.perf_counter()
                after(result, *args, **kwargs)
                self._exclude(start)
            return result
        return wrapper

    def _command(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        span = self._span("cli.self", fn, None)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self._lock:
                self._distinct.clear()  # distinct pairs are counted per command
            return span(*args, **kwargs)
        return wrapper

    def _counter(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        if name == "seeding.derive_seed":
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                self._count(f"{name}.calls")
                return fn(*args, **kwargs)
        elif name == "core.domain_error":
            @functools.wraps(fn)
            def wrapper(h: Any, d: Any) -> Any:
                self._count_distinct(name, (id(h), id(d)), (h, d))
                return fn(h, d)
        else:  # h_divergence is symmetric in its two domains
            @functools.wraps(fn)
            def wrapper(hc: Any, d1: Any, d2: Any, *args: Any, **kwargs: Any) -> Any:
                key = (min(id(d1), id(d2)), max(id(d1), id(d2)), id(hc))
                self._count_distinct(name, key, (hc, d1, d2))
                return fn(hc, d1, d2, *args, **kwargs)
        return wrapper

    def _after(self, spec: str) -> Callable[..., None] | None:
        if spec == "learner:ErrorTable.__post_init__":
            def cells(_: Any, table: Any) -> None:
                self._count("learner.error_table.cells", len(table.entries) * table.columns)
            return cells
        if spec == "learner:minmax_erm":
            def columns(_: Any, table: Any) -> None:
                self._count("learner.minmax.columns", table.columns)
                self._count("learner.minmax.distinct_columns", len(set(zip(*table.entries))))
            return columns
        if spec == "learner:draw_domain_indices":
            return lambda _, p, n, seed: self._count("learner.draws", n)
        if spec == "learner:sample_training_set":
            return lambda _, p, n, m, seed: self._count("learner.points_sampled", n * m)
        return None

    def install(self) -> None:
        replacements: dict[int, Any] = {}
        for name, specs in SPANS.items():
            for spec in specs:
                owner, attr, original = _resolve(spec)
                if name == "cli.self":
                    wrapper = self._command(original)
                else:
                    wrapper = self._span(name, original, self._after(spec))
                replacements[id(original)] = (original, wrapper)
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
        for name, spec in COUNTED.items():
            _, _, original = _resolve(spec)
            replacements[id(original)] = (original, self._counter(name, original))
        for module_name, module in list(sys.modules.items()):
            if module_name != "genlab" and not module_name.startswith("genlab."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        # the CLI bound the experiment runners in a table at import
        from genlab import cli
        for key, (config_cls, runner) in list(cli._EXPERIMENTS.items()):
            hit = replacements.get(id(runner))
            if hit is not None:
                self._patch(cli._EXPERIMENTS, key, (config_cls, hit[1]), item=True)

    def _patch(self, owner: Any, attr: str, value: Any, item: bool = False) -> None:
        if item:
            self._patched.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._patched.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    # -- results ------------------------------------------------------------
    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass layer metrics: self seconds per span name and counts."""
        self_time = {name: 0.0 for name in SPANS}
        for span in self.spans:
            self_time[span[2]] += span[6]
        out = {f"{name}_s": t / passes for name, t in self_time.items()}
        counts = self.counts

        def ratio(num: str, den: str) -> float:
            return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

        for name in ("core.domain_error", "divergence.h_divergence", "seeding.derive_seed"):
            out[f"{name}.calls"] = counts.get(f"{name}.calls", 0) / passes
        out["core.domain_error.distinct_ratio"] = ratio(
            "core.domain_error.distinct", "core.domain_error.calls")
        out["divergence.h_divergence.distinct_pair_ratio"] = ratio(
            "divergence.h_divergence.distinct", "divergence.h_divergence.calls")
        out["learner.minmax.distinct_column_ratio"] = ratio(
            "learner.minmax.distinct_columns", "learner.minmax.columns")
        for name in ("learner.error_table.cells", "learner.draws", "learner.points_sampled"):
            out[name] = counts.get(name, 0) / passes
        roots = sum(s[5] - s[4] for s in self.spans if s[1] is None and s[2] == "cli.self")
        out["trace.busy_ratio"] = sum(self_time.values()) / roots if roots else 0.0
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for ident, parent, name, thread, start, end, self_s in self.spans:
                fh.write(json.dumps({
                    "id": ident, "parent": parent, "name": name, "thread": thread,
                    "start": start, "end": end, "self_s": self_s,
                }) + "\n")
