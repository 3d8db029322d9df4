"""Spans around lenstau's public functions, installed from outside.

``Tracer.install`` replaces each function in ``WRAPPED`` with a wrapper
that records a span (group, start, end, parent span, operation id), and
rebinds every name under which a ``lenstau`` module re-imported the
function, such as ``lens_invariants.root_of_unity`` or
``rt_oracle.tau_prime``.  ``uninstall`` puts the originals back.  Spans
stay in memory until ``summary`` and ``write_spans``.

Per-layer metrics (``summary``), for the traced requests:

* ``<group>.calls`` and ``<group>.self_s``: spans of the group, and the
  time they spend outside their child spans.  The self times of all
  groups plus ``trace.unattributed_s`` (traced wall time that no span
  covers) add up to ``trace.wall_s``.
* ``cyclotomic.construct.coeffs_in``: summed length of the coefficient
  lists passed to ``Cyclotomic.__init__``, before reduction mod Phi_N.
* ``cyclotomic.mul.coeff_products``: summed product of the two operands'
  nonzero coefficient counts, taken before any lift to a common order.
* ``cyclotomic.phi.hit_ratio``, ``cyclotomic.gauss.hit_ratio``: cache
  hits over lookups, from ``cache_info()``; 0 without lookups.
* ``rt_oracle.modular_data.useful_ratio``: distinct (request, r) builds
  of modular data over all builds; 0 without builds.
* ``<layer>.errors``: exceptions leaving a wrapped function.
* ``rt_oracle.sweep.parallel_efficiency`` and ``trace.overhead_ratio``
  are filled in by the runner; layers a workload does not run read 0.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import sys
import time
from collections import defaultdict

# (module, attribute, group); the layer is the group up to its first dot.
WRAPPED = (
    ("lenstau.cli", "main", "cli"),
    *(("lenstau.number_theory", name, "number_theory") for name in (
        "ext_gcd", "mod_inverse", "jacobi_symbol", "rational_mod",
        "epsilon", "bezout_pair", "sawtooth", "dedekind_sum",
        "dedekind_sum_direct")),
    *(("lenstau.lens_invariants", name, "lens_invariants") for name in (
        "make_lens_space", "three_s_sqrt", "case_two_bracket", "tau_prime",
        "xi_r", "tau_prime_via_galois", "TauPrimeResult.branch_label")),
    ("lenstau.cyclotomic", "Cyclotomic.__init__", "cyclotomic.construct"),
    ("lenstau.cyclotomic", "Cyclotomic.from_rational", "cyclotomic.construct"),
    ("lenstau.cyclotomic", "Cyclotomic.zero", "cyclotomic.construct"),
    ("lenstau.cyclotomic", "Cyclotomic.from_dict", "cyclotomic.construct"),
    ("lenstau.cyclotomic", "root_of_unity", "cyclotomic.construct"),
    ("lenstau.cyclotomic", "Cyclotomic.__mul__", "cyclotomic.mul"),
    ("lenstau.cyclotomic", "Cyclotomic.__rmul__", "cyclotomic.mul"),
    ("lenstau.cyclotomic", "Cyclotomic.__truediv__", "cyclotomic.div"),
    ("lenstau.cyclotomic", "Cyclotomic.__rtruediv__", "cyclotomic.div"),
    ("lenstau.cyclotomic", "Cyclotomic.inverse", "cyclotomic.div"),
    *(("lenstau.cyclotomic", f"Cyclotomic.{name}", "cyclotomic.addsub")
      for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__")),
    ("lenstau.cyclotomic", "Cyclotomic.lift", "cyclotomic.lift"),
    ("lenstau.cyclotomic", "Cyclotomic.galois_apply", "cyclotomic.galois"),
    ("lenstau.cyclotomic", "Cyclotomic.conjugate", "cyclotomic.galois"),
    ("lenstau.cyclotomic", "Cyclotomic.to_complex", "cyclotomic.embed"),
    ("lenstau.cyclotomic", "Cyclotomic.to_dict", "cyclotomic.serialize"),
    ("lenstau.cyclotomic", "cyclotomic_polynomial", "cyclotomic.phi"),
    ("lenstau.cyclotomic", "degree", "cyclotomic.phi"),
    ("lenstau.cyclotomic", "gauss_sum", "cyclotomic.gauss"),
    *(("lenstau.cyclotomic", f"Cyclotomic.{name}", "cyclotomic.other")
      for name in ("descend", "__pow__", "__eq__", "is_zero", "is_rational",
                   "as_rational")),
    ("lenstau.ohtsuki", "FormalSeries.__mul__", "ohtsuki.mul"),
    ("lenstau.ohtsuki", "FormalSeries.inverse", "ohtsuki.inverse"),
    ("lenstau.ohtsuki", "binomial_series", "ohtsuki.binomial"),
    *(("lenstau.ohtsuki", name, "ohtsuki.series") for name in (
        "ohtsuki_tau", "FormalSeries.from_list", "FormalSeries.__add__",
        "FormalSeries.__sub__", "FormalSeries.valuation",
        "FormalSeries.shift_down", "FormalSeries.divide",
        "FormalSeries.evaluate")),
    ("lenstau.rt_oracle", "modular_data", "rt_oracle.modular_data"),
    ("lenstau.rt_oracle", "so3_modular_data", "rt_oracle.modular_data"),
    ("lenstau.rt_oracle", "so3_invariant", "rt_oracle.contract"),
    ("lenstau.rt_oracle", "rt_invariant", "rt_oracle.contract"),
    *(("lenstau.rt_oracle", name, "rt_oracle.cf") for name in (
        "cf_value", "continued_fraction", "signature", "linking_matrix")),
    *(("lenstau.rt_oracle", name, "rt_oracle.verify") for name in (
        "verify", "sweep_verify", "summarize", "bracket_sign_study",
        "VerifyRecord.to_dict")),
)

GROUPS = tuple(dict.fromkeys(group for _, _, group in WRAPPED))
LAYERS = tuple(dict.fromkeys(group.split(".")[0] for group in GROUPS))
# lru_cache'd functions whose cache_info() deltas give a hit ratio.
CACHED = {"cyclotomic.phi": ("lenstau.cyclotomic", "cyclotomic_polynomial"),
          "cyclotomic.gauss": ("lenstau.cyclotomic", "gauss_sum")}


def metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric ``summary`` reports: name -> (unit, better)."""
    units = {}
    for group in GROUPS:
        units[f"{group}.calls"] = ("count", "lower")
        units[f"{group}.self_s"] = ("s", "lower")
    units["cyclotomic.construct.coeffs_in"] = ("count", "lower")
    units["cyclotomic.mul.coeff_products"] = ("count", "lower")
    for group in CACHED:
        units[f"{group}.hit_ratio"] = ("ratio", "higher")
    units["rt_oracle.modular_data.useful_ratio"] = ("ratio", "higher")
    units["rt_oracle.sweep.parallel_efficiency"] = ("ratio", "higher")
    for layer in LAYERS:
        units[f"{layer}.errors"] = ("count", "lower")
    units["trace.wall_s"] = ("s", "lower")
    units["trace.unattributed_s"] = ("s", "lower")
    units["trace.overhead_ratio"] = ("ratio", "lower")
    units["trace.spans"] = ("count", "lower")
    return units


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of it that
    its child spans cover.  A span is (name, start, end, parent, op)
    with parent the index of the parent span or -1."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _nonzero(coeffs) -> int:
    return sum(1 for c in coeffs if c)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []            # (group index, start, end, parent, op)
        self.op = 0                      # id shared by spans of one request
        self._stack: list[int] = []
        self._errors = [0] * len(GROUPS)
        self._coeffs_in = 0
        self._mul_operands: list = []    # operands, counted in summary()
        self._modular_r: list = []       # (op, r) per modular-data build
        self._patches: list = []         # (owner, name, original)
        self._cached: dict = {}          # group -> lru_cache'd function
        self._cache_start: dict = {}
        self._cache_end: dict = {}

    # -- wrapping ------------------------------------------------------

    def _wrap(self, fn, gid: int, hook=None):
        spans, stack, errors = self.spans, self._stack, self._errors
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[gid] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (gid, start, end, parent, self.op)

        return wrapper

    def _hook(self, path: str):
        if path == "Cyclotomic.__init__":
            def count_coeffs(args, kwargs):
                coeffs = args[2] if len(args) > 2 else kwargs["coeffs"]
                self._coeffs_in += len(coeffs)
            return count_coeffs
        if path in ("Cyclotomic.__mul__", "Cyclotomic.__rmul__"):
            return lambda args, kwargs: self._mul_operands.append(args[:2])
        if path in ("modular_data", "so3_modular_data"):
            return lambda args, kwargs: self._modular_r.append(
                (self.op, args[0] if args else kwargs["r"]))
        return None

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every function in WRAPPED and rebind re-imported names."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        self._cached = {group: importlib.import_module(module).__dict__[name]
                        for group, (module, name) in CACHED.items()}
        wrappers: dict[int, tuple] = {}     # id(original) -> (original, wrapper)
        for module_name, path, group in WRAPPED:
            owner = importlib.import_module(module_name)
            *outer, name = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[name]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            if id(fn) not in wrappers:
                wrappers[id(fn)] = (fn, self._wrap(
                    fn, GROUPS.index(group), self._hook(path)))
            wrapper = wrappers[id(fn)][1]
            self._patch(owner, name, classmethod(wrapper)
                        if isinstance(raw, classmethod) else wrapper)
        for module_name, module in list(sys.modules.items()):
            if module is None or module_name.split(".")[0] != "lenstau":
                continue
            for name, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, name, entry[1])
        self._cache_start = self._cache_info()

    def uninstall(self) -> None:
        self._cache_end = self._cache_info()
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _cache_info(self) -> dict:
        return {group: (fn.cache_info().hits, fn.cache_info().misses)
                for group, fn in self._cached.items()}

    # -- results -------------------------------------------------------

    def summary(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the spans recorded so far.

        ``wall_s`` is the traced wall time; what the outermost spans do
        not cover is reported as ``trace.unattributed_s``.
        """
        out = {name: 0 for name in metric_units()}
        selfs = self_times(self.spans)
        for span, own in zip(self.spans, selfs):
            group = GROUPS[span[0]]
            out[f"{group}.calls"] += 1
            out[f"{group}.self_s"] += own
        for gid, count in enumerate(self._errors):
            out[f"{GROUPS[gid].split('.')[0]}.errors"] += count
        out["cyclotomic.construct.coeffs_in"] = self._coeffs_in
        out["cyclotomic.mul.coeff_products"] = sum(
            _nonzero(a.coeffs) * (_nonzero(b.coeffs) if hasattr(b, "coeffs")
                                  else int(b != 0))
            for a, b in self._mul_operands)
        for group in CACHED:
            hits = self._cache_end[group][0] - self._cache_start[group][0]
            misses = self._cache_end[group][1] - self._cache_start[group][1]
            out[f"{group}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        if self._modular_r:
            out["rt_oracle.modular_data.useful_ratio"] = (
                len(set(self._modular_r)) / len(self._modular_r))
        out["trace.wall_s"] = wall_s
        out["trace.unattributed_s"] = wall_s - sum(
            end - start for _, start, end, parent, _ in self.spans if parent < 0)
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path) -> None:
        """Write the spans as gzip'd CSV, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(("span", "name", "start_s", "end_s", "parent", "op"))
            for i, (gid, start, end, parent, op) in enumerate(self.spans):
                writer.writerow((i, GROUPS[gid], f"{start - origin:.9f}",
                                 f"{end - origin:.9f}", parent, op))
