"""Per-layer tracing of galmin from outside the package.

The tracer replaces each listed function in every galmin module namespace
that binds it (``v_form`` is bound in ``forms``, ``minimize``, ``charexp``
and ``verify``) and the listed ``_QuadraticOperator`` methods on the class,
so calls made through any of those bindings land in one span record. The
package itself is not edited: ``uninstall`` puts every original back.

For each layer it records calls, inclusive time and self time (inclusive
time minus the time spent in traced callees), plus a few counters that
later optimisations are expected to move: Frank-Wolfe and projected
gradient iterations, and how often a kernel column or an Omega table is
asked for again with the same arguments.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

PACKAGE = "galmin"


@dataclass(frozen=True)
class Layer:
    """One traced name: ``attr`` may be a dotted ``Class.method`` path."""

    module: str
    attr: str
    name: str | None = None  # metric name inside the module, default attr
    timed: bool = True  # False: count calls only (very hot, tiny calls)

    @property
    def metric(self) -> str:
        return f"{self.module}.{self.name or self.attr}"


LAYERS = (
    Layer("arith", "build_sieve"),
    Layer("arith", "big_omega_table"),
    Layer("arith", "phi_table"),
    Layer("constants", "solve_beta"),
    Layer("extremal", "witness_t"),
    Layer("extremal", "witness_e"),
    Layer("extremal", "level_set_count"),
    Layer("extremal", "filtered_count"),
    Layer("extremal", "satisfies_loc", timed=False),
    Layer("forms", "v_form"),
    Layer("forms", "t_form_naive"),
    Layer("forms", "t_form_fast"),
    Layer("forms", "e_form"),
    Layer("forms", "e_gradient"),
    Layer("forms", "r_counts_dense"),
    Layer("minimize", "minimize_quadratic"),
    Layer("minimize", "minimize_with_witness"),
    Layer("minimize", "minimize_energy"),
    Layer("minimize", "project_to_simplex"),
    Layer("minimize", "grid_oracle"),
    Layer("minimize", "_QuadraticOperator.__init__", "operator.build"),
    Layer("minimize", "_QuadraticOperator.matvec", "operator.matvec"),
    Layer("minimize", "_QuadraticOperator.column", "operator.column"),
    Layer("characters", "build_table"),
    Layer("characters", "character_matrix"),
    Layer("characters", "theta_all_even"),
    Layer("characters", "gauss_sum"),
    Layer("characters", "char_sum"),
    Layer("charexp", "shifted_sums"),
    Layer("charexp", "burgess_experiment"),
    Layer("charexp", "mollified_moments"),
    Layer("charexp", "low_moment_experiment"),
    Layer("charexp", "weil_moment_check"),
    Layer("verify", "run_verification"),
)

# Derived per-layer metrics, in output order, with their units.
DERIVED_UNITS = {
    "minimize.fw.iterations": "count",
    "minimize.fw.self_us_per_iter": "us",
    "minimize.operator.column.repeat_share": "ratio",
    "arith.big_omega_table.repeat_share": "ratio",
    "minimize.pgd.iterations": "count",
    "minimize.pgd.accept_ratio": "ratio",
}


def metric_units(layers=LAYERS) -> dict[str, str]:
    """Every metric name :meth:`Tracer.metrics` emits, with its unit."""
    units = {}
    for layer in layers:
        units[f"{layer.metric}.calls"] = "count"
        if layer.timed:
            units[f"{layer.metric}.ms"] = "ms"
            units[f"{layer.metric}.self_ms"] = "ms"
    units.update(DERIVED_UNITS)
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Context manager that wraps the layers on entry and restores them on
    exit. Spans nest on one stack, so the benchmark must call the program
    from a single thread while tracing."""

    def __init__(self, layers=LAYERS):
        self.layers = tuple(layers)
        self.absent: list[str] = []
        self.paused = False
        self.calls = {layer.metric: 0 for layer in self.layers}
        self.total_s = dict.fromkeys(self.calls, 0.0)
        self.self_s = dict.fromkeys(self.calls, 0.0)
        self.fw_iterations = 0
        self.pgd_iterations = 0
        self.column_repeats = 0
        self.omega_repeats = 0
        self._columns_seen: dict[int, set] = {}
        self._omega_seen: set = set()
        self._stack: list[float] = []  # child time of each open span
        self._patches: list[tuple[object, str, object]] = []
        self._observers = {
            "minimize.minimize_quadratic": self._observe_fw,
            "minimize.minimize_energy": self._observe_pgd,
            "minimize.operator.build": self._observe_build,
            "minimize.operator.column": self._observe_column,
            "arith.big_omega_table": self._observe_omega,
        }

    # -- installation -------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    def install(self) -> None:
        for layer in self.layers:
            if not self._install_layer(layer):
                self.absent.append(layer.metric)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _install_layer(self, layer: Layer) -> bool:
        try:
            module = importlib.import_module(f"{PACKAGE}.{layer.module}")
        except ImportError:
            return False
        *owner_path, attr = layer.attr.split(".")
        owner = module
        for part in owner_path:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        if owner_path:
            # A method: patch the class, which every binding shares.
            original = vars(owner).get(attr)
            if original is None:
                return False
            self._patch(owner, attr, self._wrap(layer, original))
            return True
        original = getattr(owner, attr, None)
        if original is None:
            return False
        wrapped = self._wrap(layer, original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapped)
        return True

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def _wrap(self, layer: Layer, fn):
        metric = layer.metric
        calls = self.calls

        if not layer.timed:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if not self.paused:
                    calls[metric] += 1
                return fn(*args, **kwargs)
            return counted

        stack = self._stack
        observe = self._observers.get(metric)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                calls[metric] += 1
                self.total_s[metric] += elapsed
                self.self_s[metric] += elapsed - child
            if observe is not None:
                observe(args, kwargs, result)
            return result
        return traced

    @contextmanager
    def pause(self):
        """Run the benchmark's own checks without recording them."""
        before, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = before

    # -- counters -----------------------------------------------------

    def _observe_fw(self, args, kwargs, result) -> None:
        self.fw_iterations += result.iterations

    def _observe_pgd(self, args, kwargs, result) -> None:
        self.pgd_iterations += result.iterations

    def _observe_build(self, args, kwargs, result) -> None:
        # A new operator may reuse a dead one's id; start it afresh.
        self._columns_seen[id(args[0])] = set()

    def _observe_column(self, args, kwargs, result) -> None:
        op, j = args[0], (args[1] if len(args) > 1 else kwargs["j"])
        seen = self._columns_seen.setdefault(id(op), set())
        if j in seen:
            self.column_repeats += 1
        seen.add(j)

    def _observe_omega(self, args, kwargs, result) -> None:
        sieve = args[0] if args else kwargs["sieve"]
        upto = args[1] if len(args) > 1 else kwargs.get("upto")
        key = (id(sieve), sieve.limit, sieve.limit if upto is None else upto)
        if key in self._omega_seen:
            self.omega_repeats += 1
        self._omega_seen.add(key)

    # -- report -------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Metric name -> value; names and units as in :func:`metric_units`."""
        out: dict[str, float] = {}
        for layer in self.layers:
            m = layer.metric
            out[f"{m}.calls"] = self.calls[m]
            if layer.timed:
                out[f"{m}.ms"] = 1e3 * self.total_s[m]
                out[f"{m}.self_ms"] = 1e3 * self.self_s[m]
        fw_self = self.self_s.get("minimize.minimize_quadratic", 0.0)
        out["minimize.fw.iterations"] = self.fw_iterations
        out["minimize.fw.self_us_per_iter"] = 1e6 * _ratio(fw_self, self.fw_iterations)
        out["minimize.operator.column.repeat_share"] = _ratio(
            self.column_repeats, self.calls.get("minimize.operator.column", 0))
        out["arith.big_omega_table.repeat_share"] = _ratio(
            self.omega_repeats, self.calls.get("arith.big_omega_table", 0))
        out["minimize.pgd.iterations"] = self.pgd_iterations
        out["minimize.pgd.accept_ratio"] = _ratio(
            self.pgd_iterations, self.calls.get("forms.e_form", 0))
        return out
