"""Layer spans for the traced benchmark run, recorded from outside the package.

`Tracer.install()` replaces each listed s4bell function, in every s4bell
module that holds a reference to it (so `cli`'s imported names and
in-module calls are both caught), by a wrapper that records a span while
an op or the set-up is being traced.  Spans stay in memory as
[name, start, end, parent index, op id, key] and are aggregated at the
end.  A listed function that no longer exists is reported as absent and
its metrics read 0.

Self time is a span's duration minus that of its direct children.  The
library runs single-threaded in every workload (no `--jobs`), so children
never overlap and self times of one op sum to its root `cli.main` span.
"""

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# Functions called while ops run; each gets calls_per_op and self_ms_per_op.
OP_LAYERS = (
    "cli.main",
    "quantum.max_eigenvalue_sum",
    "quantum.jacobi_eigh",
    "quantum.eigenvalues_direct",
    "quantum.eigenvalues_isotypic",
    "quantum.build_x_operator",
    "classical.bell_terms",
    "classical.classical_max",
    "classical.classical_histogram",
    "classical._per_alice_tables",
    "game.winning_table",
    "game.game_values",
    "representation.validate_block_basis",
)
# Functions that build the cached context; each gets setup_self_ms.
SETUP_LAYERS = (
    "context.standard_context",
    "permgroup.symmetric_group",
    "representation.build_standard_rep",
    "representation.tensor_product",
    "representation.isotypic_projectors",
    "orbit.canonical_orbit",
)
SPECTRUM = "quantum.max_eigenvalue_sum"
HISTOGRAM = "classical.classical_histogram"
HISTOGRAM_CONFIGS = 3 ** 16
SETUP = "setup"


def metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    names = []
    for layer in OP_LAYERS:
        names += [(f"{layer}.calls_per_op", "count"), (f"{layer}.self_ms_per_op", "ms")]
    names += [(f"{SPECTRUM}.spectrum_reuse", "ratio"), (f"{HISTOGRAM}.configs_per_op", "count")]
    names += [(f"{layer}.setup_self_ms", "ms") for layer in SETUP_LAYERS]
    names += [
        ("trace.untraced_op_ms", "ms"),
        ("trace.self_ms_sum_per_op", "ms"),
        ("trace.overhead_pct", "%"),
    ]
    return names


class Tracer:
    """Records spans of the listed s4bell functions while `op` is set."""

    def __init__(self):
        self.spans = []
        self.op = None  # op id, SETUP, or None when not recording
        self.clock = time.perf_counter
        self.absent = []
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            key = repr(args[0]) if name == SPECTRUM and args else None
            span = [name, 0.0, 0.0, stack[-1] if stack else None, op, key]
            stack.append(len(spans))
            spans.append(span)
            span[1] = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                stack.pop()

        return traced

    def install(self):
        wrappers = {}
        self.absent = []
        for layer in OP_LAYERS + SETUP_LAYERS:
            module_name, func_name = layer.rsplit(".", 1)
            try:
                fn = getattr(importlib.import_module(f"s4bell.{module_name}"), func_name)
            except (ImportError, AttributeError):
                self.absent.append(layer)
                continue
            wrappers[id(fn)] = (fn, self._wrap(layer, fn))
        for module_name, module in list(sys.modules.items()):
            if module is None or module_name.split(".")[0] != "s4bell":
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

    def uninstall(self):
        while self._patches:
            module, attr, value = self._patches.pop()
            setattr(module, attr, value)


def aggregate(spans, op_factors):
    """Per-layer totals over the traced ops and the set-up spans.

    `op_factors` maps each traced op id to the factor that turns its
    measured times into times at reference speed (calibrate.py); set-up
    spans keep their measured times.  Returns {layer: {"calls", "self_s"}}
    for ops, {layer: self_s} for set-up, the number of distinct spectrum
    keys summed over ops, and the total self time of the ops.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, op, key in spans:
        if parent is not None:
            child[parent] += end - start
    per_op = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    setup = Counter()
    keys = defaultdict(set)
    total_self = 0.0
    for (name, start, end, parent, op, key), inner in zip(spans, child):
        self_s = end - start - inner
        if op == SETUP:
            setup[name] += self_s
        elif op in op_factors:
            self_s *= op_factors[op]
            per_op[name]["calls"] += 1
            per_op[name]["self_s"] += self_s
            total_self += self_s
            if name == SPECTRUM:
                keys[op].add(key)
    distinct = sum(len(k) for k in keys.values())
    return per_op, setup, distinct, total_self


def layer_metrics(spans, op_factors, untraced_op_s, traced_op_s):
    """Per-layer metric values for the traced ops, keys of `op_factors`.

    `untraced_op_s` and `traced_op_s` are the mean op times, at reference
    speed, of the untraced and traced phases of the same run; the overhead
    is the traced ops/s shortfall against the untraced ops/s.
    """
    per_op, setup, distinct, total_self = aggregate(spans, op_factors)
    n = max(len(op_factors), 1)
    values = {}
    for layer in OP_LAYERS:
        values[f"{layer}.calls_per_op"] = per_op[layer]["calls"] / n
        values[f"{layer}.self_ms_per_op"] = 1e3 * per_op[layer]["self_s"] / n
    spectra = per_op[SPECTRUM]["calls"]
    # No spectrum computed means none was repeated either.
    values[f"{SPECTRUM}.spectrum_reuse"] = distinct / spectra if spectra else 1.0
    values[f"{HISTOGRAM}.configs_per_op"] = HISTOGRAM_CONFIGS * per_op[HISTOGRAM]["calls"] / n
    for layer in SETUP_LAYERS:
        values[f"{layer}.setup_self_ms"] = 1e3 * setup[layer]
    values["trace.untraced_op_ms"] = 1e3 * untraced_op_s
    values["trace.self_ms_sum_per_op"] = 1e3 * total_self / n
    values["trace.overhead_pct"] = 100.0 * (1.0 - untraced_op_s / traced_op_s)
    return values


def calls_by_command(spans, kinds):
    """{command kind: {layer: calls per op}} from op id -> kind."""
    ops_per_kind = Counter(kinds.values())
    calls = defaultdict(Counter)
    for name, _, _, _, op, _ in spans:
        if op in kinds:
            calls[kinds[op]][name] += 1
    return {
        kind: {name: calls[kind][name] / n for name in sorted(calls[kind])}
        for kind, n in sorted(ops_per_kind.items())
    }
