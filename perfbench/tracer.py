"""In-memory span tracer that wraps walkops from the outside.

``Tracer.install()`` replaces every public function and public method of
the nine layer modules with a wrapper that records a span (name, start,
end, parent) and rebinds the wrapper at every binding site: module
globals, re-exports in ``walkops/__init__`` and module-level dicts such as
``cli._JOBS``.  Nothing under ``src/walkops`` is edited.

Two kinds of method are not given spans:

* hot per-element methods named in ``COUNTED`` (the group law and the
  engines' ``log_value``) get a call counter, and one call in
  ``SAMPLE_EVERY`` is timed for a mean cost per call;
* cheap per-element accessors named in ``PER_ELEMENT`` stay unwrapped.

The time of both stays with the calling span, so a layer's self time is
what its own spans cover minus their child spans.

Spans and counters live in memory; ``dump`` writes them out once, at the
end of the child process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import monotonic_ns

LAYERS = ("config", "cli", "measures", "groups", "powers", "spectral",
          "ratiolimit", "fock", "reports")

# (owning base class, method name) -> counter name
COUNTED = {
    ("GroupDescriptor", "multiply"): "groups.multiply",
    ("PowersCache", "log_value"): "powers.log_value",
}

SAMPLE_EVERY = 32

# Per-element accessors, called millions of times; a span each would cost
# more than the work, so their time stays with the caller's span.
PER_ELEMENT = frozenset({
    "identity", "inverse", "generators", "contains", "check", "sort_key",
    "word_length", "format", "parse", "spec_string", "value", "has_value",
    "log_transition", "has_edge", "level_mass", "level_log_scale",
    "log_value_at_radius", "support_size", "value_at_radius", "total_mass",
    "items_values", "has", "log_p", "row_indices", "edge_threshold",
    "coefficient", "getint", "getfloat", "getbool", "set", "element",
    "RunConfig.get", "ScaledMeasure.log_value",
})


class Tracer:
    """Spans as lists ``[name, layer, start_ns, end_ns, parent]``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.stack: list = []
        self.counters: dict = {}      # name -> [calls, timed calls, timed ns]
        self.notes: dict = {}         # numbers read off results (sizes, bytes)

    # -- recording -----------------------------------------------------------

    def open(self, name: str, layer: str, start_ns: int | None = None) -> list:
        rec = [name, layer, monotonic_ns() if start_ns is None else start_ns, 0,
               self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list, end_ns: int | None = None):
        rec[3] = monotonic_ns() if end_ns is None else end_ns
        self.stack.pop()

    def note(self, key: str, value: float, mode: str = "add"):
        if mode == "max":
            self.notes[key] = max(self.notes.get(key, value), value)
        else:
            self.notes[key] = self.notes.get(key, 0) + value

    def span_wrapper(self, name: str, layer: str, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    def counter_wrapper(self, name: str, fn):
        """Count every call (nested ones too) and time one call in
        ``SAMPLE_EVERY``; a timed call per call would double the run."""
        slot = self.counters.setdefault(name, [0, 0, 0])  # calls, timed, ns

        @functools.wraps(fn)
        def counted(*args):
            slot[0] += 1
            if slot[0] % SAMPLE_EVERY:
                return fn(*args)
            t0 = monotonic_ns()
            result = fn(*args)
            slot[2] += monotonic_ns() - t0
            slot[1] += 1
            return result

        counted.__wrapped_by_tracer__ = True
        return counted

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap the layer modules of an imported ``walkops``."""
        mods = {name: importlib.import_module(f"walkops.{name}") for name in LAYERS}
        backend = importlib.import_module("walkops._backend")
        replaced = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif callable(obj) and not getattr(obj, "__wrapped_by_tracer__", False):
                    replaced[id(obj)] = self.span_wrapper(
                        f"{layer}.{attr}", layer, obj, ON_RESULT.get(f"{layer}.{attr}"))
        # the scatter kernel is a private helper, timed as part of powers
        scatter = backend.scatter_add_outer
        replaced[id(scatter)] = self.span_wrapper("powers.scatter_add_outer", "powers", scatter)
        _rebind(replaced)

    def _wrap_class(self, layer: str, cls):
        bases = {b.__name__ for b in cls.__mro__}
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            if attr in PER_ELEMENT or f"{cls.__name__}.{attr}" in PER_ELEMENT:
                continue
            kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            fn = raw.__func__ if kind else raw
            if not inspect.isfunction(fn) or getattr(fn, "__wrapped_by_tracer__", False):
                continue
            # dataclass-generated methods have no source in the module
            if fn.__code__.co_filename != sys.modules[cls.__module__].__file__:
                continue
            counter = next((c for (base, meth), c in COUNTED.items()
                            if meth == attr and base in bases), None)
            if counter is not None:
                wrapped = self.counter_wrapper(counter, fn)
            else:
                name = f"{layer}.{cls.__name__}.{attr}"
                wrapped = self.span_wrapper(name, layer, fn, ON_RESULT.get(name))
            setattr(cls, attr, kind(wrapped) if kind else wrapped)

    # -- output --------------------------------------------------------------

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "run_id": self.run_id,
                "spans": [[s[0], s[2], s[3], s[4]] for s in self.spans],
                "counters": self.counters,
            }, fh)


def _rebind(replaced: dict):
    """Point every binding of a wrapped function at its wrapper."""
    for name, mod in list(sys.modules.items()):
        if not (name == "walkops" or name.startswith("walkops.")):
            continue
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, attr, replaced[id(obj)])
            elif isinstance(obj, dict):
                for key, val in list(obj.items()):
                    if id(val) in replaced:
                        obj[key] = replaced[id(val)]


# -- numbers read off results --------------------------------------------------

def _note_cache(tracer, args, cache):
    tracer.note("powers.levels", cache.depth)
    tracer.note("powers.support_max", state_size(cache), mode="max")


def _note_export(tracer, args, text):
    tracer.note("powers.artifact_bytes", len(text))


def _note_write(tracer, args, result):
    tracer.note("reports.bytes_written", len(args[1].encode("utf-8")))


def _note_window(tracer, args, result):
    tracer.note("fock.basis_size", args[0].size, mode="max")


ON_RESULT = {
    "powers.convolution_powers": _note_cache,
    "powers.export_cache_json": _note_export,
    "reports.write_text_atomic": _note_write,
    "fock.FockWindow.__init__": _note_window,
}


def state_size(cache) -> int:
    """Largest per-level state the engine stored: support elements for the
    generic engine, radii for the radial engine, array cells otherwise."""
    if cache.engine_name == "generic":
        return max(cache.support_size(m) for m in range(cache.depth + 1))
    if cache.engine_name == "radial":
        return len(cache.level_radial(cache.depth).values)
    return int(cache._current[1].size)


# -- per-layer numbers -------------------------------------------------------

DEFECT_CHECKS = ("matrix_unit_defects", "unitary_and_commutation_defects",
                 "generator_identity_defect", "q0_projection_check",
                 "subproduct_coisometry_check")
JOBS = ("spectrum", "kernel", "radical", "metric", "boundary", "fock",
        "covariance")
SELF_LAYERS = LAYERS + ("startup", "import", "bench", "tracer")


def summarize(tracer: Tracer) -> dict:
    """Per-layer metrics (seconds, counts) from the recorded spans."""
    spans = tracer.spans
    children: dict = {}
    for i, s in enumerate(spans):
        children.setdefault(s[4], []).append(i)

    def dur(i):
        return spans[i][3] - spans[i][2]

    self_ns = dict.fromkeys(SELF_LAYERS, 0)
    for i, s in enumerate(spans):
        covered = sum(dur(c) for c in children.get(i, ()))
        self_ns[s[1]] = self_ns.get(s[1], 0) + dur(i) - covered

    def outer(*names):
        """(count, seconds) of spans named ``names`` outside one another."""
        wanted = set(names)
        count = total = 0
        for i, s in enumerate(spans):
            if s[0] not in wanted:
                continue
            p = s[4]
            while p >= 0 and spans[p][0] not in wanted:
                p = spans[p][4]
            if p < 0:
                count += 1
                total += dur(i)
        return count, total / 1e9

    def outer_layer(layer):
        total = 0
        for i, s in enumerate(spans):
            if s[1] == layer and (s[4] < 0 or spans[s[4]][1] != layer):
                total += dur(i)
        return total / 1e9

    notes = tracer.notes
    mult_calls, mult_timed, mult_ns = tracer.counters.get("groups.multiply", [0, 0, 0])
    lv_calls = tracer.counters.get("powers.log_value", [0])[0]
    _, build_s = outer("powers.convolution_powers")
    levels = notes.get("powers.levels", 0)
    gets = [i for i, s in enumerate(spans) if s[0] == "ratiolimit.KernelTable.get"]
    misses = sum(1 for i in gets if any(spans[c][0] == "ratiolimit.estimate_H"
                                        for c in children.get(i, ())))
    n_entries, entries_s = outer("ratiolimit.estimate_H")
    n_select, select_s = outer("fock.FockWindow.select")

    m = {
        "config.load_s": outer("config.RunConfig.from_file",
                               "config.RunConfig.from_text")[1],
        "measures.parse_s": outer("measures.parse_measure")[1],
        "measures.validate_s": outer("measures.validate_measure")[1],
        "groups.multiply_calls": mult_calls,
        "groups.multiply_us": mult_ns / mult_timed / 1e3 if mult_timed else 0.0,
        "powers.build_s": build_s,
        "powers.levels": levels,
        "powers.support_max": notes.get("powers.support_max", 0),
        "powers.step_ms": build_s * 1e3 / levels if levels else 0.0,
        "powers.scatter_s": outer("powers.scatter_add_outer")[1],
        "powers.log_value_calls": lv_calls,
        "powers.is_aperiodic_calls": outer("powers.is_aperiodic")[0],
        "powers.export_s": outer("powers.export_cache_json")[1],
        "powers.import_s": outer("powers.import_cache_json")[1],
        "powers.artifact_mib": notes.get("powers.artifact_bytes", 0) / 2**20,
        "spectral.radius_s": outer("spectral.spectral_radius")[1],
        "spectral.alpha_s": outer("spectral.local_limit_exponent")[1],
        "ratiolimit.entries": n_entries,
        "ratiolimit.get_hit_ratio": 1.0 - misses / len(gets) if gets else 0.0,
        "ratiolimit.entry_ms": entries_s * 1e3 / n_entries if n_entries else 0.0,
        "ratiolimit.radical_s": outer("ratiolimit.detect_radical")[1],
        "ratiolimit.metric_s": outer("ratiolimit.ratio_metric")[1],
        "ratiolimit.boundary_s": outer("ratiolimit.boundary_trace")[1],
        "fock.window_s": outer("fock.FockWindow.__init__")[1],
        "fock.basis_size": notes.get("fock.basis_size", 0),
        "fock.select_calls": n_select,
        "fock.select_s": select_s,
        "fock.quotient_norm_s": outer("fock.quotient_norm_estimate")[1],
        "fock.covariance_s": outer("fock.covariance_check")[1],
        "reports.write_s": outer_layer("reports"),
        "reports.bytes_written": notes.get("reports.bytes_written", 0),
        "trace.span_count": len(spans),
    }
    for check in DEFECT_CHECKS:
        m[f"fock.defect_s.{check}"] = outer(f"fock.{check}")[1]
    for job in JOBS:
        m[f"cli.job_s.{job}"] = outer(f"cli.cmd_{job}")[1]
    for layer in SELF_LAYERS:
        m[f"self_s.{layer}"] = self_ns.get(layer, 0) / 1e9
    return m
