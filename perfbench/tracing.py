"""Spans and counts recorded around calls into the ssgpfa modules.

The library itself is not changed. ``Tracer.install`` replaces each
traced function in every ssgpfa namespace that holds it, because a
caller looks a function up in its own module: ``model.py`` does
``from .kalman import predict, update, ...``, so ``ssgpfa.model.update``
is patched as well as ``ssgpfa.kalman.update``. ``uninstall`` puts the
originals back.

A call that returns a generator (``robust_filter``, ``score_online``,
``iter_csv_rows``) is timed over its iteration: every resume of the
generator is a span of its own, because the consumer's code runs between
two resumes and must not be charged to the generator.

Spans are kept in memory as ``(id, parent, name, kind, start_ns, end_ns)``
and summarised or written out after the timed region. Self time is a
span's duration minus the durations of its child spans; children run
strictly inside their parent and one after another, so that sum is the
time they cover.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import types
from collections import Counter, defaultdict
from time import perf_counter_ns

CALL = 0
RESUME = 1

# Public functions timed in each module, by the module's short name.
TRACED = {
    "kernels": ("discretize", "parse_kernel"),
    "kalman": ("predict", "update", "observation_log_likelihood", "robust_filter",
               "rts_smooth"),
    "model": ("train_series", "fit_em", "e_step", "m_step", "fit_univariate",
              "score_online", "save_model", "load_model"),
    "explain": ("scalar_nll", "reconstruction_error", "project_latents"),
    "metrics": ("best_f1_sweep", "standardize"),
    "data": ("gen_univariate", "gen_multivariate", "iter_csv_rows", "load_csv",
             "write_csv"),
    "cli": ("main",),
}

# The transition cache is reached through a method, not a module name.
CACHE_GET = "kalman.transition_cache.get"


@contextlib.contextmanager
def span(tracer, name: str):
    """A span opened by the benchmark itself; nothing when ``tracer`` is None."""
    if tracer is None:
        yield
        return
    tracer.open(name)
    try:
        yield
    finally:
        tracer.close()


class Tracer:
    """In-memory span recorder that patches the traced functions."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.items: Counter = Counter()
        self._stack: list[tuple] = []
        self._next_id = 1
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str, kind: int = CALL) -> None:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        self._stack.append((sid, parent, name, kind, perf_counter_ns()))

    def close(self) -> None:
        sid, parent, name, kind, start = self._stack.pop()
        self.spans.append((sid, parent, name, kind, start, perf_counter_ns()))

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if isinstance(result, types.GeneratorType):
                return tracer._iterate(result, name)
            return result

        return traced

    def _iterate(self, gen, name: str):
        try:
            while True:
                self.open(name, RESUME)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.close()
                self.items[name] += 1
                yield item
        finally:
            gen.close()

    # -- patching ----------------------------------------------------------

    def install(self, package) -> None:
        """Patch every traced function wherever an ssgpfa module holds it."""
        import importlib

        modules = {short: importlib.import_module(f"{package.__name__}.{short}")
                   for short in TRACED}
        wrappers = {}
        for short, names in TRACED.items():
            for attr in names:
                fn = getattr(modules[short], attr)
                wrappers[id(fn)] = (fn, self._wrap(fn, f"{short}.{attr}"))
        for module in (package, *modules.values()):
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))
        cache_cls = modules["kalman"].TransitionCache
        original = cache_cls.get
        cache_cls.get = self._wrap(original, CACHE_GET)
        self._patched.append((cache_cls, "get", original))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    # -- output ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, resumes, yielded items and self time, plus the
        ancestor-based counts the per-layer metrics need."""
        child_ns = defaultdict(int)
        for sid, parent, _name, _kind, start, end in self.spans:
            child_ns[parent] += end - start
        per_name = {}
        for sid, _parent, name, kind, start, end in self.spans:
            entry = per_name.setdefault(name, {"calls": 0, "resumes": 0, "self_ns": 0})
            entry["calls" if kind == CALL else "resumes"] += 1
            entry["self_ns"] += (end - start) - child_ns[sid]
        for name, n in self.items.items():
            per_name[name]["items"] = n

        name_of = {sid: name for sid, _p, name, _k, _s, _e in self.spans}
        parent_of = {sid: parent for sid, parent, _n, _k, _s, _e in self.spans}

        def under(sid, ancestor):
            sid = parent_of[sid]
            while sid:
                if name_of[sid] == ancestor:
                    return True
                sid = parent_of[sid]
            return False

        calls = [s for s in self.spans if s[3] == CALL]
        misses = {parent for sid, parent, name, *_ in calls
                  if name == "kernels.discretize" and name_of.get(parent) == CACHE_GET}
        derived = {
            "updates_in_scoring": sum(1 for s in calls if s[2] == "kalman.update"
                                      and under(s[0], "model.score_online")),
            "e_steps_in_fit_em": sum(1 for s in calls if s[2] == "model.e_step"
                                     and under(s[0], "model.fit_em")),
            "cache_misses": len(misses),
        }
        return {"per_name": per_name, "derived": derived}

    def write_spans(self, path) -> None:
        """Write every span as gzipped CSV, in the order they closed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,parent,name,kind,start_ns,end_ns\n")
            for sid, parent, name, kind, start, end in self.spans:
                fh.write(f"{sid},{parent},{name},{'call' if kind == CALL else 'resume'},"
                         f"{start},{end}\n")
