"""Span tracer that wraps ehrgen's public functions from outside the package.

Each wrapped call records a span: name, start, end and the index of the
span that was open when it started. Spans stay in memory; the caller writes
them out when the run ends. A span's self time is its duration minus the
durations of its direct children, which never overlap because the pipeline
runs on one thread.

A function is patched in every loaded ``ehrgen`` module that binds it, so a
call made through ``from .decoder import ll_and_grads`` inside ``trainer``
is traced as well as one made through ``decoder.ll_and_grads``. A target
that no longer exists is reported as absent instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time

PACKAGE = "ehrgen"


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans = []  # [name, start_ns, end_ns, parent_index]; -1 = root
        self.phase_name = None
        self.absent = []
        self._stack = []
        self._patches = []  # (owner, attribute, original value)

    # -- spans --------------------------------------------------------------

    def _enter(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(index)
        return index

    def _exit(self, index):
        self.spans[index][2] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        index = self._enter(name)
        try:
            yield
        finally:
            self._exit(index)

    @contextlib.contextmanager
    def phase(self, name):
        """Root span ``phase.<name>``; hooks read ``phase_name`` inside it."""
        if self._stack:
            raise RuntimeError("a phase must be a root span")
        self.phase_name = name
        try:
            with self.span(f"phase.{name}"):
                yield
        finally:
            self.phase_name = None

    def wrap(self, name, fn, hook=None):
        """Traced version of ``fn``. ``hook(arguments, result)`` runs after
        the span closes, with the call's arguments bound by name."""
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if hook is not None:
                hook(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    # -- patching -----------------------------------------------------------

    def install(self, targets, hooks=None):
        """Patch each ``module.function`` or ``module.Class.method`` target."""
        hooks = hooks or {}
        for target in targets:
            if not self._install_one(target, hooks.get(target)):
                self.absent.append(target)

    def _install_one(self, target, hook):
        module_name, *path = target.split(".")
        try:
            owner = importlib.import_module(f"{PACKAGE}.{module_name}")
        except ModuleNotFoundError:
            return False
        for attr in path[:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return False
        attr = path[-1]
        if inspect.isclass(owner):
            raw = owner.__dict__.get(attr)
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(self.wrap(target, raw.__func__, hook))
            elif inspect.isfunction(raw):
                patched = self.wrap(target, raw, hook)
            else:
                return False
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, patched)
            return True
        original = getattr(owner, attr, None)
        if not callable(original):
            return False
        patched = self.wrap(target, original, hook)
        for module in _package_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, name, value))
                    setattr(module, name, patched)
        return True

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis -----------------------------------------------------------

    def self_times(self):
        """Per-span self time in clock units: duration minus children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self, by_phase=False):
        """{name: {"calls", "self", "total"}} over every closed span; with
        ``by_phase``, one such table per root span."""
        out = {}
        for (name, start, end, _), own, root in zip(
                self.spans, self.self_times(), self._roots()):
            rows = out.setdefault(self.spans[root][0], {}) if by_phase else out
            row = rows.setdefault(name, {"calls": 0, "self": 0, "total": 0})
            row["calls"] += 1
            row["self"] += own
            row["total"] += end - start
        return out

    def phase_balance(self):
        """Per root-span name: (summed duration, sum of self times in those
        trees). The two agree exactly when every child lies inside its
        parent."""
        balance = {}
        for (name, start, end, parent), own, root in zip(
                self.spans, self.self_times(), self._roots()):
            if parent < 0:
                balance.setdefault(name, [0, 0])[0] += end - start
            balance[self.spans[root][0]][1] += own
        return {name: tuple(pair) for name, pair in balance.items()}

    def _roots(self):
        """Index of the root span above each span (parents come first)."""
        roots = []
        for i, (_, _, _, parent) in enumerate(self.spans):
            roots.append(i if parent < 0 else roots[parent])
        return roots

    def nesting_errors(self):
        """Spans that start before or end after their parent."""
        bad = 0
        for _, start, end, parent in self.spans:
            if parent >= 0:
                _, p_start, p_end, _ = self.spans[parent]
                bad += start < p_start or end > p_end
        return bad


def _package_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))]
