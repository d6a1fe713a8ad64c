"""In-memory call tracing for the traced run.

`Tracer.wrap(module, name)` replaces a module-level attribute with a wrapper
that counts calls, exceptions by type and busy time, then `restore` puts the
original back.  Because the package's modules call each other through their
module globals (`from .core import halley_step`), wrapping the importing
module's attribute captures exactly the calls that cross that boundary;
nothing under src/ is edited.  A name that no longer exists is recorded in
`absent` and its statistics read zero.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from time import perf_counter


class CallStats:
    __slots__ = ("calls", "busy_s", "raised")

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.raised = Counter()


class Tracer:
    """`gauge` (a harness.SpeedGauge) restates busy time at the reference
    speed, like every other duration the benchmark reports."""

    def __init__(self, gauge):
        self.gauge = gauge
        self.stats: dict[str, CallStats] = {}
        self.absent: list[str] = []
        self._saved = []

    def wrap(self, module: str, name: str) -> CallStats:
        key = f"{module.removeprefix('wtan.')}.{name}"
        st = self.stats.setdefault(key, CallStats())
        mod = importlib.import_module(module)
        orig = getattr(mod, name, None)
        if orig is None:
            self.absent.append(key)
            return st

        gauge = self.gauge

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            st.calls += 1
            t0 = perf_counter()
            try:
                return orig(*args, **kwargs)
            except Exception as exc:
                st.raised[type(exc).__name__] += 1
                raise
            finally:
                st.busy_s += (perf_counter() - t0) * gauge.scale

        setattr(mod, name, wrapper)
        self._saved.append((mod, name, orig))
        return st

    def restore(self) -> None:
        for mod, name, orig in reversed(self._saved):
            setattr(mod, name, orig)
        self._saved.clear()
