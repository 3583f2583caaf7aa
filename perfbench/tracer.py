"""Per-layer spans recorded from outside the library.

:class:`Tracer` wraps public functions of the ``fpaccel`` modules and
rebinds every module-level name that refers to them, including the names
``cli``, ``transforms``, ``kernel`` and the package itself imported, so
calls made inside the library are seen as well.  Nothing in the library is
edited; :meth:`Tracer.remove` puts the original objects back.

A span's self time is its duration minus the time of the spans it
encloses.  The step function handed to ``iterate`` gets a span of its own
(``engine.step``), so ``engine.iterate`` self time is iterate time minus
step time.  Spans read the wall clock, which costs a third of a read of
the thread CPU clock; ``maps.at`` itself takes about a microsecond.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter_ns

# span name -> (module, attribute) of the wrapped public function
LAYERS = {
    "accelerators.standard_step": ("fpaccel.accelerators", "standard_step"),
    "accelerators.first_newton_step": ("fpaccel.accelerators", "first_newton_step"),
    "accelerators.integral_step": ("fpaccel.accelerators", "integral_step"),
    "accelerators.adaptive_simpson": ("fpaccel.accelerators", "adaptive_simpson"),
    "transforms.aitken_delta2": ("fpaccel.transforms", "aitken_delta2"),
    "transforms.iterated_aitken": ("fpaccel.transforms", "iterated_aitken"),
    "transforms.theta2": ("fpaccel.transforms", "theta2"),
    "cli.run_experiment": ("fpaccel.cli", "run_experiment"),
    "cli.render": ("fpaccel.cli", "render"),
    "kernel.affinity_test": ("fpaccel.kernel", "affinity_test"),
    "kernel.kernel_family_fit": ("fpaccel.kernel", "kernel_family_fit"),
}
# span name -> method of fpaccel.maps.IterationMap (jets run inside these)
MAP_METHODS = {"maps.at": "at", "maps.value": "value"}


class Tracer:
    """Call counts and self times (ns) per span name."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self._open: list = []  # enclosed-span time of each open span
        self._undo: list = []  # (owner, attribute, original)

    def reset(self) -> None:
        self.calls.clear()
        self.self_ns.clear()

    def span(self, name: str, fn):
        calls, self_ns, stack = self.calls, self.self_ns, self._open

        def traced(*args, **kwargs):
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                self_ns[name] += dt - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += dt

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "fpaccel" or n.startswith("fpaccel.")]
        for name, (mod_name, attr) in LAYERS.items():
            original = getattr(sys.modules[mod_name], attr)
            self._rebind(modules, original, self.span(name, original))
        engine = sys.modules["fpaccel.engine"]
        iterate = engine.iterate

        def iterate_with_step_span(step, *args, **kwargs):
            return iterate(self.span("engine.step", step), *args, **kwargs)

        self._rebind(modules, iterate, self.span("engine.iterate", iterate_with_step_span))
        owner = sys.modules["fpaccel.maps"].IterationMap
        for name, attr in MAP_METHODS.items():
            original = owner.__dict__[attr]
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self.span(name, original))

    def _rebind(self, modules, original, wrapped) -> None:
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
