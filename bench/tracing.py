"""Per-layer tracing for the attractorlab benchmark, done from outside ``src/``.

``Tracer`` rebinds the public functions of each layer to timing wrappers and
restores the originals on exit.  The modules bind names with ``from .x import
y``, so each name is wrapped in the module that calls it; ``flow`` and
``flow_samples`` reach ``evolve_states`` through the globals of ``dynamics``,
so one wrapper there sees every RK4 integration.

Spans nest on one stack.  A span's self time is its duration minus the
durations of the wrapped spans it called, so the self times of one traced
``run_experiment`` call sum to that call's duration.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections import Counter, defaultdict

import numpy as np

from attractorlab import attracting, covering, criteria, dynamics, experiments, phase

# (owner, attribute, span name): every place the benchmark wraps.
TRACE_POINTS = (
    (dynamics, "evolve_states", "dynamics.evolve"),
    (dynamics, "modal_evolve_states", "dynamics.modal"),
    (phase.Ensemble, "from_matrix", "phase.from_matrix"),
    (covering, "alpha_proxy", "covering.alpha_proxy"),
    (criteria, "alpha_proxy", "covering.alpha_proxy"),
    (covering, "semidist_arrays", "covering.semidist"),
    (attracting, "semidist_arrays", "covering.semidist"),
    (criteria, "semidist_arrays", "covering.semidist"),
    (attracting, "build_net", "attracting.build_net"),
    (experiments, "build_attracting_set", "attracting.build_set"),
    (experiments, "verify_attraction", "attracting.verify"),
    (experiments, "save_attracting_set", "attracting.save"),
    (experiments, "check_hausdorff_criterion", "criteria.hausdorff"),
    (experiments, "tail_projection_decay", "criteria.tail"),
    (experiments, "contractive_inequality_check", "criteria.contractive"),
    (experiments, "fit_envelope_law", "criteria.fit"),
    (experiments, "fit_exponential_rate", "criteria.fit"),
    (criteria, "fit_exponential_rate", "criteria.fit"),
    (experiments, "run_experiment", "experiments"),
)


def installed_wrappers() -> list:
    """The trace points currently bound to a tracing wrapper."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _span in TRACE_POINTS
        if hasattr(getattr(owner, attr), "__traced_span__")
    ]


def _dir_bytes(path) -> int:
    """Total size of the files under a directory."""
    total = 0
    for root, _dirs, names in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, n)) for n in names)
    return total


class Tracer:
    """Self time and call count per span name, plus work counters.

    Counters: ``rk4_steps`` and ``state_steps`` (per ``evolve_states`` call,
    steps = round(max(times) / dt) and state-steps = steps x batch rows),
    ``from_matrix_rows`` and ``bytes_written`` by ``save_attracting_set``.
    ``horizons`` maps each distinct start array to the longest horizon, in
    steps, requested from it, for the replay ratio.
    """

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.horizons = {}
        self._stack = []
        self._saved = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, span, fn, before=None, after=None):
        """``fn`` timed as ``span``; the hooks count work outside the span."""
        stack = self._stack

        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self.self_s[span] += duration - stack.pop()
                self.calls[span] += 1
                if stack:
                    stack[-1] += duration
            if after is not None:
                after(*args, **kwargs)
            return result

        traced.__traced_span__ = span
        traced.__wrapped__ = fn
        return traced

    def _count_evolve(self, y0, cfg, times):
        y0 = np.asarray(y0, dtype=float)
        steps = int(round(float(np.max(times)) / cfg.dt))
        rows = int(np.prod(y0.shape[:-1]))
        self.counts["rk4_steps"] += steps
        self.counts["state_steps"] += steps * rows
        key = (y0.shape, hashlib.sha1(np.ascontiguousarray(y0).tobytes()).digest())
        self.horizons[key] = max(self.horizons.get(key, 0), steps)

    def _count_rows(self, rows, label=""):
        self.counts["from_matrix_rows"] += int(np.atleast_2d(np.asarray(rows)).shape[0])

    def _count_saved(self, aset, directory, extra=None):
        self.counts["bytes_written"] += _dir_bytes(directory)

    def __enter__(self):
        if installed_wrappers():
            raise RuntimeError("a tracer is already installed")
        before = {"dynamics.evolve": self._count_evolve, "phase.from_matrix": self._count_rows}
        after = {"attracting.save": self._count_saved}
        for owner, attr, span in TRACE_POINTS:
            original = owner.__dict__[attr]
            # a classmethod is wrapped bound to its class and stored as static
            fn = getattr(owner, attr) if isinstance(original, classmethod) else original
            wrapper = self._wrap(span, fn, before.get(span), after.get(span))
            if isinstance(original, classmethod):
                wrapper = staticmethod(wrapper)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    # -- results -------------------------------------------------------------

    def replay_ratio(self) -> float:
        """RK4 steps over the sum of the longest horizon per distinct start;
        1.0 means no start is integrated twice, 0.0 that nothing was."""
        needed = sum(self.horizons.values())
        return self.counts["rk4_steps"] / needed if needed else 0.0
