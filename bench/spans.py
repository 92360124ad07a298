"""Span tracing of risthp's public functions, installed from outside the library.

Each traced function is replaced at its module attribute (and at every other
risthp module attribute that aliases it, such as ``sim.draw_realization``)
by a wrapper that records a span: id, parent span id, figure-trial index,
name, start and end.  Spans stay in memory until ``write_spans``.  The self
time of a function is its span's duration minus the durations of the traced
calls nested directly inside it.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

from risthp import alloc, baseline, channel, gram, phase_opt, sim, thp

MODULES = {"channel": channel, "gram": gram, "phase_opt": phase_opt, "thp": thp,
           "alloc": alloc, "baseline": baseline, "sim": sim}

TRACED = (
    "channel.draw_realization", "channel.laplacian_covariance", "channel.psd_factor",
    "gram.decompose", "gram.dpc_sum_se",
    "phase_opt.zero_eig_direction", "phase_opt.align_phases",
    "phase_opt.heuristic_phases", "phase_opt.refine_elementwise",
    "thp.order_users", "thp.lq_decompose", "thp.wrapped_noise_entropy",
    "alloc.greedy_allocate", "alloc.optimize_phases", "alloc.evaluate_allocation",
    "baseline.greedy_allocate_linear", "baseline.evaluate_allocation_linear",
    "baseline.zf_linear",
    "sim.run",
)

# Outcome counters: name -> (traced function, exception counted, or None to
# count results whose ``feasible`` is false).
OUTCOMES = {
    "phase_opt.zero_eig_direction.not_applicable":
        ("phase_opt.zero_eig_direction", phase_opt.NotApplicableError),
    "thp.order_users.rank_deficient": ("thp.order_users", thp.RankDeficientError),
    "alloc.evaluate_allocation.infeasible": ("alloc.evaluate_allocation", None),
    "baseline.zf_linear.infeasible": ("baseline.zf_linear", None),
}


class Tracer:
    """Installs the wrappers, keeps spans, calls, self times and outcome counts."""

    def __init__(self):
        self.spans = []
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter({name: 0 for name in OUTCOMES})
        self.missing = []  # traced names the library no longer defines
        self.trial = -1
        self._stack = []  # [span id, time covered by child spans]
        self._next_id = 0
        self._patches = []

    def _wrap(self, name, fn, counter, raised):
        stack, spans = self._stack, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if raised is not None and isinstance(exc, raised):
                    self.counts[counter] += 1
                raise
            else:
                if counter is not None and raised is None and not result.feasible:
                    self.counts[counter] += 1
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                spans.append((span_id, parent, self.trial, name, start, end))

        return traced

    def install(self):
        for name in TRACED:
            mod_name, attr = name.split(".")
            original = getattr(MODULES[mod_name], attr, None)
            if original is None:
                self.missing.append(name)
                continue
            counter, raised = next(((c, e) for c, (f, e) in OUTCOMES.items()
                                    if f == name), (None, None))
            wrapper = self._wrap(name, original, counter, raised)
            for module in MODULES.values():
                if getattr(module, attr, None) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def write_spans(self, path):
        """One JSON array per line: [id, parent id or -1, figure-trial, name, start, end]."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
