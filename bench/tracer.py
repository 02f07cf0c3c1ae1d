"""Outside-in tracing of the bandalloc package.

``Tracer.install`` replaces each public function at the module binding that
actually calls it (``bandalloc.engine.invert_derivative`` and
``bandalloc.oracle.invert_derivative`` are separate bindings of one
function) with a timing wrapper, and ``uninstall`` puts the originals back.

Ordinary calls become spans ``(id, call, name, start, end, parent, self)``
held in memory, where ``call`` numbers the CLI invocation the span belongs
to. Per-device hot calls (the utility math) are aggregated into a count and
a summed time per binding instead. A span's self time is its duration minus
the durations of its direct children, hot ones included, so the self times
of a CLI call's spans plus its hot time sum to the root span's duration.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute, span name). Spans are named after the layer that owns
# the function, whichever module's binding is wrapped.
SPANS = [
    ("bandalloc.cli", "main", "cli.main"),
    ("bandalloc.cli", "parse_scenario", "scenario.parse_scenario"),
    ("bandalloc.cli", "admit", "admission.admit"),
    ("bandalloc.engine", "admit", "admission.admit"),
    ("bandalloc.topology", "build", "topology.build"),
    ("bandalloc.engine", "build_topology", "topology.build"),
    ("bandalloc.engine", "run", "engine.run"),
    ("bandalloc.engine", "init", "engine.init"),
    ("bandalloc.engine", "step", "engine.step"),
    ("bandalloc.engine", "consensus_residual", "engine.consensus_residual"),
    ("bandalloc.engine", "constraint_residual", "engine.constraint_residual"),
    ("bandalloc.oracle", "solve", "oracle.solve"),
]

# Called once per device per round or bisection step: counted, not spanned.
HOT = [
    ("bandalloc.engine", "invert_derivative", "utility.invert_derivative.engine"),
    ("bandalloc.oracle", "invert_derivative", "utility.invert_derivative.oracle"),
    ("bandalloc.engine", "derivative", "utility.derivative.engine"),
    ("bandalloc.oracle", "derivative", "utility.derivative.oracle"),
    ("bandalloc.oracle", "evaluate", "utility.evaluate.oracle"),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.hot_count: dict[str, int] = defaultdict(int)
        self.hot_time: dict[str, float] = defaultdict(float)
        # counters observed at layer boundaries
        self.counts: dict[str, float] = defaultdict(float)
        self.call = 0
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 0
        self._oracle_inverse_seen = 0
        self._saved: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn, observe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                spans.append(
                    (sid, self.call, name, start, end,
                     -1 if parent is None else parent[0], dur - frame[1])
                )
                if observe is not None:
                    observe(args, result, exc)

        return wrapper

    def _hot(self, name: str, fn):
        stack, clock = self._stack, time.perf_counter
        count, total = self.hot_count, self.hot_time

        def wrapper(*args):
            start = clock()
            try:
                return fn(*args)
            finally:
                dur = clock() - start
                count[name] += 1
                total[name] += dur
                if stack:
                    stack[-1][1] += dur

        return wrapper

    # -- boundary counters --------------------------------------------------

    def _observe_run(self, args, result, exc):
        c = self.counts
        if exc is not None:
            if type(exc).__name__ == "NumericalError":
                c["engine.stop.numerical"] += 1
            return
        c["engine.trace_rows"] += len(result.trace)
        if result.converged:
            c["engine.stop.converged"] += 1
        elif result.diagnostics.diverged:
            c["engine.stop.diverged"] += 1
        else:
            c["engine.stop.cap"] += 1

    def _observe_step(self, args, result, exc):
        scenario = args[1]
        self.counts["engine.device_rounds"] += scenario.n
        self.counts["gossip.messages"] += 2 * len(scenario.edges)

    def _observe_solve(self, args, result, exc):
        # Oracle inverse calls since the previous solve, per device.
        done = self.hot_count["utility.invert_derivative.oracle"]
        self.counts["oracle.alloc_sum_evals"] += (done - self._oracle_inverse_seen) / args[0].n
        self._oracle_inverse_seen = done

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        observers = {
            "engine.run": self._observe_run,
            "engine.step": self._observe_step,
            "oracle.solve": self._observe_solve,
        }
        for module, attr, name in SPANS:
            mod = sys.modules[module]
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._span(name, fn, observers.get(name)))
        for module, attr, name in HOT:
            mod = sys.modules[module]
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._hot(name, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    # -- results ------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for _, _, name, start, end, _, self_s in self.spans:
            t = out[name]
            t["calls"] += 1
            t["s"] += end - start
            t["self_s"] += self_s
        return out

    def self_time_error(self) -> float:
        """|sum of self and hot times - sum of root span durations|, relative."""
        roots = sum(end - start for _, _, _, start, end, parent, _ in self.spans if parent == -1)
        selfs = sum(s[6] for s in self.spans) + sum(self.hot_time.values())
        return abs(selfs - roots) / roots if roots else 0.0

    def write(self, path) -> None:
        """Spans as CSV, in start order; hot aggregates are in ``hot_count``/``hot_time``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,call,name,start,end,parent,self\n")
            for sid, call, name, start, end, parent, self_s in sorted(self.spans):
                fh.write(f"{sid},{call},{name},{start!r},{end!r},{parent},{self_s!r}\n")
