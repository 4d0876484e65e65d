"""Span tracing of the netequil layers, installed from outside the package.

`Tracer` replaces the public entry points of each layer with wrappers that
time every call.  A span's parent is the innermost traced call still open
when it starts, and its self time is its duration minus the durations of
its direct children.  Spans are aggregated on the fly by (name, parent), so
memory stays flat however many resolvent calls a run makes.  Uninstalling
restores the original attributes; timed runs never install it.
"""

import contextlib
import time

import netequil.fileio as fileio
import netequil.network as network
import netequil.operators as operators
import netequil.oracle as oracle
import netequil.solver as solver

_clock = time.perf_counter
ANY = object()  # matches every parent in the queries below


class Stat:
    __slots__ = ("count", "total", "self")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    def __init__(self, observers=None):
        """`observers` maps a span name to fn(tracer, args, result), called after the span."""
        self.stats = {}  # (name, parent name or None) -> Stat
        self._stack = []  # [name, start, child time] per open span
        self._saved = []
        self._observers = observers or {}

    # ----- spans -----------------------------------------------------------

    def _enter(self, name):
        self._stack.append([name, _clock(), 0.0])

    def _exit(self):
        end = _clock()
        name, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][2] += duration
        stat = self.stats.get((name, parent))
        if stat is None:
            stat = self.stats[(name, parent)] = Stat()
        stat.count += 1
        stat.total += duration
        stat.self += duration - child

    @contextlib.contextmanager
    def span(self, name):
        """A span around code of the benchmark's own, such as one CLI command."""
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def parent(self):
        return self._stack[-1][0] if self._stack else None

    # ----- wrapping --------------------------------------------------------

    def _wrap(self, fn, name):
        enter, exit_ = self._enter, self._exit
        observe = self._observers.get(name)

        def traced(*args, **kwargs):
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def patch(self, owner, attr, name):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name))

    def install(self):
        self.patch(solver, "run", "solver.run")
        self.patch(solver, "step", "solver.step")
        self.patch(solver, "residual", "solver.residual")
        self.patch(operators.SeparableLift, "resolvent", "operators.lift")
        self.patch(operators, "lambert_w_exp", "lambertw.w_exp")
        self.patch(network.Network, "divergence", "network.divergence")
        self.patch(network.Network, "tension", "network.tension")
        self.patch(oracle, "wardrop_residual", "oracle.wardrop")
        for fn in ("parse_problem", "parse_solution", "serialize_solution", "write_trace"):
            self.patch(fileio, fn, f"fileio.{fn}")
        # the scheduler object is made per run; wrap its select on creation
        make = solver.make_scheduler
        self._saved.append((solver, "make_scheduler", make))

        def traced_make(*args, **kwargs):
            sched = make(*args, **kwargs)
            sched.select = self._wrap(sched.select, "solver.select")
            return sched

        solver.make_scheduler = traced_make
        return self

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # ----- queries ---------------------------------------------------------

    def calls(self, name, parent=ANY):
        return sum(s.count for (n, p), s in self.stats.items() if n == name and parent in (ANY, p))

    def total(self, name, parent=ANY):
        return sum(s.total for (n, p), s in self.stats.items() if n == name and parent in (ANY, p))

    def self_time(self, name, parent=ANY):
        return sum(s.self for (n, p), s in self.stats.items() if n == name and parent in (ANY, p))

    def rows(self):
        """[name, parent, calls, total s, self s] per span kind, by self time."""
        rows = [[n, p, s.count, s.total, s.self] for (n, p), s in self.stats.items()]
        return sorted(rows, key=lambda row: -row[4])
