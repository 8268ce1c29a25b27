"""Floor timing of one workload operation, for the end-to-end solve_s.

The measuring machine's core is shared: several times a second it switches
between a fast speed and one about half as fast, and most of the time it is
slow. The wall time of a whole operation therefore varies by tens of percent
with the share of slow periods it happened to get, and that share drifts
over minutes. The fastest time of a short stretch of work, taken over many
occurrences, drifts much less: it is close to the time the stretch takes
when the core is not shared.

So the untraced run marks the entry and exit of the program's loop-level and
step-level functions (a timestamp each, nothing else). The marks cut every
operation into intervals. An interval's kind is the stack of open marked
functions plus the marks at its two ends: the kinetic steps of a sweep are
one kind, and so is the work between the end of one step and the next. The
floor of a kind is its fastest interval over every repeat of the run. An
operation's floor time is the sum of the floors of its intervals: the time
the operation takes when each stretch of it runs at the fast speed.

A name that no longer exists after a refactor is not marked; the operation
is then cut more coarsely, and its floor is less steady, but still a sum of
measured intervals.
"""
import time
from array import array
from collections import Counter
from contextlib import contextmanager

from spans import lookup, patched

# marked as "module.attribute" under kinfluid: the name each caller looks up
MARKS = (
    "harness.run_convergence", "harness.run_limit", "harness.run_coupled",
    "cli.run_coupled", "cli.main_simulate_kinetic", "cli.main_check_entropy",
    "limit.picard_solve",
    "harness.kinetic_step", "harness.ns_step", "harness.compute_moments",
    "harness.evaluate_entropy_report", "harness.csiszar_kullback_margin",
    "harness.entropy_inequality_audit", "harness.make_well_prepared",
    "harness._two_phase_substeps", "harness.emit_csv", "harness.load_state",
    "harness.reaudit_run", "cli.save_run_series", "cli.reaudit_run",
    "limit.picard_iterate", "limit.two_phase_step", "limit.tridiag_dirichlet_solve",
)


class FloorClock:
    """Records the marks of each operation while installed. The marks of
    one operation are held in two flat arrays and reduced when it ends, so
    the clock's memory does not grow with the number of repeats."""

    def __init__(self):
        self.op_kinds = []  # per operation: Counter of its interval kinds
        self.floors = {}  # interval kind -> fastest seconds seen
        self.missing_names = []
        self._times = array("d")
        self._codes = array("i")  # +k enters MARKS[k - 1], -k exits it, 0 ends the operation

    def _wrap(self, code, fn):
        clock, times, codes = time.perf_counter, self._times, self._codes

        def marked(*args, **kwargs):
            times.append(clock())
            codes.append(code)
            try:
                return fn(*args, **kwargs)
            finally:
                times.append(clock())
                codes.append(-code)

        return marked

    @contextmanager
    def installed(self):
        """Mark every name that exists; restore them on exit."""
        replacements = []
        self.missing_names = []
        for code, dotted in enumerate(MARKS, start=1):
            module, attr, fn = lookup(dotted)
            if fn is None:
                self.missing_names.append(dotted)
                continue
            replacements.append((module, attr, self._wrap(code, fn)))
        with patched(replacements):
            yield self

    @contextmanager
    def operation(self):
        """Delimit one operation and fold its intervals into the floors."""
        del self._times[:], self._codes[:]
        self._times.append(time.perf_counter())
        self._codes.append(0)
        try:
            yield
        finally:
            self._times.append(time.perf_counter())
            self._codes.append(0)
            kinds = Counter()
            floors = self.floors
            for kind, dt in _intervals(self._times, self._codes):
                kinds[kind] += 1
                if dt < floors.get(kind, float("inf")):
                    floors[kind] = dt
            self.op_kinds.append(kinds)
            del self._times[:], self._codes[:]

    @contextmanager
    def measuring(self):
        """Mark one operation."""
        with self.installed(), self.operation():
            yield

    def floor_seconds(self) -> list:
        """The floor time of each recorded operation."""
        return [sum(n * self.floors[kind] for kind, n in kinds.items()) for kinds in self.op_kinds]


def _intervals(times, codes):
    """(kind, seconds) of each interval between consecutive marks. A kind is
    the stack of open marked functions plus the marks at the two ends."""
    names = [dotted.rsplit(".", 1)[1] for dotted in MARKS]
    stack = []
    prev_label = "start"
    for i in range(1, len(times)):
        code = codes[i]
        label = f"+{names[code - 1]}" if code > 0 else f"-{names[-code - 1]}" if code < 0 else "end"
        yield (tuple(stack), prev_label, label), times[i] - times[i - 1]
        if code > 0:
            stack.append(names[code - 1])
        elif code < 0:
            stack.pop()
        prev_label = label
