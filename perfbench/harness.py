"""Workload-independent machinery: loading the package from source, the cold
cache reset, span tracing, the set-up / timed-phase split, and the machine
speed measured between ops.

A workload is an object with `name`, `nominal_op_s`, `levels` (graphs to
build during set-up), `matrices` (levels whose reduced Laplacians set-up
builds), `run(pkg, ctx, tracer, seed)` (one op; returns its outputs) and
`check(ctx, outputs)` (returns a list of failure messages; empty when the
op's outputs are correct).
"""

from __future__ import annotations

import gc
import importlib
import random
import resource
import statistics
import sys
import time
import types
from collections import deque
from contextlib import contextmanager
from pathlib import Path

MODULES = ("gasket", "sandpile", "selfsim", "group", "spectral", "markov", "render", "cli")

# The graph intern cache stays warm: configurations compare graphs by
# identity, so clearing it would break the program rather than cool it.
WARM_CACHES = {("gasketpile.gasket", "_build_gasket")}

SETUP_REPEATS = 3

# Median time of `reference_time` on the machine the benchmark was defined
# on, and how far from an op the reference timings that scale it may lie.
REFERENCE_NOMINAL_S = 0.012
SPEED_WINDOW_S = 0.5
# After each set-up or op the reference runs until its time adds up to this
# share of the interval, so long ops get as many speed samples as short ones.
REFERENCE_SHARE = 0.05


# ---------------------------------------------------------------------------
# Package loading and the cold-cache reset.
# ---------------------------------------------------------------------------


def unload_package() -> None:
    """Forget any earlier import of gasketpile, so the next one is fresh."""
    for name in [m for m in sys.modules if m == "gasketpile" or m.startswith("gasketpile.")]:
        del sys.modules[name]
    gc.collect()


def load_package(src: Path) -> types.SimpleNamespace:
    """Import gasketpile from `src` and return its modules by layer name."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("gasketpile")
    origin = Path(pkg.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise RuntimeError(f"gasketpile was imported from {origin}, not from {src}")
    ns = types.SimpleNamespace(gp=pkg)
    for mod in MODULES:
        setattr(ns, mod, importlib.import_module(f"gasketpile.{mod}"))
    return ns


def package_caches(pkg: types.SimpleNamespace) -> list:
    """Every functools cache on a module-level function of the package,
    found by scanning, so caches added later are cleared too."""
    found = []
    for mod_name, mod in sorted(sys.modules.items()):
        if not (mod_name == "gasketpile" or mod_name.startswith("gasketpile.")):
            continue
        for attr, obj in vars(mod).items():
            if not hasattr(obj, "cache_clear") or getattr(obj, "__module__", None) != mod_name:
                continue
            if (mod_name, attr) not in WARM_CACHES:
                found.append(obj)
    return found


def clear_caches(caches: list) -> None:
    for cached in caches:
        cached.cache_clear()


# ---------------------------------------------------------------------------
# Tracing.
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory spans (name, start, end, parent index, op id) recorded
    around calls the benchmark makes into each layer, plus per-call samples
    (such as topples per stabilization) keyed by name."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.samples: dict[str, list] = {}
        self._stack: list[int] = []
        self.op = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, parent, self.op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, func, *args, **kwargs):
        with self.span(name):
            return func(*args, **kwargs)

    def sample(self, name: str, value) -> None:
        self.samples.setdefault(name, []).append(value)


class NullTracer:
    """Stands in for the tracer in untraced runs; records nothing."""

    enabled = False
    op = None

    @contextmanager
    def span(self, name: str):
        yield

    def call(self, name: str, func, *args, **kwargs):
        return func(*args, **kwargs)

    def sample(self, name: str, value) -> None:
        pass


def layer_times(spans: list[list]) -> tuple[dict[str, float], dict[str, float]]:
    """Busy and self time per layer (the span name's prefix before the dot).

    Busy time sums spans not nested inside a span of the same layer; self
    time subtracts from each span the time covered by its direct children
    of other layers.  One thread runs everything, so children never overlap.
    """
    layer = [s[0].split(".", 1)[0] for s in spans]
    busy: dict[str, float] = {}
    own = [s[2] - s[1] for s in spans]
    for i, (name, start, end, parent, _) in enumerate(spans):
        ancestor, nested = parent, False
        while ancestor >= 0:
            if layer[ancestor] == layer[i]:
                nested = True
                break
            ancestor = spans[ancestor][3]
        if not nested:
            busy[layer[i]] = busy.get(layer[i], 0.0) + (end - start)
        if parent >= 0 and layer[parent] != layer[i]:
            own[parent] -= end - start
    self_t: dict[str, float] = {}
    for i, t in enumerate(own):
        self_t[layer[i]] = self_t.get(layer[i], 0.0) + t
    return busy, self_t


def span_total(spans: list[list], name: str) -> float:
    return sum(s[2] - s[1] for s in spans if s[0] == name)


def span_durations(spans: list[list], name: str) -> list[float]:
    return [s[2] - s[1] for s in spans if s[0] == name]


# ---------------------------------------------------------------------------
# Set-up and the timed phase.
# ---------------------------------------------------------------------------


def op_seeds(workload: str, seed: int, count: int) -> list[int]:
    """Per-op seeds, derived only from the workload name and seed argument."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    return [rng.getrandbits(63) for _ in range(count)]


def op_count(workload, seconds: float) -> int:
    """Fixed op count for a run: the run length divided by the op time the
    workload had when the benchmark was defined.  A faster program finishes
    the same ops sooner, so wall_s and ops_per_s show the change."""
    return max(1, round(seconds / workload.nominal_op_s))


def tail_index(count: int) -> int:
    """Index into sorted op times of the highest percentile that still has
    at least ten ops beyond it; the maximum when there are ten ops or fewer."""
    return count - 11 if count > 10 else count - 1


# Inputs of the reference computation: a degree-4 circulant graph (a ring
# with chords) and a diagonally dominant integer matrix.
_REF_N = 300
_REF_NEIGHBORS = tuple(
    tuple(sorted({(v + 1) % _REF_N, (v - 1) % _REF_N, (v + 17) % _REF_N, (v - 17) % _REF_N}))
    for v in range(_REF_N)
)
_REF_STEPS = 1200
_REF_MATRIX = [[(i * 7 + j * 13) % 11 - 5 + (40 if i == j else 0) for j in range(40)] for i in range(40)]


def reference_time() -> float:
    """Time of a fixed pure-Python computation that does not use the package
    but works like it: queue-based chip firing (as in the toppling kernel)
    and fraction-free elimination with big integers (as in Bareiss).

    The host's speed drifts by 10-15 % over tens of seconds, and by more
    over single seconds.  Timing this between ops measures the drift, so
    that end-to-end times can be scaled to a fixed machine speed.  It tracks
    the workloads' own speed within about 3 % over 20-second windows."""
    start = time.perf_counter()
    n, neighbors = _REF_N, _REF_NEIGHBORS
    chips, queued, queue = [4] * n, bytearray(n), deque()
    x = 1
    for _ in range(_REF_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        v = x % n
        chips[v] += 1
        if chips[v] < 5:
            continue
        queue.append(v)
        queued[v] = 1
        while queue:
            v = queue.popleft()
            queued[v] = 0
            fires = chips[v] // 5
            chips[v] -= 5 * fires
            for w in neighbors[v]:
                chips[w] += fires
                if chips[w] >= 5 and not queued[w]:
                    queue.append(w)
                    queued[w] = 1
    a, prev = [row[:] for row in _REF_MATRIX], 1
    for k in range(len(a) - 1):
        pivot, row_k = a[k][k], a[k]
        for i in range(k + 1, len(a)):
            row_i, factor = a[i], a[i][k]
            a[i] = row_i[: k + 1] + [(row_i[j] * pivot - factor * row_k[j]) // prev for j in range(k + 1, len(a))]
        prev = pivot
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """One benchmark run of one workload: repeated set-up, then a timed
    phase of a fixed op count, checking every op's outputs.

    `reference_time` runs after every set-up and every op (and once before
    the first set-up), so each interval lies between reference timings."""

    def __init__(self, workload, src: Path, seed: int, seconds: float):
        self.workload = workload
        self.src = src
        self.ops = op_count(workload, seconds)
        seeds = op_seeds(workload.name, seed, SETUP_REPEATS + self.ops)
        self.warmup_seeds = seeds[:SETUP_REPEATS]
        self.timed_seeds = seeds[SETUP_REPEATS:]
        self.ctx: dict = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: list[tuple[float, float]] = []  # (start, duration)

    def _reference(self, interval: float = 0.0) -> None:
        """Time the reference at least once, and until it adds up to
        REFERENCE_SHARE of the interval that just ended."""
        spent = 0.0
        while True:
            start = time.perf_counter()
            self.reference.append((start, reference_time()))
            spent += self.reference[-1][1]
            if spent >= REFERENCE_SHARE * interval:
                return

    def speed(self, start: float, end: float) -> float:
        """Machine speed over [start, end] relative to the nominal speed
        (above 1 when faster), from the reference timings that started within
        SPEED_WINDOW_S of the interval, which include those right around it.
        Their mean, not median: the host flips between a fast and a slow
        state every few hundred milliseconds, and an op's time averages over
        both.  The extreme tenth at each end is dropped, since one preempted
        12 ms reference would weigh far more than it does in a long op."""
        near = sorted(d for t, d in self.reference if start - SPEED_WINDOW_S <= t <= end + SPEED_WINDOW_S)
        cut = len(near) // 10
        return REFERENCE_NOMINAL_S / statistics.mean(near[cut : len(near) - cut])

    def _op(self, pkg, tracer, seed: int) -> float:
        """Run and check one op; returns the op's own time (checks excluded).
        A failed check is recorded, never raised."""
        self.attempted += 1
        with tracer.span("bench.op"):
            start = time.perf_counter()
            outputs = self.workload.run(pkg, self.ctx, tracer, seed)
            elapsed = time.perf_counter() - start
            problems = self.workload.check(self.ctx, outputs)
        if problems:
            self.failures.append(f"op seed {seed}: " + "; ".join(problems))
        return elapsed

    def setup(self, tracer) -> tuple[types.SimpleNamespace, list[tuple[float, float]]]:
        """Import, build graphs and run one untimed warm-up op, repeated
        SETUP_REPEATS times from a fresh import; returns the last package
        and (start, end) of each set-up."""
        times = []
        pkg = None
        for seed in self.warmup_seeds:
            pkg = None
            self.ctx.pop("graphs", None)
            self.ctx.pop("matrices", None)
            self.ctx.pop("caches", None)
            unload_package()
            if not self.reference:
                self._reference()
            tracer.op = f"setup{len(times)}"
            start = time.perf_counter()
            pkg = load_package(self.src)
            with tracer.span("gasket.build"):
                graphs = {lv: pkg.gasket.build_gasket(lv) for lv in self.workload.levels}
                matrices = {lv: pkg.gasket.reduced_laplacian(graphs[lv]) for lv in self.workload.matrices}
            self.ctx["graphs"], self.ctx["matrices"] = graphs, matrices
            self.ctx["caches"] = package_caches(pkg)
            clear_caches(self.ctx["caches"])
            self._op(pkg, tracer, seed)
            times.append((start, time.perf_counter()))
            self._reference(times[-1][1] - start)
        return pkg, times

    def timed(self, pkg, tracer) -> list[tuple[float, float, float]]:
        """The timed phase: (op time, start, end) per op, where start to end
        spans the op's cache reset, the op and its checks."""
        caches = self.ctx["caches"]
        timings = []
        for i, seed in enumerate(self.timed_seeds):
            tracer.op = i
            start = time.perf_counter()
            clear_caches(caches)
            op_time = self._op(pkg, tracer, seed)
            timings.append((op_time, start, time.perf_counter()))
            self._reference(timings[-1][2] - start)
        return timings

    def end_to_end(self, setups, ops, scaled: bool = True) -> dict[str, float]:
        """End-to-end metrics.  Scaled, each set-up's and op's times are
        multiplied by the machine speed around it, giving seconds at the
        nominal speed.  Unscaled, times are as measured."""
        speed = self.speed if scaled else (lambda start, end: 1.0)
        setup_times = [(end - start) * speed(start, end) for start, end in setups]
        speeds = [speed(start, end) for _, start, end in ops]
        op_times = sorted(t * v for (t, _, _), v in zip(ops, speeds))
        wall = sum((end - start) * v for (_, start, end), v in zip(ops, speeds))
        return {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall,
            "ops_per_s": len(op_times) / wall,
            "op_p50_s": statistics.median(op_times),
            "op_tail_s": op_times[tail_index(len(op_times))],
            "peak_rss_mb": peak_rss_mb(),
        }


def tail_percentile(count: int) -> float:
    return 100.0 * (tail_index(count) + 1) / count
