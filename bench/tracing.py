"""Per-layer tracing for the benchmark's traced run.

Every module-level function of every `tiernet` module is wrapped, at every
binding that refers to it (`simulator.blended_power_policy` as well as
`sensing.blended_power_policy`, `cli.chi2_cdf` as well as
`specfun.chi2_cdf`). Each thread keeps a stack of the modules it is in. A
call whose module differs from the top of the stack is an entry into that
module; a call within the module passes straight through unless its function
is counted on its own (NAMED). A module's self time is the time inside its
entries minus the time of the entries they make into other modules.

Times are thread CPU time (`time.thread_time_ns`), summed over threads: a
thread that waits for the drop pool or for the interpreter lock accrues none,
so work done in worker threads is not counted twice. Each thread keeps its
own counters; `metrics()` sums them, so the hot path takes no lock.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import inspect
import pkgutil
import threading
import time
from collections import defaultdict

LAYERS = ("cli", "simulator", "sensing", "analytic", "specfun", "linkmodel")

# "module.function" -> the key its calls and inclusive time are counted under
NAMED = {
    "simulator.cellular_sir": "simulator.sir",
    "simulator.femto_sir": "simulator.sir",
    "simulator._zf_desired_batch": "simulator.zf",
    "simulator._zf_leakage_batch": "simulator.zf",
    "sensing.power_ratio_bounds": "sensing.power_ratio_bounds",
    "sensing.solve_threshold": "sensing.solve_threshold",
    "sensing.max_sensing_range": "sensing.max_sensing_range",
    "specfun.chi2_cdf": "specfun.chi2_cdf",
}

_clock = time.thread_time_ns


class _ThreadState:
    def __init__(self) -> None:
        self.stack: list[list] = []  # [module, child_ns] per open entry
        self.self_ns: defaultdict[str, int] = defaultdict(int)
        self.entries: defaultdict[str, int] = defaultdict(int)
        self.named_ns: defaultdict[str, int] = defaultdict(int)
        self.named_calls: defaultdict[str, int] = defaultdict(int)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.sinr_sizes: dict[tuple, int] = {}  # (root span, SINR digest) -> size


class Tracer:
    """Install with `install()`, run the traced work inside
    `span("cli")`, read `metrics()`, then `uninstall()`."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._patched: list[tuple[object, str, object]] = []
        self._root_spans = 0  # root spans opened so far: one per CLI invocation
        self.skipped: set[str] = set()

    # -- per-thread state

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState()
            self._local.state = st
            with self._lock:
                self._states.append(st)
        return st

    # -- wrappers

    def _observer(self, key: str, fn):
        """Extra counts taken from a call's arguments or result."""
        if key == "simulator.zf":
            def observe(st, args, kwargs, result):
                st.counts["simulator.zf_samples"] += result.size
            return observe
        if key != "simulator.sir":
            return None
        params = list(inspect.signature(fn).parameters)
        draws_at = params.index("draws") if "draws" in params else None
        if draws_at is None:
            self.skipped.add(f"simulator.mark_powers ({fn.__name__} takes no draws)")

        def observe(st, args, kwargs, result):
            st.counts["simulator.sinr_samples"] += result.size
            # two invocations may compute equal SINRs (a drop with no femtocell
            # in sensing range reads the same sensed and unsensed); each needs them
            digest = hashlib.blake2b(result.tobytes(), digest_size=16).digest()
            st.sinr_sizes[(self._root_spans, digest)] = result.size
            if draws_at is not None:
                draws = args[draws_at] if len(args) > draws_at else kwargs["draws"]
                st.counts["simulator.mark_powers"] += draws.mark_powers.size
        return observe

    def _wrap(self, fn, module: str, named: str | None):
        state = self._state
        observe = self._observer(named, fn) if named else None

        def wrapper(*args, **kwargs):
            st = state()
            stack = st.stack
            entry = not stack or stack[-1][0] != module
            if not entry and named is None:
                return fn(*args, **kwargs)
            t0 = _clock()
            if entry:
                frame = [module, 0]
                stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - t0
                if entry:
                    stack.pop()
                    st.self_ns[module] += elapsed - frame[1]
                    st.entries[module] += 1
                    if stack:
                        stack[-1][1] += elapsed
                if named is not None:
                    st.named_ns[named] += elapsed
                    st.named_calls[named] += 1
            if observe is not None:
                try:
                    observe(st, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError) as exc:
                    self.skipped.add(f"{module}.{fn.__name__} counts ({exc!r})")
            return result

        return wrapper

    def install(self) -> None:
        import tiernet

        found = {info.name for info in pkgutil.iter_modules(tiernet.__path__)}
        modules = {name: importlib.import_module(f"tiernet.{name}")
                   for name in sorted(found)}
        for name in LAYERS:
            if name not in modules:
                self.skipped.add(f"layer {name} (no module tiernet.{name})")
        for target in NAMED:
            mod, attr = target.split(".")
            if not inspect.isfunction(getattr(modules.get(mod), attr, None)):
                self.skipped.add(target)

        wrappers: dict[int, tuple[object, object]] = {}
        for name, mod in modules.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    named = NAMED.get(f"{name}.{attr}")
                    wrappers[id(obj)] = (obj, self._wrap(obj, name, named))
        for ns in (tiernet, *modules.values()):
            for attr, obj in list(vars(ns).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((ns, attr, obj))
                    setattr(ns, attr, hit[1])

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._patched):
            setattr(ns, attr, obj)
        self._patched.clear()

    @contextlib.contextmanager
    def span(self, module: str):
        """Count the enclosed work as an entry into `module`."""
        st = self._state()
        if not st.stack:
            self._root_spans += 1
        frame = [module, 0]
        st.stack.append(frame)
        t0 = _clock()
        try:
            yield
        finally:
            elapsed = _clock() - t0
            st.stack.pop()
            st.self_ns[module] += elapsed - frame[1]
            st.entries[module] += 1
            if st.stack:
                st.stack[-1][1] += elapsed

    # -- results

    def metrics(self) -> dict[str, float]:
        self_ns: defaultdict[str, int] = defaultdict(int)
        entries: defaultdict[str, int] = defaultdict(int)
        named_ns: defaultdict[str, int] = defaultdict(int)
        named_calls: defaultdict[str, int] = defaultdict(int)
        counts: defaultdict[str, int] = defaultdict(int)
        sinr_sizes: dict[tuple, int] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for src, dst in ((st.self_ns, self_ns), (st.entries, entries),
                             (st.named_ns, named_ns), (st.named_calls, named_calls),
                             (st.counts, counts)):
                for key, value in src.items():
                    dst[key] += value
            # a SINR array computed twice in one invocation, in one thread or
            # two, is needed once
            sinr_sizes.update(st.sinr_sizes)
        unique = sum(sinr_sizes.values())
        samples = counts["simulator.sinr_samples"]

        def sec(ns: int) -> float:
            return ns / 1e9

        return {
            "cli.s": sec(self_ns["cli"]),
            "simulator.s": sec(self_ns["simulator"]),
            "simulator.sinr_samples": samples,
            "simulator.sinr_useful_ratio": unique / samples if samples else 1.0,
            "simulator.sir_s": sec(named_ns["simulator.sir"]),
            "simulator.sir_calls": named_calls["simulator.sir"],
            "simulator.mark_powers": counts["simulator.mark_powers"],
            "simulator.zf_s": sec(named_ns["simulator.zf"]),
            "simulator.zf_samples": counts["simulator.zf_samples"],
            "sensing.s": sec(self_ns["sensing"]),
            "sensing.power_ratio_bounds.calls": named_calls["sensing.power_ratio_bounds"],
            "sensing.solve_threshold.calls": named_calls["sensing.solve_threshold"],
            "sensing.solve_threshold.s": sec(named_ns["sensing.solve_threshold"]),
            "sensing.max_sensing_range.calls": named_calls["sensing.max_sensing_range"],
            "sensing.max_sensing_range.s": sec(named_ns["sensing.max_sensing_range"]),
            "analytic.calls": entries["analytic"],
            "analytic.s": sec(self_ns["analytic"]),
            "specfun.calls": entries["specfun"],
            "specfun.s": sec(self_ns["specfun"]),
            "specfun.chi2_cdf.calls": named_calls["specfun.chi2_cdf"],
            "specfun.chi2_cdf.s": sec(named_ns["specfun.chi2_cdf"]),
            "linkmodel.calls": entries["linkmodel"],
            "linkmodel.s": sec(self_ns["linkmodel"]),
        }
