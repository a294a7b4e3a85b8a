"""Spans around the public functions of each ``boxham`` module.

The program binds functions across modules with ``from .x import f``, so
a wrapper replaces every binding of the function object in every loaded
``boxham`` module (``cycles.find_perfect_matching`` as well as
``factors.find_perfect_matching``) and :meth:`Tracer.close` puts the
originals back.  Spans live in memory: each keeps its inclusive time and
the time of its child spans, so self time = span - child spans.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

# layer -> public functions that get a span
SPANS = {
    "cli": ("main",),
    "graphs": ("parse_graph", "cartesian_product", "spanning_tree_containing",
               "bipartition"),
    "factors": ("find_perfect_matching", "find_p23_factor", "factor_obstruction"),
    "cycles": ("build_cycle", "component_peel_order", "build_cycle_matching",
               "build_cycle_path_factor", "verify_column_contract",
               "format_cycle", "verify_cycle"),
    "kernels": ("ham_cycle", "scattering_max", "toughness_scan",
                "count_isolated_after", "count_components_after"),
    "toughness": ("is_one_tough", "toughness_exact", "product_cut_from_bipartite",
                  "product_cut_from_high_degree"),
    "oracle": ("find_hamiltonian_cycle", "scan_below_layer_bound"),
}

# kernels wrapper -> the backend function it dispatches to
BACKEND_FUNCTION = {
    "ham_cycle": "ham_cycle",
    "scattering_max": "scattering_max",
    "toughness_scan": "toughness_scan",
    "count_isolated_after": "count_isolated",
    "count_components_after": "count_components",
}

REPLAY_SAMPLE = 20          # compiled kernel calls kept per function
REPLAY_MAX_NODES = 200_000  # larger calls are too slow to replay in Python


@dataclass
class Stat:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    nodes: int = 0
    hits: int = 0       # found / zero-node answers, by function
    unknown: int = 0
    pure_calls: int = 0


def _nodes(fn: str, args, result) -> int:
    if fn == "ham_cycle":
        return result[2]
    if fn == "scattering_max":
        return result[3]
    if fn == "toughness_scan":
        return 1 << args[0].order  # the scan visits every subset
    return args[0].order           # the counters sweep every vertex once


class Tracer:
    """Spans that :meth:`install` puts in place and :meth:`close` removes;
    statistics add up over every installed stretch."""

    def __init__(self, boxham_modules):
        self.stats: dict[str, Stat] = {}
        self.stack: list[list] = []  # per open span: [child seconds, backend]
        self.root_s = 0.0
        self.request_bases: set = set()  # distinct graphs searched by this request
        self.searched_bases = 0
        self.factor_searches = 0
        self.replay: list[tuple[str, tuple, object]] = []
        self._restore: list[tuple[object, str, object]] = []
        self._modules = [m for name, m in sorted(sys.modules.items())
                         if m is not None and (name == "boxham" or name.startswith("boxham."))]
        self._backends = boxham_modules
        self._wrappers = []
        for layer, names in SPANS.items():
            module = boxham_modules[layer]
            for name in names:
                original = getattr(module, name)
                self._wrappers.append(
                    (original, self._wrap(f"{layer}.{name}", name, original)))

    def install(self):
        for original, wrapper in self._wrappers:
            self._rebind(original, wrapper)

    def _rebind(self, original, wrapper):
        for module in self._modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, key, value))
                    setattr(module, key, wrapper)

    def close(self):
        for module, key, value in reversed(self._restore):
            setattr(module, key, value)
        self._restore.clear()

    def begin_request(self):
        self.request_bases.clear()

    def end_request(self):
        self.searched_bases += len(self.request_bases)

    def _wrap(self, label: str, fn_name: str, original):
        stat = self.stats.setdefault(label, Stat())
        stack = self.stack
        clock = time.perf_counter
        backend_fn = BACKEND_FUNCTION.get(fn_name) if label.startswith("kernels.") else None
        is_factor_search = label in ("factors.find_perfect_matching", "factors.find_p23_factor")
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0, None]
            stack.append(frame)
            swapped = tracer._swap_backends(backend_fn, frame) if backend_fn else ()
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                for module, value in swapped:
                    setattr(module, backend_fn, value)
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                else:
                    tracer.root_s += elapsed
                stat.calls += 1
                stat.s += elapsed
                stat.self_s += elapsed - frame[0]
                stat.pure_calls += frame[1] == "pure"
            if backend_fn:
                stat.nodes += _nodes(fn_name, args, result)
            if is_factor_search:
                tracer.factor_searches += 1
                tracer.request_bases.add(args[0])  # Graph compares by value
                stat.hits += result is not None
            elif label == "toughness.is_one_tough":
                stat.hits += result.nodes == 0
            elif label == "oracle.find_hamiltonian_cycle":
                stat.hits += result.nodes == 0
                stat.unknown += result.status == "unknown"
            return result

        return wrapper

    def _swap_backends(self, name: str, frame):
        """Mark ``frame`` with the backend module whose function actually runs.

        The marker replaces the backend function only for the duration of
        one kernels call, so the backend's own inner calls stay untraced.
        """
        swapped = []
        for tag, module in (("pure", self._backends["_pykernels"]),
                            ("compiled", self._backends.get("_ckernels"))):
            if module is None:
                continue
            original = getattr(module, name)

            def marker(*args, _tag=tag, _original=original):
                frame[1] = _tag
                result = _original(*args)
                if _tag == "compiled":
                    self._keep_for_replay(name, args, result)
                return result

            setattr(module, name, marker)
            swapped.append((module, original))
        return swapped

    def _keep_for_replay(self, name, args, result):
        if name == "toughness_scan":
            nodes = 1 << args[0]
        elif name in ("ham_cycle", "scattering_max"):
            nodes = result[-1]
        else:
            return  # the counters always run on the pure backend
        kept = sum(1 for n, _, _ in self.replay if n == name)
        if kept < REPLAY_SAMPLE and nodes <= REPLAY_MAX_NODES:
            self.replay.append((name, args, result))

    def replay_on_pure(self) -> list[str]:
        """Re-run kept compiled kernel calls on the pure backend; mismatches."""
        pure = self._backends["_pykernels"]
        bad = []
        for name, args, result in self.replay:
            again = getattr(pure, name)(*args)
            if again != result:
                bad.append(f"{name}: compiled {result!r} != pure {again!r}")
        return bad
