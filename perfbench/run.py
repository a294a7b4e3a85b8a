#!/usr/bin/env python3
"""boxham benchmark: one closed-loop client driving the CLI in-process.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 24 --trace 0

Run from the root of a checkout.  The command generates the workload's
inputs from the seed, writes them as graph files, then sends the
workload's pass of requests to ``boxham.cli.main([..., "--json"])`` (or a
library call) one at a time, checking each answer before the next goes
out, until ``--seconds`` have passed.  One process, one thread.

The last stdout line is one JSON object: ``--trace 0`` reports the
end-to-end metrics, with times in reference seconds (wall seconds scaled
to a fixed host speed, see yardstick.py); ``--trace 1`` wraps the public
functions of every ``boxham`` module and reports the per-layer metrics,
in wall seconds.  The line before it
holds provenance and the failure breakdown.  The exit code is 1 when an
answer is wrong (a checker rejects it, two verdicts contradict each
other, or it changes between passes) and 2 when the checkout holds no
``src/boxham``; known defects are counted, not fatal.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from collections import Counter
from dataclasses import dataclass, field

import checks
import tracer as tracing
import workloads
import yardstick

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_REPEATS = 9
MIN_REQUESTS = 100  # ten samples beyond p90

# the exit codes of the table in boxham.cli that a workload may see
EXIT_OK, EXIT_NO_FACTOR, EXIT_BUDGET = 0, 4, 5


@dataclass
class Answer:
    code: object = None
    stdout: str = ""
    payload: dict | None = None
    exc: BaseException | None = None
    elapsed: float = 0.0


@dataclass
class Outcome:
    failure: str | None = None   # failure kind, None when verified
    fatal: str | None = None     # reason, when the answer is wrong
    unknown: bool = False


@dataclass
class Pass:
    traced: bool
    # reference seconds (see yardstick.py); +inf for a failed request
    latencies: list = field(default_factory=list)
    verified: int = 0
    vertices: int = 0
    verified_s: float = 0.0  # reference seconds of the verified requests
    request_s: float = 0.0   # wall seconds of every request
    wall: float = 0.0


def has_source() -> bool:
    return os.path.isfile(os.path.join(SRC, "boxham", "__init__.py"))


def load_boxham():
    """Import boxham afresh from this checkout's src/, or None when it is absent.

    The pure-Python boxham modules are dropped from ``sys.modules`` first,
    so every call pays for the whole import again; a compiled kernel
    module stays loaded.
    """
    if not has_source():
        return None
    sys.dont_write_bytecode = True
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name, mod in list(sys.modules.items()):
        if ((name == "boxham" or name.startswith("boxham."))
                and str(getattr(mod, "__file__", "")).endswith(".py")):
            del sys.modules[name]
    import boxham
    from boxham import (_pykernels, cli, cycles, factors, graphs, kernels,
                        oracle, toughness)
    if not os.path.abspath(boxham.__file__).startswith(SRC + os.sep):
        return None
    return types.SimpleNamespace(
        boxham=boxham, cli=cli, graphs=graphs, factors=factors, cycles=cycles,
        kernels=kernels, toughness=toughness, oracle=oracle,
        _pykernels=_pykernels, _ckernels=getattr(kernels, "_fast", None))


def execute(cli, req) -> Answer:
    a = Answer()
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if req.argv is not None:
                a.code = cli.main(req.argv + ["--json"])
            else:
                w = req.call()
                a.code, a.payload = 0, {"cut": sorted(w.cut), "components": w.components}
    except SystemExit as exc:
        a.code = exc.code
    except Exception as exc:  # the request failed; count it and go on
        a.exc = exc
    a.elapsed = time.perf_counter() - start
    a.stdout = out.getvalue()
    return a


def exit_code_matches(code, p) -> bool:
    err = p.get("error") or {}
    if code == EXIT_OK:
        # `scan` reports its own run status ("complete") in the same key
        return p.get("status") != "error"
    if code == EXIT_NO_FACTOR:
        return p.get("status") == "error" and err.get("kind") == "no-factor"
    if code == EXIT_BUDGET:
        return ((p.get("status") == "error" and err.get("kind") == "budget")
                or (p.get("status") == "ok" and p.get("verdict") == "unknown"))
    return False


def judge(req, a: Answer) -> Outcome:
    if a.exc is not None:
        return Outcome(failure="exception:" + type(a.exc).__name__)
    if req.argv is not None:
        a.payload, reason = checks.parse_json_object(a.stdout)
        if reason:
            return Outcome(failure="json")
        if not exit_code_matches(a.code, a.payload):
            return Outcome(failure="exit_code")
    unknown = a.code == EXIT_BUDGET or a.payload.get("verdict") == "unknown"
    if a.code == EXIT_BUDGET and req.certificate_expected:
        return Outcome(failure="no_certificate", unknown=True)
    reason = req.check(a)
    if reason:
        return Outcome(failure="wrong_answer", fatal=f"{req.kind}: {reason}", unknown=unknown)
    return Outcome(unknown=unknown)


def signature(a: Answer) -> bytes:
    """A digest of the answer, so the harness keeps no cycle text alive."""
    if a.exc is not None:
        text = "exception:" + type(a.exc).__name__
    else:
        text = f"{a.code}:{a.stdout}:{a.payload if not a.stdout else ''}"
    return hashlib.sha256(text.encode()).digest()


def percentile(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def git_commit() -> str | None:
    """The checkout's commit, or None when it is not a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "boxham")
    for name in sorted(os.listdir(pkg)):
        if name.endswith((".py", ".pyx")):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def set_up(work, rounds, yard):
    """Import boxham afresh and warm it up, ``rounds`` times.

    Returns the last round's modules and the time of every round, in
    reference seconds.  Generating and writing the inputs is not timed:
    it is the benchmark's own code, the same at every commit, and would
    drown a change to boxham's import or first calls in the noise of the
    file system and the seed.
    """
    times = []
    for _ in range(rounds):
        gc.collect()
        before = yard.time()
        start = time.perf_counter()
        box = load_boxham()
        for req in workloads.warmup(work):
            execute(box.cli, req)
        elapsed = time.perf_counter() - start
        times.append(elapsed * yard.scale(before, yard.time()))
    return box, times


class Loop:
    """Closed loop over whole passes; every answer is judged before the next."""

    def __init__(self, box, requests, yard):
        self.box = box
        self.requests = requests
        self.yard = yard
        self.passes: list[Pass] = []
        self.first: dict[int, bytes] = {}
        self.unknown = 0
        self.failures: Counter = Counter()
        self.fatal: list[str] = []

    @property
    def attempted(self):
        return sum(len(p.latencies) for p in self.passes)

    def run_pass(self, tracer=None):
        gc.collect()
        this = Pass(traced=tracer is not None)
        verdicts: dict[str, dict[str, str]] = {}
        start = time.perf_counter()
        # one yardstick timing between requests serves the request on each side
        before = self.yard.time()
        for i, req in enumerate(self.requests):
            if tracer:
                tracer.begin_request()
            a = execute(self.box.cli, req)
            if tracer:
                tracer.end_request()
            after = self.yard.time()
            latency = a.elapsed * self.yard.scale(before, after)
            before = after
            o = judge(req, a)
            sig = signature(a)
            if self.first.setdefault(i, sig) != sig:
                o = Outcome("nondeterministic", f"{req.kind}: answer changed between passes",
                            o.unknown)
            if req.group and not o.failure:
                seen = verdicts.setdefault(req.group, {})
                seen[req.kind] = a.payload.get("verdict")
                if seen.get("check") == "hamiltonian" and seen.get("toughness") == "no":
                    o = Outcome("contradiction",
                                f"{req.group}: Hamiltonian but not 1-tough", o.unknown)
            this.request_s += a.elapsed
            self.unknown += o.unknown
            if o.failure:
                self.failures[o.failure] += 1
                this.latencies.append(math.inf)
                if o.fatal:
                    self.fatal.append(o.fatal)
            else:
                this.latencies.append(latency)
                this.verified_s += latency
                this.verified += 1
                this.vertices += req.vertices
        this.wall = time.perf_counter() - start
        self.passes.append(this)

    def done(self, elapsed, seconds):
        """Stop at the pass boundary nearest to ``seconds``."""
        return (self.attempted >= MIN_REQUESTS
                and elapsed + self.passes[-1].wall / 2 >= seconds)


def end_to_end(loop, setup_s):
    """Timings are medians over the passes, which all send the same requests.

    A latency percentile is taken over the requests of a pass, each at its
    median latency over the passes, which damps the noise of single long
    requests where the upper percentiles fall.

    Every time is in reference seconds (see yardstick.py).  The rates are
    per reference second spent on the verified requests: the benchmark's
    own checks and yardstick timings do not count, nor do failed requests,
    whose latency is +inf.  A failed request can run for seconds (the
    ladder's RecursionError), longer than the host keeps one speed, so
    the yardstick timings around it cannot scale it.
    """
    def median(f):
        return statistics.median(f(p) for p in loop.passes)

    attempted = loop.attempted
    verified = sum(p.verified for p in loop.passes)
    latencies = [statistics.median(each) for each in zip(*(p.latencies for p in loop.passes))]
    return {
        "setup_s": (setup_s, "s"),
        "latency_p50_s": (percentile(latencies, 0.5), "s"),
        "latency_p90_s": (percentile(latencies, 0.9), "s"),
        "requests_per_s": (median(lambda p: p.verified / p.verified_s), "1/s"),
        "product_vertices_per_s": (median(lambda p: p.vertices / p.verified_s), "1/s"),
        "verified_ratio": (verified / attempted, "ratio"),
        "answered_ratio": ((attempted - loop.unknown) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def overhead(passes) -> float:
    """Traced over untraced request time, minus 1.

    Each request is compared with itself: the median over requests of its
    median traced latency over its median untraced latency.  A pass-wide
    change in host speed moves this far less than a ratio of pass walls.
    """
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    ratios = []
    for i in range(len(passes[0].latencies)):
        t = statistics.median(p.latencies[i] for p in traced)
        u = statistics.median(p.latencies[i] for p in untraced)
        if math.isfinite(t) and math.isfinite(u) and u > 0:
            ratios.append(t / u)
    return statistics.median(ratios) - 1


# per-layer metrics read straight off one span: (span, field)
SPAN_METRICS = [
    ("cli.main", "calls"), ("cli.main", "self_s"),
    ("graphs.parse_graph", "s"),
    ("graphs.cartesian_product", "calls"), ("graphs.cartesian_product", "s"),
    ("graphs.spanning_tree_containing", "s"),
    ("graphs.bipartition", "calls"), ("graphs.bipartition", "s"),
    ("factors.find_perfect_matching", "calls"), ("factors.find_perfect_matching", "s"),
    ("factors.find_p23_factor", "calls"), ("factors.find_p23_factor", "s"),
    ("factors.factor_obstruction", "calls"), ("factors.factor_obstruction", "s"),
    ("cycles.build_cycle", "s"), ("cycles.component_peel_order", "s"),
    ("cycles.verify_column_contract", "s"), ("cycles.format_cycle", "s"),
    ("cycles.verify_cycle", "calls"), ("cycles.verify_cycle", "s"),
    *[(f"kernels.{f}", x) for f in tracing.SPANS["kernels"]
      for x in ("calls", "s", "nodes", "pure_calls")],
    ("toughness.is_one_tough", "calls"), ("toughness.is_one_tough", "s"),
    ("toughness.toughness_exact", "calls"), ("toughness.toughness_exact", "s"),
    ("toughness.product_cut_from_bipartite", "s"),
    ("toughness.product_cut_from_high_degree", "s"),
    ("oracle.find_hamiltonian_cycle", "calls"), ("oracle.find_hamiltonian_cycle", "s"),
    ("oracle.scan_below_layer_bound", "self_s"),
]
UNITS = {"calls": "count", "s": "s", "self_s": "s", "nodes": "count", "pure_calls": "count"}


def per_layer(tracer, loop):
    """Per-layer metrics; counts and seconds are per traced pass."""
    st = tracer.stats
    traced = [p for p in loop.passes if p.traced]
    per = 1 / len(traced)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {f"{span}.{f}": (getattr(st[span], f) * per, UNITS[f]) for span, f in SPAN_METRICS}
    for span in ("factors.find_perfect_matching", "factors.find_p23_factor"):
        m[f"{span}.found_ratio"] = (ratio(st[span].hits, st[span].calls), "ratio")
    m["factors.searches_per_request"] = (
        ratio(tracer.factor_searches, tracer.searched_bases), "count")
    m["cycles.assembly.self_s"] = ((st["cycles.build_cycle_matching"].self_s
                                    + st["cycles.build_cycle_path_factor"].self_s) * per, "s")
    for f in tracing.SPANS["kernels"]:
        s = st[f"kernels.{f}"]
        m[f"kernels.{f}.nodes_per_s"] = (ratio(s.nodes, s.s), "1/s")
    for span in ("toughness.is_one_tough", "oracle.find_hamiltonian_cycle"):
        m[f"{span}.zero_node_ratio"] = (ratio(st[span].hits, st[span].calls), "ratio")
    fh = st["oracle.find_hamiltonian_cycle"]
    m["oracle.find_hamiltonian_cycle.unknown_ratio"] = (ratio(fh.unknown, fh.calls), "ratio")
    m["search_nodes"] = ((st["kernels.ham_cycle"].nodes
                          + st["kernels.scattering_max"].nodes) * per, "count")
    m["failed_ratio"] = (ratio(sum(loop.failures.values()), loop.attempted), "ratio")
    m["unknown_ratio"] = (ratio(loop.unknown, loop.attempted), "ratio")
    m["trace.overhead_share"] = (overhead(loop.passes), "ratio")
    request_s = sum(p.request_s for p in traced)
    m["trace.unaccounted_share"] = (ratio(request_s - tracer.root_s, request_s), "ratio")
    return m


def run(name, seed, seconds, trace, work, tiny=False):
    """Set up, measure, and return (result dict, provenance dict)."""
    # Set-up rounds run before and after the timed loop, so that their
    # median does not rest on the host's speed during a few seconds.
    yard = yardstick.Yardstick()
    os.makedirs(work, exist_ok=True)
    box, setup_times = set_up(work, SETUP_REPEATS // 2 + 1, yard)
    requests = workloads.build(name, seed, work, box, tiny)
    # the benchmark's own inputs and checkers stay alive for the whole run;
    # frozen, they add nothing to the cost of the program's collections
    gc.collect()
    gc.freeze()
    loop = Loop(box, requests, yard)
    tracer = tracing.Tracer(vars(box)) if trace else None
    start = time.perf_counter()
    while True:
        # a traced run alternates untraced and traced passes, from untraced
        traced = bool(trace and len(loop.passes) % 2)
        if traced:
            tracer.install()
        try:
            loop.run_pass(tracer if traced else None)
        finally:
            if traced:
                tracer.close()
        if (loop.done(time.perf_counter() - start, seconds)
                and (not trace or len(loop.passes) >= 2)):
            break
    gc.unfreeze()
    if tracer:
        loop.fatal.extend(tracer.replay_on_pure())
        metrics = per_layer(tracer, loop)
    else:
        setup_times += set_up(work, SETUP_REPEATS // 2, yard)[1]
        metrics = end_to_end(loop, statistics.median(setup_times))
    result = {
        "correct": not loop.fatal,
        "attempted": loop.attempted,
        "failed": sum(loop.failures.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    info = {
        "workload": name, "seed": seed, "trace": trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "yardstick_to_reference": [round(q / yardstick.REF_S, 3) for q in yard.quartiles()],
        "backend": box.kernels.backend_name(),
        "replayed_on_pure": len(tracer.replay) if tracer else 0,
        "passes": len(loop.passes), "requests_per_pass": len(requests),
        "latency_samples": loop.attempted,
        "failed_by_kind": dict(sorted(loop.failures.items())),
        "unknown": loop.unknown,
        "wrong_answers": loop.fatal[:10],
    }
    return result, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not has_source():
        print("perfbench: this checkout has no src/boxham to measure", file=sys.stderr)
        return 2
    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        result, info = run(args.workload, args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
