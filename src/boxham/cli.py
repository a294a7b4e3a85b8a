"""Command-line surface for every pipeline in the package.

Exit codes: 0 ok, 1 usage, 2 parse or I/O, 3 precondition violation,
4 no usable factor (certificate attached), 5 budget exhausted.  With
--json the only stdout output is one stable machine-readable object,
emitted on errors too so a negative answer always carries its
certificate.  A usage error (exit 1, usage text on stderr) prints
``{"command": <argv[0] if it names a command, else null>, "status":
"error", "error": {"kind": "usage", "message": ...}}`` when --json is
anywhere in argv.  A negative or NaN --budget-seconds is a usage error,
as a negative --max-nodes is.  ``main`` turns --budget-seconds S into one
``time.monotonic()`` deadline S seconds after parsing, and every search
of the command takes that deadline; 0 is a deadline already past.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import cycles, factors, graphs, oracle, toughness
from .errors import (
    BoxhamError,
    BudgetExceededError,
    MalformedGraphError,
    NoFactorError,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_NO_FACTOR = 4
EXIT_BUDGET = 5


class _UsageError(SystemExit):
    """Exit 1 on a usage error, carrying argparse's message so that
    ``main`` can put it in the --json object."""

    def __init__(self, message: str):
        super().__init__(EXIT_USAGE)
        self.message = message


class _Parser(argparse.ArgumentParser):
    commands: dict[str, argparse.ArgumentParser]

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise _UsageError(message)


def _read_graph(path: str) -> graphs.Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return graphs.parse_graph(fh.read())


def _write(path: str | None, text: str, payload: dict, key: str):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        payload[key + "_file"] = path
    else:
        payload[key] = text


def _factor_cert_json(cert: factors.FactorCertificate | factors.MatchingBarrier) -> dict:
    if isinstance(cert, factors.MatchingBarrier):
        return {"witness": sorted(cert.witness), "odd_components": cert.odd_components}
    return {"witness": sorted(cert.witness), "isolated": cert.isolated_count}


def _cut_witness_json(w: toughness.CutWitness) -> dict:
    return {"cut": sorted(w.cut), "components": w.components}


# ---------------------------------------------------------------------------
# command handlers: return (payload, human lines, exit code)


def _cmd_product(args):
    base = _read_graph(args.graph)
    if args.n < 1:
        raise ValueError("layer count must be positive")
    prod = graphs.cartesian_product(graphs.path_graph(args.n), base)
    payload = {"layers": args.n, "base_order": base.order,
               "order": prod.order, "edges": prod.size}
    text = graphs.format_graph(prod)
    _write(args.out, text, payload, "edge_list")
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(graphs.to_dot(prod, layers=args.n))
        payload["dot_file"] = args.dot
    human = [f"product: {prod.order} vertices, {prod.size} edges"]
    if args.out:
        human.append(f"wrote {args.out}")
    else:
        human.append(text.rstrip("\n"))
    return payload, human, EXIT_OK


def _cmd_hamcycle(args):
    base = _read_graph(args.graph)
    result = cycles.build_cycle(args.n, base, args.mode)
    cyc = result.cycle
    payload = {
        "mode": result.mode,
        "layers": args.n,
        "base_order": base.order,
        "cycle_order": cyc.order,
        "column_counts": {str(v): c for v, c in result.column_counts.items()},
    }
    text = cycles.format_cycle(cyc)
    _write(args.out, text, payload, "cycle")
    if args.dot:
        prod = graphs.cartesian_product(graphs.path_graph(args.n), base)
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(graphs.to_dot(prod, layers=args.n, bold=cyc.edge_set))
        payload["dot_file"] = args.dot
    human = [f"hamiltonian cycle on {cyc.order} vertices via {result.mode} route"]
    if args.out:
        human.append(f"wrote {args.out}")
    else:
        human.append(text.rstrip("\n"))
    return payload, human, EXIT_OK


def _cmd_pathfactor(args):
    g = _read_graph(args.graph)
    if args.kind == "pm":
        found = factors.perfect_matching_or_barrier(g)
    else:
        found = factors.p23_factor_or_obstruction(g)
    if isinstance(found, factors.PathFactor):
        comps = [list(c) for c in found.components]
        payload = {"kind": args.kind, "factor": comps}
        human = ["factor: " + " ".join("-".join(map(str, c)) for c in found.components)]
        return payload, human, EXIT_OK
    payload = {"kind": args.kind, "factor": None, "certificate": _factor_cert_json(found)}
    human = [f"no {'perfect matching' if args.kind == 'pm' else 'path factor'}",
             found.format()]
    return payload, human, EXIT_OK


def _cmd_toughness(args):
    g = _read_graph(args.graph)
    payload: dict = {"order": g.order, "one_tough_only": bool(args.one_tough)}
    if args.one_tough:
        res = toughness.is_one_tough(g, deadline=args.deadline)
        payload.update(verdict=res.verdict, decided_by=res.decided_by, nodes=res.nodes)
        human = [f"1-tough: {res.verdict} (decided by {res.decided_by}, {res.nodes} nodes)"]
        if res.cycle is not None:
            payload["cycle"] = list(res.cycle)
        if res.witness is not None:
            payload["witness"] = _cut_witness_json(res.witness)
            human.append(res.witness.format())
        return payload, human, EXIT_OK
    try:
        res = toughness.toughness_exact(g)
    except BudgetExceededError as exc:
        payload["verdict"] = "unknown"
        payload["reason"] = str(exc)
        return payload, [f"toughness: unknown ({exc}); try --one-tough"], EXIT_OK
    payload["nodes"] = res.nodes
    if res.is_infinite:
        payload["toughness"] = "infinite"
        human = ["toughness: infinite (complete graph)"]
    else:
        payload["toughness"] = f"{res.value.numerator}/{res.value.denominator}"
        payload["witness"] = _cut_witness_json(res.witness)
        human = [f"toughness: {res.value} ({res.nodes} subsets)", res.witness.format()]
    return payload, human, EXIT_OK


def _cmd_check(args):
    """With --n the product entry may answer from the splice builder and
    builds the product only for its search; without it the graph itself
    goes to the search.  Every cycle printed has passed the entry's check."""
    base = _read_graph(args.graph)
    caps = {"deadline": args.deadline, "max_nodes": args.max_nodes}
    if args.n is None:
        res = oracle.find_hamiltonian_cycle(base, **caps)
    else:
        res = oracle.find_product_cycle(base, args.n, **caps)
    order = base.order if args.n is None else args.n * base.order
    payload = {"order": order, "verdict": res.verdict,
               "decided_by": res.decided_by, "nodes": res.nodes}
    human = [f"oracle: {res.verdict} (decided by {res.decided_by}, {res.nodes} nodes)"]
    if res.cycle is not None:
        _write(args.out, cycles.format_cycle(res.cycle), payload, "cycle")
        if args.out:
            human.append(f"wrote {args.out}")
    code = EXIT_BUDGET if res.status == "unknown" else EXIT_OK
    return payload, human, code


def _cmd_verify(args):
    """The cycle is checked against the product by coordinate arithmetic,
    so the product graph is never built; without --n the graph itself is
    the one-layer product.  With --n N the cycle file's header must be
    "N N*|G|", since its labels are read in that shape."""
    g = _read_graph(args.graph)
    with open(args.cycle, "r", encoding="utf-8") as fh:
        cyc = cycles.parse_cycle(fh.read())
    ok = (cycles.verify_product_cycle(g, 1 if args.n is None else args.n, cyc)
          and args.n in (None, cyc.layers))
    payload = {"valid": ok}
    return payload, [f"cycle valid: {'true' if ok else 'false'}"], EXIT_OK


def _cmd_scan(args):
    caps = {"deadline": args.deadline,
            "max_nodes_per_instance": args.max_nodes, "workers": args.workers}
    if args.conjecture == 1:
        report = oracle.scan_below_layer_bound(args.k, args.max_order, **caps)
    else:
        report = oracle.scan_balanced_odd(args.max_h, args.max_n, **caps)
    text = oracle.format_scan_report(report)
    payload = {
        "kind": report.kind,
        "params": {k: report.params[k] for k in sorted(report.params)},
        "examined": report.instances_examined,
        "status": report.status,
        "last_index": report.last_index,
        "counterexamples": [
            {"key": e.key, "layers": e.layers} for e in report.counterexamples
        ],
    }
    _write(args.out, text, payload, "report")
    human = []
    if not args.json_out:
        human.extend(text.rstrip("\n").split("\n"))
    if args.out:
        human = [f"wrote {args.out}",
                 f"examined {report.instances_examined}, status {report.status}",
                 f"counterexamples: {len(report.counterexamples)}"]
    cx_files = []
    for i, e in enumerate(report.counterexamples):
        stem = args.out or "scan"
        path = f"{stem}.cx{i}.edgelist"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(graphs.format_graph(e.base))
        cx_files.append(path)
        human.append(f"counterexample base written to {path}")
    if cx_files:
        payload["counterexample_files"] = cx_files
    return payload, human, EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="boxham",
                     description="Hamiltonian cycles and toughness certificates "
                                 "in path-by-graph products")
    sub = parser.add_subparsers(dest="command", required=True)
    # argparse records each command's parser here as add_parser adds it
    parser.commands = sub.choices

    def common(p, *, n=False, n_required=False, out=False, dot=False, budget=False):
        p.add_argument("--graph", required=True, help="edge-list file of the base graph")
        if n or n_required:
            p.add_argument("--n", type=int, required=n_required,
                           help="path layer count (makes the input a product)")
        if out:
            p.add_argument("--out", help="output file (default: stdout)")
        if dot:
            p.add_argument("--dot", help="also write a DOT rendering here")
        if budget:
            p.add_argument("--budget-seconds", type=float, default=None)
        p.add_argument("--json", dest="json_out", action="store_true",
                       help="emit one machine-readable JSON object")

    p = sub.add_parser("product", help="write the n-layer product edge list")
    common(p, n_required=True, out=True, dot=True)
    p.set_defaults(handler=_cmd_product)

    p = sub.add_parser("hamcycle", help="construct a Hamiltonian cycle in the product")
    common(p, n_required=True, out=True, dot=True)
    p.add_argument("--mode", choices=("auto", "matching", "pathfactor"), default="auto")
    p.set_defaults(handler=_cmd_hamcycle)

    p = sub.add_parser("pathfactor", help="find a factor or print the obstruction")
    common(p)
    p.add_argument("--kind", choices=("pm", "p23"), default="p23")
    p.set_defaults(handler=_cmd_pathfactor)

    p = sub.add_parser("toughness", help="exact toughness or the 1-tough decision")
    common(p, budget=True)
    p.add_argument("--one-tough", action="store_true",
                   help="only decide t >= 1 (handles larger graphs)")
    p.set_defaults(handler=_cmd_toughness)

    p = sub.add_parser("check", help="brute-force Hamiltonicity oracle")
    common(p, n=True, out=True, budget=True)
    p.add_argument("--max-nodes", type=int, default=None,
                   help="search node cap (deterministic budget)")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("verify", help="validate a cycle file against a graph")
    common(p, n=True)
    p.add_argument("--cycle", required=True, help="cycle file to validate")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("scan", help="run a conjecture scanner")
    p.add_argument("conjecture", type=int, choices=(1, 2))
    p.add_argument("--k", type=int, help="max degree class for scan 1 (>= 3)")
    p.add_argument("--max-order", type=int, default=6, help="base order cap for scan 1")
    p.add_argument("--max-h", type=int, default=6, help="base order cap for scan 2")
    p.add_argument("--max-n", type=int, default=9, help="layer cap for scan 2")
    p.add_argument("--budget-seconds", type=float, default=None)
    p.add_argument("--max-nodes", type=int, default=None,
                   help="search node cap per instance")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", help="report file")
    p.add_argument("--json", dest="json_out", action="store_true")
    p.set_defaults(handler=_cmd_scan)

    return parser


_ERROR_KINDS = {
    "parse": EXIT_PARSE,
    "precondition": EXIT_PRECONDITION,
    "no-factor": EXIT_NO_FACTOR,
    "budget": EXIT_BUDGET,
}


def _classify(exc: Exception) -> str:
    # undecodable bytes are a parse error, though UnicodeDecodeError is a ValueError
    if isinstance(exc, (MalformedGraphError, OSError, UnicodeDecodeError)):
        return "parse"
    if isinstance(exc, NoFactorError):
        return "no-factor"
    if isinstance(exc, BudgetExceededError):
        return "budget"
    return "precondition"


_PARSER: _Parser | None = None


def _parser() -> _Parser:
    """The parser, built on first use and reused by every later ``main``
    call in the process; parsing leaves it unchanged."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse argv with the parser of the command that argv[0] names, one
    argparse level instead of two; the top-level parser only answers an
    argv that names no command (empty, -h or an unknown word).  Raises
    ``_UsageError`` on a usage error."""
    parser = _parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
        command = parser.commands[args.command]
    else:
        args = command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    if args.command == "scan" and args.conjecture == 1 and (args.k is None or args.k < 3):
        command.error("scan 1 needs --k at least 3")
    if (getattr(args, "max_nodes", None) or 0) < 0:
        command.error("--max-nodes must be at least 0")
    budget = getattr(args, "budget_seconds", None)
    if budget is not None and not budget >= 0:  # NaN too: it would never expire
        command.error("--budget-seconds must be at least 0")
    if args.command == "toughness" and budget is not None and not args.one_tough:
        command.error("--budget-seconds needs --one-tough")
    if getattr(args, "workers", 1) < 1:
        command.error("--workers must be at least 1")
    return args


def _json_requested(argv: list[str]) -> bool:
    """--json, or an abbreviation of it, which argparse accepts too."""
    return any(len(arg) > 2 and "--json".startswith(arg) for arg in argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
    except _UsageError as exc:
        if _json_requested(argv):
            command = argv[0] if argv and argv[0] in _parser().commands else None
            print(json.dumps({"command": command, "status": "error",
                              "error": {"kind": "usage", "message": exc.message}},
                             sort_keys=True))
        raise
    budget = getattr(args, "budget_seconds", None)
    args.deadline = None if budget is None else time.monotonic() + budget
    payload: dict = {"command": args.command, "status": "ok"}
    try:
        extra, human, code = args.handler(args)
    except (BoxhamError, OSError, ValueError) as exc:
        kind = _classify(exc)
        payload["status"] = "error"
        payload["error"] = {"kind": kind, "message": str(exc)}
        cert = getattr(exc, "certificate", None)
        if cert is not None:
            payload["error"]["certificate"] = _factor_cert_json(cert)
        if args.json_out:
            print(json.dumps(payload, sort_keys=True))
        else:
            print(f"error ({kind}): {exc}", file=sys.stderr)
            if cert is not None:
                print(cert.format(), file=sys.stderr)
        return _ERROR_KINDS[kind]
    payload.update(extra)
    if args.json_out:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in human:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
