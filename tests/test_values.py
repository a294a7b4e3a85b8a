"""The value types: what importing the CLI loads, immutability, and the
tuple equality of the result types.

The result types are ``typing.NamedTuple`` classes and ``Graph`` is a
plain immutable class, so importing ``boxham.cli`` generates no
dataclass methods; the process pool is imported only by a scan that
asks for workers.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from boxham import cli, cycles, factors, graphs, oracle, toughness

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_loads_no_dataclasses_or_process_pool():
    # a module the interpreter's own start-up already loaded is not boxham's doing
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import boxham.cli\n"
            "heavy = ('dataclasses', 'concurrent.futures', 'multiprocessing', 'fractions')\n"
            "print(sorted(m for m in heavy if m in sys.modules and m not in before))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def values():
    """One instance of each value type."""
    p2 = graphs.path_graph(2)
    cycle = cycles.HamCycle(1, 2, (1, 2))
    witness = toughness.CutWitness(frozenset({2}), 2)
    return [
        graphs.bipartition(p2),
        factors.PathFactor(((1, 2),)),
        factors.FactorCertificate(frozenset({1}), 3),
        factors.MatchingBarrier(frozenset({1}), 3),
        factors.sufficient_conditions(p2),
        cycle,
        cycles.PeelOrder(((1, 2),), (None,)),
        cycles.build_cycle(2, p2),
        oracle.OracleResult("found", cycle, 0),
        oracle.PathResult("found", (1, 2), 0),
        oracle.fixtures(),
        oracle.ScanEntry("n2:1-2", p2, 4, "hamiltonian", True),
        witness,
        toughness.ToughnessResult(Fraction(1), witness, 3),
        toughness.OneToughResult("yes", None, 0, "trivial"),
    ]


@pytest.mark.parametrize("value", values(), ids=lambda v: type(v).__name__)
def test_fields_cannot_be_assigned(value):
    assert value._fields
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)


def test_fifteen_distinct_types():
    assert len({type(v) for v in values()}) == 15


def test_certificates_are_told_apart_by_type():
    # equal fields make the two certificates equal as tuples, so the CLI
    # names the count by the certificate's type
    s = frozenset({1})
    barrier, cert = factors.MatchingBarrier(s, 3), factors.FactorCertificate(s, 3)
    assert cli._factor_cert_json(barrier) == {"witness": [1], "odd_components": 3}
    assert cli._factor_cert_json(cert) == {"witness": [1], "isolated": 3}


def test_edge_set_of_a_cycle():
    cycle = cycles.HamCycle(2, 2, (1, 2, 4, 3))
    assert cycle.edge_set == {(1, 2), (2, 4), (3, 4), (1, 3)}
    assert cycle.order == 4 and cycle.labels() == ((1, 1), (1, 2), (2, 2), (2, 1))
