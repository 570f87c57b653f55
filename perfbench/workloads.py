"""The job streams of the hopfqexp benchmark.

A job is one answer a user waits for: an in-process call of
``hopfqexp.cli.main(argv)`` with stdout captured, or a call to a public
library function.  Every job carries the check that decides whether its
output is right.  Outputs of jobs drawn from the fixed preset pools are
compared with the sha256 digests in ``reference.json``; outputs on the
seeded group tables are checked against values the benchmark computes
from the tables themselves.

Each workload is a fixed catalogue of jobs.  A round runs the whole
catalogue once, in an order drawn from the seed, so that every round does
the same work whatever the seed; the seed also draws the generated inputs
(group tables) and the parametrised presets from fixed pools of equal
cost.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import re
from dataclasses import dataclass
from math import lcm
from pathlib import Path
from typing import Any, Callable

from hopfqexp import cli, double, presets, qexp, twist
from hopfqexp.scalars import scalar_to_json

WORKLOADS = ("qexp-troute", "double-check", "suite-small")

#: the preset zoo as it stood when the reference digests were recorded; the
#: benchmark keeps its own copy so that its catalogue never changes with
#: the library's
ZOO = [
    "trivial",
    "group:builtin:Z2", "group:builtin:Z3", "group:builtin:Z4",
    "group:builtin:Z6", "group:builtin:Z2xZ2", "group:builtin:S3",
    "dualgroup:builtin:Z3", "dualgroup:builtin:S3",
    "sweedler", "taft:2", "taft:3", "taft:4", "taft:5",
    "uqb2:3", "uqsl2:3",
    "tensor:sweedler,group:builtin:Z3",
]
TROUTE_PRESETS = ZOO + ["taft:6", "taft:7", "taft:8", "uqb2:5", "uqb2:7"]
REPORT_COMMANDS = (("qexp",), ("qexp", "--format", "json"), ("exponent",),
                   ("s2-order",), ("grouplikes",))

#: presets of dimension <= 9 whose doubles the double-check workload builds;
#: each round adds one conductor-3 preset of dimension 9 (a double of
#: dimension 81) drawn from DOUBLE81_POOL.  The small doubles are the common
#: case and run twice a round, which also gives the median enough samples.
DOUBLE_PRESETS = [
    "trivial", "group:builtin:Z2", "group:builtin:Z3", "group:builtin:Z4",
    "group:builtin:Z6", "group:builtin:Z2xZ2", "group:builtin:S3",
    "dualgroup:builtin:Z3", "dualgroup:builtin:S3", "sweedler", "taft:2",
]
DOUBLE81_POOL = ("uqb2:3", "taft:3")
BIG_DOUBLE = "uqsl2:3"

SUITE_ARGV = ["suite", "--max-dim", "8"]
SUITE_ITEMS = 22


@dataclass
class CliResult:
    rc: int
    out: str


@dataclass(eq=False)
class Job:
    """One unit of work and the check of its output.

    ``payload`` turns the job's value into the bytes whose digest is kept
    in ``reference.json`` under ``key``; ``verify`` checks facts that do
    not come from a stored digest and returns nothing when all is right.
    """

    key: str
    fn: Callable[[], Any]
    payload: Callable[[Any], bytes] | None = None
    verify: Callable[[Any], str | None] | None = None
    #: a job that must run earlier in the same round (it writes our input)
    after: "Job | None" = None

    def check(self, value: Any, reference: dict) -> str | None:
        if isinstance(value, CliResult) and value.rc != 0:
            return f"exit code {value.rc}"
        if self.payload is not None:
            want = reference.get(self.key)
            if want is None:
                return "no reference digest"
            if sha256(self.payload(value)) != want:
                return "output differs from its reference digest"
        if self.verify is not None:
            return self.verify(value)
        return None


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(argv: list[str]) -> CliResult:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return CliResult(rc, buf.getvalue())


def _stdout(value: CliResult) -> bytes:
    return value.out.encode()


def cli_job(argv: list[str], key: str | None = None, **kw) -> Job:
    """A CLI job whose stdout is checked against its reference digest."""
    return Job(key or " ".join(argv), lambda: run_cli(argv), payload=_stdout, **kw)


# -- qexp-troute ------------------------------------------------------------------

def _cyclic_product(*orders):
    elems = list(itertools.product(*[range(n) for n in orders]))
    return elems, lambda a, b: tuple((x + y) % n for x, y, n in zip(a, b, orders))


def _dihedral(n):
    elems = [(r, s) for s in (0, 1) for r in range(n)]
    return elems, lambda a, b: ((a[0] + (-1) ** a[1] * b[0]) % n, (a[1] + b[1]) % 2)


def _dicyclic(n):
    """Dic_n = <a, x | a^(2n) = 1, x^2 = a^n, x a x^-1 = a^-1>, of order 4n."""
    m = 2 * n

    def mul(a, b):
        (k1, s1), (k2, s2) = a, b
        if s1 == 0:
            return ((k1 + k2) % m, s2)
        if s2 == 0:
            return ((k1 - k2) % m, 1)
        return ((k1 - k2 + n) % m, 0)
    return [(k, s) for s in (0, 1) for k in range(m)], mul


def _alternating4():
    def parity(p):
        return sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2
    elems = [p for p in itertools.permutations(range(4)) if parity(p) == 0]
    return elems, lambda a, b: tuple(a[b[i]] for i in range(4))


#: one group is drawn from each pool; groups in a pool have the same order,
#: so every seed does about the same work
GROUP_POOLS = {
    "G8": [lambda: _cyclic_product(8), lambda: _cyclic_product(4, 2),
           lambda: _cyclic_product(2, 2, 2), lambda: _dihedral(4),
           lambda: _dicyclic(2)],
    "G10": [lambda: _cyclic_product(10), lambda: _dihedral(5)],
    "G12": [lambda: _cyclic_product(12), lambda: _cyclic_product(6, 2),
            lambda: _dihedral(6), lambda: _dicyclic(3), _alternating4],
}


def random_group_table(rng: random.Random, pool: str) -> list[list[int]]:
    """A Cayley table from the pool, with its elements in a random order."""
    elems, mul = rng.choice(GROUP_POOLS[pool])()
    order = elems[:]
    rng.shuffle(order)
    index = {g: i for i, g in enumerate(order)}
    return [[index[mul(a, b)] for b in order] for a in order]


def element_orders(table: list[list[int]]) -> list[int]:
    """Order of each element, read off the Cayley table."""
    n = len(table)
    ident = next(e for e in range(n) if all(table[e][j] == j for j in range(n)))
    orders = []
    for g in range(n):
        k, power = 1, g
        while power != ident:
            power, k = table[power][g], k + 1
        orders.append(k)
    return orders


_LINE_INT = re.compile(r"^\s*(qexp|exponent|s2_order)\s+(\S+)\s*$", re.M)


def _group_verifier(command: tuple[str, ...], name: str, orders: list[int]):
    """Remark 2.2(1): on C[G], qexp = exponent = exp(G), and S^2 = id."""
    exp_g = lcm(*orders)

    def verify(value: CliResult) -> str | None:
        out = value.out
        if command == ("qexp", "--format", "json"):
            doc = json.loads(out)
            got = {"qexp": doc["qexp"], "exponent": doc["exponent"],
                   "s2_order": doc["s2_order"]}
            want = {"qexp": exp_g, "exponent": exp_g, "s2_order": 1}
        elif command == ("qexp",):
            got = {k: v for k, v in _LINE_INT.findall(out)}
            want = {"qexp": str(exp_g), "exponent": str(exp_g), "s2_order": "1"}
        elif command == ("exponent",):
            got, want = out, f"{name}: exponent {exp_g}\n"
        elif command == ("s2-order",):
            got, want = out, f"{name}: s2_order 1\n"
        else:
            got = out
            want = (f"{name}: {len(orders)} grouplikes, orders {orders}, "
                    f"exponent {exp_g}\n")
        return None if got == want else f"expected {want!r}, got {got!r}"
    return verify


def _troute_group_jobs(rng: random.Random, workdir: Path) -> list[Job]:
    jobs = []
    for pool in GROUP_POOLS:
        table = random_group_table(rng, pool)
        name = f"C[{pool}]"
        path = workdir / f"{pool}.json"
        path.write_text(json.dumps({"table": table, "name": name}))
        orders = element_orders(table)
        for command in REPORT_COMMANDS:
            argv = [command[0], "--preset", f"group:{path}", *command[1:]]
            jobs.append(Job(" ".join(argv), lambda a=argv: run_cli(a),
                            verify=_group_verifier(command, name, orders)))
    return jobs


def _troute_preset_jobs() -> list[Job]:
    return [cli_job([c[0], "--preset", p, *c[1:]])
            for p in TROUTE_PRESETS for c in REPORT_COMMANDS]


# -- double-check -----------------------------------------------------------------

def _double_jobs(preset: str, workdir: Path) -> list[Job]:
    """Write D(H), read it back and validate it, cross-check qexp, verify D(H)."""
    path = workdir / f"D-{preset.replace(':', '_')}.json"
    write = ["double", "--preset", preset, "--format", "json", "--out", str(path)]
    read = ["validate", "--in", str(path)]

    def verify_qt():
        qt = double.drinfeld_double(presets.get_preset(preset))
        return double.verify_quasitriangular(qt)

    def verify_s2():
        qt = double.drinfeld_double(presets.get_preset(preset))
        return double.verify_s2_conjugation(qt, double.drinfeld_element(qt))

    writer = Job(f"double --preset {preset} --format json --out FILE",
                 lambda: run_cli(write), payload=lambda _: path.read_bytes())
    return [
        writer,
        cli_job(read, key=f"validate --in D({preset})", after=writer),
        cli_job(["qexp", "--preset", preset, "--cross-check"]),
        Job(f"verify_quasitriangular(D({preset}))", verify_qt,
            verify=lambda v: None if v == [] else f"violations {v}"),
        Job(f"verify_s2_conjugation(D({preset}))", verify_s2,
            verify=lambda v: None if v is True else "S^2 is not conjugation by u"),
    ]


def _big_double_job() -> Job:
    """D(uqsl2:3), of dimension 729, and the minimal polynomial of its u from
    the power sequence, which must equal the T-route polynomial.

    The job calls the library: ``double --preset uqsl2:3`` through the CLI
    also serialises the whole double to a document, even for text output,
    which takes many minutes and gigabytes at this size.
    """
    def fn():
        qt = double.drinfeld_double(presets.get_preset(BIG_DOUBLE))
        regular = qexp.element_minimal_polynomial(double.drinfeld_element(qt))
        troute = qexp.u_min_poly_via_t(presets.get_preset(BIG_DOUBLE))
        return (qt.algebra.dim, qt.algebra.conductor), regular, troute

    def verify(value):
        shape, regular, troute = value
        if shape != (729, 3):
            return f"D({BIG_DOUBLE}) has dimension and conductor {shape}"
        return None if regular == troute else "u minimal polynomials differ"

    return Job(f"drinfeld_double({BIG_DOUBLE}) + minpoly(u) route check", fn,
               payload=lambda v: json.dumps([scalar_to_json(c) for c in v[1].coeffs]).encode(),
               verify=verify)


# -- suite-small --------------------------------------------------------------------

def _suite_job(argv: list[str]) -> Job:
    def verify(value: CliResult) -> str | None:
        lines = value.out.splitlines()
        passed = sum(line.rstrip().endswith("... PASS") for line in lines)
        if passed != SUITE_ITEMS or lines[-1] != f"{SUITE_ITEMS}/{SUITE_ITEMS} checks passed":
            return f"{passed}/{SUITE_ITEMS} items passed"
        return None
    return cli_job(argv, verify=verify)


def _suite_warmup() -> Job:
    """The suite's Sweedler-ansatz twists, its only use of sympy, so that the
    lazy sympy import lands in set-up."""
    def verify(twists) -> str | None:
        if len(twists) == 3 and all(twist.is_twist(t.parent, t.J, t.J_inv)[0]
                                    for t in twists):
            return None
        return "the Sweedler ansatz did not give three twists"
    return Job("sweedler_ansatz_twists()", twist.sweedler_ansatz_twists, verify=verify)


# -- workloads ----------------------------------------------------------------------

@dataclass
class Workload:
    name: str
    warmup: Job
    catalogue: list[Job]
    #: presets whose structure constants feed the scalar micro-kernels
    scalar_presets: list[str]

    def round(self, rng: random.Random) -> list[Job]:
        """The catalogue in a seeded order, each job after the one it reads."""
        order = self.catalogue[:]
        rng.shuffle(order)
        for job in self.catalogue:
            if job.after is not None:
                i, j = order.index(job), order.index(job.after)
                if i < j:
                    order[i], order[j] = order[j], order[i]
        return order


def build(name: str, seed: int, workdir: Path) -> Workload:
    """The workload's catalogue, with its seeded inputs written to workdir."""
    rng = random.Random(f"{name}:{seed}")
    if name == "qexp-troute":
        jobs = _troute_preset_jobs() + _troute_group_jobs(rng, workdir)
        return Workload(name, cli_job(["qexp", "--preset", "sweedler"]), jobs,
                        TROUTE_PRESETS)
    if name == "double-check":
        chosen = DOUBLE_PRESETS + [rng.choice(DOUBLE81_POOL)]
        jobs = [j for p in DOUBLE_PRESETS + chosen for j in _double_jobs(p, workdir)]
        jobs.append(_big_double_job())
        warmup = _double_jobs("sweedler", workdir)[0]
        return Workload(name, warmup, jobs, chosen + [BIG_DOUBLE])
    if name == "suite-small":
        # the twist items run on uqb2:3 and uqsl2:3 whatever --max-dim is
        return Workload(name, _suite_warmup(), [_suite_job(SUITE_ARGV)],
                        DOUBLE_PRESETS + ["uqb2:3", BIG_DOUBLE])
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def reference_jobs(workdir: Path) -> list[Job]:
    """Every job whose output has a reference digest, in a runnable order."""
    jobs = _troute_preset_jobs()
    for p in DOUBLE_PRESETS + list(DOUBLE81_POOL):
        jobs += _double_jobs(p, workdir)
    jobs.append(_big_double_job())
    jobs.append(_suite_job(SUITE_ARGV))
    return [j for j in jobs if j.payload is not None]
