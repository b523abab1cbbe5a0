"""Seeded inputs of the benchmark workloads.

An instance is a named list of raw exponent vectors.  Its name fixes its
content completely, so the component text each instance decomposes to can be
recorded once (``digests.json``) and checked on every run.  A run seed only
chooses which instances of a fixed pool a workload uses; every pool member
has a recorded digest.

Three generators feed the workloads:

- ``generic``: ``gen_random(..., generic=True)``, the generic ladder;
- ``power``: every monomial of degree ``d``, the power ideal m^d;
- ``shell``: a seeded ``k``-subset of the degree-``d`` monomials.  Any subset
  of one degree shell is an antichain, so all ``k`` vectors survive
  minimalization, unlike uniformly random non-generic samples.

A scaled instance multiplies every exponent of another instance by 1000.
Its components are the other instance's components times 1000, but its
oracle box is 1000^n times larger.
"""

import itertools
import random
from dataclasses import dataclass

# Instance seeds per seeded shape.  Digests are recorded for all of them.
POOL = 32
SCALE = 1000


@dataclass(frozen=True)
class Instance:
    name: str
    n: int
    vectors: tuple
    scaled_from: str = None


@dataclass(frozen=True)
class Shape:
    """A family of instances: ``kind`` with ``n`` variables.

    ``d`` is the degree bound (``maxdeg`` of ``generic``, the shell degree
    otherwise) and ``k`` the sample size (``p`` of ``generic``).
    """

    kind: str
    n: int
    d: int
    k: int = 0

    @property
    def seeded(self):
        return self.kind != "power"

    def instance(self, seed=0):
        if self.kind == "power":
            return Instance(f"power-n{self.n}-d{self.d}", self.n,
                            tuple(degree_shell(self.n, self.d)))
        if self.kind == "shell":
            rng = random.Random(f"shell/{self.n}/{self.d}/{self.k}/{seed}")
            vectors = rng.sample(degree_shell(self.n, self.d), self.k)
            return Instance(f"shell-n{self.n}-d{self.d}-k{self.k}-s{seed}",
                            self.n, tuple(vectors))
        if self.kind == "generic":
            from monideal import gen_random
            g = gen_random(self.n, self.k, self.d, seed, generic=True)
            return Instance(f"generic-n{self.n}-p{self.k}-m{self.d}-s{seed}",
                            self.n, g.gens)
        raise ValueError(f"unknown shape kind {self.kind!r}")

    def pool(self):
        seeds = range(POOL) if self.seeded else (0,)
        return [self.instance(s) for s in seeds]


def degree_shell(n, d):
    """All exponent vectors of total degree ``d`` in ``n`` variables."""
    out = []
    for bars in itertools.combinations(range(d + n - 1), n - 1):
        prev, v = -1, []
        for b in bars:
            v.append(b - prev - 1)
            prev = b
        v.append(d + n - 2 - prev)
        out.append(tuple(v))
    return out


def scaled(inst):
    return Instance(f"x{SCALE}-{inst.name}", inst.n,
                    tuple(tuple(SCALE * e for e in v) for v in inst.vectors),
                    scaled_from=inst.name)


@dataclass(frozen=True)
class Spec:
    """What a workload runs.

    Each field lists ``(shape, count)`` pairs.  ``both`` instances are
    decomposed in process by both engines, ``incremental`` and ``recursive``
    ones by that engine only, and ``batch`` instances are written as files
    for the CLI.  Every ``scale_every``-th batch file is a scaled copy of the
    file before it.
    """

    both: tuple = ()
    incremental: tuple = ()
    recursive: tuple = ()
    batch: tuple = ()
    scale_every: int = 0

    def shapes(self):
        return [s for s, _ in self.both + self.incremental + self.recursive + self.batch]


G, S, P = "generic", "shell", "power"
CERTIFIED = (Shape(G, 3, 30, 30), Shape(G, 4, 14, 14), Shape(G, 5, 8, 8),
             Shape(S, 3, 12, 30), Shape(S, 4, 7, 40), Shape(S, 5, 5, 40))

WORKLOADS = {
    "generic-large": Spec(
        incremental=((Shape(G, 3, 800, 400), 1), (Shape(G, 4, 400, 200), 1),
                     (Shape(G, 5, 200, 100), 1)),
        recursive=((Shape(G, 4, 60, 30), 3), (Shape(G, 3, 120, 60), 3)),
        batch=((Shape(G, 3, 40, 40), 12), (Shape(G, 4, 24, 24), 12),
               (Shape(G, 5, 12, 12), 8))),
    "nongeneric-dense": Spec(
        both=((Shape(P, 4, 12), 1), (Shape(P, 3, 20), 1), (Shape(P, 5, 6), 1),
              (Shape(S, 4, 14, 250), 1), (Shape(S, 3, 30, 200), 1),
              (Shape(S, 5, 8, 250), 1)),
        batch=((Shape(S, 3, 16, 60), 16), (Shape(S, 4, 9, 80), 16),
               (Shape(S, 5, 6, 80), 16))),
    "certified-batch": Spec(
        both=tuple((shape, 8) for shape in CERTIFIED),
        batch=tuple((shape, 32) for shape in CERTIFIED),
        scale_every=8),
}

# The same three workloads at a size that runs in seconds, for the self-test.
TINY = {
    "generic-large": Spec(
        incremental=((Shape(G, 3, 24, 12), 1),),
        recursive=((Shape(G, 3, 12, 6), 1),),
        batch=((Shape(G, 3, 8, 8), 2),)),
    "nongeneric-dense": Spec(
        both=((Shape(P, 3, 4), 1), (Shape(S, 3, 6, 5), 1)),
        batch=((Shape(S, 3, 5, 4), 2),)),
    "certified-batch": Spec(
        both=((Shape(G, 3, 6, 6), 1), (Shape(S, 3, 5, 4), 1)),
        batch=((Shape(G, 3, 6, 6), 3), (Shape(S, 3, 5, 4), 2)),
        scale_every=4),
}


@dataclass
class Workload:
    incremental: list
    recursive: list
    batch: list


def _draw(rng, shapes):
    out = []
    for shape, count in shapes:
        if not shape.seeded:
            out.extend(shape.instance() for _ in range(count))
        else:
            out.extend(shape.instance(s) for s in rng.sample(range(POOL), count))
    return out


def build(name, seed, tiny=False):
    """The instances of workload ``name`` for run seed ``seed``."""
    spec = (TINY if tiny else WORKLOADS)[name]
    rng = random.Random(f"{name}/{seed}")
    both = _draw(rng, spec.both)
    inc = both + _draw(rng, spec.incremental)
    rec = both + _draw(rng, spec.recursive)
    batch = _draw(rng, spec.batch)
    rng.shuffle(batch)
    if spec.scale_every:
        for i in range(spec.scale_every - 1, len(batch), spec.scale_every):
            batch[i] = scaled(batch[i - 1])
    return Workload(inc, rec, batch)


def pool_instances():
    """Every instance any run seed can draw, scaled copies excluded."""
    seen = {}
    for specs in (WORKLOADS, TINY):
        for spec in specs.values():
            for shape in spec.shapes():
                for inst in shape.pool():
                    seen.setdefault(inst.name, inst)
    return list(seen.values())
