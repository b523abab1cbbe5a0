"""Incremental decomposition: absorb one generator at a time.

The component list of the ideal generated so far is maintained as an
antichain.  A new generator exponent ``alpha`` splits it in two: components
whose open corner does not contain ``alpha`` survive untouched, while each
component strictly above ``alpha`` is replaced by up to ``n`` lowered copies,
one per variable.  A lowered copy survives exactly when its new exponent
clears the blocking degree computed from the generators dividing the
component, so no reduction pass over the whole list is ever needed.

A step does only that partition, the divisor probe and the lowering; the
proofs are in ``IncrementalState.add_generator``.  It is the sum rule
Irr(I + <X^alpha>) = max{beta ^ gamma} with a principal ideal, exact for any
``alpha`` in any order: an ``alpha`` already in the ideal has no component
strictly above it and changes nothing, and one that divides absorbed
generators needs no special case.  The absorbed generators and their degree
index only grow; an entry that a later ``alpha`` divides never changes a
lowering limit.  Lowered copies are distinct from each other and from the
untouched components, so no duplicate check is made.

Components are kept in insertion order, in two lists.  The partition
scans only the active ones.  A copy lowered at the last variable takes
``alpha``'s last coordinate, and in lex order no later ``alpha`` has a
smaller one, so it can never again lie strictly above a generator: it is
final output and is retired to a list that the partition never scans.
What stays active is the decomposition of the current link of the
recursive engine's slice chain, with the last coordinate at its pure-power
degree.  A caller that absorbs out of lex order, such as that engine's
chain tail, gets retired components moved back first, so every order stays
exact.  Both lists are sorted once, together, by the final
``ComponentSet``.  The partition, the divisor probe and the lowering
limits run in plain Python and C builtins (a set union of
the probed buckets, ``map`` over ``operator.gt``, ``operator.le``,
``operator.eq`` and ``min``): a step scans only one chain link's
components, most of which its first coordinates reject, and lowers a few,
so numpy's fixed cost per call would exceed the work.

Engines run on the finite Artinian closure (every internal comparison is
between integers) and the injected bounds are mapped back to INF at the end.
The individual operations also accept vectors with INF coordinates, where a
generator containing INF stands for the zero polynomial and divides nothing.
"""

from dataclasses import dataclass
from operator import eq, gt, le

from .core import (ComponentSet, INF, deartinianize, lex_key, maximalize,
                   replace_coord, unit_vector)


def partition_components(comps, alpha, counter=None):
    """Split components by whether ``alpha`` sits strictly below them.

    Returns ``(untouched, affected)`` as lists of the components of
    ``comps``, in its order: the untouched components already contain
    X^alpha and survive as they are; the affected ones must be lowered.  One
    comparison per component is charged.  The first two coordinates (the
    first twice when ``n = 1``) are tested before the full comparison: in a
    lex run most components are rejected there, and the last coordinate,
    the pure-power degree, never rejects.
    """
    if counter is not None:
        counter.add(len(comps))
    j = min(1, len(alpha) - 1)
    a0, aj = alpha[0], alpha[j]
    untouched, affected = [], []
    for beta in comps:
        if beta[0] > a0 and beta[j] > aj and all(map(gt, beta, alpha)):
            affected.append(beta)
        else:
            untouched.append(beta)
    return untouched, affected


def dividing_generators(beta, index, counter=None):
    """Generators dividing X^beta, probed through the degree index.

    ``index`` maps ``(u, d)`` to the generators of ``x_u``-degree ``d``
    (``IncrementalState.index``).  Correct whenever ``beta`` is a current
    component: every divisor of such a component matches its degree in at
    least one variable, hence shows up in a probed bucket.  Generators with
    an INF coordinate divide nothing.  Charges one op per distinct candidate
    (a generator in several probed buckets counts once).  The divisors come
    back in no particular order.
    """
    candidates = set().union(*[index.get(key, ()) for key in enumerate(beta)])
    if counter is not None:
        counter.add(len(candidates))
    return [m for m in candidates if INF not in m and all(map(le, m, beta))]


def lowering_limits(beta, divisors, counter=None):
    """Per-variable blocking degrees for lowering component ``beta``.

    For each variable ``u`` the limit is the largest, over the other
    variables ``k``, of the smallest ``x_u``-degree among divisors that match
    ``beta`` in ``x_k`` alone.  The lowered component with new exponent ``a``
    at ``u`` survives exactly when ``a`` exceeds the limit, i.e.
    ``limit < a``.  Variables with no single-variable matcher contribute
    nothing (the limit of an empty set is -INF).  Charges one op per divisor;
    the result does not depend on the divisors' order.
    """
    n = len(beta)
    min_only = [None] * n  # per matched variable k: coordinatewise min of its lone matchers
    for m in divisors:
        eqs = list(map(eq, m, beta))
        if eqs.count(True) == 1:
            k = eqs.index(True)
            row = min_only[k]
            min_only[k] = m if row is None else tuple(map(min, row, m))
    if counter is not None:
        counter.add(len(divisors))
    if divisors and n > 1 and all(row is None for row in min_only):
        raise RuntimeError(f"no generator matches {beta} in a single variable; "
                           "it cannot be a component of the current ideal")
    limits = []
    for u in range(n):
        best = -INF
        for k in range(n):
            if k != u and min_only[k] is not None and min_only[k][u] > best:
                best = min_only[k][u]
        limits.append(best)
    return limits


@dataclass
class TraceStep:
    """Record of one absorbed generator, in the external trace shape."""

    step: int
    alpha: tuple
    t1_size: int
    t2_size: int
    kept: list       # (beta, u, limit, candidate) tuples, u 0-based
    rejected: list

    def record(self, relabel):
        """External dict form: vectors go through ``relabel`` (the closure's
        map back to the original ideal) and ``u`` is reported 1-based."""

        def entry(e):
            beta, u, limit, cand = e
            return {"beta": list(relabel(beta)), "u": u + 1, "d": limit,
                    "candidate": list(relabel(cand))}

        return {"step": self.step, "alpha": list(self.alpha),
                "t1_size": self.t1_size, "t2_size": self.t2_size,
                "kept": [entry(e) for e in self.kept],
                "rejected": [entry(e) for e in self.rejected]}


class IncrementalState:
    """Single-owner state of one incremental run.

    Holds the generators absorbed so far in absorb order and their degree
    index ``{(u, degree): [generators]}``, both append-only (see
    ``add_generator``), and the current components, which always equal the
    decomposition of the ideal the absorbed generators span.  They are
    split in two lists, each in insertion order:

    - ``active``, which the partition scans.
    - ``retired``, the components kept from a lowering at the last variable,
      which the partition never scans.  ``floor`` is the largest last
      coordinate among them (-INF while there are none).

    ``components`` returns all current components, active then retired, as
    a new list; ``len(state)`` counts them without building it.  ``_lost``
    holds the components the last ``add_generator`` call removed, which the
    recursive engine emits from its chain tail.
    """

    def __init__(self, n, components, generators, counter=None):
        self.n = n
        self.active = [tuple(c) for c in components]
        self.retired = []
        self.floor = -INF
        self.generators = [tuple(m) for m in generators]
        self.index = {}
        for m in self.generators:
            self._index(m)
        self.counter = counter
        self.steps = 0
        self._lost = []

    @property
    def components(self):
        return self.active + self.retired

    def __len__(self):
        return len(self.active) + len(self.retired)

    def _index(self, m):
        for u in range(self.n):
            self.index.setdefault((u, m[u]), []).append(m)

    @classmethod
    def start(cls, art, counter=None):
        """State for an Artinian closure before any non-pure generator.

        The lone component is the vector of pure-power degrees; the pure
        powers themselves are the generators already absorbed.
        """
        degs = art.pure_degrees()
        gens = [unit_vector(art.n, i, degs[i]) for i in range(art.n)]
        return cls(art.n, [degs], gens, counter)

    def add_generator(self, alpha, trace=None, cross_check=False):
        """Absorb one generator and update the components exactly.

        ``alpha`` is any exponent vector of length ``n`` (else
        ``ValueError``), absorbed in any order.  The components ``beta``
        decompose the ideal I of the generators, and X^alpha lies outside
        the irreducible ideal of ``beta`` iff ``alpha_i < beta_i`` for every
        ``i``.  So X^alpha is already in I iff no component lies strictly
        above ``alpha``; the components are then left as they are, ``alpha``
        is not recorded and no trace step is written.  (An ``alpha`` with an
        INF coordinate stands for zero, which lies in every ideal, and no
        component lies above it.)

        Otherwise ``alpha`` is appended to ``generators`` and the degree
        index, and no generator it divides is removed: the index holds
        elements of I, every minimal generator among them.  Such a stale
        entry changes nothing.  A divisor ``e`` of a component ``beta`` is in
        I, so it cannot lie strictly below ``beta`` and matches it in some
        variable: the divisor probe stays complete.  If ``e`` is a lone
        matcher of ``beta`` at ``k``, some minimal generator ``g <= e`` is in
        the index, and ``g`` cannot lie strictly below ``beta`` either, so
        ``g_k = beta_k`` and ``g`` is a lone matcher at ``k`` too.  So every
        minimum that ``lowering_limits`` takes is unchanged.

        Only the active components are partitioned.  A retired ``beta``
        has ``beta_n <= floor``, and ``alpha_n >= floor`` is ensured first:
        when ``alpha`` breaks lex order with ``alpha_n < floor``, every
        retired component moves back into ``active``.  That reactivation is
        the exactness guard for out-of-order callers, such as the recursive
        engine's chain tail; ``decompose_incremental`` never triggers it.
        So ``beta_n <= alpha_n`` and ``beta`` is not strictly above
        ``alpha``.  Therefore ``beta`` is untouched by the step, X^alpha is
        in I iff no *active* component lies strictly above it, and the
        divisor probe and the lowering limits, which run on affected
        components only, never see ``beta``.  A kept candidate lowered at
        the last variable has last coordinate ``alpha_n``, so it is retired
        and ``floor`` becomes ``alpha_n``, which keeps the same argument
        valid for every later ``alpha`` with ``alpha_n >= floor``.

        The affected components are the ones the step removes: every kept
        candidate is new, as shown next.  They are left in ``_lost``.  An
        ``alpha`` of zeros generates the unit ideal: every component is
        affected and every lowering is rejected, so without a ``trace`` the
        divisor probe and the lowering limits are skipped.

        The lowered candidates that are kept are distinct from each other
        and from the untouched components, so no duplicate check is made.
        A candidate lowered from ``beta`` at ``u`` equals ``alpha`` in
        coordinate ``u`` and ``beta > alpha`` everywhere else, so it fixes
        ``u``; two equal candidates then have parents that agree off ``u``,
        which are comparable, hence equal, as the components form an
        antichain.  An untouched component equal to a candidate would lie
        strictly below the candidate's parent, against the antichain.

        Components stay in insertion order; ``affected`` is sorted by
        ``lex_key`` so that the trace lists lowerings in lex order of their
        parents.  When ``cross_check`` is set, the update is recomputed as a
        full reduction of all lowered candidates against every untouched
        component, active and retired, and a ``RuntimeError`` is raised
        unless both routes agree, which also catches a duplicate.
        """
        alpha = tuple(alpha)
        if len(alpha) != self.n:
            raise ValueError(f"generator {alpha} has length {len(alpha)}, expected {self.n}")
        if alpha[-1] < self.floor:
            self.active.extend(self.retired)
            self.retired, self.floor = [], -INF
        untouched, affected = partition_components(self.active, alpha, self.counter)
        self._lost = affected
        if not affected:
            return self

        last = self.n - 1
        kept, rejected, lowered, retiring = [], [], [], []
        # a zero exponent would denote the unit ideal, never a component, so
        # an alpha of zeros keeps no lowering and only a trace needs its
        # rejected candidates and their limits
        probed = sorted(affected, key=lex_key) if any(alpha) or trace is not None else []
        for beta in probed:
            divisors = dividing_generators(beta, self.index, self.counter)
            limits = lowering_limits(beta, divisors, self.counter)
            for u in range(self.n):
                cand = replace_coord(beta, u, alpha[u])
                if alpha[u] >= 1 and limits[u] < alpha[u]:
                    kept.append((beta, u, limits[u], cand))
                    (retiring if u == last else lowered).append(cand)
                else:
                    rejected.append((beta, u, limits[u], cand))

        if cross_check:
            rest = untouched + self.retired
            candidates = [e[3] for e in kept] + [e[3] for e in rejected]
            reduced = maximalize(rest + [c for c in candidates if min(c) >= 1])
            if (sorted(reduced, key=lex_key)
                    != sorted(rest + lowered + retiring, key=lex_key)):
                raise RuntimeError("exact update disagrees with full reduction")

        self.active = untouched + lowered
        self.generators.append(alpha)
        self._index(alpha)
        self.steps += 1
        if trace is not None:
            trace.append(TraceStep(self.steps, alpha, len(untouched) + len(self.retired),
                                   len(affected), kept, rejected))
        if retiring:
            self.retired.extend(retiring)
            self.floor = alpha[-1]
        return self


def decompose_incremental(g, *, counter=None, trace=None, t_sizes=None,
                          cross_check=False):
    """Decompose a generator set by absorbing generators one at a time.

    Generators are absorbed in lex order, which keeps the component count
    from shrinking on generic input.  ``trace`` (a list) receives one
    external-form record per step; ``t_sizes`` (a list) receives the
    component count before any step and after each one.
    """
    if g.is_unit():
        if t_sizes is not None:
            t_sizes.append(0)
        return ComponentSet.from_vectors(g.n, [])
    art = g.closure
    state = IncrementalState.start(art, counter)
    if t_sizes is not None:
        t_sizes.append(len(state))

    raw_trace = [] if trace is not None else None
    for alpha in art.alphas():
        state.add_generator(alpha, trace=raw_trace, cross_check=cross_check)
        if t_sizes is not None:
            t_sizes.append(len(state))

    result = deartinianize(state.components, art)
    if trace is not None:
        trace.extend(step.record(art.relabel) for step in raw_trace)
    return result
