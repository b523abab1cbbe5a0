"""Incremental decomposition: absorb one generator at a time.

The component list of the ideal generated so far is maintained as an
antichain.  A new generator exponent ``alpha`` splits it in two: components
whose open corner does not contain ``alpha`` survive untouched, while each
component strictly above ``alpha`` is replaced by up to ``n`` lowered copies,
one per variable.  A lowered copy survives exactly when its new exponent
clears the blocking degree read off the generators matching the component
in one variable alone, so no reduction pass over the whole list is needed.

A step does only that partition, the divisor probe and the lowering, and
returns the components it removed; the proofs are in
``IncrementalState.add_generator``.  It is the sum rule
Irr(I + <X^alpha>) = max{beta ^ gamma} with a principal ideal, exact for any
``alpha`` in any order: an ``alpha`` already in the ideal has no component
strictly above it and changes nothing, and one that divides absorbed
generators needs no special case.  The degree index of the absorbed
generators only grows; an entry that a later ``alpha`` divides never
changes a lowering limit.  Lowered copies are distinct from each other and
from the untouched components, so no duplicate check is made.

Components are kept in two lists.  The partition scans only the active
ones.  A copy lowered at the last variable takes ``alpha``'s last
coordinate, and in lex order no later ``alpha`` has a smaller one, so it
can never again lie strictly above a generator: it is final output and is
retired to a list that the partition never scans.
What stays active is the decomposition of the current link of the
recursive engine's slice chain, with the last coordinate at its pure-power
degree.  A caller that absorbs out of lex order, such as that engine's
chain tail, gets retired components moved back first, so every order stays
exact.  Both lists are sorted once, together, by the final
``ComponentSet``.

With three variables the active components form a staircase, the
two-dimensional object of the paper's first algorithm and of the recursive
engine's height-2 corner base case.  In a state built by
``IncrementalState.start``, every active component has the last coordinate
at its pure-power degree ``B``: the start vector has it, a copy lowered at
``x_0`` or ``x_1`` keeps its parent's, one lowered at ``x_2`` is retired,
and only a reactivation brings back a component with a smaller one.  Two
active components then differ in both of their first two coordinates, in
opposite directions, or one would lie below the other.  So ``active`` is
kept sorted by ``beta_0``, along which ``beta_1`` strictly falls.  A
component lies strictly above ``alpha`` only if ``beta_0 > alpha_0``,
which holds on a suffix of the list that ``bisect`` finds, and ``beta_1 >
alpha_1``, which holds on a prefix of that suffix, read forward.  The
partition runs on that run alone, and the kept lowered copies are spliced
back in ``beta_0`` order.  This path ends for good at the first
reactivation, after which the whole active list is scanned; states built
directly, such as the recursive engine's chain tail, never take it.  That
engine builds no state at height three, where it splices each slice into
a staircase of generators instead (``recursive.splice``).  In more
variables the active set has no such order, and every active component is
scanned.

The divisor probe reads, for each variable ``k``, the degree bucket
``(k, beta_k)`` of a lowered component ``beta``.  Every bucket is kept
sorted by one other coordinate ``c`` (``x_0``, or ``x_1`` when ``k = 0``),
and a lone matcher, which lies below ``beta`` off ``x_k``, has
``m_c < beta_c``; so the probe stops at the first member with
``m_c >= beta_c``, found by bisection, and nothing past it can match.

The partition, the divisor probe and the lowering limits run in plain
Python and C builtins (``map`` over ``operator.gt``, ``operator.lt``,
``min``, ``max`` and ``bisect``): a step scans only one chain link's
components, most of which its first coordinates reject, and probes one
degree bucket per variable for each of the few it lowers, so numpy's fixed
cost per call would exceed the work.

Engines run on the finite Artinian closure (every internal comparison is
between integers) and the injected bounds are mapped back to INF at the end.
The individual operations also accept vectors with INF coordinates, where a
generator containing INF stands for the zero polynomial and divides nothing.
"""

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from operator import gt, itemgetter, lt

from .core import (ComponentSet, INF, deartinianize, lex_key, replace_coord,
                   unit_vector)


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


def bucket_coordinate(k, n):
    """The coordinate that orders degree bucket ``(k, d)``: ``x_1`` when
    ``k = 0``, else ``x_0``; ``k`` itself in one variable."""
    return 0 if k else min(1, n - 1)


_BY = (itemgetter(0), itemgetter(1))  # sort keys of the bucket coordinates


def dividing_generators(beta, index, counter=None):
    """Lone matchers of ``beta`` as ``(k, m)`` pairs, ``k`` ascending.

    A lone matcher at ``k`` is a generator ``m`` with ``m_k = beta_k`` and
    ``m_j < beta_j`` for ``j != k``: it divides X^beta and meets it in
    ``x_k`` alone.  ``index`` maps ``(u, d)`` to the generators of
    ``x_u``-degree ``d`` (``IncrementalState.index``), so those at ``k`` are
    the members of bucket ``(k, beta_k)`` that lie below ``bump`` in every
    coordinate, ``bump`` being ``beta`` with coordinate ``k`` raised by one.
    A generator with an INF coordinate, standing for zero, never passes
    (``INF + 1`` is INF).

    Each bucket ``(k, d)`` is sorted by its coordinate ``c``, ``x_0``, or
    ``x_1`` when ``k = 0`` (``bucket_coordinate``), and the scan stops at
    the first member with ``m_c >= beta_c``.  Since ``c != k``, a lone
    matcher at ``k`` has ``m_c < beta_c``, and so does every member before
    it in the sorted bucket: none lies at or past the stopping member.
    ``bisect_left`` finds that member, unless the last member already has
    ``m_c < beta_c`` and the whole bucket is read.  The probe charges one
    op per member a scan reads, the stopping member included, so never more
    than the bucket holds.  In one variable there is no such ``c`` (every
    member of a bucket shares its only coordinate) and the whole bucket is
    read.

    A singleton bucket, all that generic input has, is read whole without
    the sort-coordinate test.  That changes neither the charge nor the
    result: either way it is one op, and a member with ``m_c >= beta_c``,
    which the bisection would have cut, fails the ``bump`` test at ``c``,
    where ``bump_c = beta_c`` since ``c != k``.
    """
    lone, compared = [], 0
    bump = list(beta)
    first = bucket_coordinate(0, len(beta))
    for k, b in enumerate(beta):
        bucket = index.get((k, b))
        if bucket:
            c = 0 if k else first
            if len(bucket) > 1 and c != k and bucket[-1][c] >= beta[c]:
                end = bisect_left(bucket, beta[c], key=_BY[c])
                compared += end + 1
                bucket = bucket[:end]
            else:
                compared += len(bucket)
            bump[k] = b + 1
            for m in bucket:
                if all(map(lt, m, bump)):
                    lone.append((k, m))
            bump[k] = b
    if counter is not None:
        counter.add(compared)
    return lone


def lowering_limits(beta, lone, counter=None):
    """Per-variable blocking degrees for lowering component ``beta``.

    ``lone`` holds ``beta``'s lone matchers from ``dividing_generators``.
    The limit at ``u`` is the largest, over the other variables ``k``, of
    the smallest ``x_u``-degree among the lone matchers at ``k`` (-INF when
    there are none).  The copy lowered to exponent ``a`` at ``u`` survives
    exactly when ``limit < a``.  Charges no ops.

    Raises ``RuntimeError`` when a finite ``beta_k`` has no lone matcher,
    which no component of the current ideal I allows.  Add x_i^N for every
    variable, N above every finite degree of ``beta`` and of I's minimal
    generators.  By the sum rule ``beta'``, ``beta`` with INF set to N, is a
    component of the result: one above it would come from a component of I
    above ``beta``.  So some generator divides X^(beta' - 1 + e_k) but not
    X^(beta' - 1): its ``x_k``-degree is ``beta_k`` and every other degree
    is below ``beta'``.  No x_i^N does that, so it is a finite minimal
    generator of I, which the index holds, and a lone matcher at ``k``.
    """
    n = len(beta)
    rows = {}  # per matched variable k: coordinatewise min of its lone matchers
    for k, m in lone:
        row = rows.get(k)
        rows[k] = m if row is None else tuple(map(min, row, m))
    if len(rows) + beta.count(INF) < n:
        raise RuntimeError(f"a finite coordinate of {beta} has no lone matcher; "
                           "it cannot be a component of the current ideal")
    # a variable's own row never limits it; the -INF seed column gives every
    # coordinate a maximum when no row matched (a component of all INF)
    masked = [row[:k] + (-INF,) + row[k + 1:] for k, row in rows.items()]
    return list(map(max, zip((-INF,) * n, *masked)))


@dataclass
class TraceStep:
    """Record of one absorbed generator, in the external trace shape."""

    step: int
    alpha: tuple
    t1_size: int
    t2_size: int
    lowerings: list  # (kept, beta, u, limit) tuples, u 0-based

    def record(self, relabel):
        """External dict form: each lowering's candidate is ``beta`` with
        coordinate ``u`` set to ``alpha_u``, vectors go through ``relabel``
        (the closure's map back to the original ideal) and ``u`` is
        reported 1-based."""
        out = {"kept": [], "rejected": []}
        for kept, beta, u, limit in self.lowerings:
            cand = replace_coord(beta, u, self.alpha[u])
            out["kept" if kept else "rejected"].append(
                {"beta": list(relabel(beta)), "u": u + 1, "d": limit,
                 "candidate": list(relabel(cand))})
        return {"step": self.step, "alpha": list(self.alpha),
                "t1_size": self.t1_size, "t2_size": self.t2_size, **out}


class IncrementalState:
    """Single-owner state of one incremental run.

    Holds the degree index ``{(u, degree): [generators]}`` of the generators
    absorbed so far over their nonzero degrees, which only grows (see
    ``add_generator``).  Each bucket is sorted by its ``bucket_coordinate``:
    the constructor fills the buckets and sorts each once, and a later
    generator is inserted in order.  It also holds the current components,
    which always equal the decomposition of the ideal the absorbed
    generators span.  They are split in two lists, each in insertion order:

    - ``active``, which the partition scans.
    - ``retired``, the components kept from a lowering at the last variable,
      which the partition never scans.  ``floor`` is the largest last
      coordinate among them (-INF while there are none).

    ``components`` returns all current components, active then retired, as
    a new list; ``len(state)`` counts them without building it.

    ``staircase`` is True while ``active`` is kept sorted by ``beta_0`` and
    the partition bisects it (see ``add_generator``).  Only ``start`` sets
    it, and only in three variables; the first reactivation clears it for
    good.  A state built directly never sets it, so its components stay in
    insertion order.
    """

    staircase = False

    def __init__(self, n, components, generators, counter=None):
        self.n = n
        self.active = [tuple(c) for c in components]
        self.retired = []
        self.floor = -INF
        self.index = {}
        self._keys = [_BY[bucket_coordinate(u, n)] for u in range(n)]
        for m in map(tuple, generators):
            for u, d in enumerate(m):
                if d:
                    self.index.setdefault((u, d), []).append(m)
        for (u, _), bucket in self.index.items():
            bucket.sort(key=self._keys[u])
        self.counter = counter
        self.steps = 0

    @property
    def components(self):
        return self.active + self.retired

    def __len__(self):
        return len(self.active) + len(self.retired)

    def _index(self, m):
        """File ``m`` under each nonzero degree, in bucket order.  A probed
        component has no zero coordinate, so no probe reads a bucket
        ``(u, 0)``."""
        for u, d in enumerate(m):
            if d:
                bucket = self.index.get((u, d))
                if bucket is None:
                    self.index[u, d] = [m]
                else:
                    insort(bucket, m, key=self._keys[u])

    @classmethod
    def start(cls, art, counter=None):
        """State for an Artinian closure before any non-pure generator.

        The lone component is the vector of pure-power degrees; the pure
        powers themselves are the generators already absorbed.
        """
        degs = art.pure_degrees()
        gens = [unit_vector(art.n, i, degs[i]) for i in range(art.n)]
        state = cls(art.n, [degs], gens, counter)
        state.staircase = art.n == 3
        return state

    def add_generator(self, alpha, trace=None):
        """Absorb one generator, update the components exactly and return
        the list of components the step removed.

        ``alpha`` is any exponent vector of length ``n`` (else
        ``ValueError``), absorbed in any order.  The components ``beta``
        decompose the ideal I of the generators, and X^alpha lies outside
        the irreducible ideal of ``beta`` iff ``alpha_i < beta_i`` for every
        ``i``.  So X^alpha is already in I iff no component lies strictly
        above ``alpha``; the components are then left as they are, ``alpha``
        is not indexed, no trace step is written and ``[]`` is returned.
        (An ``alpha`` with an INF coordinate stands for zero, which lies in
        every ideal, and no component lies above it.)

        Otherwise ``alpha`` is added to the degree index, and no generator
        it divides is removed: the index holds elements of I, every minimal
        generator among them.  Such a stale entry changes nothing.  A lone
        matcher of ``beta`` at ``k`` has ``x_k``-degree ``beta_k`` by
        definition, so it lies in the bucket ``(k, beta_k)`` that the divisor
        probe scans: the probe stays complete.  If a stale entry ``e`` is a
        lone matcher of a component ``beta`` at ``k``, some minimal
        generator ``g <= e`` is in the index, and ``g``, an element of I,
        cannot lie strictly below ``beta``, so ``g_k = beta_k`` and ``g`` is
        a lone matcher at ``k`` too.  So every minimum that
        ``lowering_limits`` takes is unchanged.

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

        The lowered candidates that are kept are distinct from each other
        and from the untouched components, so no duplicate check is made.
        A candidate lowered from ``beta`` at ``u`` equals ``alpha`` in
        coordinate ``u`` and ``beta > alpha`` everywhere else, so it fixes
        ``u``; two equal candidates then have parents that agree off ``u``,
        which are comparable, hence equal, as the components form an
        antichain.  An untouched component equal to a candidate would lie
        strictly below the candidate's parent, against the antichain.  Nor
        does a kept candidate equal an affected component, which lies
        strictly above ``alpha`` at ``u``.  So the affected components,
        returned in the partition's order, are exactly the ones the step
        removes.

        On the staircase path (``staircase``, a three-variable state from
        ``start`` before any reactivation), every active component has the
        last coordinate ``B``, the pure-power degree, and ``active`` is
        sorted by ``beta_0`` with ``beta_1`` strictly falling (module
        docstring).  A component strictly above ``alpha`` has ``beta_0 >
        alpha_0`` and ``beta_1 > alpha_1``.  The first holds exactly on the
        suffix from ``start``, the first index with ``beta_0 > alpha_0``,
        found by bisection; the second, on that suffix, exactly on a prefix
        ending before ``end``, the first member with ``beta_1 <= alpha_1``.
        No component outside ``active[start:end]`` is affected, so the
        partition runs on that run alone, and the ones it leaves (all of it
        when ``alpha_2 >= B``) are untouched too.  The step charges
        ``len(active).bit_length()`` ops for the bisection's probes and one
        op per member the forward read takes, the stopping member included,
        and the partition on the run charges nothing more.  The kept copies
        lowered at ``x_0`` or ``x_1`` keep ``B`` and replace the run, sorted
        by ``beta_0``.  They stay between the untouched neighbours: a copy
        has ``beta_0`` either ``alpha_0``, at least that of every member
        before ``start``, or that of a run member, below that of every
        member from ``end`` on; and the new active list is an antichain
        with one last coordinate, so no two of its ``beta_0`` are equal.
        The returned components are the run, in ``beta_0`` order.

        Off that path components stay in insertion order.  On both,
        ``affected`` is probed in ``lex_key`` order, so that the trace lists
        lowerings in lex order of their parents.  A candidate is built only
        when it is kept; a trace step holds each lowering's parent, variable
        and limit, and builds the candidate when it is recorded.
        """
        alpha = tuple(alpha)
        if len(alpha) != self.n:
            raise ValueError(f"generator {alpha} has length {len(alpha)}, expected {self.n}")
        if alpha[-1] < self.floor:
            self.active.extend(self.retired)
            self.retired, self.floor = [], -INF
            self.staircase = False
        active = self.active
        if self.staircase:
            start = end = bisect_right(active, alpha[0], key=_BY[0])
            while end < len(active) and active[end][1] > alpha[1]:
                end += 1
            if self.counter is not None:
                self.counter.add(len(active).bit_length() + end - start
                                 + (end < len(active)))
            _, affected = partition_components(active[start:end], alpha)
        else:
            untouched, affected = partition_components(active, alpha, self.counter)
        if not affected:
            return []

        last = self.n - 1
        lowered, retiring = [], []
        lowerings = [] if trace is not None else None
        for beta in sorted(affected, key=lex_key):
            lone = dividing_generators(beta, self.index, self.counter)
            limits = lowering_limits(beta, lone)
            for u, a in enumerate(alpha):
                kept = a >= 1 and limits[u] < a
                if kept:
                    (retiring if u == last else lowered).append(replace_coord(beta, u, a))
                if lowerings is not None:
                    lowerings.append((kept, beta, u, limits[u]))

        self.steps += 1
        if trace is not None:
            trace.append(TraceStep(self.steps, alpha, len(self) - len(affected),
                                   len(affected), lowerings))
        if self.staircase:
            lowered.sort(key=_BY[0])
            active[start:end] = lowered
        else:
            self.active = untouched + lowered
        self._index(alpha)
        if retiring:
            self.retired.extend(retiring)
            self.floor = alpha[-1]
        return affected


def decompose_incremental(g, *, counter=None, trace=None, t_sizes=None):
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
        state.add_generator(alpha, trace=raw_trace)
        if t_sizes is not None:
            t_sizes.append(len(state))

    result = deartinianize(state.components, art)
    if trace is not None:
        trace.extend(step.record(art.relabel) for step in raw_trace)
    return result
