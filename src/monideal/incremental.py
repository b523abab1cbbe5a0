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
``decompose_incremental``'s trace is read off the steps from outside, not
threaded through them.

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
alpha_1``, which holds on a prefix of that suffix, read forward.  That
run is the window the partition reads, and the kept lowered copies replace
it in ``beta_0`` order.  This path ends for good at the first
reactivation; states built directly, such as the recursive engine's chain
tails, never take it.  In every other state the window is the whole
active list.

The partition, the divisor probe and the lowering limits run in plain
Python and C builtins (``map`` over ``operator.gt``, ``operator.lt``,
``min``, ``max`` and ``bisect``): a step scans only one chain link's
components, most of which its first coordinates reject, and probes one
degree bucket per variable for each of the few it lowers, so numpy's fixed
cost per call would exceed the work.

Engines run on the Artinian closure in the used variables, and
``deartinianize`` places the result back in the original variables at the
end.  A variable without a pure power gets ``x_k^INF`` there, which stands
for the zero polynomial: like any generator containing INF it divides
nothing and is never a lone matcher (``INF + 1`` is INF), and the
components read INF at ``x_k`` wherever the ideal places no bound on it.
"""

from bisect import bisect_left, bisect_right, insort
from operator import gt, itemgetter, lt

from .core import (ComponentSet, INF, _mapped_back, deartinianize, lex_key,
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


def lowering_limits(beta, lone):
    """Per-variable blocking degrees for lowering component ``beta``.

    ``lone`` holds ``beta``'s lone matchers from ``dividing_generators``.
    The limit at ``u`` is the largest, over the other variables ``k``, of
    the smallest ``x_u``-degree among the lone matchers at ``k`` (-INF when
    there are none).  The copy lowered to exponent ``a`` at ``u`` survives
    exactly when ``limit < a``.  It reads only ``lone``, which the probe
    has charged, and charges nothing itself.

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


class IncrementalState:
    """Single-owner state of one incremental run.

    Holds the degree index ``{(u, degree): [generators]}`` of the generators
    absorbed so far over their nonzero degrees, which only grows (see
    ``add_generator``).  Each bucket is sorted by its ``bucket_coordinate``:
    the constructor and every later step file a generator with ``_index``,
    which inserts it in order.  It also holds the current components,
    which always equal the decomposition of the ideal the absorbed
    generators span.  They are split in two lists:

    - ``active``, which the partition scans.
    - ``retired``, the components kept from a lowering at the last variable
      since the last reactivation, in the order they were retired, which
      the partition never scans.  Their last coordinates never fall along
      the list, so the last one holds the largest (see ``add_generator``).

    ``components`` returns all current components, active then retired, as
    a new list; ``len(state)`` counts them without building it.

    ``staircase`` is True while ``active`` is kept sorted by ``beta_0`` and
    the step bisects it to narrow the partition's window to the run above
    ``alpha`` (see ``add_generator``).  Only ``start`` sets it, and only in
    three variables; the first reactivation clears it for good.  Every
    other state partitions its whole active list.
    """

    staircase = False

    def __init__(self, n, components, generators, counter=None):
        self.n = n
        self.active = [tuple(c) for c in components]
        self.retired = []
        self.index = {}
        self._keys = [_BY[bucket_coordinate(u, n)] for u in range(n)]
        for m in map(tuple, generators):
            self._index(m)
        self.counter = counter

    @property
    def components(self):
        return self.active + self.retired

    def __len__(self):
        return len(self.active) + len(self.retired)

    def _index(self, m):
        """File ``m`` under each nonzero degree, in bucket order, after the
        members it ties with.  A probed component has no zero coordinate,
        so no probe reads a bucket ``(u, 0)``."""
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

    def add_generator(self, alpha, created=None):
        """Absorb one generator, update the components exactly and return
        the list of components the step removed.

        ``alpha`` is any exponent vector of length ``n`` (else
        ``ValueError``), absorbed in any order.  ``created`` (a list), when
        given, receives the kept candidates, the components the step adds.
        The components ``beta`` decompose the ideal I of the generators,
        and X^alpha lies outside
        the irreducible ideal of ``beta`` iff ``alpha_i < beta_i`` for every
        ``i``.  So X^alpha is already in I iff no component lies strictly
        above ``alpha``; the components are then left as they are, ``alpha``
        is not indexed and ``[]`` is returned.  (An ``alpha`` with an INF
        coordinate stands for zero, which lies in every ideal, and no
        component lies above it.)

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

        Only the active components are partitioned.  Every retired
        component was kept from a lowering at the last variable, so its
        last coordinate is the ``alpha_n`` of the step that retired it.
        Along ``retired`` these never fall: a reactivation empties the
        list, and a step that retires without reactivating has ``alpha_n``
        at least the last retired coordinate, which by induction is the
        largest in the list, and appends only vectors with last coordinate
        ``alpha_n``.  So ``retired[-1]`` holds the largest last coordinate,
        and when ``alpha`` breaks lex order with ``alpha_n`` below it, every
        retired component moves back into ``active`` first.  That
        reactivation is the exactness guard for out-of-order callers, such
        as the recursive engine's chain tails; ``decompose_incremental``
        never triggers it.  After it every retired ``beta`` has ``beta_n <=
        alpha_n`` and is not strictly above ``alpha``.  Therefore ``beta``
        is untouched by the step, X^alpha is in I iff no *active* component
        lies strictly above it, and the divisor probe and the lowering
        limits, which run on affected components only, never see ``beta``.

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
        probed and returned in the partition's order, are exactly the ones
        the step removes.

        The partition reads one window, ``active[start:end]``, and charges
        one op per member; every active component outside it is untouched.
        The window is the whole list, handed over without a copy, except on
        the staircase path (``staircase``, a three-variable state from
        ``start`` before any reactivation).  There every active component
        has the last coordinate ``B``, the pure-power degree, and ``active``
        is sorted by ``beta_0`` with ``beta_1`` strictly falling (module
        docstring).
        A component strictly above ``alpha`` has ``beta_0 > alpha_0`` and
        ``beta_1 > alpha_1``.  The first holds exactly on the suffix from
        ``start``, the first index with ``beta_0 > alpha_0``, found by
        bisection; the second, on that suffix, exactly on a prefix ending
        before ``end``, the first member with ``beta_1 <= alpha_1``.  The
        step charges ``len(active).bit_length()`` ops for the bisection's
        probes and one for the stopping member, when there is one.  The
        window's members differ from ``alpha`` in ``x_2`` alone, so either
        all are affected (``B > alpha_2``) or none is and the step ends.

        The step ends with one update: the window becomes its untouched
        members followed by the kept copies not lowered at the last
        variable, sorted by ``beta_0``; a whole-list window is replaced by
        that new list, not written back.  On the staircase path no member is
        untouched, and the copies keep ``B`` and stay between the untouched
        neighbours: a copy has ``beta_0`` either ``alpha_0``, at least that
        of every member before ``start``, or that of a window member, below
        that of every member from ``end`` on; and the new active list is an
        antichain with one last coordinate, so no two of its ``beta_0`` are
        equal.  The returned components are then the window, in ``beta_0``
        order.  A candidate is built only when it is kept.
        """
        alpha = tuple(alpha)
        if len(alpha) != self.n:
            raise ValueError(f"generator {alpha} has length {len(alpha)}, expected {self.n}")
        if self.retired and alpha[-1] < self.retired[-1][-1]:
            self.active.extend(self.retired)
            self.retired = []
            self.staircase = False
        active = window = self.active
        if self.staircase:
            start = end = bisect_right(active, alpha[0], key=_BY[0])
            while end < len(active) and active[end][1] > alpha[1]:
                end += 1
            if self.counter is not None:
                self.counter.add(len(active).bit_length() + (end < len(active)))
            window = active[start:end]
        untouched, affected = partition_components(window, alpha, self.counter)
        if not affected:
            return []

        last = self.n - 1
        lowered, retiring = [], []
        for beta in affected:
            limits = lowering_limits(beta, dividing_generators(beta, self.index, self.counter))
            for u, a in enumerate(alpha):
                if a >= 1 and limits[u] < a:
                    (retiring if u == last else lowered).append(replace_coord(beta, u, a))
        lowered.sort(key=_BY[0])
        untouched += lowered
        if self.staircase:
            active[start:end] = untouched
        else:
            self.active = untouched
        self._index(alpha)
        self.retired.extend(retiring)
        if created is not None:
            created += lowered
            created += retiring
        return affected


def decompose_incremental(g, *, counter=None, trace=None, t_sizes=None):
    """Decompose a generator set by absorbing generators one at a time.

    Generators are absorbed in lex order, which keeps the component count
    from shrinking on generic input.  ``t_sizes`` (a list) receives the
    component count before any step and after each one.

    ``trace`` (a list) receives one external-form record per step that
    removed components, built here by observing the step: its ``alpha``,
    the component count before it, and the removed components ``beta`` in
    lex order, each with one lowering per variable ``u`` (reported 1-based).
    A lowering's candidate is ``beta`` with coordinate ``u`` set to
    ``alpha_u``, its limit ``d`` is read again with ``dividing_generators``
    and ``lowering_limits``, uncharged, and it is kept by the step's own
    test, ``alpha_u >= 1`` and ``d`` below ``alpha_u``.  ``d`` is -INF when
    ``beta`` has no lone matcher at any other variable, which happens
    exactly when its other coordinates are all INF.  The step indexed
    ``alpha``, which lies strictly below ``beta`` and so matches it in no
    variable: the limits read are the step's own.  Lowerings are listed at
    the closure's used variables only (at an unused one ``alpha_u = 0``);
    ``u`` and ``alpha``, which is zero off them, are mapped back to the
    original variables, and a step's components and candidates in one call
    of ``deartinianize``'s column map, ``_mapped_back``.  The record's work
    is one probe per removed component, never a full pass.
    """
    if g.is_unit():
        if t_sizes is not None:
            t_sizes.append(0)
        return ComponentSet.from_vectors(g.n, [])
    art = g.closure
    state = IncrementalState.start(art, counter)
    if t_sizes is not None:
        t_sizes.append(len(state))

    records = []
    for alpha in art.alphas():
        before = len(state)
        removed = state.add_generator(alpha)
        if t_sizes is not None:
            t_sizes.append(len(state))
        if trace is None or not removed:
            continue
        out = {"kept": [], "rejected": []}
        betas = sorted(removed, key=lex_key)
        # each beta, then its candidates, mapped back in one pass
        rows = []
        for beta in betas:
            rows.append(beta)
            rows += [replace_coord(beta, u, a) for u, a in enumerate(alpha)]
        back = _mapped_back(rows, art)
        for beta in betas:
            limits = lowering_limits(beta, dividing_generators(beta, state.index))
            original = next(back)
            for i, a, limit in zip(art.used, alpha, limits):
                out["kept" if a >= 1 and limit < a else "rejected"].append(
                    {"beta": list(original), "u": i + 1, "d": limit,
                     "candidate": list(next(back))})
        placed = dict(zip(art.used, alpha))
        records.append({"step": len(records) + 1,
                        "alpha": [placed.get(i, 0) for i in range(len(art.fixed))],
                        "t1_size": before - len(removed), "t2_size": len(removed), **out})

    result = deartinianize(state.components, art)
    if trace is not None:
        trace.extend(records)
    return result
