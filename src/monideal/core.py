"""Exponent vectors, partial orders, antichains, and Artinian closure.

Monomials in ``n`` variables are plain length-``n`` tuples of nonnegative
integer exponents.  Irreducible components use the same tuples except that a
coordinate may be ``INF``, meaning the component places no bound on that
variable.  Componentwise ``<=`` is exactly monomial divisibility, so a single
partial order drives everything in this package.
"""

import math
from bisect import insort
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import itemgetter

import numpy as np

INF = math.inf

# Exponents are validated against this bound so sums and lcms stay exact
# and finite values always sort below INF.  Every finite coordinate the
# package compares is an exponent, below 2^53, so float64 holds it exactly
# and ``minimalize``'s numpy kernel, the only float64 comparison in the
# package, gives exact answers.
MAX_EXPONENT = 2 ** 32

# Cells (block rows x antichain vectors) of each comparison temporary in
# ``minimalize``'s blocked kernel, whose blocks have isqrt(BLOCK_CELLS) rows.
BLOCK_CELLS = 1 << 16


def leq(a, b):
    """True iff ``a <= b`` componentwise, i.e. X^a divides X^b."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return all(x <= y for x, y in zip(a, b))


# Sort key for the lex order that compares the last coordinate first: the
# reversed vector, sliced in C.  Every caller passes tuples, whose keys are
# tuples; a list would get a list key.
lex_key = itemgetter(slice(None, None, -1))


def minimalize(vectors):
    """Minimal elements of ``vectors`` under ``leq``, deduplicated, lex-sorted.

    Every input vector is >= some output vector, and no output vector divides
    another.  The distinct vectors are scanned in ``(degree, lex)`` order
    against the antichain kept so far, by the blocked numpy kernel; an empty
    input returns ``[]``, and vectors of unequal lengths raise ValueError.

    The degree is the coordinate sum, read as INF when it is nan (a vector
    mixing INF and -INF).  The order is a linear extension of ``leq``, so a
    vector's divisors are scanned before it.  If ``m`` properly divides
    ``v``, lex order puts ``m`` first (at the last coordinate where they
    differ, ``m_j < v_j``), and ``m``'s degree is at most ``v``'s: sums are
    monotone on vectors that mix nothing, a mixing ``v`` reads INF, which
    every degree is at most, and an INF in a mixing ``m`` is one in ``v``,
    so ``v`` mixes or sums to INF.

    Vectors that all have one finite degree skip the kernel: they are
    already an antichain.  A proper divisor ``m`` of ``v`` has ``m_i <=
    v_i`` everywhere and ``m_j < v_j`` somewhere, so its finite degree is
    strictly smaller; edge ideals and degree shells such as m^d are of this
    kind.  The proof needs finite sums: two vectors of degree INF can divide
    each other, like ``(0, 0, INF)`` and ``(INF, INF, INF)``.

    Every coordinate must be ``INF``, ``-INF`` or an integer of magnitude at
    most ``MAX_EXPONENT``, as every caller in the package guarantees: the
    kernel compares float64 copies, which are exact only below 2^53.
    """
    distinct = list(set(map(tuple, vectors)))
    if not distinct:
        return []
    lengths = set(map(len, distinct))
    if len(lengths) > 1:
        raise ValueError(f"length mismatch: {min(lengths)} vs {max(lengths)}")
    degrees = list(map(sum, distinct))
    if len(set(degrees)) == 1 and math.isfinite(degrees[0]):
        return sorted(distinct, key=lex_key)
    degrees = [d if d == d else INF for d in degrees]
    # two distinct vectors never tie on both keys, so no vectors are compared
    order = sorted(zip(degrees, map(lex_key, distinct), distinct))
    return sorted(_blocked_scan([v for _, _, v in order]), key=lex_key)


def _divides(a, b):
    """``out[j, i]`` is ``leq(a[i], b[j])``, for float64 row matrices.

    One comparison per coordinate: reducing a 3-d comparison over its short
    last axis costs ten times as much.
    """
    out = a[None, :, 0] <= b[:, None, 0]
    for u in range(1, a.shape[1]):
        out &= a[None, :, u] <= b[:, None, u]
    return out


def _blocked_scan(distinct):
    """Keep each row that no earlier row divides, a few float64 comparisons
    per block of rows.

    ``leq`` is transitive, so a vector has a kept divisor before it exactly
    when it has any divisor before it: a block row is kept iff no vector kept
    by earlier blocks and no earlier row of the block divides it.  Rows are
    tested against the antichain in chunks of as many vectors as a block has
    rows, so no temporary exceeds ``BLOCK_CELLS`` cells: memory stays O(p*n),
    time O(p*(k+b)*n) for ``k`` kept vectors and blocks of ``b`` rows.
    """
    n = len(distinct[0])
    rows = np.fromiter(chain.from_iterable(distinct), np.float64,
                       len(distinct) * n).reshape(-1, n)
    b = math.isqrt(BLOCK_CELLS)
    kept_rows = np.empty_like(rows)
    kept_at = []
    for start in range(0, len(rows), b):
        block = rows[start:start + b]
        k = len(kept_at)
        # a chunk is probed only by the rows still without an earlier divisor
        free = np.arange(len(block))
        for c in range(0, k, b):
            free = free[~_divides(kept_rows[c:min(c + b, k)], block[free]).any(1)]
            if not len(free):
                break
        if not len(free):
            continue
        # a row with a divisor among the earlier blocks' kept vectors is
        # neither kept nor, by transitivity, the only divisor of a free row
        rest = block[free]
        keep = ~np.tril(_divides(rest, rest), -1).any(1)
        kept = rest[keep]
        kept_rows[k:k + len(kept)] = kept
        kept_at.extend((start + free[keep]).tolist())
    return [distinct[i] for i in kept_at]


def maximalize(vectors):
    """Maximal elements of ``vectors`` under ``leq``, deduplicated, lex-sorted.

    Negation reverses ``leq`` (INF maps to -INF), so these are the negated
    minimal elements of the negated vectors.
    """
    negated = minimalize([tuple(-x for x in v) for v in vectors])
    return sorted((tuple(-x for x in v) for v in negated), key=lex_key)


def replace_coord(b, j, e):
    """Copy of ``b`` with coordinate ``j`` (0-based) replaced by ``e``."""
    if not 0 <= j < len(b):
        raise IndexError(f"coordinate {j} out of range for length {len(b)}")
    return b[:j] + (e,) + b[j + 1:]


def unit_vector(n, i, e):
    """Length-``n`` vector that is ``e`` at position ``i`` and 0 elsewhere."""
    return tuple(e if j == i else 0 for j in range(n))


def _validate_variable_count(n):
    # bool is an int, and emit_ideal would write True as the count
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"variable count must be a positive integer, got {n!r}")


def _validate_generator_vector(n, v):
    if len(v) != n:
        raise ValueError(f"generator {v} has length {len(v)}, expected {n}")
    for e in v:
        if not isinstance(e, int) or isinstance(e, bool):
            raise ValueError(f"generator exponent {e!r} is not an integer")
        if e < 0 or e > MAX_EXPONENT:
            raise ValueError(f"generator exponent {e} outside [0, 2^32]")


def _generators_pass(n, vs):
    """True only if ``_validate_generator_vector(n, v)`` passes on every
    tuple of ``vs``: a sufficient test, one C pass per property.  Lengths
    must all be ``n`` and exponents of type ``int`` exactly, in ``[0,
    MAX_EXPONENT]``; an int subclass such as bool fails here and gets the
    per-vector verdict.  The range is read off the distinct exponents."""
    flat = list(chain.from_iterable(vs))
    if set(map(len, vs)) - {n} or set(map(type, flat)) - {int}:
        return False
    values = set(flat)
    return not values or (min(values) >= 0 and max(values) <= MAX_EXPONENT)


def _validate_component_vector(n, v):
    if len(v) != n:
        raise ValueError(f"component {v} has length {len(v)}, expected {n}")
    for e in v:
        # bool is an int, and a numpy float64 a float: both rejected
        finite = isinstance(e, int) and not isinstance(e, bool)
        if not (finite and 1 <= e <= MAX_EXPONENT or type(e) is float and e == INF):
            raise ValueError("component exponents must be inf, or >= 1 and at most "
                             f"2^32; got {e!r}")


def _components_pass(n, vs):
    """True only if ``_validate_component_vector(n, v)`` passes on every
    tuple of ``vs``, as ``_generators_pass`` is for generators.  Every
    coordinate must be an ``int`` in ``[1, MAX_EXPONENT]`` or a ``float``
    equal to INF: no int equals INF, so the floats are all INF exactly when
    they are as many as the coordinates equal to INF."""
    flat = list(chain.from_iterable(vs))
    types = list(map(type, flat))
    if set(map(len, vs)) - {n} or set(types) - {int, float}:
        return False
    if types.count(float) != flat.count(INF):
        return False
    finite = set(flat) - {INF}
    return not finite or (min(finite) >= 1 and max(finite) <= MAX_EXPONENT)


def _validate_names(n, names):
    if len(names) != n:
        raise ValueError(f"expected {n} variable names, got {len(names)}")
    seen = set()
    for name in names:
        # the ideal file's header lists the names split by whitespace, and
        # '#' starts a comment there
        if not isinstance(name, str) or "#" in name or name.split() != [name]:
            raise ValueError(f"variable name {name!r} must be a nonempty "
                             "string without whitespace or '#'")
        if name in seen:
            raise ValueError(f"variable name {name!r} is given twice")
        seen.add(name)


def _valid_vectors(n, vectors, bulk, validate):
    """``vectors`` as tuples, checked by ``bulk``'s one-pass test, else by
    ``validate`` on each in order; the first bad vector's ValueError carries
    its position as ``index``, which the file readers map to a line."""
    _validate_variable_count(n)
    vs = list(map(tuple, vectors))
    if not bulk(n, vs):
        for i, v in enumerate(vs):
            try:
                validate(n, v)
            except ValueError as exc:
                exc.index = i
                raise
    return vs


@dataclass(frozen=True)
class GeneratorSet:
    """Finite antichain of all-finite exponent vectors: the minimal generators
    of a monomial ideal in ``n`` variables, lex-sorted like components.  They
    are unique, so ``from_vectors`` sets are equal iff ideals and names are."""

    n: int
    gens: tuple
    names: tuple = None

    @classmethod
    def from_vectors(cls, n, vectors, names=None):
        """Validate, deduplicate and minimalize ``vectors``."""
        vs = _valid_vectors(n, vectors, _generators_pass, _validate_generator_vector)
        if names is not None:
            names = tuple(names)
            _validate_names(n, names)
        return cls(n, tuple(minimalize(vs)), names)

    @property
    def p(self):
        return len(self.gens)

    @cached_property
    def closure(self):
        """``artinianize(self)``, built on the first read and kept; equality
        and hashing read the declared fields only."""
        return artinianize(self)

    def is_unit(self):
        """The monomial 1 generates: the whole ring."""
        return (0,) * self.n in self.gens


@dataclass(frozen=True)
class ComponentSet:
    """Finite antichain of component vectors (coordinates >= 1 or INF),
    stored in lex order so that emission is byte-stable."""

    n: int
    comps: tuple

    @classmethod
    def from_vectors(cls, n, vectors):
        return cls._build(n, _valid_vectors(n, vectors, _components_pass,
                                            _validate_component_vector))

    @classmethod
    def _build(cls, n, vs):
        """The set of the valid tuples ``vs``, lex-sorted; ``deartinianize``,
        whose rows are valid by construction, calls it directly."""
        return cls(n, tuple(sorted(vs, key=lex_key)))

    def __len__(self):
        return len(self.comps)

    def __iter__(self):
        return iter(self.comps)

    def validate(self):
        """Raise ValueError unless the components form an irredundant antichain."""
        seen = set(self.comps)
        if len(seen) != len(self.comps):
            raise ValueError("duplicate components")
        for a in self.comps:
            for b in self.comps:
                if a is not b and leq(a, b):
                    raise ValueError(f"redundant component: {a} <= {b}")


@dataclass(frozen=True)
class ArtinianizedIdeal:
    """The Artinian closure of a generator set in the variables it uses,
    with the coordinates that ``deartinianize`` maps its vectors back by.

    A variable is *used* when a non-pure generator has a nonzero degree in
    it; ``used`` lists their original indices, ascending.  The closure lives
    in them: ``n`` counts them, and the vectors of ``gens`` have one
    coordinate per used variable.  ``gens`` is the closure's minimal
    generating set, lex-sorted: the original generators but the pure powers
    of unused variables, restricted to the used ones, plus ``x_k^INF`` for
    each used ``x_k`` without a pure power.  ``fixed`` has one entry per
    original variable: the degree of its pure power, or INF when it has
    none, so at a used variable it is the degree of the closure's pure
    power.  An unused variable ``x_i`` takes the coordinate ``fixed[i]`` in
    every component (``deartinianize``).  With no variable used the closure
    is the empty vector alone, for the unit ideal, or else has no generators
    and the one empty component.
    """

    n: int
    gens: tuple
    used: tuple
    fixed: tuple

    def pure_degrees(self):
        """Degree of the unique pure power of each used variable in
        ``gens``: ``fixed`` at ``used``, INF for an injected power."""
        return tuple(self.fixed[i] for i in self.used)

    def alphas(self):
        """The non-pure generators, in lex order."""
        return tuple(v for v in self.gens if v.count(0) != self.n - 1)


def artinianize(g):
    """Restrict ``g`` to its used variables and close it up there.

    Each used ``x_k`` lacking a pure power gets ``x_k^INF``.  An INF power
    is the zero polynomial, so adding it changes no component (the sum rule
    of ``deartinianize``), yet it is the pure power in ``x_k`` that the
    engines' algorithms need: it divides no monomial, and the components
    read INF at ``x_k`` wherever the ideal places no bound on it.  Every
    generator but the pure powers of unused variables is zero off the used
    variables: a non-pure one by definition, and the unit ideal's zero
    vector everywhere.  So the ideal is ``J + K`` in disjoint variables,
    ``J`` generated by the kept generators and ``K`` by the dropped powers,
    and the restriction to the used variables keeps ``J``'s order relations.

    The kept generators plus the injected powers are already an antichain,
    so they are returned lex-sorted without a minimalization pass.  An
    injected ``x_k^INF`` divides no generator, since generators are finite.
    A divisor of it is a power of ``x_k``; no generator is one, because
    ``x_k`` has no pure power and 1 generates only the unit ideal, which
    uses no variable.  Two injected powers live in different variables.

    The generators are sorted into lex order once: ``from_vectors`` already
    stores them so, and a sorted run costs one pass, while a set built
    directly may hold them in any order.  Dropping coordinates that every
    kept generator has at 0 keeps that order, and each injected power is
    placed by bisection.

    ``x_i`` is used exactly when more of its degrees are nonzero than its
    pure power's (a minimal set holds one at most).  A non-pure generator
    uses two variables at least, so ``itemgetter`` projects to tuples.
    """
    n = g.n
    cols = list(zip(*g.gens)) or [()] * n
    pure = {v.index(max(v)): v for v in g.gens if v.count(0) == n - 1}  # x_i: its power
    used = tuple(i for i, col in enumerate(cols) if len(col) - col.count(0) > (i in pure))
    rows = sorted(g.gens, key=lex_key)
    if len(used) < n:
        dropped = {pure[i] for i in pure.keys() - set(used)}
        rows = [v for v in rows if v not in dropped]
        rows = list(map(itemgetter(*used), rows)) if used else [()] * len(rows)
    for k, i in enumerate(used):
        if i not in pure:
            insort(rows, unit_vector(len(used), k, INF), key=lex_key)
    fixed = tuple(pure[i][i] if i in pure else INF for i in range(n))
    return ArtinianizedIdeal(len(used), tuple(rows), used, fixed)


def deartinianize(vectors, art):
    """Map components of the Artinian closure back to the original ideal.

    ``vectors`` is any iterable of the closure's component vectors (a
    ``ComponentSet`` iterates its ``comps``), mapped by ``_mapped_back``
    and lex-sorted.

    The map is exact.  The original ideal is ``J + K`` in disjoint variables
    (``artinianize``), ``K`` generated by pure powers ``x_i^d_i`` of unused
    variables.  Irr(J + K) = max{beta ^ gamma} over beta in Irr(J) and gamma
    in Irr(K) (Miller-Sturmfels, Ch. 5), and in disjoint variables no two
    meets are comparable.  Irr(K) is one vector, ``d_i`` at each such
    ``x_i`` and INF elsewhere, so each component is one of ``J`` placed at
    ``used``, with ``fixed`` at every unused variable.  Irr(J) is the
    closure's components as they are, since the closure adds to ``J`` only
    INF powers, which are zero.  Placing preserves and reflects ``<=``, so
    no antichain re-check is made.

    Nor does a mapped component need ``from_vectors``'s check that every
    coordinate is INF or an int in ``[1, MAX_EXPONENT]``.  A fixed
    coordinate is INF or a generator degree.  The closure's finite
    generator degrees are validated ints in ``[0, MAX_EXPONENT]``, and every
    engine's coordinates are degrees of the closure's generators, INF
    included.  A component ``beta`` of the closure has ``X^(beta - 1)``
    outside the ideal, so ``1 <= beta_k <= d_k``, the degree of the pure
    power of ``x_k``: a finite ``beta_k`` is a generator degree of at least
    1.  An injected ``d_k`` is INF, which bounds nothing.  So
    ``_mapped_back`` checks only the native columns against ``d_k``, and
    the suite checks every finite coordinate against the generator degrees.
    """
    return ComponentSet._build(len(art.fixed), _mapped_back(vectors, art))


def _mapped_back(vectors, art):
    """The closure's ``vectors`` in the original variables, in order: a
    coordinate above its variable's native pure-power degree raises
    RuntimeError, column ``k`` goes to variable ``art.used[k]``, and an
    unused variable's column is its ``fixed`` one."""
    rows = list(vectors)
    cols = list(zip(*rows))
    for col, d in zip(cols, art.pure_degrees()):
        if d < INF and max(col) > d:
            raise RuntimeError(f"component coordinate {max(col)} exceeds bound {d}")
    if art.n == len(art.fixed):
        return iter(rows)
    whole = [(e,) * len(rows) for e in art.fixed]
    for i, col in zip(art.used, cols):
        whole[i] = col
    return zip(*whole)


def is_generic(g):
    """True iff no variable has the same nonzero degree in two generators."""
    for i in range(g.n):
        seen = set()
        for v in g.gens:
            e = v[i]
            if e:
                if e in seen:
                    return False
                seen.add(e)
    return True

