"""Plain-text formats for ideals and component lists.

Both formats are line oriented: a header naming the kind and the variable
count, one vector per body line, and an explicit ``end`` terminator that
catches truncated files.  Blank lines and ``#`` comments are ignored on
input.  ``inf`` is a legal component exponent but is rejected in ideals,
since generators must be genuine monomials.
"""

from .core import ComponentSet, GeneratorSet, INF, MAX_EXPONENT


class FormatError(Exception):
    """Malformed input text; the message carries the offending line number."""


def _lines(text):
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _int(token):
    """``int(token)`` for ASCII decimal digits with an optional minus sign;
    ``int`` alone also reads ``1_0``, ``+3`` and non-ASCII digits."""
    digits = token[1:] if token.startswith("-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {token!r}")
    return int(token)


def _parse_exponent(token, lineno, allow_inf):
    if token == "inf":
        if allow_inf:
            return INF
        raise FormatError(f"line {lineno}: 'inf' is not allowed in an ideal; "
                          "generators must be genuine monomials")
    try:
        e = _int(token)
    except ValueError:
        raise FormatError(f"line {lineno}: {token!r} is not a nonnegative integer") from None
    if e < 0:
        raise FormatError(f"line {lineno}: negative exponent {e}")
    if e > MAX_EXPONENT:
        raise FormatError(f"line {lineno}: exponent {e} exceeds 2^32")
    return e


def _parse_row(line, lineno, n, allow_inf):
    tokens = line.split()
    if len(tokens) != n:
        raise FormatError(f"line {lineno}: expected {n} exponents, got {len(tokens)}")
    return tuple(_parse_exponent(t, lineno, allow_inf) for t in tokens)


def parse_ideal(text):
    """Parse an ideal file into a (minimalized) GeneratorSet."""
    rows, names, n = [], None, None
    header_seen = terminated = False
    for lineno, line in _lines(text):
        if terminated:
            raise FormatError(f"line {lineno}: content after 'end'")
        if not header_seen:
            tokens = line.split()
            if tokens[0] != "ideal":
                raise FormatError(f"line {lineno}: expected 'ideal <n> [names...]', got {line!r}")
            if len(tokens) < 2:
                raise FormatError(f"line {lineno}: missing variable count")
            try:
                n = _int(tokens[1])
            except ValueError:
                raise FormatError(f"line {lineno}: variable count {tokens[1]!r} "
                                  "is not an integer") from None
            if n < 1:
                raise FormatError(f"line {lineno}: variable count must be >= 1")
            if len(tokens) > 2:
                names = tuple(tokens[2:])
                if len(names) != n:
                    raise FormatError(f"line {lineno}: expected {n} names, got {len(names)}")
            header_seen = True
        elif line == "end":
            terminated = True
        else:
            rows.append(_parse_row(line, lineno, n, allow_inf=False))
    if not header_seen:
        raise FormatError("line 1: empty input, expected an 'ideal' header")
    if not terminated:
        raise FormatError("missing 'end' terminator")
    return GeneratorSet.from_vectors(n, rows, names=names)


def _render_exponent(e):
    return "inf" if e == INF else str(e)


def emit_ideal(g):
    """Render a GeneratorSet in the ideal file format."""
    header = f"ideal {g.n}"
    if g.names:
        header += " " + " ".join(g.names)
    lines = [header]
    lines.extend(" ".join(str(e) for e in v) for v in g.gens)
    lines.append("end")
    return "\n".join(lines) + "\n"


def parse_components(text):
    """Parse a component file into a ComponentSet."""
    rows, n, count = [], None, None
    header_seen = terminated = False
    for lineno, line in _lines(text):
        if terminated:
            raise FormatError(f"line {lineno}: content after 'end'")
        if not header_seen:
            tokens = line.split()
            if tokens[0] != "components" or len(tokens) != 3:
                raise FormatError(f"line {lineno}: expected 'components <n> <count>', got {line!r}")
            try:
                n, count = _int(tokens[1]), _int(tokens[2])
            except ValueError:
                raise FormatError(f"line {lineno}: malformed header {line!r}") from None
            if n < 1 or count < 0:
                raise FormatError(f"line {lineno}: bad header values")
            header_seen = True
        elif line == "end":
            terminated = True
        else:
            row = _parse_row(line, lineno, n, allow_inf=True)
            if any(e != INF and e < 1 for e in row):
                raise FormatError(f"line {lineno}: component exponents must be >= 1")
            rows.append(row)
    if not header_seen:
        raise FormatError("line 1: empty input, expected a 'components' header")
    if not terminated:
        raise FormatError("missing 'end' terminator")
    if len(rows) != count:
        raise FormatError(f"header announced {count} components, found {len(rows)}")
    return ComponentSet.from_vectors(n, rows)


def emit_components(c):
    """Render a ComponentSet in the component file format, in its stored
    lex order."""
    lines = [f"components {c.n} {len(c.comps)}"]
    lines.extend(" ".join(_render_exponent(e) for e in v) for v in c.comps)
    lines.append("end")
    return "\n".join(lines) + "\n"
