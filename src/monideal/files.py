"""Plain-text formats for ideals and component lists.

Both formats are line oriented: a header naming the kind and the variable
count, one vector per body line, and an ``end`` terminator that catches
truncated files.  Blank lines and ``#`` comments are ignored.  A token is
ASCII decimal digits or ``inf``.  Every rule on the values is ``core``'s: the
reader runs the ``from_vectors`` validators on the header and on each row, so
that an error names its line, and then builds the set from the validated rows
without checking them again.
"""

from contextlib import contextmanager

from .core import (ComponentSet, GeneratorSet, INF, _validate_component_vector,
                   _validate_generator_vector, _validate_names,
                   _validate_variable_count)


class FormatError(Exception):
    """Malformed input text; the message carries the offending line number."""


@contextmanager
def _at(lineno):
    """Report a ValueError raised inside as a FormatError on line ``lineno``."""
    try:
        yield
    except ValueError as exc:
        raise FormatError(f"line {lineno}: {exc}") from None


def _value(token):
    """``INF`` for ``inf``, else ``int(token)`` for ASCII decimal digits;
    ``int`` alone also reads ``-0``, ``1_0``, ``+3`` and non-ASCII digits."""
    if token == "inf":
        return INF
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"{token!r} is not a nonnegative integer")
    return int(token)


def _frames(text, usage):
    """Yield ``(lineno, tokens)`` for the header, kind dropped, then each body row."""
    kind = usage.split()[0]
    header_seen = terminated = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if terminated:
            raise FormatError(f"line {lineno}: content after 'end'")
        if not header_seen:
            if tokens[0] != kind:
                raise FormatError(f"line {lineno}: expected {usage!r}, got {raw.strip()!r}")
            header_seen = True
            yield lineno, tokens[1:]
        elif tokens == ["end"]:
            terminated = True
        else:
            yield lineno, tokens
    if not header_seen:
        raise FormatError(f"line 1: empty input, expected {usage!r}")
    if not terminated:
        raise FormatError("missing 'end' terminator")


def _rows(frames, n, validate):
    """The remaining frames as value tuples, each checked by ``validate(n, row)``."""
    rows = []
    try:
        # one handler for every row: a context manager per row made parses 8-24% slower
        for lineno, tokens in frames:
            row = tuple(map(_value, tokens))
            validate(n, row)
            rows.append(row)
    except ValueError as exc:
        raise FormatError(f"line {lineno}: {exc}") from None
    return rows


def parse_ideal(text):
    """Parse an ideal file into a (minimalized) GeneratorSet."""
    frames = _frames(text, "ideal <n> [names...]")
    lineno, header = next(frames)
    with _at(lineno):
        if not header:
            raise ValueError("missing variable count")
        n, names = _value(header[0]), tuple(header[1:]) or None
        _validate_variable_count(n)
        if names:
            _validate_names(n, names)
    rows = _rows(frames, n, _validate_generator_vector)
    return GeneratorSet._build(n, rows, names)


def parse_components(text):
    """Parse a component file into a ComponentSet."""
    frames = _frames(text, "components <n> <count>")
    lineno, header = next(frames)
    with _at(lineno):
        if len(header) != 2:
            raise ValueError("expected a variable count and a component count")
        n, count = map(_value, header)
        _validate_variable_count(n)
    rows = _rows(frames, n, _validate_component_vector)
    if len(rows) != count:
        raise FormatError(f"line {lineno}: header announced {count} components, "
                          f"found {len(rows)}")
    return ComponentSet._build(n, rows)


def _emit(header, vectors):
    """A file of ``header``, one row per vector and ``end``; ``str(INF)`` is
    ``'inf'``."""
    rows = (" ".join(map(str, v)) for v in vectors)
    return "\n".join([header, *rows, "end"]) + "\n"


def emit_ideal(g):
    """Render a GeneratorSet in the ideal file format."""
    return _emit(" ".join(["ideal", str(g.n), *(g.names or ())]), g.gens)


def emit_components(c):
    """Render a ComponentSet in the component file format, in lex order."""
    return _emit(f"components {c.n} {len(c.comps)}", c.comps)
