"""Text formats and the command-line interface."""

import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from monideal import (INF, ComponentSet, FormatError, GeneratorSet, core,
                      decompose_incremental, decompose_recursive,
                      emit_components, emit_ideal, gen_random,
                      parse_components, parse_ideal)
from monideal.bench import degree_shell, measure, preferred_engine
from monideal.cli import _build_parser, cli_main
from monideal.core import MAX_EXPONENT
from conftest import SHOWCASE_GENS, fourvar, is_zero, showcase

# exact `decompose --trace` stderr: the records, their fields and the order of
# the lowerings within a step (lex order of the parent component) are output
GOLDEN = Path(__file__).parent / "golden"

SHOWCASE_TEXT = """\
ideal 3 x y z
4 0 0
0 4 0
3 2 2
1 3 2
2 1 3
end
"""


def power():
    """m^4 in three variables: every degree bucket holds several generators."""
    return GeneratorSet.from_vectors(
        3, [v for v in itertools.product(range(5), repeat=3) if sum(v) == 4])


class TestIdealFormat:
    def test_parse_showcase(self):
        g = parse_ideal(SHOWCASE_TEXT)
        assert g.n == 3
        assert set(g.gens) == set(map(tuple, SHOWCASE_GENS))
        assert g.names == ("x", "y", "z")

    def test_round_trip(self):
        rng = random.Random(3)
        for _ in range(25):
            g = gen_random(rng.choice([1, 2, 3]), rng.randint(1, 6),
                           rng.randint(1, 9), rng.randrange(2 ** 32))
            assert parse_ideal(emit_ideal(g)) == g

    def test_names_round_trip(self):
        g = GeneratorSet.from_vectors(3, [(1, 0, 2)], names=("x1", "y_2", "z'"))
        assert parse_ideal(emit_ideal(g)) == g

    @pytest.mark.parametrize("names", [("x#", "y"), ("a b", "c"), ("", "y"),
                                       ("x\ty", "z"), ("x", 1)],
                             ids=["hash", "space", "empty", "tab", "not-a-string"])
    def test_names_the_format_cannot_read_back_rejected(self, names):
        with pytest.raises(ValueError, match="variable name"):
            GeneratorSet.from_vectors(2, [(1, 1)], names=names)

    def test_comments_and_blanks_ignored(self):
        text = "# header comment\n\nideal 2\n1 0  # a generator\n\nend\n"
        assert parse_ideal(text).gens == ((1, 0),)

    def test_empty_body_is_zero_ideal(self):
        g = parse_ideal("ideal 2\nend\n")
        assert is_zero(g)

    def test_error_carries_line_number(self):
        with pytest.raises(FormatError, match="line 3"):
            parse_ideal("ideal 2\n1 0\n2\nend\n")

    def test_inf_rejected_in_ideal(self):
        with pytest.raises(FormatError, match="inf"):
            parse_ideal("ideal 2\n1 inf\nend\n")

    def test_negative_and_overflow_rejected(self):
        with pytest.raises(FormatError, match="negative"):
            parse_ideal("ideal 2\n-1 0\nend\n")
        with pytest.raises(FormatError, match="2\\^32"):
            parse_ideal(f"ideal 2\n{2 ** 33} 0\nend\n")

    def test_missing_terminator(self):
        with pytest.raises(FormatError, match="end"):
            parse_ideal("ideal 2\n1 0\n")


class TestComponentFormat:
    def test_round_trip(self):
        # the unit ideal's empty sets too: their header carries only n
        comps = [decompose_incremental(showcase())]
        comps += [ComponentSet.from_vectors(n, []) for n in (1, 2, 5)]
        for c in comps:
            assert parse_components(emit_components(c)) == c

    def test_showcase_emission_order(self):
        text = emit_components(decompose_incremental(showcase()))
        assert text == (
            "components 3 6\n"
            "4 4 2\n"
            "4 2 3\n"
            "3 3 3\n"
            "4 1 inf\n"
            "2 3 inf\n"
            "1 4 inf\n"
            "end\n"
        )

    def test_zero_ideal_emission(self):
        c = decompose_incremental(GeneratorSet.from_vectors(2, []))
        assert emit_components(c) == "components 2 1\ninf inf\nend\n"

    def test_emission_equals_the_per_exponent_formatter(self):
        # the formatter before rows were joined with map(str, ...), which
        # wrote INF as 'inf' by a test on each exponent
        def old_emit(c):
            rows = (" ".join("inf" if e == INF else str(e) for e in v) for v in c.comps)
            return "\n".join([f"components {c.n} {len(c.comps)}", *rows, "end"]) + "\n"
        sets = [decompose_incremental(showcase()), decompose_incremental(fourvar()),
                decompose_incremental(GeneratorSet.from_vectors(4, [])),
                ComponentSet.from_vectors(3, []),
                ComponentSet.from_vectors(3, [(MAX_EXPONENT, INF, 1), (INF, INF, 2)])]
        sets += [decompose_incremental(GeneratorSet.from_vectors(
            5, [v + (0, 0) for v in g.gens] + [(0, 0, 0, 5, 0)]))
            for g in (showcase(), GeneratorSet.from_vectors(3, [(1, 1, 1)]))]
        assert sum(INF in v for c in sets for v in c.comps) > 5
        for c in sets:
            assert emit_components(c).encode() == old_emit(c).encode()

    def test_count_mismatch(self):
        with pytest.raises(FormatError, match="announced"):
            parse_components("components 2 2\n1 1\nend\n")

    def test_zero_component_exponent_rejected(self):
        with pytest.raises(FormatError, match=">= 1"):
            parse_components("components 2 1\n0 1\nend\n")


@pytest.mark.parametrize("token", ["1_0", "+3", "\u0663", "-0"],
                         ids=["underscore", "plus-sign", "arabic-indic-digit", "minus-zero"])
def test_only_ascii_decimal_integers_parse(token):
    # int() accepts all four, as 10, 3, 3 and 0
    cases = [(parse_ideal, f"ideal 2\n{token} 0\nend\n"),
             (parse_ideal, f"ideal {token}\nend\n"),
             (parse_components, f"components 2 1\n{token} 1\nend\n"),
             (parse_components, f"components {token} 0\nend\n"),
             (parse_components, f"components 1 {token}\nend\n")]
    for parse, text in cases:
        with pytest.raises(FormatError, match="line [12]"):
            parse(text)


# tokens at every boundary of the value rules, and two the syntax rule rejects
ROW_TOKENS = ["0", "1", "2", str(MAX_EXPONENT), str(MAX_EXPONENT + 1), "inf", "-1", "1_0"]


def as_value(token):
    """What ``from_vectors`` gets for a token: the int or INF that the syntax
    rule reads, else the token itself, which no constructor accepts."""
    if token == "inf":
        return INF
    return int(token) if token.isascii() and token.isdigit() else token


def accepts(construct, *args):
    try:
        construct(*args)
    except ValueError:
        return False
    return True


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_reader_accepts_exactly_what_the_constructors_accept(data):
    """Both readers succeed exactly when ``from_vectors`` accepts the same
    header values and rows, and name the first line it rejects."""
    draw = data.draw
    ideal = draw(st.booleans())
    # valid header values three times as often as each kind of invalid one
    n_token = draw(st.sampled_from(["1", "2", "3"] * 3 + ["0", "-0", "inf"]))
    n = as_value(n_token)
    width = n if isinstance(n, int) else 2
    # a row without tokens would be a blank line
    row = st.lists(st.sampled_from(ROW_TOKENS), min_size=max(width - 1, 1),
                   max_size=width + 1)
    ones = st.lists(st.just("1"), min_size=max(width, 1), max_size=max(width, 1))
    rows = draw(st.lists(st.one_of(ones, row), max_size=4))
    vectors = [tuple(map(as_value, r)) for r in rows]
    if ideal:
        k = draw(st.sampled_from([0, 0, width, width, width - 1, width + 1]))
        names = tuple(f"x{i}" for i in range(k)) or None
        header = ["ideal", n_token, *(names or ())]
        construct, parse, extra = GeneratorSet.from_vectors, parse_ideal, (names,)
        count = len(rows)  # an ideal file announces no count
    else:
        count_token = draw(st.sampled_from(
            [str(len(rows))] * 3 + [str(len(rows) + 1), str(max(len(rows) - 1, 0)),
                                    "-0", "inf"]))
        header = ["components", n_token, count_token]
        construct, parse, extra = ComponentSet.from_vectors, parse_components, ()
        count = as_value(count_token)
    text = "\n".join([" ".join(header), *map(" ".join, rows), "end"]) + "\n"

    # the header's values come first (a count that breaks the syntax rule
    # among them), then each row, then whether the count matches the rows
    checks = [(1, accepts(construct, n, [], *extra) and not isinstance(count, str))]
    checks += [(i, accepts(construct, n, [v], *extra)) for i, v in enumerate(vectors, 2)]
    checks += [(1, count == len(rows))]
    line = next((i for i, ok in checks if not ok), None)
    assert (line is None) == (accepts(construct, n, vectors, *extra) and count == len(rows))
    if line is None:
        assert parse(text) == construct(n, vectors, *extra)
    else:
        with pytest.raises(FormatError, match=f"^line {line}: "):
            parse(text)


def test_readers_validate_each_row_once(monkeypatch):
    """The readers check each row with its line number and build the set
    from the checked rows, with no second pass of the validators."""
    from monideal import files
    want = GeneratorSet.from_vectors(3, SHOWCASE_GENS, names=("x", "y", "z"))
    comps = decompose_incremental(want)
    calls = []
    for name in ("_validate_generator_vector", "_validate_component_vector"):
        check = getattr(core, name)

        def counted(n, v, check=check):
            calls.append(v)
            return check(n, v)
        monkeypatch.setattr(core, name, counted)
        monkeypatch.setattr(files, name, counted)
    assert parse_ideal(SHOWCASE_TEXT) == want
    assert len(calls) == 5
    calls.clear()
    assert parse_components(emit_components(comps)) == comps
    assert len(calls) == len(comps)


def thousand_variables(kind):
    """Text of the zero ideal or of the maximal ideal <x_1, ..., x_1000>."""
    n = 1000
    rows = [" ".join("1" if j == i else "0" for j in range(n))
            for i in range(n)] if kind == "maximal" else []
    return "\n".join([f"ideal {n}", *rows, "end"]) + "\n"


class TestCli:
    def write_showcase(self, tmp_path):
        path = tmp_path / "showcase.ideal"
        path.write_text(SHOWCASE_TEXT)
        return path

    def test_decompose_all_engines_agree(self, tmp_path, capsys):
        src = self.write_showcase(tmp_path)
        outputs = []
        for algo in ("recursive", "incremental", "oracle"):
            out = tmp_path / f"{algo}.components"
            assert cli_main(["decompose", "--algo", algo, str(src), str(out)]) == 0
            outputs.append(out.read_text())
        assert outputs[0] == outputs[1] == outputs[2]
        assert "components 3 6" in outputs[0]

    def test_decompose_to_stdout(self, tmp_path, capsys):
        src = self.write_showcase(tmp_path)
        assert cli_main(["decompose", str(src)]) == 0
        assert "components 3 6" in capsys.readouterr().out

    def test_decompose_deterministic(self, tmp_path):
        src = self.write_showcase(tmp_path)
        a, b = tmp_path / "a.out", tmp_path / "b.out"
        cli_main(["decompose", str(src), str(a)])
        cli_main(["decompose", str(src), str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_largest_exponent_decomposes(self, tmp_path):
        # x^(2^32) y z, x y^2, z^3: the closure injects x^(2^32 + 1), one past
        # MAX_EXPONENT, and that bound must come back as inf
        src = tmp_path / "top.ideal"
        src.write_text(f"ideal 3\n{MAX_EXPONENT} 1 1\n1 2 0\n0 0 3\nend\n")
        expected = ("components 3 4\ninf 2 1\ninf 1 3\n"
                    f"{MAX_EXPONENT} 2 3\n1 inf 3\nend\n")
        g = parse_ideal(src.read_text())
        for engine in (decompose_incremental, decompose_recursive):
            assert emit_components(engine(g)) == expected
        for algo in ("incremental", "recursive"):
            out = tmp_path / f"{algo}.components"
            assert cli_main(["decompose", "--algo", algo, str(src), str(out)]) == 0
            assert out.read_text() == expected

    def test_trace_records(self, tmp_path, capsys):
        src = self.write_showcase(tmp_path)
        out = tmp_path / "out.components"
        assert cli_main(["decompose", "--algo", "incremental", "--trace",
                         str(src), str(out)]) == 0
        lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("{")]
        records = [json.loads(l) for l in lines]
        assert [r["step"] for r in records] == [1, 2, 3]
        assert records[0]["alpha"] == [3, 2, 2]
        assert all(set(r) == {"step", "alpha", "t1_size", "t2_size",
                              "kept", "rejected"} for r in records)

    def test_trace_requires_incremental(self, tmp_path):
        src = self.write_showcase(tmp_path)
        assert cli_main(["decompose", "--algo", "oracle", "--trace", str(src)]) == 2

    def test_stats_line(self, tmp_path, capsys):
        src = self.write_showcase(tmp_path)
        assert cli_main(["decompose", "--stats", str(src),
                         str(tmp_path / "o.components")]) == 0
        err = capsys.readouterr().err
        assert "stats:" in err and "ops=" in err

    @pytest.mark.parametrize("algo, fields", [
        ("incremental", ["ops", "wall", "peak_t"]),
        ("recursive", ["ops", "wall"]),
        ("oracle", ["wall"]),  # the oracle counts no operations
    ])
    def test_stats_fields_per_engine(self, tmp_path, capsys, algo, fields):
        src = self.write_showcase(tmp_path)
        assert cli_main(["decompose", "--algo", algo, "--stats", str(src),
                         str(tmp_path / "o.components")]) == 0
        line, = capsys.readouterr().err.splitlines()
        keys = [part.split("=")[0] for part in line.split()[1:]]
        assert keys == ["algo", "n", "p", "l"] + fields

    @pytest.mark.parametrize("algo", ["incremental", "recursive", "oracle"])
    def test_stats_line_reads_the_bench_record(self, tmp_path, capsys, algo):
        src = self.write_showcase(tmp_path)
        assert cli_main(["decompose", "--algo", algo, "--stats", str(src),
                         str(tmp_path / "o.components")]) == 0
        line, = capsys.readouterr().err.splitlines()
        stats = dict(part.split("=") for part in line.split()[1:])
        _, rec = measure(showcase(), algo)
        for key in ("n", "p", "l", "ops", "peak_t"):
            value = getattr(rec, key)
            assert stats.get(key) == (None if value is None else str(value)), key
        # the oracle counts no operations, in the record as on the line
        assert (rec.ops is None) == ("ops" not in stats) == (algo == "oracle")

    @pytest.mark.parametrize("algo", ["incremental", "recursive", "oracle"])
    def test_unit_ideal_stats(self, tmp_path, capsys, algo):
        g = GeneratorSet.from_vectors(2, [(0, 0)])
        comps, rec = measure(g, algo)
        assert len(comps) == rec.l == 0
        assert rec.peak_t == (0 if algo == "incremental" else None)
        src = tmp_path / "unit.ideal"
        src.write_text(emit_ideal(g))
        assert cli_main(["decompose", "--algo", algo, "--stats", str(src)]) == 0
        out = capsys.readouterr()
        assert out.out == "components 2 0\nend\n"
        line, = out.err.splitlines()
        assert " l=0 " in line
        assert line.endswith(" peak_t=0") == (algo == "incremental")

    @pytest.mark.parametrize("name, make", [("showcase", showcase), ("fourvar", fourvar),
                                            ("power", power)])
    def test_trace_golden(self, tmp_path, capsys, name, make):
        src = tmp_path / f"{name}.ideal"
        src.write_text(emit_ideal(make()))
        assert cli_main(["decompose", "--trace", str(src),
                         str(tmp_path / "o.components")]) == 0
        assert capsys.readouterr().err == (GOLDEN / f"{name}.trace").read_text()

    def test_verify_pass_and_fail(self, tmp_path, capsys):
        src = self.write_showcase(tmp_path)
        out = tmp_path / "good.components"
        cli_main(["decompose", str(src), str(out)])
        assert cli_main(["verify", str(out), str(src)]) == 0

        # drop one component: no longer generates the ideal
        comps = parse_components(out.read_text())
        bad = tmp_path / "bad.components"
        bad.write_text(emit_components(
            ComponentSet.from_vectors(comps.n, comps.comps[:-1])))
        assert cli_main(["verify", str(bad), str(src)]) == 1

    def test_verify_rejects_non_antichain(self, tmp_path):
        src = self.write_showcase(tmp_path)
        bad = tmp_path / "bad.components"
        bad.write_text("components 3 2\n1 1 1\n2 2 2\nend\n")
        assert cli_main(["verify", str(bad), str(src)]) == 1

    def test_gen_subcommand_deterministic(self, tmp_path):
        a, b = tmp_path / "a.ideal", tmp_path / "b.ideal"
        args = ["gen", "--vars", "3", "--gens", "5", "--maxdeg", "6", "--seed", "9"]
        assert cli_main(args + [str(a)]) == 0
        assert cli_main(args + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        parse_ideal(a.read_text())

    def test_format_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.ideal"
        bad.write_text("ideal 2\n1 inf\nend\n")
        assert cli_main(["decompose", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: line 2: ")

    @pytest.mark.parametrize("broken", ["components", "ideal"])
    def test_verify_names_the_malformed_file(self, tmp_path, capsys, broken):
        src = self.write_showcase(tmp_path)
        out = tmp_path / "good.components"
        cli_main(["decompose", str(src), str(out)])
        bad = out if broken == "components" else src
        lines = bad.read_text().splitlines()
        lines[2] = "foo " + lines[2].split(None, 1)[1]
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli_main(["verify", str(out), str(src)]) == 2
        assert capsys.readouterr().err == \
            f"error: {bad}: line 3: 'foo' is not a nonnegative integer\n"

    def test_verify_mismatched_variable_counts_fails_verification(self, tmp_path, capsys):
        # both files are well formed; only the claim that one decomposes the
        # other is wrong
        ideal = tmp_path / "two.ideal"
        ideal.write_text("ideal 2\n1 1\nend\n")
        comps = tmp_path / "three.components"
        comps.write_text("components 3 1\n1 inf inf\nend\n")
        assert cli_main(["verify", str(comps), str(ideal)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("verification failed: ")
        assert "3 variables" in err and "in 2" in err

    def test_verify_names_a_file_that_is_not_utf8(self, tmp_path, capsys):
        src = self.write_showcase(tmp_path)
        bad = tmp_path / "bad.components"
        bad.write_bytes(b"components 3 0\n\xff\nend\n")
        assert cli_main(["verify", str(bad), str(src)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    def test_budget_exit_code(self, tmp_path, capsys):
        # m^10 in three variables: eleven distinct degrees in each, so the
        # oracle's box has 11^3 cells
        big = tmp_path / "big.ideal"
        big.write_text(emit_ideal(GeneratorSet.from_vectors(3, degree_shell(3, 10))))
        assert cli_main(["decompose", "--algo", "oracle", "--budget", "1000",
                         str(big)]) == 3
        assert capsys.readouterr().err == "error: box of 1331 cells exceeds budget 1000\n"

    @pytest.mark.parametrize("budget", ["0", "-5", "x"])
    def test_budget_below_one_is_a_usage_error(self, tmp_path, capsys, budget):
        # a box has one cell at least, so such a budget could never be met
        src = tmp_path / "showcase.ideal"
        src.write_text(SHOWCASE_TEXT)
        out = tmp_path / "showcase.components"
        out.write_text(emit_components(decompose_incremental(showcase())))
        for argv in (["verify", "--budget", budget, str(out), str(src)],
                     ["decompose", "--algo", "oracle", "--budget", budget, str(src)]):
            assert cli_main(argv) == 2
            err = capsys.readouterr().err
            assert f"argument --budget: must be a positive integer, got '{budget}'" in err
        assert cli_main(["verify", "--budget", "1", str(out), str(src)]) == 3
        assert cli_main(["decompose", "--algo", "oracle", "--budget", "125", str(src)]) == 0

    def test_verify_million_exponents(self, tmp_path):
        # x^(10^6), x^500000 y^500000, y^(10^6): the box over every degree
        # would hold about 10^12 cells, the one over distinct degrees 9
        src = tmp_path / "big.ideal"
        src.write_text("ideal 2\n1000000 0\n500000 500000\n0 1000000\nend\n")
        out = tmp_path / "big.components"
        assert cli_main(["decompose", str(src), str(out)]) == 0
        assert cli_main(["verify", str(out), str(src)]) == 0
        text = out.read_text()
        assert "\n500000 1000000\n" in text
        bad = tmp_path / "bad.components"
        bad.write_text(text.replace("\n500000 1000000\n", "\n500000 999999\n"))
        assert cli_main(["verify", str(bad), str(src)]) == 1

    @pytest.mark.parametrize("text", [
        "ideal 2\n1000000 0\n500000 500000\n0 1000000\nend\n",
        emit_ideal(GeneratorSet.from_vectors(3, [tuple(1000 * e for e in v)
                                                 for v in SHOWCASE_GENS])),
        emit_ideal(GeneratorSet.from_vectors(4, [tuple(1000 * e for e in v)
                                                 for v in gen_random(4, 12, 9, seed=5).gens])),
    ], ids=["million", "showcase-x1000", "generic-x1000"])
    def test_oracle_on_large_exponents_matches_incremental(self, tmp_path, text):
        src = tmp_path / "big.ideal"
        src.write_text(text)
        outputs = []
        for algo in ("oracle", "incremental"):
            out = tmp_path / f"{algo}.components"
            assert cli_main(["decompose", "--algo", algo, str(src), str(out)]) == 0
            outputs.append(out.read_text())
        assert outputs[0] == outputs[1]
        assert cli_main(["verify", str(out), str(src)]) == 0

    @pytest.mark.parametrize("kind", ["zero", "maximal"])
    def test_recursive_engine_in_a_thousand_variables(self, tmp_path, kind):
        # no non-pure generator uses a variable, so the closure drops every
        # one: no engine recurses once per variable or builds a box in a
        # thousand dimensions, and each reads the one component off the
        # fixed coordinates
        src = tmp_path / f"{kind}.ideal"
        src.write_text(thousand_variables(kind))
        outputs = []
        for algo in ("recursive", "incremental", "oracle"):
            out = tmp_path / f"{algo}.components"
            assert cli_main(["decompose", "--algo", algo, str(src), str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0].startswith(b"components 1000 1\n")

    def test_batch_directory_in_a_thousand_variables(self, tmp_path):
        # the thousand-variable file comes first; the file after it is
        # still decomposed
        src_dir, out_dir = tmp_path / "in", tmp_path / "out"
        src_dir.mkdir()
        (src_dir / "a-zero.ideal").write_text(thousand_variables("zero"))
        (src_dir / "b-showcase.ideal").write_text(SHOWCASE_TEXT)
        assert cli_main(["decompose", "--algo", "recursive", str(src_dir), str(out_dir)]) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == \
            ["a-zero.components", "b-showcase.components"]
        for path in sorted(src_dir.iterdir()):
            g = parse_ideal(path.read_text())
            assert (out_dir / f"{path.stem}.components").read_text() == \
                emit_components(decompose_incremental(g))

    def test_usage_error(self):
        assert cli_main(["decompose", "--algo", "nonsense", "x"]) == 2

    def test_batch_directory(self, tmp_path):
        src_dir = tmp_path / "in"
        src_dir.mkdir()
        for i in range(3):
            g = gen_random(3, 4, 5, seed=i)
            (src_dir / f"ideal{i}.ideal").write_text(emit_ideal(g))
        out_dir = tmp_path / "out"
        assert cli_main(["decompose", str(src_dir), str(out_dir)]) == 0
        outs = sorted(out_dir.glob("*.components"))
        assert len(outs) == 3
        for path in outs:
            parse_components(path.read_text())

    def test_batch_directory_bad_file_keeps_good_outputs(self, tmp_path, capsys):
        src_dir = tmp_path / "in"
        src_dir.mkdir()
        for i in (0, 2):
            (src_dir / f"ideal{i}.ideal").write_text(emit_ideal(gen_random(3, 4, 5, seed=i)))
        bad = src_dir / "ideal1.ideal"
        bad.write_text(emit_ideal(gen_random(3, 4, 5, seed=1))[:-len("end\n")])
        out_dir = tmp_path / "out"
        assert cli_main(["decompose", str(src_dir), str(out_dir)]) == 2
        assert str(bad) in capsys.readouterr().err
        outs = sorted(p.name for p in out_dir.glob("*.components"))
        assert outs == ["ideal0.components", "ideal2.components"]
        for i in (0, 2):
            g = parse_ideal((src_dir / f"ideal{i}.ideal").read_text())
            assert (out_dir / f"ideal{i}.components").read_text() == \
                emit_components(decompose_incremental(g))

    def test_batch_directory_failing_file_removes_stale_output(self, tmp_path, capsys):
        src_dir, out_dir = tmp_path / "in", tmp_path / "out"
        src_dir.mkdir()
        for name, seed in (("a", 0), ("b", 1)):
            (src_dir / f"{name}.ideal").write_text(emit_ideal(gen_random(3, 4, 5, seed=seed)))
        assert cli_main(["decompose", str(src_dir), str(out_dir)]) == 0
        assert (out_dir / "b.components").exists()
        bad = src_dir / "b.ideal"
        bad.write_text(bad.read_text()[:-len("end\n")])
        assert cli_main(["decompose", str(src_dir), str(out_dir)]) == 2
        assert str(bad) in capsys.readouterr().err
        assert sorted(p.name for p in out_dir.iterdir()) == ["a.components"]

    def test_batch_directory_stats_and_trace_name_files(self, tmp_path, capsys):
        src_dir = tmp_path / "in"
        src_dir.mkdir()
        paths = [src_dir / "a.ideal", src_dir / "b.ideal"]
        paths[0].write_text(SHOWCASE_TEXT)
        paths[1].write_text(emit_ideal(gen_random(3, 4, 5, seed=2)))
        assert cli_main(["decompose", "--stats", "--trace", str(src_dir),
                         str(tmp_path / "out")]) == 0
        err = capsys.readouterr().err.splitlines()
        stats = [l for l in err if l.startswith("stats:")]
        assert [l.split()[1] for l in stats] == [f"file={p}" for p in paths]
        records = [json.loads(l) for l in err if l.startswith("{")]
        assert records and all(r["file"] in map(str, paths) for r in records)
        assert [r["step"] for r in records if r["file"] == str(paths[0])] == [1, 2, 3]

    @pytest.mark.parametrize("name", ["staircase-n3", "scan-n5", "inf-padded", "directory"])
    def test_trace_leaves_ops_and_peak_unchanged(self, tmp_path, capsys, name):
        # the trace is read off the steps, so it adds no op and no component
        # to any stats record and leaves the component files as they are;
        # x_3 is in no generator of the padded ideal, so its coordinate is INF
        padded = [v[:2] + (0,) + v[2:] for v in gen_random(3, 20, 40, 3, generic=True).gens]
        ideals = {"staircase-n3": gen_random(3, 60, 120, 1, generic=True),
                  "scan-n5": gen_random(5, 30, 60, 2, generic=True),
                  "inf-padded": GeneratorSet.from_vectors(4, padded)}
        src = tmp_path / "in"
        src.mkdir()
        for key, g in ideals.items():
            if name in (key, "directory"):
                (src / f"{key}.ideal").write_text(emit_ideal(g))
        if name != "directory":
            src = src / f"{name}.ideal"

        def run(out, *flags):
            assert cli_main(["decompose", "--algo", "incremental", "--stats", *flags,
                             str(src), str(tmp_path / out)]) == 0
            err = capsys.readouterr().err.splitlines()
            fields = [dict(f.split("=", 1) for f in l.split()[1:])
                      for l in err if l.startswith("stats:")]
            return [(f.get("file"), f["ops"], f["peak_t"]) for f in fields]

        plain, traced = run("plain"), run("traced", "--trace")
        assert plain == traced and len(plain) == (3 if name == "directory" else 1)
        files = {out: sorted((tmp_path / out).iterdir()) if name == "directory"
                 else [tmp_path / out] for out in ("plain", "traced")}
        assert [f.read_bytes() for f in files["plain"]] == \
            [f.read_bytes() for f in files["traced"]]
        if name == "inf-padded":
            assert "inf" in files["plain"][0].read_text()

    def test_bench_subcommand(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert cli_main(["bench", "--suite", "nongeneric-sweep", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "instance,n,p,l,algorithm,ops,wall_s,peak_t"
        assert len(lines) > 1


class TestParserReuse:
    """``cli_main`` builds its parser once per process; reusing it changes no
    exit code and no output."""

    def calls(self, tmp_path):
        src = tmp_path / "showcase.ideal"
        src.write_text(SHOWCASE_TEXT)
        out = tmp_path / "showcase.components"
        out.write_text(emit_components(decompose_incremental(showcase())))
        return [(["decompose", str(src)], 0), (["verify", str(out), str(src)], 0),
                (["decompose", "--algo", "nonsense", str(src)], 2), (["--help"], 0)]

    @pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
    def test_reused_parser_matches_fresh_calls(self, tmp_path, capsys, order):
        calls = self.calls(tmp_path)[::order]
        fresh = []
        for argv, code in calls:
            _build_parser.cache_clear()
            assert cli_main(argv) == code
            fresh.append(capsys.readouterr())
        parser = _build_parser()
        for (argv, code), seen in zip(calls, fresh):
            assert cli_main(argv) == code
            assert capsys.readouterr() == seen
        assert _build_parser() is parser
        assert all(seen.out or seen.err for seen in fresh)


# The 12-cycle with the chords i ~ i + 3: a squarefree edge ideal, thick and
# with a box of 3^12 cells, which the engine rule sends to the incremental
# engine.
TWELVE_CYCLE = GeneratorSet.from_vectors(12, [
    tuple(int(k in (i, (i + s) % 12)) for k in range(12)) for i in range(12) for s in (1, 3)])


class TestDefaultEngine:
    """Without --algo each ideal runs under the engine it favours; the
    component files are those of --algo incremental, byte for byte."""

    CORPUS = {
        "zero": "ideal 3\nend\n",
        "unit": "ideal 2\n0 0\nend\n",
        "univariate": "ideal 1\n3\nend\n",
        "bivariate": emit_ideal(gen_random(2, 6, 9, seed=4)),
        "top": f"ideal 3\n{MAX_EXPONENT} 1 1\n1 2 0\n0 0 3\nend\n",
        "showcase": SHOWCASE_TEXT,
        "shell": emit_ideal(GeneratorSet.from_vectors(
            4, random.Random(5).sample(degree_shell(4, 6), 42))),
        "power": emit_ideal(GeneratorSet.from_vectors(3, degree_shell(3, 9))),
        "generic4": emit_ideal(gen_random(4, 20, 40, seed=6, generic=True)),
        "generic5": emit_ideal(gen_random(5, 12, 24, seed=7, generic=True)),
        "edges": emit_ideal(TWELVE_CYCLE),
    }
    RECURSIVE = {"unit", "univariate", "bivariate", "top", "showcase", "shell", "power",
                 "generic4", "generic5"}

    def decompose(self, tmp_path, argv):
        src, out = tmp_path / "in", tmp_path / "out"
        src.mkdir(parents=True)
        for name, text in self.CORPUS.items():
            (src / f"{name}.ideal").write_text(text)
        assert cli_main(["decompose", *argv, str(src), str(out)]) == 0
        return {p.stem: p.read_bytes() for p in out.glob("*.components")}

    def test_rule_covers_both_engines(self):
        engines = {name: preferred_engine(parse_ideal(text))
                   for name, text in self.CORPUS.items()}
        assert {name for name, e in engines.items() if e == "recursive"} == self.RECURSIVE

    def test_outputs_equal_forced_incremental(self, tmp_path):
        default = self.decompose(tmp_path / "default", [])
        assert len(default) == len(self.CORPUS)
        assert default == self.decompose(tmp_path / "incremental", ["--algo", "incremental"])
        assert default == self.decompose(tmp_path / "recursive", ["--algo", "recursive"])

    def test_single_file_outputs_equal_forced_incremental(self, tmp_path, capsys):
        for name, text in self.CORPUS.items():
            src = tmp_path / f"{name}.ideal"
            src.write_text(text)
            assert cli_main(["decompose", str(src)]) == 0
            default = capsys.readouterr().out
            assert cli_main(["decompose", "--algo", "incremental", str(src)]) == 0
            assert capsys.readouterr().out == default, name

    def test_stats_name_the_engine_that_ran(self, tmp_path, capsys):
        self.decompose(tmp_path, ["--stats"])
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == len(self.CORPUS)
        for line in lines:
            stats = dict(part.split("=") for part in line.split()[1:])
            name = Path(stats["file"]).stem
            assert stats["algo"] == ("recursive" if name in self.RECURSIVE
                                     else "incremental"), line
            # only the incremental engine reports peak_t
            assert ("peak_t" in stats) == (stats["algo"] == "incremental")

    def test_closure_built_once_per_file(self, tmp_path, capsys, monkeypatch):
        # the engine rule and the engine it picks read one cached closure
        g = GeneratorSet.from_vectors(12, TWELVE_CYCLE.gens)
        assert g.closure is g.closure
        closed = []
        inner = core.artinianize

        def spy(ideal):
            closed.append(ideal.n)
            return inner(ideal)

        monkeypatch.setattr(core, "artinianize", spy)
        src, out = tmp_path / "in", tmp_path / "out"
        src.mkdir()
        (src / "power.ideal").write_text(
            emit_ideal(GeneratorSet.from_vectors(3, degree_shell(3, 6))))
        (src / "edges.ideal").write_text(emit_ideal(g))
        assert cli_main(["decompose", "--stats", str(src), str(out)]) == 0
        stats = capsys.readouterr().err
        assert "power.ideal algo=recursive " in stats
        assert "edges.ideal algo=incremental " in stats
        assert sorted(closed) == [3, 12]

    def test_trace_runs_incremental(self, tmp_path, capsys):
        self.decompose(tmp_path, ["--trace", "--stats"])
        err = capsys.readouterr().err.splitlines()
        stats = [l for l in err if l.startswith("stats:")]
        assert len(stats) == len(self.CORPUS)
        assert all(" algo=incremental " in l for l in stats)
        assert any(l.startswith("{") for l in err)


def test_module_entry_point_runs_the_cli(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "monideal.cli", "decompose", str(tmp_path / "missing.ideal")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
