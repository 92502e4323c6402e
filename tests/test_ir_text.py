"""Parser / printer round-trip and error reporting tests."""

import pytest

from repro.ir.parser import ParseError, parse_function
from repro.ir.printer import format_function, format_instruction
from repro.ir.instructions import BrDec, Copy, ParallelCopy, Phi, Variable
from tests.helpers import GALLERY_PROGRAMS, diamond_function, loop_function


SAMPLE = """
function sample(a, b) {
  pin a R1
  entry:
    x = add a, b            # a comment
    y = copy x
    pcopy t <- y, u <- 3 @exit
    br x, body, done
  body:
    z = phi [entry: y, body: w]
    pcopy z2 <- z @entry
    w = mul z, 2
    r = call helper(w, 1)
    print r
    jump done
  done:
    s = phi [entry: x, body: w]
    brdec s, body, final
  final:
    ret
}
"""


class TestParser:
    def test_parses_sample(self):
        function = parse_function(SAMPLE)
        assert function.name == "sample"
        assert [p.name for p in function.params] == ["a", "b"]
        assert set(function.blocks) == {"entry", "body", "done", "final"}
        assert function.pinned[Variable("a")] == "R1"
        entry = function.blocks["entry"]
        assert isinstance(entry.exit_pcopy, ParallelCopy)
        body = function.blocks["body"]
        assert isinstance(body.entry_pcopy, ParallelCopy)
        assert isinstance(body.phis[0], Phi)
        assert isinstance(function.blocks["done"].terminator, BrDec)

    def test_round_trip_sample(self):
        function = parse_function(SAMPLE)
        text = format_function(function)
        again = parse_function(text)
        assert format_function(again) == text

    @pytest.mark.parametrize("name,maker,_args", GALLERY_PROGRAMS)
    def test_round_trip_gallery(self, name, maker, _args):
        function = maker()
        text = format_function(function)
        assert format_function(parse_function(text)) == text

    def test_round_trip_helpers(self):
        for function in (diamond_function(), loop_function()):
            text = format_function(function)
            assert format_function(parse_function(text)) == text

    def test_body_parallel_copy_round_trip(self):
        text = (
            "function f(a) {\n"
            "  entry:\n"
            "    x = add a, 1\n"
            "    pcopy y <- x, z <- a\n"
            "    ret y\n"
            "}\n"
        )
        function = parse_function(text)
        body = function.blocks["entry"].body
        assert any(isinstance(instr, ParallelCopy) for instr in body)
        assert function.blocks["entry"].exit_pcopy is None
        assert format_function(parse_function(format_function(function))) == format_function(function)

    @pytest.mark.parametrize(
        "bad_text,fragment",
        [
            ("x = add a, b", "expected function header"),
            ("function f() {\n  x = const 1\n}", "outside of a block"),
            ("function f() {\n  entry:\n    ???\n}", "unrecognised"),
            ("function f() {\n  entry:\n    br x, a\n}", "br expects"),
            ("function f() {\n  entry:\n    brdec 3, a, b\n}", "must be a variable"),
            ("function f() {\n  entry:\n    ret 1\n", "missing closing brace"),
            ("function f() {\n  entry:\n    pcopy a < b\n}", "bad parallel copy"),
            ("function f() {\n  entry:\n    x = phi [a]\n}", "bad phi argument"),
            ("function f() {\n  b:\n    ret 1\n  b:\n    ret 2\n}",
             "line 4: duplicate block label 'b'"),
            ("function f() {\n  entry:\n    brdec c, a\n}", "brdec expects"),
            ("function f() {\n  entry:\n    x = add a, @\n    ret x\n}",
             "line 3: bad operand '@'"),
            ("function f() {\n  entry:\n    ret 1\n}\nx", "line 5: text after closing brace"),
            ("   \n", "empty input"),
        ],
    )
    def test_parse_errors(self, bad_text, fragment):
        with pytest.raises(ParseError) as excinfo:
            parse_function(bad_text)
        assert fragment in str(excinfo.value)

    def test_constants_and_negative_numbers(self):
        function = parse_function(
            "function f() {\n  entry:\n    x = const -5\n    ret x\n}\n"
        )
        op = function.blocks["entry"].body[0]
        assert op.args[0].value == -5


class TestPrinter:
    def test_format_instruction_samples(self):
        assert format_instruction(Copy(Variable("a"), Variable("b"))) == "a = copy b"
        phi = Phi(Variable("x"), {"p": Variable("y")})
        assert format_instruction(phi) == "x = phi [p: y]"
        pcopy = ParallelCopy([(Variable("a"), 1)])
        assert format_instruction(pcopy) == "pcopy a <- 1"

    def test_empty_pcopies_not_printed(self):
        function = diamond_function()
        function.blocks["join"].get_entry_pcopy(create=True)
        text = format_function(function)
        assert "pcopy" not in text
