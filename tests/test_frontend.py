"""Tests for the mini-C frontend: lexing, parsing, code generation."""

import pytest

from repro.errors import LexError, ParseError, SemanticError
from repro.frontend import compile_c, parse_c, preprocess, tokenize
from repro.ir import verify_module
from repro.passes import optimize
from repro.runtime import Interpreter


def run_c(source, fn, args, api=None):
    module = compile_c(source)
    optimize(module)
    return Interpreter(module).call(fn, args)


class TestLexer:
    def test_tokens(self):
        toks = tokenize("int x = 42 + 3.5f;")
        kinds = [t.kind for t in toks]
        assert kinds == ["keyword", "ident", "op", "int", "op", "float",
                         "op", "eof"]

    def test_comments_stripped(self):
        toks = tokenize("a /* b */ c // d\ne")
        assert [t.text for t in toks if t.kind != "eof"] == ["a", "c", "e"]

    def test_define_macro(self):
        assert "(32)" in preprocess("#define N 32\nint a[N];")

    def test_macro_in_macro(self):
        out = preprocess("#define A 4\n#define B A+1\nB")
        assert "4" in out

    def test_function_macro_rejected(self):
        with pytest.raises(LexError):
            preprocess("#define SQ(x) ((x)*(x))\n")

    def test_bad_character(self):
        with pytest.raises(LexError):
            tokenize("int $x;")

    def test_bad_character_location(self):
        with pytest.raises(LexError, match=r"2:3: unexpected character '@'"):
            tokenize("int x;\nx @ 1;")

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError, match="unterminated block comment"):
            tokenize("int x; /* never closed\nint y;")

    @pytest.mark.parametrize("source, texts", [
        ("a>>=b", ["a", ">>=", "b"]),
        ("a<<=b", ["a", "<<=", "b"]),
        ("p->q", ["p", "->", "q"]),
        ("f(...)", ["f", "(", "...", ")"]),
        ("a>>b>=c", ["a", ">>", "b", ">=", "c"]),
        ("a-->b", ["a", "--", ">", "b"]),
        ("a+++b", ["a", "++", "+", "b"]),
        ("a&&b||!c", ["a", "&&", "b", "||", "!", "c"]),
    ])
    def test_longest_match_operators(self, source, texts):
        toks = tokenize(source)
        assert [t.text for t in toks[:-1]] == texts
        assert {t.kind for t in toks[:-1] if not t.text[0].isalpha()} \
            <= {"op"}

    @pytest.mark.parametrize("text", [
        ".5", "1.", "1.5", "1e-3f", "2E+4", "3.25e10", "0.5F", "6e2"])
    def test_float_forms(self, text):
        toks = tokenize(text)
        assert [(t.kind, t.text) for t in toks[:-1]] == [("float", text)]

    @pytest.mark.parametrize("text", ["0x1Fu", "10UL", "0", "42", "7lu"])
    def test_int_forms(self, text):
        toks = tokenize(text)
        assert [(t.kind, t.text) for t in toks[:-1]] == [("int", text)]

    def test_member_dot_is_not_a_float(self):
        toks = tokenize("s.x")
        assert [(t.kind, t.text) for t in toks[:-1]] == [
            ("ident", "s"), ("op", "."), ("ident", "x")]

    def test_keyword_vs_identifier(self):
        toks = tokenize("for fort int_ int double doubles _if if")
        assert [(t.kind, t.text) for t in toks[:-1]] == [
            ("keyword", "for"), ("ident", "fort"), ("ident", "int_"),
            ("keyword", "int"), ("keyword", "double"),
            ("ident", "doubles"), ("ident", "_if"), ("keyword", "if")]

    def test_positions_after_block_comment(self):
        source = "int a; /* one\ntwo\nthree */\n  b = 1;\n\tc"
        toks = tokenize(source, "f.c")
        where = {t.text: (t.location.line, t.location.column)
                 for t in toks}
        assert where["int"] == (1, 1)
        assert where["a"] == (1, 5)
        assert where["b"] == (4, 3)
        assert where["="] == (4, 5)
        assert where["1"] == (4, 7)
        assert where["c"] == (5, 2)
        assert toks[-1].kind == "eof"
        assert toks[-1].location.line == 5
        assert all(t.location.filename == "f.c" for t in toks)


class TestParser:
    def test_function_parse(self):
        unit = parse_c("int f(int a, double *b) { return a; }")
        assert unit.functions[0].name == "f"
        assert len(unit.functions[0].params) == 2

    def test_precedence(self):
        # 2 + 3 * 4 must evaluate to 14.
        assert run_c("int f() { return 2 + 3 * 4; }", "f", []) == 14

    def test_unary_and_ternary(self):
        assert run_c("int f(int x) { return x > 0 ? -x : x; }", "f", [5]) == -5

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_c("int f() { return 1 }")

    def test_array_dims_constant_folded(self):
        unit = parse_c("double a[4*8];")
        assert unit.globals[0].ctype.dims == (32,)


class TestCodegenSemantics:
    def test_arith(self):
        src = "int f(int a, int b) { return (a + b) * (a - b) / 2; }"
        assert run_c(src, "f", [7, 3]) == 20

    def test_float_double(self):
        src = "double f(double x) { return x * 0.5 + 1.0; }"
        assert run_c(src, "f", [4.0]) == 3.0

    def test_loops_and_arrays(self):
        src = """
double sum(int n, double *a) {
  double s = 0.0;
  for (int i = 0; i < n; i++)
    s += a[i];
  return s;
}
"""
        import numpy as np
        from repro.runtime import Buffer, Pointer

        module = compile_c(src)
        optimize(module)
        interp = Interpreter(module)
        buf = Buffer.from_numpy("a", np.arange(10, dtype=np.float64))
        assert interp.call("sum", [10, Pointer(buf, 0)]) == 45.0

    def test_while_and_break(self):
        src = """
int f(int n) {
  int i = 0;
  while (1) {
    if (i >= n) break;
    i++;
  }
  return i;
}
"""
        assert run_c(src, "f", [7]) == 7

    def test_continue(self):
        src = """
int f(int n) {
  int s = 0;
  for (int i = 0; i < n; i++) {
    if (i % 2 == 0) continue;
    s += i;
  }
  return s;
}
"""
        assert run_c(src, "f", [6]) == 9  # 1 + 3 + 5

    def test_short_circuit(self):
        src = """
int f(int a, int b) {
  if (a > 0 && b > 0) return 1;
  if (a > 0 || b > 0) return 2;
  return 3;
}
"""
        assert run_c(src, "f", [1, 1]) == 1
        assert run_c(src, "f", [1, -1]) == 2
        assert run_c(src, "f", [-1, -1]) == 3

    def test_nested_calls(self):
        src = """
int sq(int x) { return x * x; }
int f(int x) { return sq(x) + sq(x + 1); }
"""
        assert run_c(src, "f", [3]) == 25

    def test_global_2d_array(self):
        src = """
double m[4][4];
double f() {
  for (int i = 0; i < 4; i++)
    for (int j = 0; j < 4; j++)
      m[i][j] = (double)(i * 4 + j);
  return m[2][3];
}
"""
        assert run_c(src, "f", []) == 11.0

    def test_intrinsics(self):
        assert run_c("double f(double x) { return sqrt(x); }", "f",
                     [16.0]) == 4.0
        assert run_c("double f(double x) { return fabs(x); }", "f",
                     [-3.0]) == 3.0

    def test_int_division_truncates_toward_zero(self):
        assert run_c("int f(int a, int b) { return a / b; }", "f",
                     [-7, 2]) == -3
        assert run_c("int f(int a, int b) { return a % b; }", "f",
                     [-7, 2]) == -1

    def test_undeclared_variable(self):
        with pytest.raises(SemanticError):
            compile_c("int f() { return zoo; }")

    def test_undeclared_function(self):
        with pytest.raises(SemanticError):
            compile_c("int f() { return g(1); }")

    def test_verified_output(self):
        src = """
void saxpy(int n, double a, double *x, double *y) {
  for (int i = 0; i < n; i++)
    y[i] = a * x[i] + y[i];
}
"""
        module = compile_c(src)
        verify_module(module)
        optimize(module)
        verify_module(module)
