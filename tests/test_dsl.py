"""Document parsing: statements, expressions, model references, errors."""

import pytest

from pgog.amalgam import LampLetter, PathLetter
from pgog.analysis import detect_collapse
from pgog.dsl import DslError, parse_dsl, parse_word
from pgog.gog import fundamental_presentation, verify_properness_witness
from pgog.registry import improper_heisenberg_chain, shipped_document


def test_bare_presentation():
    doc = parse_dsl("gens a\nrel a^2")
    pres = doc.presentations["main"]
    assert pres.generators == ("a",)
    assert [tuple(r.letters()) for r in pres.relators] == [(("a", 1), ("a", 1))]


def test_commutator_equation_sugar():
    doc = parse_dsl("gens a b c\nrel [a,b]=c")
    relator, = doc.presentations["main"].relators
    assert tuple(relator.letters()) == (
        ("c", -1), ("a", -1), ("b", -1), ("a", 1), ("b", 1))


def test_expression_grammar():
    doc = parse_dsl("gens a b\nrel (a*b)^-2\nrel 1*a\nrel [a*b, b^3]")
    r1, r2, r3 = doc.presentations["main"].relators
    assert tuple(r1.letters()) == (("b", -1), ("a", -1), ("b", -1), ("a", -1))
    assert tuple(r2.letters()) == (("a", 1),)
    assert len(tuple(r3.letters())) == 10


def test_comments_and_blank_lines_are_skipped():
    doc = parse_dsl("# heading\n\ngens a  # trailing\nrel a^2\n")
    assert doc.presentations["main"].generators == ("a",)


def test_shipped_chain_matches_the_reference_builder():
    doc = shipped_document()
    gog = doc.graphs["chain"]
    reference = improper_heisenberg_chain(2, 3)
    assert list(gog.graph.vertices) == list(reference.graph.vertices)
    assert dict(gog.graph.edges) == dict(reference.graph.edges)
    ours = detect_collapse(fundamental_presentation(gog), 2)
    theirs = detect_collapse(fundamental_presentation(reference), 2)
    assert ours.collapsed == theirs.collapsed == ("a2", "a3", "b1", "b2")
    assert ours.residual_rank == theirs.residual_rank == 2


def test_shipped_free_line_witness_certifies():
    doc = shipped_document("free_line.gog")
    spec = doc.witnesses["W"]
    witness = verify_properness_witness(doc.graphs["line"], spec)
    assert witness.valid
    assert witness.vertex_image_orders == {"L": 2, "R": 2}


def test_builtin_model_references():
    doc = parse_dsl("p 2\ngraph g\n"
                    "vertex A : Gn(n=2)\n"
                    "vertex B : K(1)\n"
                    "edge e : K(1) from A to B with "
                    "d0: k1->k1, h0->h0, h1->h1 ; d1: k1->k1, h0->h0, h1->h1")
    gog = doc.graphs["g"]
    assert gog.vertices["A"].model.order == 64
    assert list(gog.vertices["B"].model.generators) == ["k1", "h0", "h1"]


def test_prime_resolution():
    doc = parse_dsl("graph g\nvertex A : EA(a, p=3)")
    assert doc.graphs["g"].vertices["A"].model.order == 3
    with pytest.raises(DslError, match="no prime in scope"):
        parse_dsl("graph g\nvertex A : EA(a)")
    with pytest.raises(DslError, match="not prime"):
        parse_dsl("p 6")
    with pytest.raises(DslError, match="already set"):
        parse_dsl("p 2\np 3")


def test_word_statement_builds_letters():
    letters = parse_word("G1:k1*h0^-1 L2:t")
    assert isinstance(letters[0], PathLetter)
    assert isinstance(letters[1], LampLetter)
    assert letters[1].level == 2
    doc = parse_dsl("word j := G1:c G2:k2")
    assert len(doc.words["j"]) == 2
    # Lamp(3,1) has h2, so the document's prime decides
    doc = parse_dsl("p 3\nword j := L1:h2 G1:k1")
    assert len(doc.words["j"]) == 2


@pytest.mark.parametrize("text", ["G1:k1 #L1:t", "G1:k1\nL1:t",
                                  "G1:k1\rL1:t", "G1:k1#"])
def test_word_rejects_comment_marks_and_line_breaks(text):
    # in a document these would end the word statement early
    with pytest.raises(DslError, match="cannot appear in a word") as err:
        parse_word(text)
    assert err.value.line == 1


@pytest.mark.parametrize("text,column", [
    ("G1:k1 ?L1:t", 7), ("?", 1), ("G1:k1 #L1:t", 7), ("G1:k1 L1", 9),
    ("W:t", 4), ("G1:k1^\u00b2", 7),      # exponents are ASCII digits
])
def test_word_error_columns_count_from_the_start_of_the_word(text, column):
    with pytest.raises(DslError) as err:
        parse_word(text)
    assert (err.value.line, err.value.column) == (1, column)


@pytest.mark.parametrize("text,fragment,line", [
    ("gens a\nrel b", "undeclared", 2),
    ("gens a\nrel a^", "expected an exponent", 2),
    ("vertex V : EA(a)", "open 'graph", 1),
    ("graph g\nvertex V : Nope(1)", "unknown model name", 2),
    ("p 2\ngraph g\nvertex V : Heisenberg(a)", "arity mismatch", 3),
    ("graph g\nvertex V : Gn(1, 2, p=2)", "arity mismatch", 2),
    ("p 2\ngraph g\nvertex V : EA(a)\nvertex V : EA(b)", "duplicate vertex", 4),
    ("p 2\ngraph g\nvertex V : EA(a)\n"
     "edge e : EA() from V to W with d0: ; d1:", "unknown vertex", 4),
    ("gens a\nrel a^2 extra", "trailing input", 2),
    ("frobnicate", "unknown statement", 1),
    ("rel a^2", "undeclared", 1),
    ("gens a\nrel a^2\ngens b", "must precede", 3),
    ("word w :=", "no letters", 1),
    ("p 2\nword w := G1:k1 L1:h2", "Lamp\\(2,1\\) has no generator h2", 2),
    ("word v := G1:k1\nword w := G2:k2 L1:t", "holds every letter", 2),
    ("word w := G1:h3", "no image for generator h3", 1),
    ("witness W : EA(x) map L.a -> x", "preceding graph", 1),
    # a family's own refusal, and K's bound before its p^n lamps exist
    ("graph g\nvertex A : EA(a, p=4)", "p must be prime, got 4", 2),
    ("graph g\nvertex A : EA(a, a, p=2)", "duplicate generator names", 2),
    ("graph g\nvertex A : Heisenberg(a, a, p=2)", "duplicate generator", 2),
    ("graph g\nvertex A : K(21, p=2)", "2\\^21 exceeds the 2\\^20", 2),
])
def test_errors_carry_line_and_column(text, fragment, line):
    with pytest.raises(DslError, match=fragment) as err:
        parse_dsl(text)
    assert err.value.line == line
    assert err.value.column >= 1


def test_graph_construction_errors_point_at_the_block():
    text = ("p 2\ngraph bad\nvertex A : EA(a)\nvertex B : EA(b)\n"
            "edge e : EA(u) from A to B with d0: u -> a ; d1: u -> b*b")
    with pytest.raises(DslError) as err:
        parse_dsl(text)
    assert err.value.line == 2


def test_witness_map_validation():
    base = ("p 2\ngraph g\nvertex A : EA(a)\nvertex B : EA(b)\n"
            "edge e : EA() from A to B with d0: ; d1:\n")
    with pytest.raises(DslError, match="unknown vertex"):
        parse_dsl(base + "witness W : EA(x, y) map C.a -> x")
    with pytest.raises(DslError, match="not a generator"):
        parse_dsl(base + "witness W : EA(x, y) map A.zz -> x")
    with pytest.raises(DslError, match="no image for"):
        parse_dsl(base + "witness W : EA(x, y) map A.a -> x")
    doc = parse_dsl(base + "witness W : EA(x, y) map A.a -> x, B.b -> y")
    assert doc.witnesses["W"].target.order == 4
