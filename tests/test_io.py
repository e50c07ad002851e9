import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs
from ifvs import Graph, ParseError, format_edgelist, load_graph, parse_dimacs, parse_edgelist
from ifvs.io import MAX_EDGES, MAX_VERTICES, detect_format

EDGELIST = """4 4
0 1
1 2
2 3
3 0
"""

DIMACS = """c a square
p edge 4 4
e 1 2
e 2 3
e 3 4
e 4 1
"""


def test_parse_edgelist():
    g = parse_edgelist(EDGELIST)
    assert g.n == 4 and g.edges == ((0, 1), (0, 3), (1, 2), (2, 3))


def test_parse_dimacs_matches_edgelist():
    assert parse_dimacs(DIMACS) == parse_edgelist(EDGELIST)


def test_autodetect():
    assert detect_format(EDGELIST) == "edgelist"
    assert detect_format(DIMACS) == "dimacs"
    assert load_graph(DIMACS) == load_graph(EDGELIST)


def test_parse_errors_name_the_line():
    with pytest.raises(ParseError) as err:
        parse_edgelist("2 1\n0 x\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_edgelist("2 2\n0 1\n")
    assert "declared 2" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_dimacs("p edge 3 1\ne 1 4\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ParseError):
        parse_dimacs("e 1 2\n")  # edge before problem line
    with pytest.raises(ParseError):
        load_graph("")


@settings(max_examples=200, deadline=None)
@given(graphs(), st.data())
def test_edgelist_roundtrip(g, data):
    # the parsers build the graph unchecked from the pairs they checked;
    # it must be the one the checking constructor builds, edge order
    # included, whatever the order and orientation of the edge lines
    order = data.draw(st.permutations(g.edges))
    flips = data.draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m))
    lines = [(v, u) if flip else (u, v) for (u, v), flip in zip(order, flips)]
    expected = Graph(g.n, lines)
    edgelist = f"{g.n} {g.m}\n" + "".join(f"{u} {v}\n" for u, v in lines)
    dimacs = f"p edge {g.n} {g.m}\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in lines)
    parsed = [parse_edgelist(format_edgelist(g)), parse_edgelist(edgelist), parse_dimacs(dimacs)]
    for h in parsed:
        assert (h.n, h.m, h.adj, h.edges) == (expected.n, expected.m, expected.adj, expected.edges)


def test_self_loop_rejected_with_line():
    with pytest.raises(ParseError) as err:
        parse_edgelist("3 1\n1 1\n")
    assert "line 2" in str(err.value)


def test_duplicate_edge_names_its_line():
    for parse, text in (
        (parse_edgelist, "3 2\n0 1\n1 0\n"),
        (parse_dimacs, "p edge 3 2\ne 1 2\ne 2 1\n"),
    ):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.line_no == 3
        assert "duplicate edge" in str(err.value)


def test_hostile_header_counts_fail_before_allocating():
    huge = 10**12
    for text in (f"{huge} 0\n", f"p edge {huge} 0\n", f"4 {huge}\n", f"p edge 4 {huge}\n"):
        with pytest.raises(ParseError) as err:
            load_graph(text)
        assert "line 1" in str(err.value) and "exceed the limit" in str(err.value)
    assert parse_edgelist(f"{MAX_VERTICES} 0\n").n == MAX_VERTICES
    with pytest.raises(ParseError):
        parse_dimacs(f"p edge {MAX_VERTICES + 1} 0\n")
    with pytest.raises(ParseError):
        parse_edgelist(f"2 {MAX_EDGES + 1}\n")


def test_autodetect_skips_comment_lines():
    text = "# a square\n\n" + EDGELIST
    assert detect_format(text) == "edgelist"
    assert load_graph(text) == parse_edgelist(EDGELIST)
    assert detect_format("# DIMACS below\n" + DIMACS) == "dimacs"


def test_detect_format_names_the_bad_line():
    with pytest.raises(ParseError) as err:
        detect_format("\n# note\n\nhello 1\n")
    assert "line 4" in str(err.value) and "'hello'" in str(err.value)


def test_surplus_edges_fail_at_the_first_surplus_line():
    # the line after the surplus one is malformed too; it is never read
    with pytest.raises(ParseError) as err:
        parse_edgelist("3 1\n0 1\n1 2\nbroken\n")
    assert "line 3" in str(err.value) and "more than the declared 1 edges" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_dimacs("c path\np edge 3 1\ne 1 2\ne 2 3\nbroken\n")
    assert "line 4" in str(err.value) and "more than the declared 1 edges" in str(err.value)
    with pytest.raises(ParseError) as err:
        load_graph("2 0\n# none declared\n0 1\n")
    assert "line 3" in str(err.value)


@pytest.mark.parametrize(
    ("parse", "text", "line_no"),
    [
        (parse_edgelist, "12 1\n1_0 1\n", 2),
        (parse_edgelist, "3 1\n+2 0\n", 2),
        (parse_edgelist, "3 1\n٢ 0\n", 2),
        (parse_edgelist, "3 1\n-1 0\n", 2),
        (parse_edgelist, "3 +1\n0 1\n", 1),
        (parse_edgelist, "3_0 0\n", 1),
        (parse_dimacs, "p edge 3 1\ne +3 1\n", 2),
        (parse_dimacs, "p edge 3 1\ne 1_0 1\n", 2),
        (parse_dimacs, "p edge ٣ 0\n", 1),
    ],
)
def test_counts_and_ids_must_be_ascii_digits(parse, text, line_no):
    # int() alone takes signs, underscores and non-ASCII digits
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line_no == line_no
    assert f"line {line_no}: " in str(err.value) and "not ASCII digits" in str(err.value)


@pytest.mark.parametrize(
    ("parse", "text", "message"),
    [
        (parse_edgelist, "1" * 5000 + " 0\n", "exceed the limit"),
        (parse_edgelist, "3 " + "1" * 5000 + "\n", "exceed the limit"),
        (parse_dimacs, "p edge " + "9" * 5000 + " 0\n", "exceed the limit"),
        (parse_edgelist, "3 1\n" + "1" * 5000 + " 0\n", "out of range"),
        (parse_dimacs, "p edge 3 1\ne 1 " + "2" * 5000 + "\n", "out of range"),
    ],
    ids=["edgelist-n", "edgelist-m", "dimacs-n", "edgelist-id", "dimacs-id"],
)
def test_fields_past_the_int_digit_limit_are_out_of_range(parse, text, message):
    # int() refuses more than sys.get_int_max_str_digits() digits; such a
    # field is read as past every limit, not as malformed text
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value).startswith("line ") and message in str(err.value)
    assert "not ASCII digits" not in str(err.value)


def test_leading_zeros_past_the_int_digit_limit_are_read():
    assert parse_edgelist("0" * 5000 + "3 1\n0 " + "0" * 4999 + "2\n") == Graph(3, [(0, 2)])


@pytest.mark.parametrize("first", ["cx", "cat", "cp edge 3 3", "cx 1 2"])
def test_dimacs_comment_lines_start_with_a_lone_c(first):
    # only a first token of exactly "c" marks a comment; a line that merely
    # starts with the letter is an unknown line type, not a skipped one
    text = first + "\np edge 3 3\ne 1 2\ne 2 3\ne 3 1\n"
    with pytest.raises(ParseError) as err:
        parse_dimacs(text)
    assert err.value.line_no == 1 and "line 1" in str(err.value)
    triangle = parse_dimacs("c\nc a comment\n\tc indented\np edge 3 3\ne 1 2\ne 2 3\ne 3 1\n")
    assert triangle.m == 3
