"""Each parser, on any text, returns a value or raises only its own parse
error: GraphParseError, ComplexParseError or WallspaceParseError."""

from hypothesis import given, settings
from hypothesis import strategies as st

from cubartin.cube_model import ComplexParseError, parse_complex
from cubartin.defining_graph import GraphParseError, parse_graph
from cubartin.toolkit import WallspaceParseError, parse_wallspace

# record keywords and tokens of every format, so that drawn lines reach the
# checks past the keyword, mixed with arbitrary text
KEYWORDS = (
    "vertex", "edge", "square", "cube", "prism", "zloop", "base", "internal",
    "cubecomplex", "points", "wall",
)
TOKENS = st.one_of(
    st.sampled_from(("a", "b", "v", "e", "e+", "e-", "a+", "b-", "+", "-", "0", "1", "2", "-3", "01", "0011", "#", "a.b", "1")),
    st.integers(-5, 40).map(str),
    st.text(alphabet="01ab+-.#", min_size=1, max_size=6),
    st.text(min_size=1, max_size=5),
)
LINE = st.one_of(
    st.builds(lambda k, ts: " ".join([k, *ts]), st.sampled_from(KEYWORDS), st.lists(TOKENS, max_size=6)),
    st.text(max_size=20),
)


def documents(header=""):
    return st.one_of(
        st.text(),
        st.lists(LINE, max_size=12).map(lambda lines: header + "\n".join(lines)),
    )


@settings(max_examples=400, deadline=None)
@given(documents())
def test_parse_graph_raises_only_its_error(text):
    try:
        parse_graph(text)
    except GraphParseError:
        pass


@settings(max_examples=400, deadline=None)
@given(st.one_of(documents(), documents("cubecomplex 1\n")))
def test_parse_complex_raises_only_its_error(text):
    try:
        parse_complex(text)
    except ComplexParseError:
        pass


@settings(max_examples=400, deadline=None)
@given(st.one_of(documents(), documents("points 4\n")))
def test_parse_wallspace_raises_only_its_error(text):
    try:
        parse_wallspace(text)
    except WallspaceParseError:
        pass
