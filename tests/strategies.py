"""Hypothesis strategies shared by the serialization tests."""

from hypothesis import strategies as st

#: Author names mixing the characters JSON and DOT escape (quote, backslash,
#: control characters) with non-ASCII and astral ones. Surrogates are left
#: out: no reader yields them.
NAMES = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\\n\r\t\b\f\x00\x1f\x7f  é中😀/AB'),
        st.characters(blacklist_categories=("Cs",)),
    ),
    min_size=1,
    max_size=5,
)

#: Directed edge sets without self-loops over a small pool of such names.
EDGES = st.lists(NAMES, min_size=2, max_size=8, unique=True).flatmap(
    lambda names: st.lists(
        st.tuples(st.sampled_from(names), st.sampled_from(names)).filter(lambda e: e[0] != e[1]),
        max_size=20,
    )
)
