import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molmine.errors import ConfigError, InputError
from molmine.ingest import (
    Publication,
    bucket_by_year,
    parse_csv,
    parse_dblp_xml,
    parse_jsonl,
    write_jsonl,
)

JSONL = (
    '{"id":"p1","year":1994,"authors":["A","B"]}\n'
    "\n"
    '{"id":"p2","year":1995,"authors":["B"]}\n'
)


class TestParseJsonl:
    def test_basic(self):
        result = parse_jsonl(JSONL)
        assert result.skipped == 0
        assert [p.id for p in result.publications] == ["p1", "p2"]
        assert result.publications[0].author_set == frozenset({"A", "B"})

    def test_accepts_file_objects(self):
        result = parse_jsonl(io.StringIO(JSONL))
        assert len(result.publications) == 2

    def test_author_cleanup(self):
        line = '{"id":"p","year":2000,"authors":[" A ","B","A","","B "]}\n'
        (pub,) = parse_jsonl(line).publications
        assert pub.authors == ("A", "B")

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            '{"id":"p","year":"1994","authors":["A"]}',  # year as string
            '{"id":"p","year":1994.5,"authors":["A"]}',
            '{"id":"p","year":true,"authors":["A"]}',
            '{"id":"p","year":-3,"authors":["A"]}',
            '{"id":"p","year":1994,"authors":[]}',
            '{"id":"p","year":1994,"authors":["  "]}',
            '{"id":"p","year":1994,"authors":[1]}',
            '{"id":"","year":1994,"authors":["A"]}',
            '{"id":5,"year":1994,"authors":["A"]}',
            '{"year":1994,"authors":["A"]}',
            '{"id":"p","authors":["A"]}',
            "[1,2,3]",
            '{"id":"p","year":1994,"authors":["\\ud800x","B"]}',  # lone surrogates
            '{"id":"p","year":1994,"authors":["A","\\udfff"]}',
            '{"id":"\\udc00","year":1994,"authors":["A"]}',
        ],
    )
    def test_lenient_skips_and_counts(self, line):
        result = parse_jsonl(line + "\n")
        assert result.publications == []
        assert result.skipped == 1

    def test_strict_aborts_with_line_number(self):
        text = JSONL + "broken\n"
        with pytest.raises(InputError, match="line 4"):
            parse_jsonl(text, strict=True)

    def test_lone_surrogate_strict_aborts(self):
        text = JSONL + '{"id":"p3","year":1994,"authors":["\\ud800x","B"]}\n'
        with pytest.raises(InputError, match="line 4"):
            parse_jsonl(text, strict=True)

    def test_surrogate_pair_escape_accepted(self):
        line = '{"id":"p","year":1994,"authors":["\\ud83d\\ude00","caf\\u00e9"]}\n'
        (pub,) = parse_jsonl(line).publications
        assert pub.authors == ("\U0001f600", "caf\u00e9")

    def test_counting_contract(self):
        text = JSONL + "broken\n" + '{"id":"p3","year":1,"authors":["C"]}\n'
        result = parse_jsonl(text)
        assert len(result.publications) + result.skipped == 4


class TestParseCsv:
    def test_basic(self):
        text = "id,year,authors\np1,1994,A;B\np2,1995,B\n"
        result = parse_csv(text)
        assert [p.authors for p in result.publications] == [("A", "B"), ("B",)]

    def test_header_required(self):
        with pytest.raises(InputError, match="header"):
            parse_csv("identifier,year,authors\np1,1994,A\n")

    def test_empty_input_yields_nothing(self):
        result = parse_csv("")
        assert result.publications == [] and result.skipped == 0

    def test_quoted_id_with_comma(self):
        text = 'id,year,authors\n"p,1",1994,A\n'
        (pub,) = parse_csv(text).publications
        assert pub.id == "p,1"

    def test_lenient_vs_strict(self):
        text = "id,year,authors\np1,notayear,A\n"
        assert parse_csv(text).skipped == 1
        with pytest.raises(InputError, match="line 2"):
            parse_csv(text, strict=True)

    def test_short_row_skipped(self):
        assert parse_csv("id,year,authors\np1,1994\n").skipped == 1


DBLP = """<?xml version="1.0"?>
<dblp>
 <article key="journals/x/1">
  <author>Alice</author><author>Bob</author>
  <title>On Things</title><year>1994</year>
 </article>
 <inproceedings key="conf/y/2">
  <author>Bob</author>
  <year>1995</year>
 </inproceedings>
 <www key="homepages/z"><author>Carol</author></www>
 <book key="books/w"><year>1996</year></book>
</dblp>
"""


class TestParseDblpXml:
    def test_records_and_skips(self):
        result = parse_dblp_xml(DBLP)
        assert [p.id for p in result.publications] == ["journals/x/1", "conf/y/2"]
        assert result.publications[0].authors == ("Alice", "Bob")
        # www lacks a year, book lacks authors
        assert result.skipped == 2

    def test_foreign_entities_kept_verbatim(self):
        text = (
            '<dblp><article key="k"><author>J&ouml;rg M&uuml;ller</author>'
            "<year>2000</year></article></dblp>"
        )
        (pub,) = parse_dblp_xml(text).publications
        assert pub.authors == ("J&ouml;rg M&uuml;ller",)

    def test_builtin_entities_resolved(self):
        text = (
            '<dblp><article key="k"><author>A &amp; B</author>'
            "<year>2000</year></article></dblp>"
        )
        (pub,) = parse_dblp_xml(text).publications
        assert pub.authors == ("A & B",)

    def test_malformed_xml_aborts(self):
        with pytest.raises(InputError, match="not well-formed"):
            parse_dblp_xml("<dblp><article key='k'>")


class TestWriteJsonl:
    def test_round_trip_fixed_point(self):
        first = parse_jsonl(JSONL).publications
        text = write_jsonl(first)
        again = parse_jsonl(text)
        assert again.publications == first and again.skipped == 0
        assert write_jsonl(again.publications) == text

    @settings(max_examples=50)
    @given(
        st.lists(
            st.builds(
                Publication,
                id=st.text(min_size=1).map(lambda s: s.strip() or "p"),
                year=st.integers(min_value=1, max_value=3000),
                authors=st.lists(
                    st.text(min_size=1).map(lambda s: s.strip() or "a"),
                    min_size=1,
                    max_size=4,
                    unique=True,
                ).map(tuple),
            ),
            max_size=8,
        )
    )
    def test_round_trip_property(self, pubs):
        result = parse_jsonl(write_jsonl(pubs))
        assert result.skipped == 0
        assert result.publications == list(pubs)


class TestBucketByYear:
    def _pubs(self):
        return [
            Publication("p1", 1994, ("A",)),
            Publication("p2", 1995, ("B",)),
            Publication("p3", 1994, ("C",)),
        ]

    def test_grouping(self):
        yb = bucket_by_year(self._pubs())
        assert yb.years() == [1994, 1995]
        assert [p.id for p in yb.buckets[1994]] == ["p1", "p3"]
        assert yb.total_count == 3 and yb.skipped_count == 0

    def test_range_filter_counts_skips(self):
        yb = bucket_by_year(self._pubs(), year_range=(1995, 1999))
        assert yb.years() == [1995]
        assert yb.total_count == 1 and yb.skipped_count == 2

    def test_prior_skips_carried(self):
        yb = bucket_by_year(self._pubs(), year_range=(1995, 1999), prior_skipped=4)
        assert yb.skipped_count == 6

    def test_bad_range_rejected(self):
        with pytest.raises(ConfigError):
            bucket_by_year(self._pubs(), year_range=(2000, 1999))
