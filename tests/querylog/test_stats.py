"""Tests for repro.querylog.stats."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.querylog.models import QueryLog
from repro.querylog.stats import (
    DropEdges,
    LogStatistics,
    SimilarityCache,
    TableStatistics,
    build_drop_edges,
    click_similarity,
    host_path_similarity,
)


def make_log():
    log = QueryLog()
    log.add_record(
        "iphone 5s case",
        10,
        {"https://acc.example.com/case?c=iphone-5s&r=1": 6,
         "https://acc.example.com/case?c=iphone-5s&r=2": 2},
    )
    log.add_record("case", 40, {"https://acc.example.com/case?r=1": 20})
    log.add_record("iphone 5s", 25, {"https://phone.example.com/iphone-5s?r=1": 12})
    log.add_record(
        "best iphone 5s case",
        4,
        {"https://acc.example.com/case?c=iphone-5s&r=1": 2},
    )
    return log


class TestClickSimilarity:
    def test_identical(self):
        clicks = {"a": 3, "b": 1}
        assert click_similarity(clicks, clicks) == pytest.approx(1.0)

    def test_disjoint(self):
        assert click_similarity({"a": 1}, {"b": 1}) == 0.0

    def test_empty(self):
        assert click_similarity({}, {"a": 1}) == 0.0

    @given(
        st.dictionaries(st.sampled_from("abcd"), st.integers(1, 10), max_size=4),
        st.dictionaries(st.sampled_from("abcd"), st.integers(1, 10), max_size=4),
    )
    def test_bounded_and_symmetric(self, a, b):
        s = click_similarity(a, b)
        assert 0 <= s <= 1 + 1e-9
        assert s == pytest.approx(click_similarity(b, a))


class TestHostPathSimilarity:
    def test_ignores_query_string(self):
        a = {"https://x.com/p?c=1": 3}
        b = {"https://x.com/p?c=2": 5}
        assert host_path_similarity(a, b) == pytest.approx(1.0)

    def test_different_paths_disjoint(self):
        a = {"https://x.com/p1?r=1": 1}
        b = {"https://x.com/p2?r=1": 1}
        assert host_path_similarity(a, b) == 0.0


class TestLogStatistics:
    def setup_method(self):
        self.stats = LogStatistics(make_log())

    def test_total_volume(self):
        assert self.stats.total_volume == 79

    def test_term_idf_orders_by_rarity(self):
        assert self.stats.term_idf("best") > self.stats.term_idf("case")

    def test_term_idf_unknown_is_highest(self):
        assert self.stats.term_idf("zzz") >= self.stats.term_idf("best")

    def test_phrase_idf_averages(self):
        single = self.stats.term_idf("iphone")
        phrase = self.stats.phrase_idf("iphone 5s")
        assert phrase == pytest.approx(
            (single + self.stats.term_idf("5s")) / 2
        )

    def test_standalone_probability(self):
        assert self.stats.standalone_probability("case") == pytest.approx(40 / 79)
        assert self.stats.standalone_probability("unknown query") == 0.0

    def test_click_entropy(self):
        assert self.stats.click_entropy("case") == 0.0
        assert self.stats.click_entropy("iphone 5s case") > 0.0
        assert self.stats.click_entropy("nope") == 0.0

    def test_drop_similarity_nonconstraint_high(self):
        similarity = self.stats.drop_similarity("best iphone 5s case", "best")
        assert similarity is not None and similarity > 0.9

    def test_drop_similarity_constraint_low(self):
        similarity = self.stats.drop_similarity("iphone 5s case", "iphone 5s")
        assert similarity is not None and similarity < 0.1

    def test_drop_similarity_missing_evidence(self):
        assert self.stats.drop_similarity("iphone 5s case", "5s case") is None
        assert self.stats.drop_similarity("unknown", "x") is None
        assert self.stats.drop_similarity("case", "case") is None

    def test_subquery_support(self):
        support = self.stats.subquery_support("iphone 5s case", "case")
        assert support is not None
        hp_sim, standalone = support
        assert hp_sim > 0.9
        assert standalone == pytest.approx(40 / 79)

    def test_subquery_support_missing(self):
        assert self.stats.subquery_support("iphone 5s case", "5s case") is None


#: URLs that collide on host+path but not in full, share a host only,
#: differ only in scheme, carry no scheme or query string, or are not ASCII.
_CACHE_URLS = st.sampled_from(
    [
        "https://acc.example.com/case?c=iphone-5s&r=1",
        "https://acc.example.com/case?c=iphone-5s&r=2",
        "http://acc.example.com/case?r=7",
        "https://acc.example.com/case",
        "https://acc.example.com/cover?r=1",
        "acc.example.com/case?r=3",
        "https://hôtel.example.fr/straße?c=münchen&r=1",
        "https://hôtel.example.fr/straße?r=2",
        "https://酒店.example.cn/北京?r=1",
    ]
)
_CLICK_MAPS = st.dictionaries(_CACHE_URLS, st.integers(0, 50), max_size=6)


class TestSimilarityCache:
    """The memoized view must reproduce the module functions exactly (==,
    not approx): training parity downstream compares floats bit for bit."""

    @given(st.lists(_CLICK_MAPS, min_size=1, max_size=5))
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def test_cached_cosines_equal_module_functions(self, click_maps):
        log = QueryLog()
        for index, clicks in enumerate(click_maps):
            log.add_record(f"q{index}", 1, clicks)
        records = list(log.records())
        cache = SimilarityCache(log)
        # Twice over: the second pass reads every histogram and norm from
        # the memo the first pass filled.
        for _ in range(2):
            for a in records:
                for b in records:
                    assert cache.host_path_similarity(a, b) == host_path_similarity(
                        a.clicks, b.clicks
                    )
                    assert cache.click_similarity(a, b) == click_similarity(
                        a.clicks, b.clicks
                    )

    def test_lookup_normalizes_like_the_log(self):
        log = make_log()
        cache = SimilarityCache(log)
        for text in ["iphone 5s case", "  iPhone-5S   Case ", "IPHONE 5S", "nope", ""]:
            assert cache.lookup(text) is log.lookup(text)
            assert cache.lookup(text) is log.lookup(text)  # memoized

    def test_drop_similarity_matches_statistics(self):
        log = make_log()
        stats = LogStatistics(log)
        cache = SimilarityCache(log)
        for query, segment in [
            ("best iphone 5s case", "best"),
            ("iphone 5s case", "iphone 5s"),
            ("iphone 5s case", "5s case"),
            ("case", "case"),
        ]:
            record = log.lookup(query)
            assert cache.drop_similarity(record, segment) == stats.drop_similarity(
                query, segment
            )


# Few distinct tokens, so queries repeat spans ("a b a") and removals
# often (not always) leave a logged query; click maps may be empty.
_TOKEN = st.sampled_from(["a", "b", "c", "d"])
_CLICKS = st.dictionaries(
    st.sampled_from([f"https://x.example.com/{n}" for n in range(4)]),
    st.integers(min_value=1, max_value=9),
    max_size=3,
)


@st.composite
def repetitive_logs(draw):
    log = QueryLog()
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        tokens = draw(st.lists(_TOKEN, min_size=1, max_size=5))
        log.add_record(" ".join(tokens), draw(st.integers(1, 50)), draw(_CLICKS))
    return log


def _spans(query: str):
    tokens = query.split()
    for start in range(len(tokens)):
        for end in range(start + 1, len(tokens) + 1):
            yield " ".join(tokens[start:end])


class TestDropEdges:
    """Table B (``DropEdges``) answers exactly what
    ``LogStatistics.drop_similarity`` answers from the click log."""

    @settings(max_examples=150, deadline=None)
    @given(log=repetitive_logs(), extra=st.lists(_TOKEN, min_size=1, max_size=4))
    def test_every_span_matches_statistics(self, log, extra):
        stats = LogStatistics(log)
        tables = TableStatistics.of(stats)
        for record in log.records():
            for span in [*_spans(record.query), " ".join(extra), "zz"]:
                assert tables.drop_similarity(record.query, span) == (
                    stats.drop_similarity(record.query, span)
                ), (record.query, span)
        unlogged = " ".join(extra + ["zz"])
        for span in _spans(unlogged):
            assert tables.drop_similarity(unlogged, span) is None
        assert tables.num_queries == stats.num_queries
        assert tables.phrase_idf("a c zz") == stats.phrase_idf("a c zz")

    def test_repeated_span_removes_its_first_occurrence(self):
        log = QueryLog()
        log.add_record("a b a", 5, {"u1": 3, "u2": 1})
        log.add_record("b a", 5, {"u1": 2})  # "a b a" minus its first "a"
        log.add_record("a b", 5, {"u2": 4})  # minus its last "a"
        edges = build_drop_edges(log)
        row = edges.row("a b a")
        assert row["a"] == click_similarity({"u1": 3, "u2": 1}, {"u1": 2})
        assert row["a"] != click_similarity({"u1": 3, "u2": 1}, {"u2": 4})
        assert list(row) == ["a"]  # "b" leaves "a a", not logged

    def test_empty_clicks_give_a_zero_edge(self):
        log = QueryLog()
        log.add_record("a b", 3, {"u1": 1})
        log.add_record("a", 3, {})
        assert build_drop_edges(log).row("a b") == {"b": 0.0}
        assert LogStatistics(log).drop_similarity("a b", "b") == 0.0

    def test_queries_without_edges_are_left_out(self):
        log = QueryLog()
        log.add_record("a b", 3, {"u1": 1})
        log.add_record("c", 3, {"u1": 1})
        edges = build_drop_edges(log)
        assert isinstance(edges, DropEdges)
        assert (edges.queries, edges.offsets, len(edges)) == ([], [0], 0)
        assert edges.row("a b") is None and edges.row("c") is None
