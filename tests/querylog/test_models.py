"""Tests for repro.querylog.models."""

import pickle

import pytest

from repro.errors import QueryLogError
from repro.querylog.models import (
    GoldLabel,
    GoldModifier,
    QueryLog,
    QueryRecord,
    SessionRecord,
)


class TestQueryRecord:
    def test_fields(self):
        record = QueryRecord("iphone case", 10, {"u1": 3, "u2": 1})
        assert record.tokens == ("iphone", "case")
        assert record.total_clicks == 4

    def test_rejects_non_positive_frequency(self):
        with pytest.raises(QueryLogError):
            QueryRecord("q", 0, {})

    def test_pickle_round_trip(self):
        record = QueryRecord("iphone 5s case", 3, {"https://a.example.com/case?r=1": 2})
        for protocol in (2, pickle.HIGHEST_PROTOCOL):
            assert pickle.loads(pickle.dumps(record, protocol=protocol)) == record

    def test_old_form_pickle_loads(self):
        # The dataclass getstate/setstate form, as training states written
        # before QueryRecord defined __reduce__ hold it.
        payload = (
            b"\x80\x05\x95j\x00\x00\x00\x00\x00\x00\x00\x8c\x15repro.querylog.models"
            b"\x94\x8c\x0bQueryRecord\x94\x93\x94)\x81\x94]\x94(\x8c\x0eiphone 5s case"
            b"\x94K\x03}\x94\x8c\x1ehttps://a.example.com/case?r=1\x94K\x02seb."
        )
        assert pickle.loads(payload) == QueryRecord(
            "iphone 5s case", 3, {"https://a.example.com/case?r=1": 2}
        )


class TestSessionRecord:
    def test_reformulation_pairs(self):
        session = SessionRecord("s1", ("a", "b", "c"))
        assert list(session.reformulation_pairs()) == [("a", "b"), ("b", "c")]

    def test_rejects_empty(self):
        with pytest.raises(QueryLogError):
            SessionRecord("s1", ())


class TestGoldLabel:
    def test_constraint_partition(self):
        gold = GoldLabel(
            head="case",
            modifiers=(
                GoldModifier("iphone 5s", True, "smartphone"),
                GoldModifier("best", False, None),
            ),
            domain="electronics",
        )
        assert gold.constraint_surfaces == {"iphone 5s"}
        assert gold.modifier_surfaces == {"iphone 5s", "best"}


class TestQueryLog:
    def test_add_and_lookup_normalized(self):
        log = QueryLog()
        log.add_record("IPhone Case", 3, {"u": 1})
        record = log.lookup("iphone case")
        assert record is not None
        assert record.frequency == 3

    def test_merge_on_duplicate_insert(self):
        log = QueryLog()
        log.add_record("q a", 2, {"u1": 1})
        log.add_record("q a", 3, {"u1": 2, "u2": 1})
        record = log.lookup("q a")
        assert record.frequency == 5
        assert record.clicks == {"u1": 3, "u2": 1}

    def test_first_gold_wins(self):
        log = QueryLog()
        gold_a = GoldLabel("a", (), "d1")
        gold_b = GoldLabel("b", (), "d2")
        log.add_record("q", 5, {}, gold=gold_a)
        log.add_record("q", 1, {}, gold=gold_b)
        assert log.gold_labels["q"].head == "a"

    def test_attach_gold_requires_existing_record(self):
        log = QueryLog()
        with pytest.raises(QueryLogError):
            log.attach_gold("missing", GoldLabel("x", (), "d"))

    def test_attach_gold_replaces(self):
        log = QueryLog()
        log.add_record("q", 1, {}, gold=GoldLabel("a", (), "d"))
        log.attach_gold("q", GoldLabel("b", (), "d"))
        assert log.gold_labels["q"].head == "b"

    def test_rejects_empty_query(self):
        log = QueryLog()
        with pytest.raises(QueryLogError):
            log.add_record("  !!  ", 1, {})

    def test_statistics_properties(self):
        log = QueryLog()
        log.add_record("a", 2, {})
        log.add_record("b c", 3, {})
        log.add_session(SessionRecord("s1", ("a", "b c")))
        assert log.num_queries == 2
        assert log.total_frequency == 5
        assert log.num_sessions == 1
        assert len(log) == 2
