"""Tests for repro.mining.pairs."""

import pickle

import pytest

from repro.errors import MiningError
from repro.mining.pairs import (
    DeletionMiner,
    LexicalPatternMiner,
    MinedPair,
    MiningConfig,
    PairCollection,
    default_miners,
    mine_pairs,
)
from repro.querylog.models import QueryLog
from repro.querylog.stats import SimilarityCache, host_path_similarity
from repro.querylog.urls import result_urls
from repro.text.lexicon import default_lexicon


def clicks_for(head, concept, constraints, volume=10):
    urls = result_urls(head, concept, constraints)
    return {urls[0]: volume, urls[1]: volume // 2 or 1}


def make_log():
    """A tiny hand-built log with unambiguous click structure."""
    log = QueryLog()
    log.add_record(
        "iphone 5s case", 20, clicks_for("case", "phone accessory", ("iphone 5s",))
    )
    log.add_record("case", 50, clicks_for("case", "phone accessory", ()))
    log.add_record("iphone 5s", 40, clicks_for("iphone 5s", "smartphone", ()))
    log.add_record(
        "best iphone 5s case",
        6,
        clicks_for("case", "phone accessory", ("iphone 5s",)),
    )
    log.add_record("cases for galaxy s4", 9, clicks_for("case", "phone accessory", ("galaxy s4",)))
    log.add_record("hotels in rome", 14, clicks_for("hotels", "lodging", ("rome",)))
    return log


#: ``MinedPair("iphone 5s", "case", 12.5, "deletion")`` as pickled before
#: the class defined ``__reduce__`` (the dataclass getstate/setstate
#: form, as training states written then hold it), protocols 5 and 2.
_OLD_FORM_PICKLES = [
    b"\x80\x05\x95S\x00\x00\x00\x00\x00\x00\x00\x8c\x12repro.mining.pairs\x94"
    b"\x8c\tMinedPair\x94\x93\x94)\x81\x94]\x94(\x8c\tiphone 5s\x94\x8c\x04case"
    b"\x94G@)\x00\x00\x00\x00\x00\x00\x8c\x08deletion\x94eb.",
    b"\x80\x02crepro.mining.pairs\nMinedPair\nq\x00)\x81q\x01]q\x02(X\t\x00\x00"
    b"\x00iphone 5sq\x03X\x04\x00\x00\x00caseq\x04G@)\x00\x00\x00\x00\x00\x00X"
    b"\x08\x00\x00\x00deletionq\x05eb.",
]


class TestMinedPair:
    def test_rejects_non_positive_support(self):
        with pytest.raises(MiningError):
            MinedPair("a", "b", 0, "deletion")

    @pytest.mark.parametrize("protocol", [2, pickle.HIGHEST_PROTOCOL])
    def test_pickle_round_trip(self, protocol):
        pair = MinedPair("iphone 5s", "case", 12.5, "deletion")
        assert pickle.loads(pickle.dumps(pair, protocol=protocol)) == pair

    @pytest.mark.parametrize("payload", _OLD_FORM_PICKLES)
    def test_old_form_pickle_loads(self, payload):
        assert pickle.loads(payload) == MinedPair("iphone 5s", "case", 12.5, "deletion")


class TestPairCollection:
    def test_accumulates_support(self):
        collection = PairCollection()
        collection.add(MinedPair("m", "h", 2, "deletion"))
        collection.add(MinedPair("m", "h", 3, "lexical"))
        assert collection.support("m", "h") == 5
        assert collection.sources("m", "h") == {"deletion", "lexical"}

    def test_filtered(self):
        collection = PairCollection()
        collection.add(MinedPair("a", "b", 10, "x"))
        collection.add(MinedPair("c", "d", 1, "x"))
        filtered = collection.filtered(5)
        assert ("a", "b") in filtered
        assert ("c", "d") not in filtered

    def test_top_deterministic(self):
        collection = PairCollection()
        collection.add(MinedPair("b", "x", 5, "s"))
        collection.add(MinedPair("a", "x", 5, "s"))
        assert collection.top(2)[0][0] == "a"

    def test_round_trip(self, tmp_path):
        collection = PairCollection()
        collection.add(MinedPair("iphone 5s", "case", 12.5, "deletion"))
        collection.add(MinedPair("rome", "hotels", 7, "lexical"))
        path = tmp_path / "pairs.tsv.gz"
        collection.save(path)
        loaded = PairCollection.load(path)
        assert loaded.support("iphone 5s", "case") == 12.5
        assert loaded.sources("rome", "hotels") == {"lexical"}

    def test_load_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("wrong\n")
        with pytest.raises(MiningError):
            PairCollection.load(path)


class TestDeletionMiner:
    def test_mines_directional_pair(self):
        log = make_log()
        pairs = PairCollection()
        for pair in DeletionMiner(MiningConfig(min_query_frequency=1)).mine(log):
            pairs.add(pair)
        assert pairs.support("iphone 5s", "case") > 0
        assert pairs.support("case", "iphone 5s") == 0

    def test_strips_subjective_words(self):
        log = make_log()
        pairs = PairCollection()
        for pair in DeletionMiner(MiningConfig(min_query_frequency=1)).mine(log):
            pairs.add(pair)
        assert all("best" not in m for m, _, _ in pairs.items())

    def test_respects_min_frequency(self):
        log = make_log()
        config = MiningConfig(min_query_frequency=1000)
        assert list(DeletionMiner(config).mine(log)) == []

    def test_ignores_clickless_queries(self):
        log = QueryLog()
        log.add_record("a b", 10, {})
        log.add_record("b", 10, {})
        assert list(DeletionMiner(MiningConfig(min_query_frequency=1)).mine(log)) == []

    @pytest.mark.parametrize("config", [MiningConfig(), MiningConfig(min_query_frequency=1)])
    def test_matches_uncached_oracle(self, train_log, config):
        oracle = list(_deletion_oracle(make_log(), config))
        assert list(DeletionMiner(config).mine(make_log())) == oracle
        assert list(DeletionMiner(config).mine(train_log)) == list(
            _deletion_oracle(train_log, config)
        )


def _deletion_oracle(log, config):
    """The deletion test written against the plain log: ``log.lookup`` and
    ``querylog.stats.host_path_similarity`` on raw click maps, nothing
    memoized. The miner must yield exactly these pairs, in this order."""
    lexicon = default_lexicon()

    def filler(word):
        return (
            lexicon.is_subjective(word)
            or lexicon.is_stopword(word)
            or word in lexicon.intent_verbs
        )

    def components(modifier):
        words = [w for w in modifier.split() if not filler(w)]
        i = 0
        while i < len(words):
            for j in range(len(words), i, -1):
                candidate = " ".join(words[i:j])
                if j - i == 1 or log.lookup(candidate) is not None:
                    yield candidate
                    i = j
                    break

    for record in log.records():
        tokens = record.tokens
        if (
            record.frequency < config.min_query_frequency
            or not 2 <= len(tokens) <= config.max_query_tokens
            or not record.clicks
        ):
            continue
        for split in range(1, len(tokens)):
            left, right = " ".join(tokens[:split]), " ".join(tokens[split:])
            for modifier, head in ((left, right), (right, left)):
                if all(filler(w) for w in modifier.split()):
                    continue
                head_record = log.lookup(head)
                if head_record is None or not head_record.clicks:
                    continue
                head_sim = host_path_similarity(record.clicks, head_record.clicks)
                if head_sim < config.min_head_similarity:
                    continue
                modifier_record = log.lookup(modifier)
                if modifier_record is not None and modifier_record.clicks:
                    modifier_sim = host_path_similarity(
                        record.clicks, modifier_record.clicks
                    )
                    if head_sim - modifier_sim < config.min_similarity_margin:
                        continue
                for component in components(modifier):
                    yield MinedPair(
                        component, head, float(record.frequency), "deletion"
                    )


class TestLexicalPatternMiner:
    def test_for_connector(self):
        log = make_log()
        pairs = list(LexicalPatternMiner(MiningConfig(min_query_frequency=1)).mine(log))
        assert any(p.modifier == "galaxy s4" and p.head == "cases" for p in pairs)

    def test_in_connector(self):
        log = make_log()
        pairs = list(LexicalPatternMiner(MiningConfig(min_query_frequency=1)).mine(log))
        assert any(p.modifier == "rome" and p.head == "hotels" for p in pairs)

    def test_connector_at_edge_ignored(self):
        log = QueryLog()
        log.add_record("for rent apartments", 10, {"u": 1})
        pairs = list(LexicalPatternMiner(MiningConfig(min_query_frequency=1)).mine(log))
        assert pairs == []

    def test_strips_leading_subjective(self):
        log = QueryLog()
        log.add_record("best cases for iphone 5s", 10, {"u": 1})
        pairs = list(LexicalPatternMiner(MiningConfig(min_query_frequency=1)).mine(log))
        assert pairs and pairs[0].head == "cases"


class TestMinePairs:
    def test_merges_and_filters(self):
        log = make_log()
        pairs = mine_pairs(log, MiningConfig(min_query_frequency=1, min_pair_support=5))
        assert ("iphone 5s", "case") in pairs
        assert all(s >= 5 for _, _, s in pairs.items())

    def test_every_miner_mines_records_through_one_view(self):
        # The incremental trainer drives every miner the same way: one
        # shared SimilarityCache, one record at a time.
        log = make_log()
        view = SimilarityCache(log)
        for miner in default_miners(MiningConfig(min_query_frequency=1)):
            per_record = [
                pair for record in log.records() for pair in miner.mine_record(view, record)
            ]
            assert per_record == list(miner.mine(log))

    def test_on_generated_log_recovers_gold_pairs(self, train_log):
        pairs = mine_pairs(train_log)
        gold_pairs = set()
        for query, gold in train_log.gold_labels.items():
            for modifier in gold.modifiers:
                if modifier.concept is not None:
                    gold_pairs.add((modifier.surface, gold.head))
        mined = {(m, h) for m, h, _ in pairs.items()}
        overlap = mined & gold_pairs
        precision = len(overlap) / len(mined)
        recall = len(overlap) / len(gold_pairs)
        assert precision > 0.8, precision
        assert recall > 0.5, recall

    def test_never_reads_gold_labels(self, taxonomy):
        # Structural guarantee: identical records, with and without gold,
        # must mine identically.
        from repro.querylog.generator import LogConfig, generate_log
        from repro.querylog.storage import load_query_log, save_query_log
        import tempfile, pathlib

        log = generate_log(taxonomy, LogConfig(seed=44, num_intents=150))
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "log.jsonl"
            save_query_log(log, path)
            stripped = load_query_log(path, include_gold=False)
        a = mine_pairs(log)
        b = mine_pairs(stripped)
        assert dict(((m, h), s) for m, h, s in a.items()) == dict(
            ((m, h), s) for m, h, s in b.items()
        )
