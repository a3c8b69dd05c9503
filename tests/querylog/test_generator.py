"""Tests for repro.querylog.generator."""

import pytest

from repro.errors import QueryLogError
from repro.querylog.generator import LogConfig, QueryLogGenerator, generate_log
from repro.querylog.stats import click_similarity, host_path_similarity
from repro.taxonomy.builder import build_from_seed


@pytest.fixture(scope="module")
def small_log(taxonomy):
    return generate_log(taxonomy, LogConfig(seed=3, num_intents=400))


class TestConfigValidation:
    def test_rejects_bad_num_intents(self):
        with pytest.raises(QueryLogError):
            LogConfig(num_intents=0)

    def test_rejects_bad_probability(self):
        with pytest.raises(QueryLogError):
            LogConfig(subjective_prob=1.5)
        with pytest.raises(QueryLogError):
            LogConfig(reversed_prob=-0.1)


class TestDeterminism:
    def test_same_seed_same_log(self, taxonomy):
        a = generate_log(taxonomy, LogConfig(seed=5, num_intents=100))
        b = generate_log(taxonomy, LogConfig(seed=5, num_intents=100))
        assert {r.query: r.frequency for r in a.records()} == {
            r.query: r.frequency for r in b.records()
        }

    def test_different_seed_differs(self, taxonomy):
        a = generate_log(taxonomy, LogConfig(seed=5, num_intents=100))
        b = generate_log(taxonomy, LogConfig(seed=6, num_intents=100))
        assert {r.query for r in a.records()} != {r.query for r in b.records()}


class TestLogShape:
    def test_size_scales_with_intents(self, taxonomy):
        small = generate_log(taxonomy, LogConfig(seed=1, num_intents=100))
        large = generate_log(taxonomy, LogConfig(seed=1, num_intents=800))
        assert large.num_queries > small.num_queries

    def test_gold_labels_present(self, small_log):
        assert len(small_log.gold_labels) > 0

    def test_gold_heads_appear_in_their_query(self, small_log):
        mismatches = [
            q
            for q, g in small_log.gold_labels.items()
            if g.head not in q
        ]
        # Collisions between intents may orphan a few labels; they must be rare.
        assert len(mismatches) <= 0.02 * len(small_log.gold_labels)

    def test_sessions_generated(self, small_log):
        assert small_log.num_sessions > 0

    def test_session_queries_exist_in_log(self, small_log):
        for session in list(small_log.sessions())[:50]:
            for query in session.queries:
                assert small_log.lookup(query) is not None, query

    def test_noise_queries_present(self, small_log):
        assert small_log.lookup("gmail") is not None

    def test_standalone_heads_present(self, small_log):
        # For most labelled multi-segment queries the bare head exists too.
        sample = [
            (q, g) for q, g in small_log.gold_labels.items() if g.modifiers
        ][:100]
        found = sum(1 for _, g in sample if small_log.lookup(g.head) is not None)
        assert found >= 0.9 * len(sample)

    def test_domain_restriction(self, taxonomy):
        log = generate_log(
            taxonomy, LogConfig(seed=2, num_intents=100, domains=("travel",))
        )
        domains = {g.domain for g in log.gold_labels.values()}
        assert domains <= {"travel"}

    def test_empty_domain_restriction_raises(self, taxonomy):
        with pytest.raises(QueryLogError):
            QueryLogGenerator(taxonomy, LogConfig(domains=("nonexistent",)))


class TestDistributionShapes:
    """The log's statistical shape must look like a real log."""

    def test_frequency_distribution_is_skewed(self, small_log):
        frequencies = sorted(
            (r.frequency for r in small_log.records()), reverse=True
        )
        top_decile = sum(frequencies[: len(frequencies) // 10])
        assert top_decile > 0.4 * sum(frequencies)  # head-heavy, Zipf-like

    def test_most_queries_are_rare(self, small_log):
        frequencies = [r.frequency for r in small_log.records()]
        rare = sum(1 for f in frequencies if f <= 3)
        assert rare > 0.4 * len(frequencies)

    def test_click_volume_tracks_frequency(self, small_log):
        total_clicks = sum(r.total_clicks for r in small_log.records())
        total_volume = small_log.total_frequency
        assert 0.4 * total_volume < total_clicks < 0.9 * total_volume

    def test_popular_instances_appear_more(self, taxonomy, small_log):
        # Rank-1 seed instance should out-volume a tail instance of the
        # same concept across the whole log.
        def volume(token):
            return sum(
                record.frequency * record.tokens.count(token)
                for record in small_log.records()
            )

        assert volume("iphone") >= volume("lumia")

    def test_query_length_distribution(self, small_log):
        lengths = [len(r.tokens) for r in small_log.records()]
        average = sum(lengths) / len(lengths)
        assert 1.5 < average < 4.5  # short texts, as the title says

    def test_click_noise_adds_offtopic_urls(self, taxonomy):
        clean = generate_log(taxonomy, LogConfig(seed=4, num_intents=100))
        noisy = generate_log(
            taxonomy, LogConfig(seed=4, num_intents=100, click_noise=0.4)
        )
        def portal_fraction(log):
            portal = total = 0
            for record in log.records():
                for url, count in record.clicks.items():
                    total += count
                    portal += count if "portal" in url else 0
            return portal / max(total, 1)
        assert portal_fraction(clean) == 0.0
        assert 0.2 < portal_fraction(noisy) < 0.6

    def test_click_noise_validated(self):
        with pytest.raises(QueryLogError):
            LogConfig(click_noise=1.5)


class TestClickInvariants:
    def test_dropping_nonconstraint_preserves_clicks(self, small_log):
        """The substrate invariant the paper's mining depends on."""
        checked = 0
        for query, gold in small_log.gold_labels.items():
            non_constraints = [m.surface for m in gold.modifiers if not m.is_constraint]
            if not non_constraints:
                continue
            reduced_tokens = [
                t for t in query.split() if t not in set(non_constraints)
            ]
            reduced = small_log.lookup(" ".join(reduced_tokens))
            full = small_log.lookup(query)
            if reduced is None or not full.clicks or not reduced.clicks:
                continue
            if small_log.gold_labels.get(" ".join(reduced_tokens), gold).head != gold.head:
                continue  # reduced surface collided with another intent
            assert click_similarity(full.clicks, reduced.clicks) > 0.8, query
            checked += 1
            if checked >= 30:
                break
        assert checked > 5

    def test_head_subquery_shares_host_path(self, small_log):
        checked = 0
        for query, gold in small_log.gold_labels.items():
            if not gold.modifiers:
                continue
            head_record = small_log.lookup(gold.head)
            full = small_log.lookup(query)
            if head_record is None or not head_record.clicks or not full.clicks:
                continue
            gold_head_label = small_log.gold_labels.get(gold.head)
            if gold_head_label is None or gold_head_label.modifiers:
                continue  # head surface collided with a composite intent
            if gold_head_label.head_concept != gold.head_concept:
                continue  # same surface, different concept reading
            assert host_path_similarity(full.clicks, head_record.clicks) > 0.8, query
            checked += 1
            if checked >= 30:
                break
        assert checked > 5

    def test_weak_constraint_flags_deterministic_per_surface(self, taxonomy):
        log = generate_log(taxonomy, LogConfig(seed=8, num_intents=600))
        flags: dict[str, set[bool]] = {}
        for gold in log.gold_labels.values():
            for modifier in gold.modifiers:
                if modifier.concept in {"color", "year"}:
                    flags.setdefault(modifier.surface, set()).add(modifier.is_constraint)
        assert flags, "expected weak-concept modifiers in the log"
        assert all(len(v) == 1 for v in flags.values())
