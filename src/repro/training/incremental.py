"""O(delta) incremental training: fold query-log deltas into a model.

A production log grows continuously; retraining from scratch on every
refresh costs O(full log). :class:`IncrementalTrainer` folds a *delta*
of new records into a persisted training state and emits a model
**bit-identical** to ``train_model(merged_log, vectorized=True)`` —
same pairs, same pattern table, same classifier weights, same
detections — at O(delta + dirty) heavy cost. Four ideas make exactness
and speed coexist:

- **Per-record memoization.** Pair mining and drop-evidence collection
  are per-record kernels whose only cross-record inputs are lookup
  probes (the deletion miner tests sub-queries against the log;
  evidence compares clicks of reduced queries). Both kernels read the
  log through one probe-recording view per log state, a
  :class:`~repro.querylog.stats.SimilarityCache` that also memoizes
  each record's host+path histogram and cosine norms, so a record's
  similarity inputs are computed once per build or fold however many
  comparisons read them. The trainer caches each record's mined batches
  and evidence rows *plus the exact set of lookup keys the computation
  touched*. A view answers for the log state it was built on: a fold
  builds a fresh one after merging the delta.
- **Probe-tracked invalidation.** A delta changes the lookup result of
  exactly the keys it writes. Records whose cached probe set intersects
  those keys — plus the delta records themselves — are recomputed
  against the merged log; every other record's cache is provably still
  valid. Probes only ever read *clicks*, so a frequency-only merge
  invalidates nobody but the merged record itself.
- **Ordered replay.** ``PairCollection.add`` is a left fold over IEEE
  floats, so supports are *replayed* from the cached batches in
  :func:`repro.mining.pairs.mine_pairs`' miner-major, record-position
  order (the lineup of :func:`~repro.mining.pairs.default_miners`).
  Replay is a cheap O(n) pass over already-mined pairs; the expensive
  kernels run only for dirty records. The replayed collection is kept
  **unfiltered**: a pair below ``min_pair_support`` today may cross the
  threshold after a future fold.
- **Cheap global stages re-run in full.** Pattern derivation,
  droppability bincounts, feature assembly, and the classifier fit are
  re-run per fold — they are the fast vectorized stages, the per-phrase
  conceptualization they lean on stays warm in the trainer's LRU across
  folds, and the static (taxonomy-only) feature slots are memoized per
  modifier. Term counters fold incrementally (integer arithmetic is
  order-free, hence exact).

The honest complexity claim is O(delta + dirty) mining/evidence work
plus O(n) replay and vectorized reductions — not a literal O(delta).
``benchmarks/bench_r13_incremental.py`` measures the realized speedup
and asserts parity before timing anything.
"""

from __future__ import annotations

import pickle
import struct
import time
import zlib
from pathlib import Path

import numpy as np

from repro.core.conceptualizer import Conceptualizer
from repro.core.constraints import ConstraintClassifier, LogisticRegression
from repro.core.features import FEATURE_NAMES, ConstraintFeatureExtractor
from repro.core.model import HdmModel
from repro.core.pipeline import TrainingConfig, _stage_recorder
from repro.errors import ModelError
from repro.mining.pairs import MinedPair, PairCollection, default_miners
from repro.querylog.models import QueryLog, QueryRecord
from repro.querylog.stats import LogStatistics
from repro.taxonomy.store import ConceptTaxonomy
from repro.training.evidence import (
    DropEvidence,
    SimilarityCache,
    record_drop_evidence,
)
from repro.training.vectorized import (
    build_droppability_tables_vectorized,
    derive_pattern_table_vectorized,
    training_rows_from_evidence,
)

#: Magic prefix + version of the persisted training state.
STATE_MAGIC = b"HDMSTATE1"
STATE_VERSION = 1
_STATE_PRELUDE = struct.Struct("<9sIQI")  # magic, version, payload len, crc32

#: Feature slots that change between folds (droppability tables and IDF
#: move with the log); everything else in the vector is a pure function
#: of the taxonomy + lexicon and is memoized across folds.
_DROP_SIMILARITY_SLOT = FEATURE_NAMES.index("drop_similarity")
_DROP_MISSING_SLOT = FEATURE_NAMES.index("drop_evidence_missing")
_INSTANCE_DROP_SLOT = FEATURE_NAMES.index("instance_droppability")
_CONCEPT_DROP_SLOT = FEATURE_NAMES.index("concept_droppability")
_IDF_SLOT = FEATURE_NAMES.index("idf")


class _ProbeView(SimilarityCache):
    """The one view both kernels read a log state through, recording
    every lookup key.

    Miners and the evidence pass share its memoized similarities; every
    ``lookup`` lands its normalized key in :attr:`probes` — including
    misses, which is what makes invalidation sound: a miss that later
    becomes a hit is a change the mined output may depend on. Like any
    :class:`SimilarityCache` it is valid for one log state only, so the
    trainer builds one per build or fold, after the delta is merged.
    """

    def __init__(self, log: QueryLog) -> None:
        super().__init__(log)
        self.probes: set[str] = set()

    def begin(self) -> None:
        self.probes.clear()

    def lookup(self, text: str) -> QueryRecord | None:
        key, record = self._lookups.get(text) or self._resolve(text)
        self.probes.add(key)
        return record


class _StaticFeatureCache:
    """Per-modifier feature vectors memoized across folds.

    The static slots of ``ConstraintFeatureExtractor._modifier_vector``
    depend only on the taxonomy and lexicon; the three fold-dependent
    slots (instance/concept droppability, IDF) are refilled per call
    with the *fold's* extractor — evaluating the exact expressions the
    reference evaluates, on the exact cached readings — so the returned
    matrix is bit-identical to ``extract_training_batch``.
    """

    def __init__(self, conceptualizer: Conceptualizer) -> None:
        self._conceptualizer = conceptualizer
        # No stats / droppability: the dynamic slots come out as their
        # 0.5 placeholders and are overwritten below.
        self._static = ConstraintFeatureExtractor(conceptualizer)
        self._vectors: dict[str, np.ndarray] = {}
        self._readings: dict[str, tuple[tuple[str, float], ...]] = {}

    def training_matrix(
        self,
        rows: list[tuple[str, str]],
        drop_similarities: list[float],
        extractor: ConstraintFeatureExtractor,
    ) -> np.ndarray:
        matrix = np.empty((len(rows), len(FEATURE_NAMES)), dtype=np.float64)
        droppability = extractor.droppability
        filled: dict[str, np.ndarray] = {}
        for index, (_, modifier) in enumerate(rows):
            vector = filled.get(modifier)
            if vector is None:
                base = self._vectors.get(modifier)
                if base is None:
                    base = self._static._modifier_vector(modifier)
                    self._vectors[modifier] = base
                    self._readings[modifier] = tuple(
                        self._conceptualizer.conceptualize(modifier, top_k=3)
                    )
                vector = base.copy()
                vector[_INSTANCE_DROP_SLOT] = droppability.instance.get(modifier, 0.5)
                vector[_CONCEPT_DROP_SLOT] = extractor._concept_droppability_of(
                    list(self._readings[modifier])
                )
                vector[_IDF_SLOT] = extractor._idf(modifier)
                filled[modifier] = vector
            matrix[index] = vector
        matrix[:, _DROP_SIMILARITY_SLOT] = drop_similarities
        # Rows come from observed evidence: drop similarity always exists.
        matrix[:, _DROP_MISSING_SLOT] = 0.0
        return matrix


class IncrementalTrainer:
    """Stateful trainer that folds query-log deltas at O(delta) cost.

    Construction runs the full (base) pipeline over ``log`` and caches
    the per-record state folds need; the trainer takes ownership of
    ``log`` and mutates it on every :meth:`fold`. :meth:`save` /
    :meth:`load` persist the whole state between refreshes.
    """

    def __init__(
        self,
        log: QueryLog,
        taxonomy: ConceptTaxonomy,
        config: TrainingConfig | None = None,
        *,
        timings: dict[str, float] | None = None,
    ) -> None:
        config = config or TrainingConfig()
        self._config = config
        self._taxonomy = taxonomy
        self._log = log
        self._generation = 1
        self._init_derived()
        self._stats = LogStatistics(log)
        #: Per miner: record key -> mined pairs of that record.
        self._mined: list[dict[str, tuple[MinedPair, ...]]] = [
            {} for _ in self._miners
        ]
        #: Record key -> drop-evidence rows of that record.
        self._evidence: dict[str, tuple[DropEvidence, ...]] = {}
        #: Record key -> every lookup key its kernels probed.
        self._probes: dict[str, frozenset[str]] = {}
        #: Inverse of ``_probes``: lookup key -> records that probed it.
        self._probe_index: dict[str, set[str]] = {}
        self._model: HdmModel | None = None

        record_stage = _stage_recorder(timings)
        started = time.perf_counter()
        with record_stage("mine"):
            view = _ProbeView(log)
            for record in log.records():
                self._refresh_record(record, view)
        self._build_model(record_stage)
        if timings is not None:
            timings["total"] = time.perf_counter() - started

    # ------------------------------------------------------------------
    # public surface
    # ------------------------------------------------------------------
    @property
    def model(self) -> HdmModel:
        """The model of the latest build (base training or last fold)."""
        if self._model is None:
            raise ModelError(
                "no model built yet — fold a delta or call rebuild()"
            )
        return self._model

    @property
    def generation(self) -> int:
        """Model generation: 1 for the base build, +1 per fold."""
        return self._generation

    @property
    def log(self) -> QueryLog:
        """The accumulated log (base plus every folded delta)."""
        return self._log

    @property
    def config(self) -> TrainingConfig:
        """The training configuration shared by base build and folds."""
        return self._config

    @property
    def stats(self) -> LogStatistics:
        """Statistics over the accumulated log (incrementally folded)."""
        return self._stats

    def fold(
        self,
        delta: QueryLog,
        *,
        timings: dict[str, float] | None = None,
    ) -> HdmModel:
        """Fold ``delta`` into the state and return the refreshed model.

        The result is bit-identical to ``train_model`` with
        ``vectorized=True`` on the log obtained by adding ``delta``'s
        records (in order) to the accumulated log. Only dirty records —
        the delta's own queries plus records whose cached probes touch a
        changed key — pay the mining/evidence kernels again.
        """
        record_stage = _stage_recorder(timings)
        started = time.perf_counter()
        with record_stage("mine"):
            changed, probe_changed = self._ingest(delta)
            dirty = set(changed)
            for probe in probe_changed:
                hit = self._probe_index.get(probe)
                if hit:
                    dirty.update(hit)
            view = _ProbeView(self._log)
            for key in sorted(dirty):
                record = self._log.lookup_exact(key)
                assert record is not None  # records are never removed
                self._refresh_record(record, view)
        self._generation += 1
        model = self._build_model(record_stage)
        if timings is not None:
            timings["total"] = time.perf_counter() - started
            timings["dirty_records"] = float(len(dirty))
        return model

    def rebuild(
        self, *, timings: dict[str, float] | None = None
    ) -> HdmModel:
        """Rebuild the model from the cached state (e.g. after load)."""
        record_stage = _stage_recorder(timings)
        started = time.perf_counter()
        model = self._build_model(record_stage)
        if timings is not None:
            timings["total"] = time.perf_counter() - started
        return model

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Persist the training state (atomic write-then-rename).

        The payload is a pickle, so state files — unlike the pickle-free
        runtime snapshots — are a **trusted-source** format: load only
        files your own pipeline wrote. A CRC32 guards against
        truncation/corruption, not against hostile input.
        """
        path = Path(path)
        payload = pickle.dumps(
            {
                "config": self._config,
                "taxonomy": self._taxonomy,
                "log": self._log,
                "generation": self._generation,
                "mined": self._mined,
                "evidence": self._evidence,
                "probes": self._probes,
                "feature_vectors": self._features._vectors,
                "feature_readings": self._features._readings,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        prelude = _STATE_PRELUDE.pack(
            STATE_MAGIC, STATE_VERSION, len(payload), zlib.crc32(payload)
        )
        tmp = path.with_name(path.name + ".tmp")
        try:
            with open(tmp, "wb") as out:
                out.write(prelude)
                out.write(payload)
            tmp.replace(path)
        finally:
            tmp.unlink(missing_ok=True)

    @classmethod
    def load(cls, path: str | Path) -> "IncrementalTrainer":
        """Load a state written by :meth:`save` (trusted sources only).

        The returned trainer has no built model yet — :meth:`fold` a
        delta or call :meth:`rebuild` first.
        """
        path = Path(path)
        with open(path, "rb") as handle:
            prelude = handle.read(_STATE_PRELUDE.size)
            if len(prelude) != _STATE_PRELUDE.size:
                raise ModelError(f"{path}: truncated training state")
            magic, version, length, crc = _STATE_PRELUDE.unpack(prelude)
            if magic != STATE_MAGIC:
                raise ModelError(f"{path}: not a training state file")
            if version != STATE_VERSION:
                raise ModelError(
                    f"{path}: unsupported state version {version}"
                )
            payload = handle.read(length)
        if len(payload) != length or zlib.crc32(payload) != crc:
            raise ModelError(f"{path}: corrupt training state (CRC mismatch)")
        state = pickle.loads(payload)

        trainer = cls.__new__(cls)
        trainer._config = state["config"]
        trainer._taxonomy = state["taxonomy"]
        trainer._log = state["log"]
        trainer._generation = state["generation"]
        trainer._init_derived()
        trainer._stats = LogStatistics(trainer._log)
        trainer._mined = state["mined"]
        trainer._evidence = state["evidence"]
        trainer._probes = state["probes"]
        trainer._probe_index = {}
        for key, probes in trainer._probes.items():
            for probe in probes:
                trainer._probe_index.setdefault(probe, set()).add(key)
        trainer._features._vectors = state["feature_vectors"]
        trainer._features._readings = state["feature_readings"]
        trainer._model = None
        return trainer

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _init_derived(self) -> None:
        """(Re)build the transient state derived from config + taxonomy."""
        from repro.runtime.compiled import CompiledSegmenter

        self._conceptualizer = Conceptualizer(
            self._taxonomy, cache_size=self._config.detector.cache_size
        )
        self._segmenter = CompiledSegmenter(self._taxonomy)
        self._miners = default_miners(self._config.mining)
        self._features = _StaticFeatureCache(self._conceptualizer)

    def _ingest(self, delta: QueryLog) -> tuple[set[str], set[str]]:
        """Merge ``delta`` into the log; return (changed keys, keys whose
        *lookup-visible* state changed for other records).

        The second set is the invalidation frontier: new keys (a miss
        became a hit) and keys whose clicks grew. Probes never read a
        foreign record's frequency, so frequency-only merges stay out.
        """
        changed: set[str] = set()
        probe_changed: set[str] = set()
        for record in delta.records():
            key = record.query  # QueryLog stores normalized keys
            new_query = self._log.lookup_exact(key) is None
            self._log.add_record(
                key,
                record.frequency,
                record.clicks,
                gold=delta.gold_labels.get(key),
            )
            self._stats.absorb(record, new_query=new_query)
            changed.add(key)
            if new_query or record.clicks:
                probe_changed.add(key)
        for session in delta.sessions():
            self._log.add_session(session)
        return changed, probe_changed

    def _refresh_record(self, record: QueryRecord, view: _ProbeView) -> None:
        """Re-run both kernels for one record; update caches and index."""
        key = record.query
        view.begin()
        batches: list[tuple[MinedPair, ...]] = []
        for miner in self._miners:
            batches.append(tuple(miner.mine_record(view, record)))
        evidence = record_drop_evidence(record, self._segmenter, view)
        probes = frozenset(view.probes)

        old = self._probes.get(key, frozenset())
        for stale in old - probes:
            bucket = self._probe_index.get(stale)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self._probe_index[stale]
        for fresh in probes - old:
            self._probe_index.setdefault(fresh, set()).add(key)
        self._probes[key] = probes

        for index, batch in enumerate(batches):
            if batch:
                self._mined[index][key] = batch
            else:
                self._mined[index].pop(key, None)
        if evidence:
            self._evidence[key] = evidence
        else:
            self._evidence.pop(key, None)

    def _replay_pairs(self) -> PairCollection:
        """Replay cached batches in the reference's exact add order."""
        collection = PairCollection()
        add = collection.add
        for mined in self._mined:
            for record in self._log.records():
                batch = mined.get(record.query)
                if batch:
                    for pair in batch:
                        add(pair)
        return collection

    def _evidence_stream(self) -> list[DropEvidence]:
        """Cached evidence concatenated in log (= reference scan) order."""
        stream: list[DropEvidence] = []
        for record in self._log.records():
            rows = self._evidence.get(record.query)
            if rows:
                stream.extend(rows)
        return stream

    def _build_model(self, record_stage) -> HdmModel:
        config = self._config
        with record_stage("mine"):
            pairs = self._replay_pairs().filtered(config.mining.min_pair_support)
        with record_stage("derive"):
            patterns = derive_pattern_table_vectorized(
                pairs,
                self._conceptualizer,
                config.top_k_concepts,
                hierarchy_discount=config.hierarchy_discount,
            )
            if config.pattern_mass < 1.0:
                patterns = patterns.pruned_to_mass(config.pattern_mass)
            if config.max_patterns is not None:
                patterns = patterns.pruned_to_count(config.max_patterns)
        classifier = None
        if config.train_classifier:
            classifier = self._train_classifier(record_stage)
        self._model = HdmModel(
            taxonomy=self._taxonomy,
            patterns=patterns,
            pairs=pairs,
            classifier=classifier,
            detector_config=config.detector,
        )
        return self._model

    def _train_classifier(self, record_stage) -> ConstraintClassifier | None:
        config = self._config
        with record_stage("features"):
            evidence = self._evidence_stream()
            droppability = build_droppability_tables_vectorized(
                evidence, self._conceptualizer
            )
            extractor = ConstraintFeatureExtractor(
                self._conceptualizer, stats=self._stats, droppability=droppability
            )
            rows, labels, weights = training_rows_from_evidence(
                evidence, config.drop_label_threshold
            )
            if len(rows) < 10 or len(set(labels)) < 2:
                return None  # not enough distant supervision in this log
            features = self._features.training_matrix(
                rows, [e.similarity for e in evidence], extractor
            )
        with record_stage("classifier"):
            model = LogisticRegression(
                learning_rate=config.classifier_learning_rate,
                epochs=config.classifier_epochs,
                l2=config.classifier_l2,
            ).fit(features, np.asarray(labels, float), np.asarray(weights, float))
        return ConstraintClassifier(
            extractor, model, threshold=config.constraint_threshold
        )
