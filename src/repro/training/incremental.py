"""O(delta) incremental training: fold query-log deltas into a model.

A production log grows continuously; retraining from scratch on every
refresh costs O(full log). :class:`IncrementalTrainer` folds a *delta*
of new records into a persisted training state and emits a model
**bit-identical** to ``train_model_vectorized(merged_log, taxonomy)`` —
same pairs, same pattern table, same classifier weights, same
detections — at O(delta + dirty) heavy cost, from the same kernel and
assembly (:mod:`repro.training.vectorized`). Four ideas make exactness
and speed coexist:

- **Per-record memoization.** Pair mining and drop-evidence collection
  form one per-record kernel whose only cross-record inputs are lookup
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
  kernel runs only for dirty records. The cached batches are kept
  **unfiltered**: a pair below ``min_pair_support`` today may cross the
  threshold after a future fold.
- **Cheap global stages re-run in full.** Replay, pattern derivation,
  droppability bincounts, feature assembly, and the classifier fit
  (:func:`~repro.training.vectorized.assemble_model`) are re-run per
  fold — they are the fast vectorized stages, the per-phrase
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
from collections.abc import Iterator
from pathlib import Path

from repro.core.conceptualizer import Conceptualizer
from repro.core.model import HdmModel
from repro.core.pipeline import TrainingConfig, _stage_recorder
from repro.errors import ModelError
from repro.mining.pairs import MinedPair, default_miners
from repro.querylog.models import QueryLog, QueryRecord
from repro.querylog.stats import LogStatistics, SimilarityCache
from repro.taxonomy.store import ConceptTaxonomy
from repro.training.evidence import DropEvidence
from repro.training.vectorized import (
    TrainingFeatures,
    assemble_model,
    mine_records,
)

#: Magic prefix + version of the persisted training state.
STATE_MAGIC = b"HDMSTATE1"
STATE_VERSION = 1
_STATE_PRELUDE = struct.Struct("<9sIQI")  # magic, version, payload len, crc32

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
        #: Record key -> every lookup key its kernel probed.
        self._probes: dict[str, frozenset[str]] = {}
        #: Inverse of ``_probes``: lookup key -> records that probed it.
        self._probe_index: dict[str, set[str]] | None = None
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

        The result is bit-identical to
        :func:`~repro.training.vectorized.train_model_vectorized` on the
        log obtained by adding ``delta``'s records (in order) to the
        accumulated log. Only dirty records — the delta's own queries
        plus records whose cached probes touch a changed key — pay the
        kernel again.
        """
        record_stage = _stage_recorder(timings)
        started = time.perf_counter()
        with record_stage("mine"):
            index = self._index_probes()
            changed, probe_changed = self._ingest(delta)
            dirty = set(changed)
            for probe in probe_changed:
                hit = index.get(probe)
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
        truncation/corruption, not against hostile input. Probe sets are
        written as sorted tuples, so the bytes do not depend on
        ``PYTHONHASHSEED``.
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
                "probes": {
                    key: tuple(sorted(probes))
                    for key, probes in self._probes.items()
                },
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
        # save() writes sorted tuples; files written before it did hold
        # frozensets. Both forms load.
        trainer._probes = {
            key: frozenset(probes) for key, probes in state["probes"].items()
        }
        trainer._probe_index = None
        trainer._index_probes()
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
        self._features = TrainingFeatures(self._conceptualizer)

    def _index_probes(self) -> dict[str, set[str]]:
        """The probe index, built from ``_probes`` on first use: only
        folds read it, so the base build (``repro train --state`` saves
        and exits) leaves it to :meth:`load` or the first fold."""
        index = self._probe_index
        if index is None:
            index = self._probe_index = {}
            for key, probes in self._probes.items():
                for probe in probes:
                    index.setdefault(probe, set()).add(key)
        return index

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
        """Re-run the kernel for one record; update caches (and the
        probe index once a fold has built it)."""
        key = record.query
        view.begin()
        mined, (evidence,) = mine_records(
            view, (record,), self._miners, self._segmenter
        )
        probes = frozenset(view.probes)

        index = self._probe_index
        if index is not None:
            old = self._probes.get(key, frozenset())
            for stale in old - probes:
                bucket = index.get(stale)
                if bucket is not None:
                    bucket.discard(key)
                    if not bucket:
                        del index[stale]
            for fresh in probes - old:
                index.setdefault(fresh, set()).add(key)
        self._probes[key] = probes

        for cache, (batch,) in zip(self._mined, mined):
            if batch:
                cache[key] = batch
            else:
                cache.pop(key, None)
        if evidence:
            self._evidence[key] = evidence
        else:
            self._evidence.pop(key, None)

    def _in_log_order(self, by_key: dict) -> Iterator:
        """Each record's cached value in log (= reference scan) order."""
        for record in self._log.records():
            yield by_key.get(record.query, ())

    def _build_model(self, record_stage) -> HdmModel:
        self._model = assemble_model(
            [self._in_log_order(mined) for mined in self._mined],
            self._in_log_order(self._evidence),
            self._stats,
            self._conceptualizer,
            self._features,
            self._config,
            record_stage,
        )
        return self._model
