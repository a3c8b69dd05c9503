"""Command-line interface.

Exposes the full offline pipeline and the runtime detector::

    repro taxonomy-build --out taxonomy.tsv.gz
    repro log-generate --taxonomy taxonomy.tsv.gz --out log.jsonl.gz --intents 4000
    repro train --log log.jsonl.gz --taxonomy taxonomy.tsv.gz --out model/
    repro train --log log.jsonl.gz --taxonomy t.tsv.gz --out model/ --state state.hdmt
    repro train --append delta.jsonl.gz --base state.hdmt --out model/ --emit-snapshot g2.hdms
    repro detect --model model/ "popular iphone 5s smart cover"
    repro snapshot --model model/ --out model.hdms
    repro snapshot --info model.hdms
    repro reload --url http://127.0.0.1:8080 --snapshot g2.hdms
    repro detect --snapshot model.hdms --input queries.txt
    repro serve --snapshot model.hdms --port 8080
    repro route --snapshot model.hdms --port 8080 --replicas 4
    repro replica --snapshot model.hdms --port 0
    repro evaluate --model model/ --log heldout.jsonl.gz
    repro patterns --model model/ --top 20
    repro lint --format json

Every command is deterministic given its ``--seed``.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from collections.abc import Sequence

from repro import __version__
from repro.errors import ReproError


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Head, modifier, and constraint detection in short texts "
        "(ICDE 2014 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("taxonomy-build", help="build the isA taxonomy")
    p.add_argument("--out", required=True, help="output TSV (.gz supported)")
    p.add_argument(
        "--from-corpus",
        action="store_true",
        help="build via Hearst extraction over a generated corpus instead of "
        "materializing the seed directly",
    )
    p.add_argument("--sentences", type=int, default=200, help="corpus sentences per concept")
    p.add_argument("--min-count", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(handler=_cmd_taxonomy_build)

    p = sub.add_parser("log-generate", help="generate a synthetic search log")
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--out", required=True, help="output JSONL (.gz supported)")
    p.add_argument("--intents", type=int, default=4000)
    p.add_argument("--seed", type=int, default=13)
    p.add_argument(
        "--no-gold", action="store_true", help="omit ground-truth labels from the file"
    )
    p.set_defaults(handler=_cmd_log_generate)

    p = sub.add_parser("train", help="train a model from a log + taxonomy")
    p.add_argument("--log", help="training log (full build)")
    p.add_argument("--taxonomy", help="isA taxonomy TSV (full build)")
    p.add_argument("--out", help="output model directory")
    p.add_argument("--pattern-mass", type=float, default=0.99)
    p.add_argument("--max-patterns", type=int, default=None)
    p.add_argument("--no-classifier", action="store_true")
    p.add_argument(
        "--reference",
        action="store_true",
        help="use the pure-Python reference pipeline instead of the "
        "vectorized one (identical output, slower; for cross-checking)",
    )
    p.add_argument(
        "--state",
        metavar="FILE",
        help="persist the incremental training state (.hdmt) so later "
        "deltas fold in at O(delta) via --append",
    )
    p.add_argument(
        "--append",
        metavar="DELTA",
        help="fold a delta log into an existing training state "
        "(needs --base; bit-identical to retraining on the "
        "concatenated log, at O(delta) cost)",
    )
    p.add_argument(
        "--base",
        metavar="STATE",
        help="with --append: the .hdmt training state to fold into "
        "(re-saved in place unless --state names a new file)",
    )
    p.add_argument(
        "--emit-snapshot",
        metavar="FILE",
        help="also compile the trained model into a runtime snapshot "
        "carrying a lineage header (generation, record count)",
    )
    p.add_argument(
        "--parent-snapshot",
        metavar="FILE",
        help="with --emit-snapshot: the previous generation's snapshot, "
        "recorded as the lineage parent",
    )
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser(
        "snapshot", help="compile a model into a binary runtime snapshot"
    )
    p.add_argument("--model", help="model bundle directory")
    p.add_argument("--out", help="output snapshot file (.hdms)")
    p.add_argument(
        "--spell",
        action="store_true",
        help="bake the typo-correcting speller into the snapshot",
    )
    p.add_argument(
        "--info",
        metavar="FILE",
        help="print an existing snapshot's header (format, counts, "
        "lineage) without loading the model",
    )
    p.set_defaults(handler=_cmd_snapshot)

    p = sub.add_parser("detect", help="detect head/modifiers/constraints")
    p.add_argument("--model", help="model bundle directory")
    p.add_argument(
        "--snapshot",
        metavar="FILE",
        help="serve from a compiled snapshot (see `repro snapshot`) "
        "instead of a model bundle",
    )
    p.add_argument("queries", nargs="*", metavar="QUERY")
    p.add_argument(
        "--input",
        metavar="FILE",
        help="read one query per line from FILE ('-' = stdin) "
        "in addition to positional QUERYs",
    )
    p.add_argument("--json", action="store_true", help="emit JSON lines")
    p.add_argument("--spell", action="store_true", help="enable typo correction")
    p.add_argument(
        "--explain", action="store_true", help="print the full decision trace"
    )
    p.add_argument(
        "--stats",
        action="store_true",
        help="with --snapshot: print runtime cache hit/miss counters "
        "to stderr after the detections",
    )
    p.set_defaults(handler=_cmd_detect)

    p = sub.add_parser(
        "serve", help="serve detection over HTTP (cached)"
    )
    p.add_argument("--model", help="model bundle directory")
    p.add_argument(
        "--snapshot", metavar="FILE", help="serve from a compiled snapshot"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080, help="0 picks a free port")
    p.add_argument("--spell", action="store_true", help="enable typo correction")
    _add_service_flags(p)
    p.set_defaults(handler=_cmd_serve)

    p = sub.add_parser(
        "route",
        help="serve detection over HTTP through N replica processes "
        "(consistent-hash routed, shared mmap'd snapshot)",
    )
    p.add_argument("--snapshot", required=True, metavar="FILE")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080, help="0 picks a free port")
    p.add_argument(
        "--replicas", type=int, default=2, metavar="N",
        help="replica processes to spawn (default 2)",
    )
    p.add_argument(
        "--max-inflight",
        type=int,
        default=1024,
        help="router admission limit: concurrent requests before 503 "
        "(default 1024)",
    )
    _add_service_flags(p)
    p.add_argument(
        "--hedge-p99-us",
        type=float,
        default=0.0,
        metavar="MICROSECONDS",
        help="per-replica window p99 above which requests to that "
        "replica are hedged to the next ring node; 0 disables "
        "hedging (default 0)",
    )
    p.add_argument(
        "--hedge-rate",
        type=float,
        default=0.05,
        metavar="FRACTION",
        help="cap on fired hedges as a fraction of the recent request "
        "window (default 0.05)",
    )
    p.add_argument(
        "--warmup-keys",
        type=int,
        default=256,
        metavar="N",
        help="hottest sibling cache keys replayed through a rejoining "
        "replica before it takes traffic; 0 joins cold (default 256)",
    )
    p.add_argument(
        "--health-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="background health-probe interval (default 1.0)",
    )
    p.set_defaults(handler=_cmd_route)

    p = sub.add_parser(
        "replica",
        help="run one serving replica on the router's socket protocol "
        "(normally spawned by `repro route`, not by hand)",
    )
    p.add_argument("--snapshot", required=True, metavar="FILE")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0, help="0 picks a free port")
    p.add_argument("--replica-id", type=int, default=0)
    p.add_argument("--generation", type=int, default=1)
    _add_service_flags(p)
    p.set_defaults(handler=_cmd_replica)

    p = sub.add_parser(
        "reload",
        help="hot-swap a running server or router fleet onto a new "
        "snapshot (zero downtime; POST /reload)",
    )
    p.add_argument(
        "--url",
        default="http://127.0.0.1:8080",
        help="base URL of the running `repro serve` / `repro route` "
        "front door (default http://127.0.0.1:8080)",
    )
    p.add_argument("--snapshot", required=True, metavar="FILE")
    p.set_defaults(handler=_cmd_reload)

    p = sub.add_parser("evaluate", help="evaluate a model on a labelled log")
    p.add_argument("--model", required=True)
    p.add_argument("--log", required=True, help="held-out log with gold labels")
    p.add_argument("--max-examples", type=int, default=2000)
    p.add_argument(
        "--show-errors",
        type=int,
        default=0,
        metavar="N",
        help="also print up to N head errors with a failure breakdown",
    )
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("patterns", help="inspect the concept-pattern table")
    p.add_argument("--model", required=True)
    p.add_argument("--top", type=int, default=20)
    p.set_defaults(handler=_cmd_patterns)

    p = sub.add_parser("rewrite", help="constraint-preserving relaxations")
    p.add_argument("--model", required=True)
    p.add_argument("queries", nargs="+", metavar="QUERY")
    p.set_defaults(handler=_cmd_rewrite)

    p = sub.add_parser("similar", help="intent-level similarity of two texts")
    p.add_argument("--model", required=True)
    p.add_argument("query_a", metavar="QUERY_A")
    p.add_argument("query_b", metavar="QUERY_B")
    p.set_defaults(handler=_cmd_similar)

    p = sub.add_parser(
        "lint",
        help="check project invariants (determinism, async hygiene, "
        "parity coverage, layering)",
    )
    p.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files/directories inside src/repro to lint "
        "(default: the whole package)",
    )
    p.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default text)",
    )
    p.add_argument(
        "--rule",
        action="append",
        metavar="REPxxx[,REPyyy...]",
        help="run only these rules (repeatable and/or comma-separated)",
    )
    p.add_argument(
        "--output",
        metavar="FILE",
        help="also write the report to FILE (CI artifact)",
    )
    p.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    p.add_argument(
        "--root",
        metavar="DIR",
        help="project root (default: nearest pyproject.toml above cwd)",
    )
    p.set_defaults(handler=_cmd_lint)

    return parser


def _add_service_flags(p: argparse.ArgumentParser) -> None:
    """Serving-policy flags shared by ``serve``, ``route``, ``replica``."""
    p.add_argument(
        "--cache-size",
        type=int,
        default=50_000,
        help="normalized-query result cache entries; 0 disables (default 50000)",
    )


def _serving_config(args: argparse.Namespace):
    """The :class:`~repro.serving.ServingConfig` the service flags name."""
    from repro.serving import ServingConfig

    return ServingConfig(cache_size=args.cache_size)


def _cmd_taxonomy_build(args: argparse.Namespace) -> int:
    from repro.taxonomy.builder import build_from_corpus, build_from_seed
    from repro.taxonomy.corpus import CorpusConfig, generate_corpus
    from repro.taxonomy.serialization import save_taxonomy_tsv

    if args.from_corpus:
        config = CorpusConfig(seed=args.seed, sentences_per_concept=args.sentences)
        taxonomy = build_from_corpus(generate_corpus(config), min_count=args.min_count)
    else:
        taxonomy = build_from_seed()
    save_taxonomy_tsv(taxonomy, args.out)
    print(
        f"wrote {args.out}: {taxonomy.num_instances} instances, "
        f"{taxonomy.num_concepts} concepts, {taxonomy.num_edges} edges"
    )
    return 0


def _cmd_log_generate(args: argparse.Namespace) -> int:
    from repro.querylog.generator import LogConfig, generate_log
    from repro.querylog.storage import save_query_log
    from repro.taxonomy.serialization import load_taxonomy_tsv

    taxonomy = load_taxonomy_tsv(args.taxonomy)
    log = generate_log(taxonomy, LogConfig(seed=args.seed, num_intents=args.intents))
    save_query_log(log, args.out, include_gold=not args.no_gold)
    print(
        f"wrote {args.out}: {log.num_queries} distinct queries, "
        f"volume {log.total_frequency}, {log.num_sessions} sessions"
    )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    # Training keeps nearly everything it allocates until it exits, so
    # cyclic GC frees next to nothing, yet each full collection walks the
    # whole loaded log and the memos built over it: pausing it took a
    # --state base build on a 14,721-query log from 0.90-0.93 to
    # 0.83-0.88 s (in process, 2-vCPU host).
    paused = gc.isenabled()
    gc.disable()
    try:
        if args.append:
            return _cmd_train_append(args)
        return _cmd_train_build(args)
    finally:
        if paused:
            gc.enable()


def _cmd_train_build(args: argparse.Namespace) -> int:
    from repro.core.model import save_model
    from repro.core.pipeline import TrainingConfig
    from repro.querylog.storage import load_query_log
    from repro.taxonomy.serialization import load_taxonomy_tsv

    if not args.log or not args.taxonomy or not args.out:
        print(
            "error: train needs --log, --taxonomy, and --out "
            "(or --append DELTA --base STATE)",
            file=sys.stderr,
        )
        return 2
    if args.state and args.reference:
        print(
            "error: --state folds are vectorized; drop --reference",
            file=sys.stderr,
        )
        return 2
    taxonomy = load_taxonomy_tsv(args.taxonomy)
    log = load_query_log(args.log, include_gold=False)
    config = TrainingConfig(
        pattern_mass=args.pattern_mass,
        max_patterns=args.max_patterns,
        train_classifier=not args.no_classifier,
    )
    timings: dict[str, float] = {}
    trainer = None
    if args.state:
        from repro.training.incremental import IncrementalTrainer

        trainer = IncrementalTrainer(log, taxonomy, config, timings=timings)
        model = trainer.model
        trainer.save(args.state)
    elif args.reference:
        from repro.core.pipeline import train_model

        model = train_model(log, taxonomy, config, timings=timings)
    else:
        from repro.training.vectorized import train_model_vectorized

        model = train_model_vectorized(log, taxonomy, config, timings=timings)
    save_model(model, args.out)
    classifier = "yes" if model.classifier is not None else "no"
    print(
        f"wrote {args.out}: {len(model.pairs)} mined pairs, "
        f"{len(model.patterns)} concept patterns, classifier: {classifier}"
    )
    stages = " ".join(
        f"{stage}={timings[stage]:.2f}s"
        for stage in ("mine", "derive", "features", "classifier", "total")
        if stage in timings
    )
    path = "reference" if args.reference else "vectorized"
    print(f"training path: {path}, {stages}")
    if trainer is not None:
        print(
            f"wrote {args.state}: training state, generation "
            f"{trainer.generation}, {trainer.log.num_queries} records"
        )
    if args.emit_snapshot:
        _emit_versioned_snapshot(
            model,
            args.emit_snapshot,
            generation=trainer.generation if trainer is not None else 1,
            record_count=log.num_queries,
            parent=args.parent_snapshot,
        )
    return 0


def _cmd_train_append(args: argparse.Namespace) -> int:
    from repro.core.model import save_model
    from repro.querylog.storage import load_query_log
    from repro.training.incremental import IncrementalTrainer

    if not args.base:
        print("error: --append needs --base STATE", file=sys.stderr)
        return 2
    if not args.out and not args.emit_snapshot:
        print(
            "error: --append needs --out and/or --emit-snapshot "
            "(the refolded model must go somewhere)",
            file=sys.stderr,
        )
        return 2
    trainer = IncrementalTrainer.load(args.base)
    delta = load_query_log(args.append, include_gold=False)
    timings: dict[str, float] = {}
    model = trainer.fold(delta, timings=timings)
    if args.out:
        save_model(model, args.out)
        classifier = "yes" if model.classifier is not None else "no"
        print(
            f"wrote {args.out}: {len(model.pairs)} mined pairs, "
            f"{len(model.patterns)} concept patterns, classifier: {classifier}"
        )
    state_out = args.state or args.base
    trainer.save(state_out)
    stages = " ".join(
        f"{stage}={timings[stage]:.2f}s"
        for stage in ("mine", "derive", "features", "classifier", "total")
        if stage in timings
    )
    dirty = int(timings.get("dirty_records", 0))
    print(
        f"folded {args.append}: generation {trainer.generation}, "
        f"{dirty} dirty of {trainer.log.num_queries} records, {stages}"
    )
    print(f"wrote {state_out}: training state")
    if args.emit_snapshot:
        _emit_versioned_snapshot(
            model,
            args.emit_snapshot,
            generation=trainer.generation,
            record_count=trainer.log.num_queries,
            parent=args.parent_snapshot,
        )
    return 0


def _emit_versioned_snapshot(
    model, path, *, generation: int, record_count: int, parent
) -> None:
    from repro.runtime.lineage import save_versioned_snapshot

    save_versioned_snapshot(
        model.compile(),
        path,
        generation=generation,
        record_count=record_count,
        parent=parent,
    )
    lineage = f"generation {generation}, {record_count} records"
    lineage += f", parent {parent}" if parent else ", no parent"
    print(f"wrote {path}: versioned snapshot ({lineage})")


def _cmd_snapshot(args: argparse.Namespace) -> int:
    if args.info:
        return _cmd_snapshot_info(args.info)
    if not args.model or not args.out:
        print(
            "error: snapshot needs --model and --out (or --info FILE)",
            file=sys.stderr,
        )
        return 2
    from repro.core.model import load_model

    model = load_model(args.model)
    compiled = model.compile(correct_spelling=args.spell)
    header = compiled.save_snapshot(args.out)
    counts = header["counts"]
    from pathlib import Path

    size = Path(args.out).stat().st_size
    speller = "yes" if header["has_speller"] else "no"
    print(
        f"wrote {args.out}: {size} bytes (format v{header['version']}), "
        f"{counts['phrases']} phrases, {counts['patterns']} patterns, "
        f"{counts['support']} support pairs, vocab {counts['vocab']}, "
        f"speller: {speller}"
    )
    return 0


def _cmd_snapshot_info(path: str) -> int:
    """Header-only snapshot inspection: no model load, no payload read
    past the CRC field — works the same on pre-lineage snapshots."""
    from pathlib import Path

    from repro.runtime import read_snapshot_header
    from repro.runtime.lineage import SnapshotLineage

    header = read_snapshot_header(path)
    counts = header["counts"]
    size = Path(path).stat().st_size
    print(f"{path}: {size} bytes, HDMSNAP format v{header['version']}")
    print(
        f"  counts: {counts['phrases']} phrases, {counts['patterns']} "
        f"patterns, {counts['support']} support pairs, "
        f"vocab {counts['vocab']}"
    )
    print(f"  speller: {'yes' if header['has_speller'] else 'no'}")
    log_stats = header.get("log_stats")
    if log_stats is None:
        print("  log statistics: none")
    else:
        print(
            f"  log statistics: {log_stats['queries']} queries, "
            f"{log_stats['edges']} drop edges, {log_stats['terms']} terms"
        )
    print(f"  payload crc32: {header['payload_crc32']}")
    lineage = SnapshotLineage.from_header(header)
    if lineage is None:
        print("  lineage: none (pre-lineage snapshot; generation 1)")
    else:
        parent = (
            f"parent crc32 {lineage.parent_crc32}"
            if lineage.parent_crc32 is not None
            else "no parent (base build)"
        )
        print(
            f"  lineage: generation {lineage.generation}, "
            f"{lineage.record_count} records, {parent}"
        )
    return 0


def _cmd_reload(args: argparse.Namespace) -> int:
    import urllib.error
    import urllib.request
    from pathlib import Path

    # Resolve client-side: router and replicas run on this host (the
    # shared-mmap design), so the path must be absolute for *their* cwd.
    snapshot = str(Path(args.snapshot).resolve())
    body = json.dumps({"snapshot": snapshot}).encode("utf-8")
    request = urllib.request.Request(
        args.url.rstrip("/") + "/reload",
        data=body,
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            payload = json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        try:
            detail = json.loads(exc.read().decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            detail = {}
        message = detail.get("error") or detail.get("replicas") or exc.reason
        print(f"error: reload failed ({exc.code}): {message}", file=sys.stderr)
        return 1
    except (urllib.error.URLError, OSError, TimeoutError) as exc:
        print(f"error: cannot reach {args.url}: {exc}", file=sys.stderr)
        return 2
    replicas = payload.get("replicas")
    if replicas is None:
        # Single-process `repro serve`: one service swapped in place.
        print(
            f"reloaded {payload.get('snapshot', snapshot)}: "
            f"model generation {payload.get('model_generation')}"
        )
        return 0
    for name, entry in sorted(replicas.items()):
        if entry.get("ok"):
            print(f"  {name}: model generation {entry['model_generation']}")
        else:
            print(f"  {name}: FAILED ({entry.get('error')})")
    total = len(replicas)
    reloaded = payload.get("reloaded", 0)
    print(f"reloaded {reloaded}/{total} replicas onto {snapshot}")
    return 0 if reloaded == total else 1


def _cmd_detect(args: argparse.Namespace) -> int:
    queries = list(args.queries)
    if args.input:
        if args.input == "-":
            queries.extend(line.strip() for line in sys.stdin if line.strip())
        else:
            with open(args.input, encoding="utf-8") as handle:
                queries.extend(line.strip() for line in handle if line.strip())
    if not queries:
        print("error: no queries given (positional or --input)", file=sys.stderr)
        return 2
    from repro.text.normalizer import token_cap_error

    for query in queries:
        refused = token_cap_error(query)
        if refused is not None:
            print(f"error: {refused}", file=sys.stderr)
            return 2
    if bool(args.model) == bool(args.snapshot):
        print(
            "error: detect needs exactly one of --model or --snapshot",
            file=sys.stderr,
        )
        return 2
    if args.stats and not args.snapshot:
        print(
            "error: --stats reads the compiled runtime caches; use --snapshot",
            file=sys.stderr,
        )
        return 2
    if args.snapshot:
        from repro.runtime import read_snapshot_header
        from repro.runtime.compiled import CompiledDetector

        if args.spell and not read_snapshot_header(args.snapshot)["has_speller"]:
            print(
                "error: snapshot was saved without a speller; rebuild it with "
                "`repro snapshot --spell`",
                file=sys.stderr,
            )
            return 2
        detector = CompiledDetector.load_snapshot(args.snapshot)
    else:
        from repro.core.model import load_model

        model = load_model(args.model)
        detector = model.detector(correct_spelling=args.spell)
    if args.explain:
        from repro.core.explain import explain_detection

        for query in queries:
            print(explain_detection(detector, query).render())
            print()
        return 0
    if args.json:
        from repro.serving.http import detection_payload
    detections = detector.detect_batch(queries)
    for query, detection in zip(queries, detections):
        if args.json:
            print(json.dumps(detection_payload(detection), sort_keys=True))
        else:
            print(f"{query}\n  {detection.explain()}")
    if args.stats:
        print("runtime cache stats:", file=sys.stderr)
        for name, stats in detector.cache_stats().items():
            print(
                f"  {name}: size={stats['size']}/{stats['capacity']} "
                f"hits={stats['hits']} misses={stats['misses']} "
                f"hit_rate={stats['hit_rate']:.2f}",
                file=sys.stderr,
            )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serving import DetectionHTTPServer, DetectionService, run_server

    if bool(args.model) == bool(args.snapshot):
        print(
            "error: serve needs exactly one of --model or --snapshot",
            file=sys.stderr,
        )
        return 2
    config = _serving_config(args)
    if args.snapshot:
        from repro.runtime import read_snapshot_header

        if args.spell and not read_snapshot_header(args.snapshot)["has_speller"]:
            print(
                "error: snapshot was saved without a speller; rebuild it with "
                "`repro snapshot --spell`",
                file=sys.stderr,
            )
            return 2
    # The service is the only owner of the first detector: a local here
    # would outlive asyncio.run and keep generation 1 resident after
    # every reload.
    service = DetectionService(_first_detector(args), config)

    def _ready(port: int) -> None:
        print(f"serving on http://{args.host}:{port}", flush=True)

    asyncio.run(
        run_server(DetectionHTTPServer(service, args.host, args.port), _ready)
    )
    print("server drained and stopped", flush=True)
    return 0


def _first_detector(args: argparse.Namespace):
    """The detector ``serve`` starts on, from ``--snapshot`` or
    ``--model``; a model bundle is compiled and then dropped."""
    if args.snapshot:
        from repro.runtime.compiled import CompiledDetector

        return CompiledDetector.load_snapshot(args.snapshot)
    from repro.core.model import load_model

    return load_model(args.model).compile(correct_spelling=args.spell)


def _cmd_route(args: argparse.Namespace) -> int:
    import asyncio

    from repro.errors import ServingError
    from repro.serving import DetectionHTTPServer, run_server
    from repro.serving.router import Router, RouterConfig

    if args.replicas < 1:
        print("error: need at least one replica", file=sys.stderr)
        return 2
    try:
        config = RouterConfig(
            max_inflight=args.max_inflight,
            health_interval_s=args.health_interval,
            hedge_p99_us=args.hedge_p99_us,
            hedge_rate=args.hedge_rate,
            warmup_keys=args.warmup_keys,
        )
        # Validated here, before any replica is spawned, so a bad flag is
        # one clean error rather than a fleet of crashing children.
        serving = _serving_config(args)
    except ServingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    router = Router(config)
    router.spawn(
        args.snapshot,
        args.replicas,
        extra_args=["--cache-size", str(serving.cache_size)],
    )

    def _ready(port: int) -> None:
        print(
            f"routing {args.replicas} replicas on http://{args.host}:{port}",
            flush=True,
        )

    async def _route() -> None:
        await router.start()
        await run_server(DetectionHTTPServer(router, args.host, args.port), _ready)

    asyncio.run(_route())
    print("router drained and stopped", flush=True)
    return 0


def _cmd_replica(args: argparse.Namespace) -> int:
    import asyncio

    from repro.runtime.compiled import CompiledDetector
    from repro.serving import DetectionService, ReplicaServer, run_server

    server = ReplicaServer(
        DetectionService(
            CompiledDetector.load_snapshot(args.snapshot), _serving_config(args)
        ),
        args.host,
        args.port,
        replica_id=args.replica_id,
        generation=args.generation,
    )

    def _ready(port: int) -> None:
        print(f"replica listening on {args.host}:{port}", flush=True)

    asyncio.run(run_server(server, _ready))
    print("replica drained and stopped", flush=True)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.core.model import load_model
    from repro.eval.datasets import build_eval_set
    from repro.eval.harness import evaluate_constraints, evaluate_head_detection
    from repro.eval.reporting import format_table
    from repro.querylog.storage import load_query_log

    model = load_model(args.model)
    log = load_query_log(args.log)
    examples = build_eval_set(log, min_modifiers=1, max_examples=args.max_examples)
    if not examples:
        print("error: log contains no labelled multi-segment queries", file=sys.stderr)
        return 2
    detector = model.detector()
    head = evaluate_head_detection(detector, examples)
    rows = [
        ["examples", len(examples)],
        ["head accuracy", head.head_accuracy],
        ["head precision", head.head_precision],
        ["coverage", head.coverage],
        ["modifier F1", head.modifier_metrics.f1],
    ]
    if model.classifier is not None:
        constraints = evaluate_constraints(model.classifier, examples)
        rows.append(["constraint accuracy", constraints.accuracy])
        rows.append(["constraint F1", constraints.f1])
    print(format_table(["metric", "value"], rows, title=f"evaluation: {args.log}"))
    if args.show_errors > 0:
        from repro.eval.errors import collect_head_errors, format_head_error_report

        errors = collect_head_errors(detector, examples)
        print()
        print(format_head_error_report(errors, max_rows=args.show_errors))
    return 0


def _cmd_patterns(args: argparse.Namespace) -> int:
    from repro.core.model import load_model
    from repro.eval.reporting import format_table

    model = load_model(args.model)
    rows = [
        [pattern.modifier_concept, pattern.head_concept, weight]
        for pattern, weight in model.patterns.top(args.top)
    ]
    print(
        format_table(
            ["modifier concept", "head concept", "weight"],
            rows,
            title=f"top {len(rows)} of {len(model.patterns)} concept patterns",
        )
    )
    return 0


def _cmd_rewrite(args: argparse.Namespace) -> int:
    from repro.apps.rewriter import QueryRewriter
    from repro.core.model import load_model

    model = load_model(args.model)
    rewriter = QueryRewriter(model.detector())
    for query in args.queries:
        ladder = rewriter.relax(query)
        print(query)
        for step, rewrite in enumerate(ladder):
            print(f"  relax[{step}]: {rewrite}")
    return 0


def _cmd_similar(args: argparse.Namespace) -> int:
    from repro.apps.similarity import QueryIntentMatcher
    from repro.core.model import load_model

    model = load_model(args.model)
    matcher = QueryIntentMatcher(model.detector())
    comparison = matcher.compare(args.query_a, args.query_b)
    verdict = "same intent" if comparison.score >= 0.75 else "different intent"
    print(f"{args.query_a!r} vs {args.query_b!r}")
    print(f"  head agreement:       {comparison.head_score:.2f}")
    print(f"  constraint agreement: {comparison.constraint_score:.2f}")
    print(f"  preference agreement: {comparison.preference_score:.2f}")
    print(f"  constraint conflicts: {comparison.conflicts}")
    print(f"  similarity:           {comparison.score:.2f}  ({verdict})")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import cmd_lint

    return cmd_lint(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
