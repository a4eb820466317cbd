"""The three workloads: what each sets up, the operations of one round,
and the samples it hands back.

Every workload is a closed loop with one client: the next operation is
sent when the previous one has returned.  A run repeats whole rounds of
the same operation mix until ``--seconds`` have passed, so the share of
failed operations is the same in every run.
"""

from __future__ import annotations

import gc
import random
import re
import resource
import shutil
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable

import oracle
from tracing import Tracer

from repro.core.config import SchemeParameters
from repro.core.scheme import EncryptedSearchableStore
from repro.data.phonebook import Directory, generate_directory
from repro.obs.metrics import MetricsRegistry, use_metrics

#: The paper's Stage-1+2+3 configuration: all four chunkings of
#: 4-symbol chunks, a 64-code frequency encoder, dispersal over 2 sites.
PARAMS = SchemeParameters.full(4, n_codes=64, dispersal=2)
#: Records in the simulated files.
RECORDS = 1000
#: Every run stores the same directory: the generator's default draw,
#: as in the repository's paper experiments.  ``--seed`` draws the
#: operation stream (which names are asked for, which records are
#: read, deleted and put), so the spread between seeds measures the
#: program and the machine, not how lucky a directory draw was.
DIRECTORY_SEED = 2006
#: Directory records the Stage-2 encoder is trained on.
TRAINING = 500
BUCKET_CAPACITY = 128
BATCH = 16

#: No measured request mix of a directory exists to copy (the paper
#: costs single searches and storage, not traffic), so each round holds
#: the smallest mix that uses every operation kind of its workload.
#: The gated throughput and per-operation costs weigh every kind once,
#: whatever its count (``run.end_to_end``), so a count decides only how
#: many samples a figure gets and how the file changes.  A search or a
#: batch costs 0.1 to 2 s, so a round asks one of each (more would
#: leave fewer rounds, hence fewer set-up samples), except that
#: read-skewed asks SKEWED_SEARCHES single names: their cost varies
#: between 200 and 900 messages by name, and the run's median needs
#: about 60 of them to hold still.  A batch's 16 names average already.
#: write-churn asks CHURN_SEARCHES: a search there ships 450 to 860 kB
#: by token, and one per round left the median of a run's eleven
#: spreading 0.22 of itself between seeds.  Every cheaper kind runs
#: CHEAP_OPS times: 16 gives each about 100 samples or more in the 6
#: to 11 rounds a 30 s run holds on a two-core host.
SKEWED_SEARCHES = 8
CHURN_SEARCHES = 2
CHEAP_OPS = 16
#: More directory entries than any write-churn run can put.
CHURN_SPARE = 3000

#: live-keyed: one bucket process plus the coordinator, so the client
#: holds two connections: no more than the cores of a two-core host.
LIVE_SITES = 1
#: No split, hence no process spawn, during a round.
LIVE_CAPACITY = 4096
#: How long one live ``run()`` may chase quiescence.  A healthy put
#: needs about 7 ms per run; the failing scan waits this long.
LIVE_RUN_TIMEOUT = 1.5
#: The named fault behind failed live scans, as the bucket logs it.
LIVE_SCAN_FAULT = re.compile(
    r"AttributeError: .*has no attribute 'vectorised_rounds'")


class Recorder:
    """Latency samples, operation counts, answer problems and the
    per-layer inputs of one run."""

    def __init__(self, trace: bool) -> None:
        #: Per operation kind, the latency, billed messages and billed
        #: bytes of every call that succeeded.
        self.latency: dict[str, list[float]] = defaultdict(list)
        self.messages: dict[str, list[int]] = defaultdict(list)
        self.wire_bytes: dict[str, list[int]] = defaultdict(list)
        #: Per operation kind, the operations one call does: the names
        #: of a batch, 1 for every other kind.
        self.sizes: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()
        self.problems: list[str] = []
        #: Time spent in calls that failed through a named known fault:
        #: kept out of every latency figure, reported on its own.
        self.fault_seconds = 0.0
        self.setup: list[float] = []
        self.load_rate: list[float] = []
        #: The network the timed operations bill to.
        self.network: Any = None
        #: Peak RSS through set-up, before the first timed operation: a
        #: fixed amount of work.  Scans grow the heap for as long as a
        #: run lasts (see ``rss_after_round``), so a later peak would
        #: charge a faster program for the rounds it fits in.
        self.peak_rss_mb = 0.0
        self.rss_after_round: list[float] = []
        self.footprint_ratio = 0.0
        self.query_info: list[tuple[int, int]] = []
        self.scan_info: list[tuple[str, int, int, int, float]] = []
        self.queries: list[str] = []
        # -- traced runs only --
        self.trace = trace
        self.tracer = Tracer()
        self.registry = MetricsRegistry()
        self.traced_kinds: Counter = Counter()
        self.cpu_seconds = 0.0
        self.wall_seconds = 0.0
        self.structure: dict[str, float] = {}

    # -- operations ------------------------------------------------------

    def op(self, kind: str, call: Callable[[], Any],
           check: Callable[[Any], list[str]] | None = None,
           known_fault: Callable[[Exception], str | None] | None = None,
           size: int = 1) -> Any:
        """Time one user call of ``size`` operations, then check its
        answer.  Any
        exception or wrong answer counts the operation as failed; only
        an exception that ``known_fault`` names leaves the run correct.
        In a traced run every operation is traced.
        """
        self.attempted += 1
        self.sizes[kind] = size
        before = self.network.stats.snapshot()
        with self.traced(self.network):
            cpu = time.process_time()
            start = time.perf_counter()
            try:
                result = call()
                error = None
            except Exception as caught:  # noqa: BLE001 - accounted below
                error = caught
            elapsed = time.perf_counter() - start
            cpu = time.process_time() - cpu
        if error is not None:
            fault = known_fault(error) if known_fault else None
            if fault is not None:
                self.fault_seconds += elapsed
                self.fail(kind, f"{type(error).__name__} ({fault})")
            else:
                self.fail(kind, type(error).__name__,
                          f"{kind}: {error!r}")
            return None
        problems = check(result) if check is not None else []
        if problems:
            self.fail(kind, "wrong answer", *problems)
            return None
        cost = self.network.stats.diff(before)
        self.latency[kind].append(elapsed)
        self.messages[kind].append(cost.messages)
        self.wire_bytes[kind].append(cost.bytes)
        self.cpu_seconds += cpu
        self.wall_seconds += elapsed
        return result

    def fail(self, kind: str, error_type: str, *problems: str) -> None:
        self.failed += 1
        self.failures[f"{kind}: {error_type}"] += 1
        self.problems.extend(problems)

    def record_search(self, kind: str, results: list[Any]) -> None:
        """Figures of one checked scan round: per pattern, candidates
        and matches; per round, its billed cost and simulated time
        (a batch's results all carry the shared totals)."""
        for result in results:
            self.query_info.append(
                (len(result.candidates), len(result.matches)))
        first = results[0]
        self.scan_info.append(
            (kind, first.scan_cost.messages, first.verify_cost.messages,
             first.cost.bytes, first.elapsed))

    # -- tracing ---------------------------------------------------------

    @contextmanager
    def traced(self, network: Any, on: bool = True):
        """Trace the enclosed work (a no-op unless ``on``), adding the
        messages it bills to the traced per-kind totals."""
        if not (self.trace and on):
            yield
            return
        before = network.stats.snapshot()
        with self.tracer.active(), use_metrics(self.registry):
            yield
        self.traced_kinds.update(network.stats.diff(before).by_kind)

    @contextmanager
    def round(self):
        """One round of the workload's operation mix."""
        if not self.peak_rss_mb:
            self.peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
        yield
        self.rss_after_round.append(_rss_mb())


def _rss_mb() -> float:
    """Current resident set of this process."""
    with open("/proc/self/statm", encoding="ascii") as statm:
        return int(statm.read().split()[1]) * resource.getpagesize() / 2**20


def _records(directory: Directory) -> dict[int, str]:
    return {entry.rid: entry.record_text for entry in directory}


def _training(directory: Directory) -> list[bytes]:
    sample = directory.sample(TRAINING, seed=DIRECTORY_SEED)
    return [text.encode("ascii") for text in sample.record_texts()]


def _footprint_ratio(record_bytes: int, index_bytes: int,
                     texts: dict[int, str]) -> float:
    plain = sum(len(text) for text in texts.values())
    return (record_bytes + index_bytes) / plain


def _sim_structure(store: EncryptedSearchableStore) -> dict[str, float]:
    index = store.index_file
    records = sum(len(bucket.records) for bucket in index.buckets.values())
    return {
        "lh.index_buckets": len(index.buckets),
        "lh.record_buckets": len(store.record_file.buckets),
        "lh.index_load_factor":
            records / (len(index.buckets) * index.bucket_capacity),
    }


def _check_setup(rec: Recorder, store: EncryptedSearchableStore,
                 texts: dict[int, str]) -> None:
    footprint = store.footprint()
    rec.problems += oracle.check_index_records(
        footprint.index_records, len(texts),
        PARAMS.index_sites_per_record)
    rec.footprint_ratio = _footprint_ratio(
        footprint.record_bytes, footprint.index_bytes, texts)


def zipf_names(directory: Directory) -> tuple[list[str], list[float]]:
    """Searchable last names ranked by how many records carry them,
    with Zipf weights 1/rank: popular names are asked for most."""
    counts = Counter(name for name in directory.last_names()
                     if len(name) >= PARAMS.min_query_length)
    ranked = sorted(counts, key=lambda name: (-counts[name], name))
    return ranked, [1.0 / rank for rank in range(1, len(ranked) + 1)]


def distinct_tokens(directory: Directory, seed: int) -> list[str]:
    """Every distinct name token long enough to search for, in a
    seeded order: a query stream in which no name repeats."""
    tokens = sorted({token for name in directory.name_texts()
                     for token in name.split(" ")
                     if len(token) >= PARAMS.min_query_length})
    random.Random(seed).shuffle(tokens)
    return tokens


# ---------------------------------------------------------------------------
# read-skewed
# ---------------------------------------------------------------------------


def _build(rec: Recorder, training: list[bytes], records: int,
           load: Callable[[EncryptedSearchableStore], None],
           traced: bool = False) -> EncryptedSearchableStore:
    """One timed set-up: train the encoder, then load a fresh store.

    Stores discarded earlier are collected first, outside the timing;
    what survives (the measured store, the scan caches of the rounds so
    far) is frozen, so that collections during this set-up walk only
    the heap it makes, as they would in a fresh process."""
    gc.collect()
    gc.freeze()
    try:
        start = time.perf_counter()
        store = EncryptedSearchableStore.with_trained_encoder(
            PARAMS, training, bucket_capacity=BUCKET_CAPACITY)
        load_start = time.perf_counter()
        with rec.traced(store.network, traced):
            load(store)
        done = time.perf_counter()
    finally:
        gc.unfreeze()
    rec.setup.append(done - start)
    rec.load_rate.append(records / (done - load_start))
    return store


def read_skewed(seed: int, seconds: float, rec: Recorder,
                workdir: Path) -> None:
    directory = generate_directory(RECORDS, seed=DIRECTORY_SEED)
    texts = _records(directory)
    training = _training(directory)

    def load(target: EncryptedSearchableStore) -> None:
        for rid, text in texts.items():
            began = time.perf_counter()
            target.put(rid, text)
            rec.latency["put"].append(time.perf_counter() - began)

    store = _build(rec, training, len(texts), load, traced=True)
    _check_setup(rec, store, texts)

    names, weights = zipf_names(directory)
    rids = sorted(texts)
    rng = random.Random(seed)
    rec.network = store.network
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < 1 or time.perf_counter() < deadline:
        if rounds:
            # One more set-up after every round, discarded: set-up and
            # load figures sample the whole run, not just its start.
            _build(rec, training, len(texts), load)
        with rec.round():
            for name in rng.choices(names, weights, k=SKEWED_SEARCHES):
                rec.queries.append(name)
                result = rec.op(
                    "search", lambda: store.search(name),
                    lambda r: oracle.check_search(name, r, texts))
                if result is not None:
                    rec.record_search("search", [result])
            batch: list[str] = []
            while len(batch) < BATCH:
                name = rng.choices(names, weights)[0]
                if name not in batch:
                    batch.append(name)
            rec.queries += batch
            results = rec.op(
                "batch16", lambda: store.search_batch(batch),
                lambda r: oracle.check_batch(batch, r, texts), size=BATCH)
            if results is not None:
                rec.record_search("batch16", list(results.values()))
            for rid in rng.sample(rids, CHEAP_OPS):
                rec.op("get", lambda: store.get(rid),
                       lambda answer: oracle.check_get(rid, answer, texts))
        rounds += 1
    rec.structure = _sim_structure(store)


# ---------------------------------------------------------------------------
# write-churn
# ---------------------------------------------------------------------------


def write_churn(seed: int, seconds: float, rec: Recorder,
                workdir: Path) -> None:
    directory = generate_directory(RECORDS + CHURN_SPARE,
                                   seed=DIRECTORY_SEED)
    loaded = Directory(directory.entries[:RECORDS])
    spare = directory.entries[RECORDS:]
    texts = _records(loaded)
    training = _training(loaded)
    initial = dict(texts)

    def load(target: EncryptedSearchableStore) -> None:
        target.bulk_load(initial)

    store = _build(rec, training, len(initial), load, traced=True)
    _check_setup(rec, store, texts)

    tokens = distinct_tokens(directory, seed)
    rng = random.Random(seed)
    rec.network = store.network
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < 1 or time.perf_counter() < deadline:
        if len(spare) < CHEAP_OPS or len(tokens) < CHURN_SEARCHES:
            break
        if rounds:
            _build(rec, training, len(initial), load)
        with rec.round():
            # As many deletes as puts: the file keeps its size.
            for entry in spare[:CHEAP_OPS]:
                rid, text = entry.rid, entry.record_text
                rec.op("put", lambda: store.put(rid, text))
                texts[rid] = text
            del spare[:CHEAP_OPS]
            deleted = rng.sample(sorted(texts), CHEAP_OPS)
            for rid in deleted:
                rec.op("delete", lambda: store.delete(rid),
                       lambda ok: [] if ok else [f"delete({rid}) missed"])
                texts.pop(rid, None)
            for kind, rids in (("get", rng.sample(sorted(texts),
                                                  CHEAP_OPS)),
                               ("get_absent", deleted)):
                for rid in rids:
                    rec.op(kind, lambda: store.get(rid),
                           lambda answer: oracle.check_get(rid, answer,
                                                           texts))
            for name in tokens[:CHURN_SEARCHES]:
                rec.queries.append(name)
                result = rec.op(
                    "search", lambda: store.search(name),
                    lambda r: oracle.check_search(name, r, texts))
                if result is not None:
                    rec.record_search("search", [result])
            del tokens[:CHURN_SEARCHES]
        rounds += 1
    rec.structure = _sim_structure(store)


# ---------------------------------------------------------------------------
# live-keyed
# ---------------------------------------------------------------------------


def _named_fault(error: Exception, log_dir: Path,
                 backend_error: type) -> str | None:
    """Name the known fault behind a failed live scan: the client sees
    a quiescence timeout, the bucket process logged the cause."""
    if not isinstance(error, backend_error):
        return None
    for path in log_dir.glob("bucket-*.log"):
        if LIVE_SCAN_FAULT.search(path.read_text(errors="replace")):
            return "bucket AttributeError: vectorised_rounds"
    return None


def live_keyed(seed: int, seconds: float, rec: Recorder,
               workdir: Path) -> None:
    from repro.net.live import LiveBackendError, LiveCluster

    directory = generate_directory(RECORDS, seed=DIRECTORY_SEED)
    training = _training(directory)
    entries = directory.entries
    rng = random.Random(seed)
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < 1 or time.perf_counter() < deadline:
        round_dir = workdir / f"live-round-{rounds}"
        shutil.rmtree(round_dir, ignore_errors=True)
        log_dir = round_dir / "logs"
        start = time.perf_counter()
        cluster = LiveCluster(buckets=LIVE_SITES, log_dir=log_dir,
                              codec_cache_dir=round_dir / "codec-cache")
        try:
            cluster.start()
            rec.network = cluster.connect(run_timeout=LIVE_RUN_TIMEOUT)
            store = EncryptedSearchableStore.with_trained_encoder(
                PARAMS, training, network=rec.network,
                bucket_capacity=LIVE_CAPACITY)
            rec.setup.append(time.perf_counter() - start)
            _live_round(rec, store, cluster, entries, rounds, rng,
                        log_dir, LiveBackendError)
        finally:
            cluster.shutdown()
        shutil.rmtree(round_dir, ignore_errors=True)
        rounds += 1


def _live_round(rec: Recorder, store: EncryptedSearchableStore,
                cluster: Any, entries: list, number: int,
                rng: random.Random, log_dir: Path,
                backend_error: type) -> None:
    network = rec.network
    first = (number * CHEAP_OPS) % (len(entries) - CHEAP_OPS)
    batch = entries[first:first + CHEAP_OPS]
    texts = {entry.rid: entry.record_text for entry in batch}
    absent = [entry.rid for entry in rng.sample(entries, 3 * CHEAP_OPS)
              if entry.rid not in texts][:CHEAP_OPS]
    with rec.round():
        load_start = time.perf_counter()
        for rid, text in texts.items():
            rec.op("put", lambda: store.put(rid, text))
        rec.load_rate.append(
            len(texts) / (time.perf_counter() - load_start))
        # Every record put is read back once, in a seeded order.
        for kind, rids in (("get", rng.sample(sorted(texts), len(texts))),
                           ("get_absent", absent)):
            for rid in rids:
                rec.op(kind, lambda: store.get(rid),
                       lambda answer: oracle.check_get(rid, answer,
                                                       texts))
        if cluster.buckets != LIVE_SITES:
            rec.problems.append(
                f"{cluster.buckets} bucket processes, sized for "
                f"{LIVE_SITES}: a split spawned one")
        if rec.trace:
            rec.structure = _live_structure(network)
        footprint = {
            name: [record for bucket in
                   network.dump_buckets(name).values()
                   for record in bucket["records"]]
            for name in ("ess-store", "ess-index")
        }
        rec.problems += oracle.check_index_records(
            len(footprint["ess-index"]), len(texts),
            PARAMS.index_sites_per_record)
        rec.footprint_ratio = _footprint_ratio(
            *(sum(len(record.content) for record in footprint[name])
              for name in ("ess-store", "ess-index")), texts)
        # The search runs last: after one failed scan the cluster never
        # quiesces again, so every later operation would fail too.
        name = rng.choice(sorted({
            entry.last_name for entry in batch
            if len(entry.last_name) >= PARAMS.min_query_length}))
        rec.queries.append(name)
        result = rec.op(
            "search", lambda: store.search(name),
            lambda r: oracle.check_search(name, r, texts),
            known_fault=lambda error: _named_fault(error, log_dir,
                                                   backend_error))
        if result is not None:
            rec.record_search("search", [result])


def _live_structure(network: Any) -> dict[str, float]:
    index = network.dump_buckets("ess-index")
    records = sum(len(bucket["records"]) for bucket in index.values())
    return {
        "lh.index_buckets": len(index),
        "lh.record_buckets": len(network.dump_buckets("ess-store")),
        "lh.index_load_factor": records / (len(index) * LIVE_CAPACITY),
    }


WORKLOADS = {
    "read-skewed": read_skewed,
    "write-churn": write_churn,
    "live-keyed": live_keyed,
}
