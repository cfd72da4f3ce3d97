"""The benchmark's workloads and the session that runs one of them.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  Every input is generated by
`synthetic.generate` under the workload seed, and the library is driven
through its public API from this one single-threaded process.

An untraced session measures the end-to-end metrics from five kinds of
operation, which take turns for the run's seconds:
  setup       generate, ingest, split, load embeddings, write the index; the
              serving workload also trains its model and writes the checkpoint
  loop        the workload's own operation: one `train` call, or one
              `discover` query from a seeded stream
  evaluate    `evaluate` on the held-out split
  cold_start  load index, checkpoint and embeddings from disk, as every CLI
              `evaluate`, `score` and `discover` call does
  ingest      `corpus.ingest` of the workload's corpus
and, not counted as an operation, `reference_op`, a fixed computation that
gauges the machine's speed at the moment (see `run_untraced`).
A traced session runs set-up once, then `trace_ops` loop operations, each
once untraced and once traced so the tracing overhead is their difference,
then evaluate, a cold start and, on the training workloads, one discover
query, so that every layer shows in every workload's trace.  All but the
untraced operations run under the tracer.

Every operation is checked.  A failed check or an exception counts it as
failed; no check compares bytes with another run, only within this one.
"""

import math
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from synmatch import cli, corpus, embeddings, evaluation, synthetic, training
from synmatch.rng import stream_rng

import layers
from spans import Tracer

VALID_FRAC = 0.0
TEST_FRAC = 0.25
KNN_K = 50
THRESHOLD = 0.8
MIN_SAMPLES = 3
SHARES = {"setup": 0.15, "loop": 0.3, "evaluate": 0.2, "cold_start": 0.1, "ingest": 0.15,
          "reference": 0.1}
# Fastest time of reference_op on the machine the bounds were set on.
REFERENCE_SECONDS = 0.01

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "items_per_s": "1/s",
    "evaluate_s": "s",
    "cold_start_s": "s",
    "ingest_lines_per_s": "1/s",
}

TIER1_TRAIN = dict(objective="triplet", d_ce=32, contexts_per_entity=5,
                   max_context_len=20, batch_size=16)
LAYOUT = dict(entities_per_cluster=3, contexts_per_entity=30, noise=0.3)


@dataclass(frozen=True)
class Workload:
    name: str
    data: dict        # synthetic.generate arguments besides out_dir and seed
    train: dict       # TrainConfig fields besides seed
    serve: bool       # the loop runs discover queries on a model trained in set-up
    min_auc: object   # held-out AUC below this fails evaluate; None sets no floor
    trace_ops: int    # loop operations in the traced session

    def config(self, seed):
        return training.TrainConfig(seed=seed, **self.train).validate()

    def items_per_op(self):
        if self.serve:
            return 1
        return self.train["epochs"] * self.train["pairs_per_epoch"]


WORKLOADS = {
    # Small matrices and ~1.8k tape nodes per batch: per-op overhead dominates.
    # 30 train synsets of 3 give 90 triplets an epoch, as the automatic count
    # would.  One epoch per train call keeps operations short (about 0.25 s),
    # so a run holds enough of them for a steady fastest sample.
    "train_tier1": Workload(
        "train_tier1",
        data=dict(clusters=40, tokens_per_context=12, **LAYOUT),
        train=dict(TIER1_TRAIN, epochs=1, pairs_per_epoch=90),
        serve=False, min_auc=0.90, trace_ops=8),
    # TrainConfig() defaults: GEMM and memory bound; 49-token windows use T=50.
    # One batch of 8 pairs per train call, about 1.3 s and 1 GB of tape.  20
    # clusters keep evaluate near 0.5 s, so a run holds enough samples of it.
    "train_paper": Workload(
        "train_paper",
        data=dict(clusters=20, tokens_per_context=48, **LAYOUT),
        train=dict(epochs=1, pairs_per_epoch=8),
        serve=False, min_auc=None, trace_ops=4),
    # Forward-only inference: discover queries with KNN over 300 entities, a
    # 9k-line index and a 6,000-token vocabulary.  At 400 clusters evaluate
    # and ingest took 1.5 s and 0.5 s, too few samples a run to hold steady.
    "serve_rank": Workload(
        "serve_rank",
        data=dict(clusters=100, tokens_per_context=12, vocab_size=6000, **LAYOUT),
        train=dict(TIER1_TRAIN, epochs=4, pairs_per_epoch=120),
        serve=True, min_auc=0.90, trace_ops=100),
}


@dataclass
class State:
    paths: dict
    data: object
    table: object
    index: str
    checkpoint: str
    config: object
    params: object
    corpus_lines: int


class Session:
    """One workload run at one seed, in its own scratch directory."""

    def __init__(self, workload, seed, workdir, tracer=None):
        self.w = workload
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.tracing = False
        self.attempted = 0
        self.failed = 0
        self.state = None
        self.universe = None
        self._query_rng = np.random.default_rng([seed, 7])
        self._queries = []
        self._first = {}          # first result of each repeated operation
        self._setups = 0
        self._loop_ops = 0
        self.report = None

    # -- operations -----------------------------------------------------------

    def op(self, kind, fn, check):
        """Run fn as one checked operation; returns (seconds, result).

        Seconds and result are None when fn raised; the operation then
        counts as failed.
        """
        self.attempted += 1
        ctx = self.tracer.operation(kind) if self.tracing else nullcontext()
        seconds, result, problem = None, None, None
        try:
            with ctx:
                t0 = time.perf_counter()
                result = fn()
                seconds = time.perf_counter() - t0
            problem = check(result)
        except Exception as err:  # an operation that raises is a failed operation
            traceback.print_exc()
            problem = f"{type(err).__name__}: {err}"
        if problem:
            self.failed += 1
            print(f"FAILED {kind}: {problem}", file=sys.stderr)
        return seconds, result

    def _same_as_first(self, key, value, what):
        first = self._first.setdefault(key, value)
        if first != value:
            return f"{what} differs from its first run in this session"
        return None

    # -- set-up ---------------------------------------------------------------

    def setup(self, out_dir):
        w, seed = self.w, self.seed
        paths = synthetic.generate(out_dir, seed=seed, **w.data)
        data = corpus.ingest(paths["corpus"], paths["synsets"])
        data.store = corpus.split_synsets(data.store, VALID_FRAC, TEST_FRAC,
                                          stream_rng(seed, "ingest"))
        table = embeddings.load_embeddings(paths["embeddings"], data.vocab)
        index = os.path.join(out_dir, "index.pkl")
        cli.save_index(index, data)
        config = w.config(seed)
        checkpoint = os.path.join(out_dir, "model.json")
        params = None
        if w.serve:
            params, history = training.train(config, data, table)
            training.save_checkpoint(checkpoint, params, config)
            if not all(math.isfinite(h["loss"]) for h in history):
                raise ArithmeticError("set-up training loss is not finite")
        with open(paths["corpus"], encoding="utf-8") as fh:
            corpus_lines = sum(1 for _ in fh)
        return State(paths, data, table, index, checkpoint, config, params, corpus_lines)

    def setup_op(self):
        """One set-up in a fresh directory; the first one's state is kept."""
        out_dir = os.path.join(self.workdir, f"setup{self._setups}")
        self._setups += 1
        seconds, state = self.op("setup", lambda: self.setup(out_dir), self._check_setup)
        if self.state is None:
            if state is None:
                raise RuntimeError("set-up failed; nothing to measure")
            self.state = state
            self.universe = state.data.store.entities()
        return seconds

    def _check_setup(self, state):
        if not state.data.store.entities("test"):
            return "the held-out split is empty"
        first = self.state or state
        if state.data.lines != first.data.lines or state.data.store.split != first.data.store.split:
            return "set-up data differs from the first set-up of this session"
        return None

    # -- the loop ---------------------------------------------------------------

    def loop_op(self, i=None):
        """The workload's operation; the i-th query of the stream, or the next one."""
        if i is None:
            i = self._loop_ops
            self._loop_ops += 1
        return self.query_op(self._query(i)) if self.w.serve else self.train_op()

    def train_op(self):
        s = self.state

        def check(result):
            params, history = result
            losses = [h["loss"] for h in history]
            if not all(math.isfinite(x) for x in losses):
                return f"non-finite training loss {losses}"
            return self._same_as_first("train", losses, "training loss history")

        seconds, result = self.op("train", lambda: training.train(s.config, s.data, s.table),
                                  check)
        if result is not None and s.params is None:
            s.params = result[0]
            training.save_checkpoint(s.checkpoint, s.params, s.config)
        return seconds

    def _query(self, i):
        while len(self._queries) <= i:
            self._queries.append(int(self.universe[self._query_rng.integers(len(self.universe))]))
        return self._queries[i]

    def query_op(self, query):
        s = self.state

        def check(result):
            scores = [sc for _, sc in result.ranked]
            if not all(math.isfinite(sc) and -1.0 <= sc <= 1.0 for sc in scores):
                return f"score outside [-1, 1] for query {query}"
            keys = [(-sc, eid) for eid, sc in result.ranked]
            if keys != sorted(keys):
                return f"ranked list of query {query} is not sorted"
            if len(keys) != min(KNN_K, len(self.universe) - 1):
                return f"query {query} ranked {len(keys)} candidates"
            return self._same_as_first(("query", query),
                                       (result.ranked, result.candidates),
                                       f"result of query {query}")

        seconds, _ = self.op("discover", lambda: evaluation.discover(
            s.params, s.config, s.data, s.table, query, k=KNN_K, threshold=THRESHOLD,
            seed=self.seed, universe=self.universe), check)
        return seconds

    # -- the tail ---------------------------------------------------------------

    def evaluate_op(self):
        s = self.state

        def check(report):
            if not all(math.isfinite(x) and 0.0 <= x <= 1.0 for x in (report.auc, report.map)):
                return f"AUC {report.auc} or MAP {report.map} outside [0, 1]"
            if self.w.min_auc is not None and report.auc < self.w.min_auc:
                return f"held-out AUC {report.auc:.4f} below {self.w.min_auc}"
            return self._same_as_first("evaluate", report.to_text(), "evaluate report")

        seconds, report = self.op("evaluate", lambda: evaluation.evaluate(
            s.params, s.config, s.data, s.table, split="test", seed=self.seed,
            knn_k=KNN_K, threshold=THRESHOLD), check)
        if report is not None:
            self.report = report
        return seconds

    def cold_start_op(self):
        s = self.state

        def load():
            data = cli.load_index(s.index)
            params, _, _ = training.load_checkpoint(s.checkpoint)
            table = embeddings.load_embeddings(s.paths["embeddings"], data.vocab)
            return data, params, table

        def check(result):
            data, params, table = result
            if data.lines != s.data.lines or data.store.split != s.data.store.split:
                return "reloaded index differs from the one written"
            if sorted(params) != sorted(s.params) or not all(
                    np.array_equal(params[k], s.params[k]) for k in params):
                return "reloaded checkpoint differs from the trained parameters"
            if not np.array_equal(table.matrix, s.table.matrix):
                return "reloaded embeddings differ"
            return None

        return self.op("cold_start", load, check)[0]

    def ingest_op(self):
        s = self.state

        def check(data):
            if data.lines != s.data.lines or data.store.synsets != s.data.store.synsets:
                return "re-ingest differs from the set-up ingest"
            return None

        return self.op("ingest", lambda: corpus.ingest(s.paths["corpus"], s.paths["synsets"]),
                       check)[0]

    def probe_op(self):
        """One discover query on a trained model, so every layer shows in a trace."""
        return self.query_op(sorted(self.state.data.store.entities("test"))[0])


_REF_LINES = [" ".join(f"t{(i * 7919 + j * 104729) % 5000}" for j in range(13))
              for i in range(3000)]


def reference_op():
    """Seconds of a fixed computation that uses no synmatch code.

    It mixes what the library's time goes to: tokenising and interning
    lines as ingest does, and many small matrix products and tanh calls as
    the gradient tape does.  It gauges how fast this machine runs at the
    moment, so it must never change.
    """
    t0 = time.perf_counter()
    ids = {}
    rows = []
    for line in _REF_LINES:
        rows.append(tuple(ids.setdefault(tok, len(ids)) for tok in line.split()))
    a = np.full((16, 32), 0.5)
    w = np.full((32, 32), 0.01)
    for _ in range(400):
        a = np.tanh(a @ w) + 0.1
    return time.perf_counter() - t0


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(workload, seed, seconds, workdir):
    """End-to-end metrics of one session; returns (session, metrics, extras, samples).

    The kinds of operation take turns for the whole run, each given its
    share of the time, so that every metric samples the same stretch of
    machine time, and successive samples of a kind alternate between CPUs.
    On a shared host the same work ran up to 1.7x slower for stretches of
    seconds to minutes, each CPU on its own schedule.  So a time metric is
    the fastest of its samples, rescaled by the fastest run of a fixed
    reference computation sampled the same way (`reference_op`), to the
    seconds it would take where that reference takes REFERENCE_SECONDS.
    setup_s is the median of its samples, rescaled by the median reference.
    The unscaled figures are returned among the extras.
    """
    s = Session(workload, seed, workdir)
    ops = {"setup": s.setup_op, "loop": s.loop_op, "evaluate": s.evaluate_op,
           "cold_start": s.cold_start_op, "ingest": s.ingest_op, "reference": reference_op}
    samples = {kind: [] for kind in ops}
    spent = dict.fromkeys(ops, 0.0)
    cpus = sorted(os.sched_getaffinity(0))

    def run(kind):
        # Successive samples of a kind run on successive CPUs: each CPU's
        # speed swings on its own, and the fastest sample needs one fast spell.
        os.sched_setaffinity(0, {cpus[len(samples[kind]) % len(cpus)]})
        t0 = time.perf_counter()
        t = ops[kind]()
        spent[kind] += time.perf_counter() - t0
        if t is not None:
            samples[kind].append(t)

    start = time.perf_counter()
    try:
        run("setup")
        run("loop")             # a model must exist before evaluate and cold start
        if s.state.params is None:
            raise RuntimeError("the first loop operation failed; nothing to evaluate")
        while time.perf_counter() - start < seconds:
            run(min(ops, key=lambda k: spent[k] / SHARES[k]))
        for kind in ops:
            for _ in range(MIN_SAMPLES - len(samples[kind])):
                run(kind)
            if not samples[kind]:
                raise RuntimeError(f"every {kind} operation failed")
    finally:
        os.sched_setaffinity(0, cpus)

    loop = samples["loop"]
    raw = {
        "setup_s": statistics.median(samples["setup"]),
        "items_per_s": workload.items_per_op() / min(loop),
        "evaluate_s": min(samples["evaluate"]),
        "cold_start_s": min(samples["cold_start"]),
        "ingest_lines_per_s": s.state.corpus_lines / min(samples["ingest"]),
    }
    # Times scale by this factor; rates by its inverse.
    fast = REFERENCE_SECONDS / min(samples["reference"])
    typical = REFERENCE_SECONDS / statistics.median(samples["reference"])
    metrics = {
        "setup_s": raw["setup_s"] * typical,
        "peak_rss_mb": peak_rss_mb(),
        "items_per_s": raw["items_per_s"] / fast,
        "evaluate_s": raw["evaluate_s"] * fast,
        "cold_start_s": raw["cold_start_s"] * fast,
        "ingest_lines_per_s": raw["ingest_lines_per_s"] / fast,
    }
    extras = {f"raw_{k}": (v, END_TO_END_UNITS[k]) for k, v in raw.items()}
    extras.update({
        "reference_fastest_s": (min(samples["reference"]), "s"),
        "op_p50_ms": (1000.0 * statistics.median(loop), "ms"),
        "loop_ops": (len(loop), "count"),
        "heldout_auc": (s.report.auc if s.report else float("nan"), "ratio"),
        "heldout_map": (s.report.map if s.report else float("nan"), "ratio"),
    })
    if len(loop) >= 100:   # p90 needs at least ten samples beyond it
        extras["op_p90_ms"] = (1000.0 * statistics.quantiles(loop, n=10)[-1], "ms")
    return s, metrics, extras, samples


def run_traced(workload, seed, workdir):
    """Per-layer metrics of one traced session; returns (session, metrics, tracer)."""
    tracer = Tracer()
    targets = layers.targets()
    s = Session(workload, seed, workdir, tracer)

    def traced(fn):
        with tracer.installed(targets):
            s.tracing = True
            try:
                return fn()
            finally:
                s.tracing = False

    traced(s.setup_op)
    deltas, untraced = [], []
    for i in range(workload.trace_ops):
        # Alternate which of the pair runs first, so a warm second run
        # favours neither side.
        if i % 2:
            t_traced = traced(lambda: s.loop_op(i))
            t_plain = s.loop_op(i)
        else:
            t_plain = s.loop_op(i)
            t_traced = traced(lambda: s.loop_op(i))
        if t_plain is not None and t_traced is not None:
            untraced.append(t_plain)
            deltas.append(t_traced - t_plain)

    def tail():
        s.evaluate_op()
        if not s.w.serve:
            s.probe_op()
        s.cold_start_op()

    traced(tail)
    values, profile = layers.layer_values(tracer)
    metrics = dict(values)
    if deltas:
        metrics["tracing.overhead_ms_per_op"] = 1000.0 * statistics.median(deltas)
        metrics["tracing.overhead_frac"] = statistics.median(deltas) / statistics.median(untraced)
    return s, metrics, profile
