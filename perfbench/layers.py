"""What the traced run wraps in synmatch, and the per-layer metrics it derives.

Each per-layer metric names the end-to-end metric (and workload) it should
move, so a later change can predict which numbers it will shift before it is
measured.  Time metrics are self times: a span's duration minus the time its
wrapped children cover, summed over all calls in the traced session.  The
traced session is a fixed amount of work, so every count repeats exactly
between runs of one seed.
"""

import os
from dataclasses import dataclass

from synmatch import (autodiff, cli, corpus, embeddings, encoder, evaluation,
                      matcher, synthetic, training)

from spans import self_times


# ---------------------------------------------------------------------------
# counters taken from the arguments and results of wrapped calls

def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_tape(tracer, args, kwargs):
    """Nodes reachable from the loss handed to backward."""
    loss = _arg(args, kwargs, 0, "loss")
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in getattr(stack.pop(), "parents", ()):
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    tracer.count("tape_nodes", len(seen))
    tracer.count("backward_calls")


def _count_windows(tracer, args, kwargs):
    """Windows encoded and LSTM steps run past each row's stop index.

    Both directions of a batch step max(stop) + 1 times for every row; a row
    needs only its own stop + 1 of those steps.
    """
    windows = _arg(args, kwargs, 0, "windows")
    if not windows:
        return
    anchored = _arg(args, kwargs, 3, "variant", "anchored") == "anchored"
    lengths = [len(w) for w in windows]
    pos = [w.entity_pos for w in windows]
    if anchored:
        directions = (pos, [n - 1 - p for n, p in zip(lengths, pos)])
    else:
        directions = ([n - 1 for n in lengths],) * 2
    for stops in directions:
        tracer.count("lstm_steps", len(stops) * (max(stops) + 1))
        tracer.count("lstm_steps_useful", sum(s + 1 for s in stops))
    tracer.count("windows_encoded", len(windows))


def _count_retrieved(tracer, args, kwargs, result):
    tracer.count("windows_retrieved", len(result))


def _count_knn_rows(tracer, args, kwargs):
    tracer.count("knn_rows_scanned", len(_arg(args, kwargs, 3, "universe")))


def _record_index_bytes(tracer, args, kwargs, result):
    tracer.counters["index_bytes"] = os.path.getsize(_arg(args, kwargs, 0, "path"))


def _optimizer_classes():
    return [c for c in vars(training).values()
            if isinstance(c, type) and "step" in vars(c)]


def targets():
    """(owner, attribute, span name, before hook, after hook) for every wrap."""
    plain = [
        (autodiff, "grad"), (autodiff, "_topo_order"),
        (encoder, "encode_batch"), (matcher, "pair_score_vars"),
        (matcher, "match_score"), (training, "train"),
        (training, "clip_gradients"), (training, "load_checkpoint"),
        (corpus, "ingest"), (corpus, "sample_pairs"), (corpus, "sample_triplets"),
        (embeddings, "load_embeddings"), (evaluation, "evaluate"),
        (evaluation, "discover"), (cli, "load_index"), (synthetic, "generate"),
    ]
    out = [(owner, attr, f"{_short(owner)}.{attr}", None, None)
           for owner, attr in plain]
    out += [
        (autodiff, "backward", "autodiff.backward", _count_tape, None),
        (encoder, "encode_batch_vars", "encoder.encode_batch_vars", _count_windows, None),
        (corpus, "retrieve_contexts", "corpus.retrieve_contexts", None, _count_retrieved),
        (embeddings, "nearest_neighbors", "embeddings.nearest_neighbors",
         _count_knn_rows, None),
        (cli, "save_index", "cli.save_index", None, _record_index_bytes),
    ]
    # A missing optimizer step shows as the absent attribute `training.step`.
    owners = _optimizer_classes() or [training]
    out += [(owner, "step", "training.optimizer.step", None, None) for owner in owners]
    return out


def _short(module):
    return module.__name__.rsplit(".", 1)[-1]


# ---------------------------------------------------------------------------
# per-layer metrics

class Profile:
    """Self time, call count and counters per span name of one traced session."""

    def __init__(self, tracer):
        selfs = self_times(tracer.spans)
        names = {s.sid: s.name for s in tracer.spans}
        self.rows = [(s.name, names.get(s.parent), selfs[s.sid], s.duration)
                     for s in tracer.spans]
        self.counters = dict(tracer.counters)
        self.missing = set(tracer.missing)

    def self_s(self, *names, parent_not=None):
        return sum(own for name, parent, own, _ in self.rows
                   if name in names and (parent_not is None or parent != parent_not))

    def total_s(self, name):
        return sum(dur for n, _, _, dur in self.rows if n == name)

    def calls(self, name):
        return sum(1 for n, _, _, _ in self.rows if n == name)

    def ratio(self, num, den):
        return self.counters.get(num, 0) / max(self.counters.get(den, 0), 1)

    def shares(self):
        """Self time per span name as a share of all benchmark operations."""
        total = sum(dur for name, parent, _, dur in self.rows
                    if name.startswith("bench.") and parent is None)
        by_name = {}
        for name, _, own, _ in self.rows:
            by_name[name] = by_name.get(name, 0.0) + own
        return {k: v / total for k, v in sorted(by_name.items(), key=lambda kv: -kv[1])}


@dataclass(frozen=True)
class LayerMetric:
    unit: str
    needs: tuple         # span names the value is computed from
    value: object        # Profile -> number
    moves: str           # end-to-end metric and workload it should move


TRAINING = "items_per_s on train_tier1 and train_paper"
DISCOVER = "items_per_s on serve_rank (discover queries per second)"
COLD = "cold_start_s on every workload, and setup_s"

LAYER_METRICS = {
    "autodiff.backward_s": LayerMetric(
        "s", ("autodiff.backward",),
        lambda p: p.self_s("autodiff.backward"),
        "items_per_s on train_tier1; little change on train_paper"),
    "autodiff.topo_order_s": LayerMetric(
        "s", ("autodiff._topo_order",),
        lambda p: p.self_s("autodiff._topo_order"),
        "items_per_s on train_tier1; little change on train_paper"),
    "autodiff.tape_nodes_per_batch": LayerMetric(
        "count", ("autodiff.backward",),
        lambda p: p.ratio("tape_nodes", "backward_calls"),
        "items_per_s on train_tier1; little change on train_paper"),
    "encoder.forward_s": LayerMetric(
        "s", ("encoder.encode_batch_vars", "encoder.encode_batch"),
        lambda p: p.self_s("encoder.encode_batch_vars",
                           parent_not="encoder.encode_batch"),
        TRAINING),
    "encoder.infer_s": LayerMetric(
        "s", ("encoder.encode_batch",),
        lambda p: p.total_s("encoder.encode_batch"),
        DISCOVER + ", evaluate_s"),
    "encoder.windows_encoded": LayerMetric(
        "count", ("encoder.encode_batch_vars",),
        lambda p: p.counters.get("windows_encoded", 0),
        TRAINING + "; " + DISCOVER),
    "encoder.padded_step_frac": LayerMetric(
        "ratio", ("encoder.encode_batch_vars",),
        lambda p: 1.0 - p.ratio("lstm_steps_useful", "lstm_steps"),
        "items_per_s and peak_rss_mb on train_paper"),
    "matcher.pair_vars_s": LayerMetric(
        "s", ("matcher.pair_score_vars",),
        lambda p: p.self_s("matcher.pair_score_vars"),
        "items_per_s on train_tier1; no change on train_paper"),
    "matcher.match_score_us": LayerMetric(
        "us", ("matcher.match_score",),
        lambda p: 1e6 * p.self_s("matcher.match_score")
        / max(p.calls("matcher.match_score"), 1),
        "evaluate_s on every workload"),
    "matcher.pairs_scored": LayerMetric(
        "count", ("matcher.match_score",),
        lambda p: p.calls("matcher.match_score"),
        "evaluate_s on every workload"),
    "embeddings.knn_s": LayerMetric(
        "s", ("embeddings.nearest_neighbors",),
        lambda p: p.self_s("embeddings.nearest_neighbors")
        / max(p.calls("embeddings.nearest_neighbors"), 1),
        "evaluate_s; " + DISCOVER + "; no change to items_per_s on the "
        "training workloads"),
    "embeddings.knn_rows_scanned": LayerMetric(
        "count", ("embeddings.nearest_neighbors",),
        lambda p: p.counters.get("knn_rows_scanned", 0),
        "evaluate_s; " + DISCOVER),
    "embeddings.load_s": LayerMetric(
        "s", ("embeddings.load_embeddings",),
        lambda p: p.self_s("embeddings.load_embeddings"), COLD),
    "training.optimizer_step_s": LayerMetric(
        "s", ("training.optimizer.step",),
        lambda p: p.self_s("training.optimizer.step"),
        TRAINING),
    "training.clip_s": LayerMetric(
        "s", ("training.clip_gradients",),
        lambda p: p.self_s("training.clip_gradients"), TRAINING),
    "training.load_checkpoint_s": LayerMetric(
        "s", ("training.load_checkpoint",),
        lambda p: p.self_s("training.load_checkpoint"), COLD),
    "corpus.ingest_s": LayerMetric(
        "s", ("corpus.ingest",),
        lambda p: p.self_s("corpus.ingest"),
        "setup_s and ingest_lines_per_s on every workload"),
    "corpus.retrieve_s": LayerMetric(
        "s", ("corpus.retrieve_contexts",),
        lambda p: p.self_s("corpus.retrieve_contexts"),
        DISCOVER + "; " + TRAINING),
    "corpus.windows_retrieved": LayerMetric(
        "count", ("corpus.retrieve_contexts",),
        lambda p: p.counters.get("windows_retrieved", 0),
        DISCOVER + "; " + TRAINING),
    "corpus.sample_s": LayerMetric(
        "s", ("corpus.sample_pairs", "corpus.sample_triplets"),
        lambda p: p.self_s("corpus.sample_pairs", "corpus.sample_triplets"),
        TRAINING),
    "cli.load_index_s": LayerMetric(
        "s", ("cli.load_index",),
        lambda p: p.self_s("cli.load_index"), COLD),
    "cli.save_index_s": LayerMetric(
        "s", ("cli.save_index",),
        lambda p: p.self_s("cli.save_index"), "setup_s on every workload"),
    "cli.index_bytes": LayerMetric(
        "bytes", ("cli.save_index",),
        lambda p: p.counters.get("index_bytes", 0), COLD),
    "evaluation.discover_self_s": LayerMetric(
        "s", ("evaluation.discover",),
        lambda p: p.self_s("evaluation.discover"), DISCOVER),
    "evaluation.evaluate_self_s": LayerMetric(
        "s", ("evaluation.evaluate",),
        lambda p: p.self_s("evaluation.evaluate"), "evaluate_s on every workload"),
    "synthetic.generate_s": LayerMetric(
        "s", ("synthetic.generate",),
        lambda p: p.self_s("synthetic.generate"), "setup_s only"),
}

# Filled from the paired untraced/traced operations, not from spans.
OVERHEAD_METRICS = {
    "tracing.overhead_ms_per_op": ("ms", "none: the cost of tracing itself"),
    "tracing.overhead_frac": ("ratio", "none: the cost of tracing itself"),
}


def moves():
    """Per-layer metric -> the end-to-end metric and workload it should move."""
    out = {name: metric.moves for name, metric in LAYER_METRICS.items()}
    out.update({name: text for name, (_, text) in OVERHEAD_METRICS.items()})
    return out


def units():
    out = {name: metric.unit for name, metric in LAYER_METRICS.items()}
    out.update({name: unit for name, (unit, _) in OVERHEAD_METRICS.items()})
    return out


def layer_values(tracer):
    """Per-layer metric values; a metric whose spans were never wrapped is left out.

    Returns (name -> value, Profile).
    """
    profile = Profile(tracer)
    out = {}
    for name, metric in LAYER_METRICS.items():
        if profile.missing & set(metric.needs):
            continue
        out[name] = float(metric.value(profile))
    return out, profile
