"""Training: metric-learning objectives, Adam, the loop, checkpoints.

Entity pairs (or triplets) are sampled from the train synsets each epoch,
their contexts retrieved and encoded in one batched pass, matched and scored,
and the siamese or triplet loss backpropagated through the whole stack.  A
batch's tape is the seven weight leaves, one encoder node, one matcher node
(each pair a group of one candidate, each triplet of two) and one loss node;
the word embeddings stay frozen.
Validation AUC on held-out synsets picks the parameters to keep.

The model is float32 (DTYPE): `init_model_params` and `load_checkpoint`
return float32 weights, and the tape, the losses, the clipped gradients and
Adam's moments keep that dtype, so every product is an sgemm.  The word
embeddings stay float64; `train` casts them to the model dtype once, for
every batch and every validation `Scorer` of the run.  Only
`gradcheck_model` builds float64 weights, for its finite differences.

Checkpoints are canonical JSON: sorted keys, parameters as base64-encoded
little-endian float32 blocks, so saving the same model twice gives the same
bytes.
"""

import base64
import copy
import json
import logging
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import autodiff as ad
from . import corpus, encoder, evaluation, matcher
from .errors import DataError, NumericError
from .rng import check_seed, stream_rng

log = logging.getLogger(__name__)

OBJECTIVES = ("siamese", "triplet")
ENCODERS = ("anchored", "bilstm")

CHECKPOINT_FORMAT = "synmatch-checkpoint"
CHECKPOINT_VERSION = 3
# the dtype of every model weight, and of a checkpoint's data blocks
DTYPE = np.float32
# the values each field type takes; a bool is never read as a number
_KINDS = {bool: bool, int: int, float: (int, float), str: str}
# the global gradient norm cap: each batch's gradients are scaled down to it
CLIP_NORM = 5.0


@dataclass
class TrainConfig:
    objective: str = "siamese"
    encoder: str = "anchored"
    leaky: bool = True
    contexts_per_entity: int = 20
    max_context_len: int = 50
    d_ce: int = 256
    margin: float = 0.75
    batch_size: int = 16
    learning_rate: float = 0.0003
    epochs: int = 40
    seed: int = 0
    pairs_per_epoch: int = 0

    def validate(self):
        for f in fields(self):
            value, kinds = getattr(self, f.name), _KINDS[f.type]
            if not isinstance(value, kinds) or isinstance(value, bool) != (f.type is bool):
                raise DataError(f"{f.name} must be {f.type.__name__}, got {value!r}")
        if self.objective not in OBJECTIVES:
            raise DataError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")
        if self.encoder not in ENCODERS:
            raise DataError(f"encoder must be one of {ENCODERS}, got {self.encoder!r}")
        for name, floor in (("contexts_per_entity", 1), ("max_context_len", 1),
                            ("batch_size", 1), ("epochs", 0), ("pairs_per_epoch", 0)):
            corpus.check_count(name, getattr(self, name), floor)
        if self.d_ce < 2 or self.d_ce % 2:
            raise DataError(f"d_ce must be a positive even number, got {self.d_ce}")
        if not 0 < self.margin < math.inf:
            raise DataError(f"margin must be positive and finite, got {self.margin}")
        if not 0 <= self.learning_rate < math.inf:
            raise DataError(f"learning_rate must be non-negative and finite, "
                            f"got {self.learning_rate}")
        check_seed(self.seed)
        return self

    def to_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _coerce(field, raw):
    if field.type is bool:
        low = raw.strip().lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise DataError(f"config key {field.name}: cannot read {raw!r} as a boolean")
    try:
        if field.type is int:
            return int(raw)
        if field.type is float:
            return float(raw)
    except ValueError:
        raise DataError(f"config key {field.name}: cannot read {raw!r} as {field.type}")
    return raw.strip()


def parse_config_text(text, base=None):
    """Apply key=value lines (blank lines and # comments allowed) to a config."""
    config = base if base is not None else TrainConfig()
    by_name = {f.name: f for f in fields(TrainConfig)}
    updates = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"config line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in by_name:
            raise DataError(f"config line {lineno}: unknown key {key!r}")
        updates[key] = _coerce(by_name[key], value)
    return replace(config, **updates)


# ---------------------------------------------------------------------------
# losses

def _mean_node(terms, parents, backward):
    return ad.Var(np.array([[terms.sum() * (1.0 / terms.size)]]), parents, backward)


def siamese_loss(s, y, margin):
    """Mean contrastive loss over the scores in the Var s under the constant
    labels y (1 synonym, 0 not; one per score, or one for all): (1 - s)^2 / 4
    for a synonym pair, max(s - margin, 0)^2 otherwise.  One tape node, whose
    backward gives each score -(1 - s) y / 2 + 2 max(s - margin, 0) (1 - y),
    divided by the number of scores."""
    y = np.asarray(y, dtype=s.value.dtype)
    d = 1.0 - s.value
    r = np.maximum(s.value - margin, 0.0)
    terms = y * (d * d * 0.25) + (1.0 - y) * (r * r)

    def backward(g):
        # the products follow the chain rule through the terms factor by
        # factor; another order rounds differently and moves every model
        c = g[0, 0] * (1.0 / terms.size)
        return (-(2.0 * d * (c * y * 0.25))
                + 2.0 * r * (c * (1.0 - y)) * (s.value - margin > 0.0),)

    return _mean_node(terms, (s,), backward)


def triplet_loss(s, margin):
    """Mean triplet margin loss max(s_neg - s_pos + margin, 0) over the rows
    (s_neg, s_pos) of the (N, 2) scores in the Var s: one tape node."""
    z = s.value[:, :1] - s.value[:, 1:] + margin
    terms = np.maximum(z, 0.0)

    def backward(g):
        d_neg = g[0, 0] * (1.0 / terms.size) * (z > 0.0)
        return (np.hstack([d_neg, -d_neg]),)

    return _mean_node(terms, (s,), backward)


# ---------------------------------------------------------------------------
# optimizer

class Adam:
    """Adam (Kingma & Ba 2014) at its paper's constants: bias-corrected first
    and second moments, kept per parameter name."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, lr):
        self.lr = float(lr)     # a Python float, so float32 weights stay float32
        self.t = 0
        self.m, self.v = {}, {}

    def step(self, params, grads):
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        for name, g in grads.items():
            if name not in self.m:
                self.m[name], self.v[name] = np.zeros_like(g), np.zeros_like(g)
            m, v = self.m[name], self.v[name]
            m += (1 - b1) * (g - m)
            v += (1 - b2) * (g * g - v)
            m_hat = m / (1 - b1 ** self.t)
            v_hat = v / (1 - b2 ** self.t)
            params[name] = params[name] - self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)


def clip_gradients(grads):
    """Scale all gradients down to the global norm cap CLIP_NORM; returns
    their norm before clipping.

    A norm that is not finite raises NumericError before any gradient is
    scaled.  The factor is a Python float, which numpy 2 takes in the
    gradients' dtype; an np.float64 factor would make them float64."""
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if not math.isfinite(total):
        raise NumericError(f"gradient norm is {total}")
    if total > CLIP_NORM:
        factor = CLIP_NORM / total
        for name in grads:
            grads[name] = grads[name] * factor
    return total


# ---------------------------------------------------------------------------
# model assembly

def init_model_params(config, d_embed, rng):
    """Named float32 parameter dict for the configured model over
    d_embed-wide embeddings."""
    params = encoder.init_encoder_params(d_embed, config.d_ce, rng)
    # identity start: matching an entity against itself then scores exactly 1
    params["match.w_bm"] = np.eye(config.d_ce)
    return {name: w.astype(DTYPE) for name, w in params.items()}


def _item_entities(item):
    """An item as a group, its left entity then its candidates: a triplet's are
    (negative, positive), so the negative's gradient share is added first."""
    if isinstance(item, corpus.TrainingTriplet):
        return (item.anchor, item.negative, item.positive)
    return (item.a, item.b)


def batch_loss_builder(items, contexts, config, emb):
    """Builder for ad.grad: mean loss over a batch of pairs or triplets.

    contexts maps entity id -> list of ContextWindow (length P); all windows
    in the batch are encoded in one pass, and one matcher node scores every
    item, as a group, from the encoder output's rows.
    """
    order = sorted({eid for item in items for eid in _item_entities(item)})
    windows, rows = evaluation.stack_windows(contexts, order)
    groups = np.array([[rows[eid] for eid in _item_entities(item)] for item in items])

    def builder(v):
        encoded = encoder.encode_batch_vars(windows, v, emb, config.encoder)
        s = matcher.pair_score_vars(encoded, v["match.w_bm"], config.leaky,
                                    (groups[:, 0], groups[:, 1:]))
        if isinstance(items[0], corpus.TrainingTriplet):
            return triplet_loss(s, config.margin)
        return siamese_loss(s, [[item.label] for item in items], config.margin)

    return builder


def gradcheck_model(seed=0):
    """Finite-difference check of the whole model on a small random setup.

    Covers both objectives, both encoder variants, and the leaky unit on and
    off.  Returns a list of (label, FiniteDiffReport), one per combination.
    The weights are the model's initial ones made float64 here: the model
    code follows its weights' dtype, so the check runs the code training
    runs, at a precision the finite differences resolve.
    """
    n_vocab, d_embed, n_entities = 20, 4, 4
    base = stream_rng(seed, "init", 99)
    table = base.normal(scale=0.5, size=(n_vocab, d_embed))
    table[corpus.PAD] = 0.0
    ents = list(range(2, 2 + n_entities))
    reports = []
    for objective in OBJECTIVES:
        for variant in ENCODERS:
            for leaky in (False, True):
                config = TrainConfig(
                    objective=objective, encoder=variant, leaky=leaky,
                    d_ce=4, contexts_per_entity=2,
                    max_context_len=5, seed=seed).validate()
                rng = stream_rng(seed, "init", len(reports))
                ctx = {}
                for eid in ents:
                    wins = []
                    for _ in range(config.contexts_per_entity):
                        ids = rng.integers(2, n_vocab, size=5)
                        pos = int(rng.integers(5))
                        ids[pos] = eid
                        wins.append(corpus.ContextWindow(tuple(int(t) for t in ids), pos))
                    ctx[eid] = wins
                if objective == "triplet":
                    items = [corpus.TrainingTriplet(ents[0], ents[1], ents[2]),
                             corpus.TrainingTriplet(ents[1], ents[0], ents[3])]
                else:
                    items = [corpus.TrainingPair(ents[0], ents[1], 1),
                             corpus.TrainingPair(ents[2], ents[3], 0)]
                params = {name: w.astype(np.float64)
                          for name, w in init_model_params(config, d_embed, rng).items()}
                builder = batch_loss_builder(items, ctx, config, table)
                report = ad.finite_diff_check(builder, params, eps=1e-5)
                label = f"{objective}/{variant}/leaky={'on' if leaky else 'off'}"
                reports.append((label, report))
    return reports


def _param_norms(params):
    return ", ".join(f"{k}={np.linalg.norm(v):.3e}" for k, v in sorted(params.items()))


def _auto_items_per_epoch(store, config):
    """A triplet per positive train pair, or that pair and one negative."""
    pool = len(corpus._positive_pool(store))
    return pool if config.objective == "triplet" else 2 * pool


def train(config, data, table):
    """Run the training loop; returns (params, history).

    History holds one record per epoch: mean training loss and validation
    AUC (None when there is no valid split).  The returned parameters are
    the best-validation snapshot, or the final epoch's when no validation
    pairs exist.
    """
    config.validate()
    store = data.store
    if not store.split:
        # no split assigned: train on everything
        store = corpus.SynsetStore(synsets=list(store.synsets),
                                   split={i: "train" for i in range(len(store.synsets))})
    if not store.synset_ids("train"):
        raise DataError("train split is empty")

    P = config.contexts_per_entity
    T = config.max_context_len
    params = init_model_params(config, table.dim, stream_rng(config.seed, "init"))
    emb = table.matrix.astype(DTYPE)        # frozen: cast once, not per batch
    opt = Adam(config.learning_rate)

    valid_pairs = evaluation.make_eval_pairs(store, "valid", stream_rng(config.seed, "eval", 1))
    n_pos = sum(p.label for p in valid_pairs)
    if store.synset_ids("valid") and not 0 < n_pos < len(valid_pairs):
        raise DataError(
            f"the valid split yields {n_pos} positive and {len(valid_pairs) - n_pos} "
            f"negative pairs; validation AUC needs both, so two or more synsets, "
            f"one of them with two or more entities")
    valid_ids = sorted({eid for p in valid_pairs for eid in (p.a, p.b)})
    # drawn once for all epochs: an entity without context fails before the first
    valid_windows = evaluation.eval_contexts(data, valid_ids, P, T, config.seed)

    n_items = config.pairs_per_epoch or _auto_items_per_epoch(store, config)
    history = []
    best_auc = None
    best_params = None

    for epoch in range(config.epochs):
        ep_rng = stream_rng(config.seed, "train", epoch)
        if config.objective == "triplet":
            items = corpus.sample_triplets(store, n_items, ep_rng)
        else:
            items = corpus.sample_pairs(store, n_items, ep_rng)

        # every epoch draws fresh contexts, in entity id order
        needed = sorted({eid for item in items for eid in _item_entities(item)})
        contexts = {eid: corpus.retrieve_contexts(data, eid, P, T, ep_rng) for eid in needed}

        epoch_loss = 0.0
        for batch_no in range(0, len(items), config.batch_size):
            batch = items[batch_no:batch_no + config.batch_size]
            builder = batch_loss_builder(batch, contexts, config, emb)
            try:
                value, grads = ad.grad(builder, params)
                clip_gradients(grads)
            except NumericError as err:
                raise NumericError(
                    f"{err} (epoch {epoch}, batch {batch_no // config.batch_size}; "
                    f"parameter norms: {_param_norms(params)})") from err
            opt.step(params, grads)
            epoch_loss += value * len(batch)
        epoch_loss /= len(items)

        valid_auc = None
        if valid_pairs:
            score = evaluation.Scorer(params, config, data, emb, config.seed, valid_windows)
            scores = np.concatenate(score([p.a for p in valid_pairs],
                                          [[p.b] for p in valid_pairs]))
            valid_auc = evaluation.auc([(s, p.label) for s, p in zip(scores, valid_pairs)])
            if best_auc is None or valid_auc > best_auc:
                best_auc = valid_auc
                best_params = copy.deepcopy(params)
        history.append({"epoch": epoch, "loss": epoch_loss, "valid_auc": valid_auc})
        log.info("epoch %d: loss %.6f%s", epoch, epoch_loss,
                 "" if valid_auc is None else f", valid auc {valid_auc:.4f}")

    if best_params is not None:
        params = best_params
    return params, history


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(path, params, config, meta=None):
    """Canonical JSON checkpoint; identical models always produce identical
    bytes.  A weight that is not a float32 array is a DataError naming it:
    the blocks hold float32 and nothing is rounded on the way."""
    wrong = sorted(name for name, arr in params.items()
                   if not isinstance(arr, np.ndarray) or arr.dtype != DTYPE)
    if wrong:
        raise DataError(f"checkpoint weights must be float32; not so: {wrong}")
    blob = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": config.to_dict(),
        "meta": dict(meta or {}),
        "params": {
            name: {
                "shape": list(arr.shape),
                "data": base64.b64encode(
                    np.ascontiguousarray(arr, dtype="<f4").tobytes()).decode("ascii"),
            }
            for name, arr in sorted(params.items())
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(blob, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _json_object(value, what):
    if not isinstance(value, dict):
        raise DataError(f"checkpoint {what} must be a JSON object, got {type(value).__name__}")
    return value


def load_checkpoint(path):
    """Read a checkpoint; returns (params, config, meta)."""
    with corpus.open_text(path) as fh:
        try:
            blob = json.load(fh)
        except json.JSONDecodeError as err:
            raise DataError(f"checkpoint {path} is not valid JSON: {err}") from err
    if not isinstance(blob, dict) or blob.get("format") != CHECKPOINT_FORMAT:
        raise DataError(f"{path} is not a model checkpoint")
    version = blob.get("version")
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise DataError(f"checkpoint version {version} unsupported "
                        f"(expected {CHECKPOINT_VERSION})")
    cfg_dict = _json_object(blob.get("config", {}), "config")
    unknown = set(cfg_dict) - {f.name for f in fields(TrainConfig)}
    if unknown:
        raise DataError(f"checkpoint config has unknown keys: {sorted(unknown)}")
    config = TrainConfig(**cfg_dict).validate()
    params = {}
    for name, entry in _json_object(blob.get("params", {}), "params").items():
        shape, data = _json_object(entry, f"parameter {name}").get("shape"), entry.get("data")
        if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape) \
                or not isinstance(data, str):
            raise DataError(f"parameter {name}: needs a shape of non-negative integers "
                            f"and a base64 data string")
        try:
            raw = base64.b64decode(data, validate=True)
        except ValueError as err:
            raise DataError(f"parameter {name}: data is not base64 ({err})") from err
        count = math.prod(shape)
        if len(raw) != count * 4:
            raise DataError(
                f"parameter {name}: data block holds {len(raw) // 4} values "
                f"but shape {shape} needs {count}")
        params[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).astype(DTYPE)
    _check_params(params, config)
    return params, config, blob.get("meta", {})


def _check_params(params, config):
    """Raise DataError unless `params` has exactly the names and shapes that
    `init_model_params` builds for `config` (None: any length)."""
    names = set(evaluation.WEIGHT_NAMES)
    missing, unexpected = sorted(names - set(params)), sorted(set(params) - names)
    if missing or unexpected:
        raise DataError(f"checkpoint parameters do not match its config: "
                        f"missing {missing}, unexpected {unexpected}")
    d_ce = config.d_ce
    wx = params["enc.fw.Wx"]
    d_embed = wx.shape[0] if wx.ndim else None
    shapes = {"match.w_bm": (d_ce, d_ce)}
    for direction in encoder.DIRECTIONS:
        shapes[f"enc.{direction}.Wx"] = (d_embed, 2 * d_ce)
        shapes[f"enc.{direction}.Wh"] = (d_ce // 2, 2 * d_ce)
        shapes[f"enc.{direction}.b"] = (1, 2 * d_ce)
    for name in sorted(names):
        got, want = params[name].shape, shapes[name]
        if len(got) != len(want) or any(w not in (None, g) for g, w in zip(got, want)):
            raise DataError(f"parameter {name} has shape {list(got)}, but the "
                            f"config needs {['any' if w is None else w for w in want]}")

