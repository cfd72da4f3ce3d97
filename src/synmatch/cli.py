"""Command-line entry point wiring the modules into reproducible workflows.

Subcommands: ingest, train, evaluate, score, discover, gradcheck, synth.
Every run echoes its resolved configuration before doing work, all file
paths resolve relative to --workdir, and a config file given with --config
overrides flag values.  Exit codes: 0 success, 1 usage error, 2 data error,
3 numeric failure.
"""

import argparse
import inspect
import os
import sys
import tokenize
import zipfile
import zlib
from dataclasses import fields

import numpy as np

from . import corpus, embeddings, evaluation, synthetic, training
from .errors import DataError, NumericError, SynmatchError
from .rng import stream_rng

INDEX_FORMAT = "synmatch-index"
INDEX_VERSION = 2
# split codes in the index: 0 is a synset with no split
SPLIT_NAMES = (None, *corpus.SPLITS)
# the arrays of an index file besides format and version, with their dtypes
INDEX_ARRAYS = {"vocab": np.uint8, "tokens": np.int32, "line_start": np.int64,
                "synset_members": np.int32, "synset_start": np.int64, "split": np.int8}
# what numpy's .npy header parser, zipfile and zlib raise on damaged bytes
_UNREADABLE = (ValueError, EOFError, OSError, RuntimeError, zipfile.BadZipFile,
               zlib.error, tokenize.TokenError)
GRADCHECK_TOL = 1e-4
# every path flag of any subcommand; main resolves each one present against --workdir
PATH_FLAGS = ("corpus", "synsets", "out", "index", "embeddings", "checkpoint", "history",
              "config")
# synth's size and noise flags: generate's keywords and defaults, taken once
SYNTH_KEYWORDS = {name: p.default for name, p in
                  inspect.signature(synthetic.generate).parameters.items()
                  if name not in ("out_dir", "seed")}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises instead of exiting so main() can map usage errors to code 1."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# plumbing

def _fmt_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, list):
        return " ".join(map(str, v))
    return str(v)


def _echo_args(args, config=None, skip=()):
    """Print the flags not in `skip` over `config`'s fields: a run that reads
    a checkpoint echoes its own --seed, not the seed the model trained with."""
    drop = {"func"} | set(skip)
    pairs = {} if config is None else config.to_dict()
    pairs.update((k.replace("_", "-"), v) for k, v in vars(args).items()
                 if k not in drop and v is not None)
    print("# resolved config")
    for key in sorted(pairs):
        print(f"{key}={_fmt_value(pairs[key])}")


def save_index(path, data):
    """Write the index as an uncompressed .npz of plain arrays.

    It holds the vocabulary (UTF-8 tokens joined by newlines; a token never
    holds whitespace), the flat token ids with their line offsets, the synset
    members with their offsets, and a split code per synset.  The occurrence
    index is not stored: load_index derives it again from the token ids.
    """
    store = data.store
    arrays = {
        "format": np.array(INDEX_FORMAT),
        "version": np.array(INDEX_VERSION, dtype=np.int64),
        "vocab": np.frombuffer("\n".join(data.vocab.id_to_token).encode("utf-8"),
                               dtype=np.uint8),
        "tokens": data.tokens,
        "line_start": data.line_start,
        "synset_members": np.array([e for m in store.synsets for e in m], dtype=np.int32),
        "synset_start": np.cumsum([0] + [len(m) for m in store.synsets], dtype=np.int64),
        "split": np.array([SPLIT_NAMES.index(store.split.get(si)) for si in range(len(store))],
                          dtype=np.int8),
    }
    # through a handle: given a name, np.savez would append ".npz" to it
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _read_index_arrays(path):
    """Every array of an .npz file; DataError for anything else."""
    with open(path, "rb") as fh:
        try:
            npz = np.load(fh, allow_pickle=False)
            if not isinstance(npz, np.lib.npyio.NpzFile):
                raise ValueError("a single .npy array, not an .npz archive")
            with npz:
                return {key: npz[key] for key in npz.files}
        except _UNREADABLE as exc:
            raise DataError(
                f"{path} is not a context index file ({exc}); indexes written "
                f"before version {INDEX_VERSION} were pickles: re-run `synmatch ingest`"
            ) from exc


def load_index(path):
    """Read an index written by save_index; nothing in the file is unpickled.

    The occurrence index is derived from the stored token ids, so no hand-edited
    file can disagree with its lines; each line's tuple is built on first use.
    """
    arrays = _read_index_arrays(path)

    def bad(why):
        return DataError(f"index {path}: {why}; re-run `synmatch ingest`")

    fmt, version = arrays.get("format"), arrays.get("version")
    if fmt is None or fmt.shape != () or fmt.dtype.kind != "U" or fmt.item() != INDEX_FORMAT:
        raise bad("not a context index file")
    if version is None or version.shape != () or version.dtype.kind != "i":
        raise bad("no index version")
    if version.item() != INDEX_VERSION:
        raise bad(f"index version {version.item()} unsupported (expected {INDEX_VERSION})")
    for key, dtype in INDEX_ARRAYS.items():
        if key not in arrays:
            raise bad(f"array {key!r} is missing")
        if arrays[key].dtype != dtype or arrays[key].ndim != 1:
            raise bad(f"array {key!r} is {arrays[key].dtype} of shape {arrays[key].shape}, "
                      f"expected 1-D {np.dtype(dtype)}")
    try:
        tokens = arrays["vocab"].tobytes().decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise bad(f"vocabulary is not UTF-8 ({exc})") from exc
    vocab = corpus.Vocabulary(tokens)
    if vocab.id_to_token != tokens:
        raise bad("vocabulary must start with <unk>, <pad> and hold no token twice")
    for ids, starts, what in (("tokens", "line_start", "line"),
                              ("synset_members", "synset_start", "synset")):
        ids, starts = arrays[ids], arrays[starts]
        if len(starts) == 0 or starts[0] != 0 or starts[-1] != len(ids) \
                or np.any(np.diff(starts) <= 0):
            raise bad(f"{what} offsets do not cut the ids into non-empty runs")
        if len(ids) and not 0 <= ids.min() <= ids.max() < len(vocab):
            raise bad(f"{what} token id outside the vocabulary of {len(vocab)}")
    codes = arrays["split"]
    if len(codes) != len(arrays["synset_start"]) - 1 or np.any(codes < 0) \
            or np.any(codes >= len(SPLIT_NAMES)):
        raise bad(f"split needs one code in 0..{len(SPLIT_NAMES) - 1} per synset")
    store = corpus.SynsetStore(
        synsets=corpus.unflatten(arrays["synset_members"], arrays["synset_start"]),
        split={si: SPLIT_NAMES[c] for si, c in enumerate(codes.tolist()) if c})
    return corpus.CorpusData(vocab=vocab, tokens=arrays["tokens"],
                             line_start=arrays["line_start"], store=store)


def _apply_config(args, base):
    """Overlay the --config file (if any) on a TrainConfig built from flags."""
    if args.config is None:
        return base.validate()
    with corpus.open_text(args.config) as fh:
        return training.parse_config_text(fh.read(), base=base).validate()


def _load_model(args, entities=()):
    """Load --index, --checkpoint and --embeddings, check that every name in
    entities is known and echo the config; returns (data, params, config,
    table).  A --config file may change how the model is run, not its width:
    a d_ce other than the checkpoint's is a DataError.  An embedding width
    other than the model's is the Scorer's DataError."""
    if not np.isfinite(getattr(args, "threshold", 0.0)):
        raise DataError(f"--threshold must be a finite number, got {args.threshold}")
    data = load_index(args.index)
    params, saved, _ = training.load_checkpoint(args.checkpoint)
    config = _apply_config(args, saved)
    if config.d_ce != saved.d_ce:
        raise DataError(f"--config sets d_ce={config.d_ce}, but checkpoint "
                        f"{args.checkpoint} holds a model of d_ce={saved.d_ce}")
    table = embeddings.load_embeddings(args.embeddings, data.vocab)
    corpus.entity_ids(entities, data.vocab, len(data.vocab))
    _echo_args(args, config)
    return data, params, config, table


# ---------------------------------------------------------------------------
# subcommands

def cmd_ingest(args):
    _echo_args(args)
    data = corpus.ingest(args.corpus, args.synsets, min_count=args.min_count)
    data.store = corpus.split_synsets(data.store, args.valid_frac,
                                      args.test_frac, stream_rng(args.seed, "ingest"))
    save_index(args.out, data)
    counts = {name: len(data.store.synset_ids(name))
              for name in corpus.SPLITS}
    print(f"ingested {len(data.line_start) - 1} lines, vocabulary {len(data.vocab)}, "
          f"{len(data.store.entities())} entities in {len(data.store)} synsets")
    print(f"split train={counts['train']} valid={counts['valid']} "
          f"test={counts['test']}")
    print(f"wrote {args.out}")
    return 0


def cmd_train(args):
    data = load_index(args.index)
    flags = {f.name: getattr(args, f.name) for f in fields(training.TrainConfig)
             if f.name != "seed"}
    config = _apply_config(args, training.TrainConfig(seed=args.seed, **flags))
    _echo_args(args, config, skip=[f.name for f in fields(training.TrainConfig)])
    table = embeddings.load_embeddings(args.embeddings, data.vocab)
    params, history = training.train(config, data, table)
    training.save_checkpoint(args.checkpoint, params, config,
                             meta={"trained_epochs": len(history)})
    lines = []
    for h in history:
        auc = "none" if h["valid_auc"] is None else f"{h['valid_auc']:.6f}"
        lines.append(f"epoch={h['epoch']} loss={h['loss']:.12e} valid_auc={auc}\n")
    with open(args.history, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    print("".join(lines), end="")
    print(f"wrote {args.checkpoint}")
    print(f"wrote {args.history}")
    return 0


def _parse_ks(text):
    try:
        ks = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise DataError(f"bad --ks value {text!r}: {exc}") from exc
    if not ks or any(k < 1 for k in ks):
        raise DataError(f"--ks needs positive integers, got {text!r}")
    return ks


def cmd_evaluate(args):
    data, params, config, table = _load_model(args)
    ks = _parse_ks(args.ks)
    report = evaluation.evaluate(params, config, data, table, split=args.split,
                                 seed=args.seed, ks=ks, knn_k=args.knn_k)
    text = report.to_text()
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(text, end="")
    print(f"wrote {args.out}")
    return 0


def cmd_score(args):
    data, params, config, table = _load_model(args, [args.entity_a, args.entity_b])
    s = evaluation.score_pair(params, config, data, table.matrix, args.entity_a,
                              args.entity_b, seed=args.seed)
    print(f"{s:.6f}")
    return 0


def cmd_discover(args):
    """Discover every query in one pass on one loaded model; every result is
    in hand before the first block is printed, so a failing query prints none."""
    data, params, config, table = _load_model(args, args.query)
    results = evaluation.discover_many(params, config, data, table, args.query, k=args.topk,
                                       threshold=args.threshold, seed=args.seed)
    for result in results:
        print(f"CANDIDATE ENTITIES (top {len(result.candidates)} by embedding cosine)")
        for eid, sim in result.candidates:
            print(f"  {data.vocab.token(eid)}  {sim:.6f}")
        print(f"FINAL ENTITIES (model score > {args.threshold:.6f})")
        for eid, s in result.accepted:
            print(f"  {data.vocab.token(eid)}  {s:.6f}")
    return 0


def cmd_gradcheck(args):
    _echo_args(args)
    reports = training.gradcheck_model(seed=args.seed)
    worst = 0.0
    for label, report in reports:
        print(f"{label}: {report}")
        worst = max(worst, report.max_rel_error)
    print(f"worst relative error {worst:.3e}")
    if worst >= GRADCHECK_TOL:
        print(f"FAIL: above tolerance {GRADCHECK_TOL:g}", file=sys.stderr)
        return 3
    return 0


def cmd_synth(args):
    _echo_args(args)
    paths = synthetic.generate(args.out, seed=args.seed,
                               **{name: getattr(args, name) for name in SYNTH_KEYWORDS})
    for name in ("corpus", "synsets", "embeddings"):
        print(f"wrote {paths[name]}")
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--workdir", default=".",
                        help="directory all relative paths resolve against")
    common.add_argument("--seed", type=int, default=0,
                        help="master seed feeding the per-subsystem streams")
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", default=None,
                        help="key=value file whose entries override flags")
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--index", required=True, help="index written by ingest")
    model.add_argument("--checkpoint", required=True, help="model written by train")
    model.add_argument("--embeddings", required=True, help="word embedding text file")

    parser = _Parser(prog="synmatch",
                     description="Context-based entity synonym detection.")
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("ingest", parents=[common],
                       help="build a context index from a corpus and synset file")
    p.add_argument("--corpus", required=True, help="tokenized corpus, one line per text")
    p.add_argument("--synsets", required=True, help="tab-separated synonym sets")
    p.add_argument("--out", default="index.npz")
    p.add_argument("--min-count", type=int, default=5,
                   help="drop entities with fewer corpus occurrences")
    p.add_argument("--valid-frac", type=float, default=0.0)
    p.add_argument("--test-frac", type=float, default=0.0)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", parents=[common, config],
                       help="train a matching model on an ingested index")
    p.add_argument("--index", required=True)
    p.add_argument("--embeddings", required=True, help="word embedding text file")
    p.add_argument("--checkpoint", default="model.json")
    p.add_argument("--history", default="history.txt")
    choices = {"objective": training.OBJECTIVES, "encoder": training.ENCODERS}
    helps = {"d_ce": "context encoding width (both directions together)"}
    for f in fields(training.TrainConfig):
        if f.name == "seed":
            continue
        kind = ({"action": argparse.BooleanOptionalAction} if f.type is bool
                else {"type": f.type, "choices": choices.get(f.name)})
        p.add_argument("--" + f.name.replace("_", "-"), default=f.default,
                       help=helps.get(f.name), **kind)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", parents=[common, config, model],
                       help="compute AUC, MAP and ranking metrics on a split")
    p.add_argument("--split", default="test", choices=corpus.SPLITS)
    p.add_argument("--out", default="metrics.txt")
    p.add_argument("--ks", default="1,5,10", help="comma-separated cutoffs")
    p.add_argument("--knn-k", type=int, default=50)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("score", parents=[common, config, model],
                       help="print the model score for one entity pair")
    p.add_argument("entity_a")
    p.add_argument("entity_b")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("discover", parents=[common, config, model],
                       help="KNN candidates then model reranking for each query")
    p.add_argument("query", nargs="+", help="one or more entity names, answered in order")
    p.add_argument("--topk", type=int, default=50)
    p.add_argument("--threshold", type=float, default=0.8)
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser("gradcheck", parents=[common],
                       help="finite-difference check of the whole model")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("synth", parents=[common],
                       help="generate a synthetic corpus with known synonyms")
    p.add_argument("--out", default="synth")
    for name, default in SYNTH_KEYWORDS.items():
        p.add_argument("--" + name.replace("_", "-"), type=type(default), default=default)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    for name in PATH_FLAGS:     # so the echoed config shows real locations
        path = getattr(args, name, None)
        if path is not None and not os.path.isabs(path):
            setattr(args, name, os.path.normpath(os.path.join(args.workdir, path)))
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read or write file: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"not enough memory: {exc or 'an allocation failed'}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except SynmatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
