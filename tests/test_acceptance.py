"""Acceptance gate: every headline requirement, one pass/fail line each.

Each test prints a single PASS/FAIL line with the measured numbers so a
plain `pytest tests/test_acceptance.py -v -s` reads as a checklist.  The
oracles live next to the unit tests they came from and are imported here
rather than duplicated.
"""

import os
import time

import numpy as np
import pytest

from synmatch import (cli, corpus, embeddings, encoder, evaluation,
                      synthetic, training)
from synmatch import autodiff as ad
from synmatch.rng import stream_rng
from test_evaluation import auc_pair_oracle
from test_matcher import scalar_match_oracle

import oracles as ref


def report(ok, name, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------

def test_matrix_form_equivalence():
    rng = np.random.default_rng(11)
    t0 = time.time()
    worst = 0.0
    count = 0
    for d in (4, 8, 16):
        for _ in range(70):
            p, q = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            H = rng.normal(size=(p, d))
            G = rng.normal(size=(q, d))
            W = rng.normal(size=(d, d))
            count += 1
            for leaky in (False, True):
                got = ref.match_pair(H, G, W, leaky)
                leak_vec = np.zeros(d) if leaky else None
                want_f, want_b, leak_f, leak_b = scalar_match_oracle(H, G, W, leak_vec)
                worst = max(worst,
                            np.max(np.abs(got.m_fwd - want_f)),
                            np.max(np.abs(got.m_bwd - want_b)))
                if leaky:
                    worst = max(worst,
                                np.max(np.abs(got.leak_fwd - leak_f)),
                                np.max(np.abs(got.leak_bwd - leak_b)))
    elapsed = time.time() - t0
    ok = worst < 1e-12 and count >= 200 and elapsed < 5.0
    report(ok, "matrix-form equivalence",
           f"max |diff| {worst:.2e} over {count} instances, {elapsed:.1f} s")


def test_gradient_fidelity():
    t0 = time.time()
    reports = training.gradcheck_model(seed=0)
    worst = max(r.max_rel_error for _, r in reports)
    elapsed = time.time() - t0
    ok = worst < 1e-4 and len(reports) == 8 and elapsed < 60.0
    report(ok, "gradient fidelity",
           f"worst rel error {worst:.2e} across {len(reports)} "
           f"objective/encoder/leaky combinations, {elapsed:.1f} s")


def test_loss_trivial_cases_exact():
    m = 0.75

    def S(*scores):
        return ad.Var(np.array([scores]))

    vals = [
        training.siamese_loss(S(1.0), 1, m).item(),
        training.siamese_loss(S(0.0), 0, m).item(),
        training.siamese_loss(S(0.74), 0, m).item(),
        training.siamese_loss(S(m), 0, m).item(),
        training.siamese_loss(S(-1.0), 0, m).item(),
        training.triplet_loss(S(0.9 - m, 0.9), m).item(),     # (s_neg, s_pos)
        training.triplet_loss(S(-1.0, 1.0), m).item(),
    ]
    ok = all(v == 0.0 for v in vals)
    report(ok, "loss trivial cases", f"all seven zero-loss cases exactly 0.0: {vals}")


def test_stochasticity_invariants():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(50):
        p, q, d = int(rng.integers(1, 9)), int(rng.integers(1, 9)), 8
        H, G = rng.normal(size=(p, d)), rng.normal(size=(q, d))
        W = rng.normal(size=(d, d))
        plain = ref.match_pair(H, G, W)
        worst = max(worst,
                    np.max(np.abs(plain.m_fwd.sum(axis=0) - 1.0)),
                    np.max(np.abs(plain.m_bwd.sum(axis=1) - 1.0)))
        leaky = ref.match_pair(H, G, W, leaky=True)
        worst = max(worst,
                    np.max(np.abs(leaky.m_fwd.sum(axis=0) + leaky.leak_fwd - 1.0)),
                    np.max(np.abs(leaky.m_bwd.sum(axis=1) + leaky.leak_bwd - 1.0)))
    ok = worst < 1e-12
    report(ok, "stochasticity invariants",
           f"softmax sums (and leak share + sum) within {worst:.2e} of 1")


def test_metric_oracles():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(40):
        n = int(rng.integers(2, 201))
        scores = rng.choice(np.linspace(0, 1, 12), size=n)   # heavy ties
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scored = list(zip(scores.tolist(), labels.tolist()))
        worst = max(worst, abs(evaluation.auc(scored) - auc_pair_oracle(scored)))
    auc_ok = worst == 0.0

    ap1 = evaluation.rank_metrics([1, 2, 3, 4], {1, 3}, ())[0]
    ap2 = evaluation.rank_metrics([9, 4, 1, 2], {9, 1, 2}, ())[0]
    _, at = evaluation.rank_metrics([1, 2, 3, 4], {2, 4, 8}, (2, 4))
    hand_ok = (
        abs(ap1 - (1.0 + 2.0 / 3.0) / 2.0) < 1e-12
        and abs(ap2 - (1.0 + 2.0 / 3.0 + 3.0 / 4.0) / 3.0) < 1e-12
        and at[2][0] == 0.5
        and at[4][1] == 2.0 / 3.0
        and abs(evaluation.rank_metrics([1, 2], {1, 9, 8, 7}, (2,))[1][2][2]
                - (2 * 0.5 * 0.25 / (0.5 + 0.25))) < 1e-12
    )
    ok = auc_ok and hand_ok
    report(ok, "metric oracles",
           f"AUC == pairwise count oracle exactly (worst diff {worst}); "
           f"MAP/P@K/R@K/F1@K match hand values: {hand_ok}")


# ---------------------------------------------------------------------------

E2E_TRAIN_FLAGS = ["--objective", "triplet", "--d-ce", "32",
                   "--contexts-per-entity", "5", "--max-context-len", "20",
                   "--learning-rate", "3e-4",
                   "--batch-size", "16", "--margin", "0.75", "--epochs", "8"]


def run_pipeline(root, seed, noise="0.3"):
    root = str(root)
    os.makedirs(root, exist_ok=True)
    s = str(seed)
    assert cli.main(["synth", "--workdir", root, "--out", "data",
                     "--clusters", "40", "--entities-per-cluster", "3",
                     "--contexts-per-entity", "30", "--vocab-size", "2000",
                     "--noise", noise, "--seed", s]) == 0
    assert cli.main(["ingest", "--workdir", root,
                     "--corpus", "data/corpus.txt",
                     "--synsets", "data/synsets.tsv",
                     "--test-frac", "0.25", "--seed", s]) == 0
    assert cli.main(["train", "--workdir", root, "--index", "index.npz",
                     "--embeddings", "data/embeddings.txt", "--seed", s,
                     *E2E_TRAIN_FLAGS]) == 0
    assert cli.main(["evaluate", "--workdir", root, "--index", "index.npz",
                     "--checkpoint", "model.json",
                     "--embeddings", "data/embeddings.txt", "--seed", s]) == 0
    metrics = {}
    with open(os.path.join(root, "metrics.txt")) as fh:
        for line in fh:
            key, value = line.split()
            metrics[key] = float(value)
    return metrics


def test_synthetic_end_to_end(tmp_path):
    t0 = time.time()
    aucs, maps = [], []
    for seed in (0, 1, 2):
        metrics = run_pipeline(tmp_path / f"seed{seed}", seed)
        aucs.append(metrics["auc"])
        maps.append(metrics["map"])
    elapsed = time.time() - t0
    mean_auc, mean_map = float(np.mean(aucs)), float(np.mean(maps))
    ok = mean_auc >= 0.90 and mean_map >= 0.85 and elapsed < 600.0
    report(ok, "synthetic end-to-end",
           f"held-out AUC {mean_auc:.4f} (>= 0.90), MAP {mean_map:.4f} "
           f"(>= 0.85) over seeds 0-2, {elapsed:.0f} s")


def test_leaky_ablation_direction(tmp_path):
    t0 = time.time()
    means = {}
    for leaky in (True, False):
        vals = []
        for seed in range(5):
            root = tmp_path / f"n{seed}"
            paths = root / "data"
            if not paths.exists():
                synthetic.generate(str(paths), clusters=40, entities_per_cluster=3,
                                   contexts_per_entity=30, vocab_size=2000,
                                   noise=0.6, seed=seed)
            data = corpus.ingest(str(paths / "corpus.txt"), str(paths / "synsets.tsv"))
            data.store = corpus.split_synsets(data.store, 0.0, 0.25,
                                              stream_rng(seed, "ingest"))
            table = embeddings.load_embeddings(str(paths / "embeddings.txt"),
                                               data.vocab)
            config = training.TrainConfig(
                objective="triplet", d_ce=32, contexts_per_entity=5,
                max_context_len=20, learning_rate=3e-4, batch_size=16,
                margin=0.75, epochs=8, seed=seed, leaky=leaky).validate()
            params, _ = training.train(config, data, table)
            rep = evaluation.evaluate(params, config, data, table,
                                      split="test", seed=seed)
            vals.append(rep.auc)
        means[leaky] = float(np.mean(vals))
    gap = means[True] - means[False]
    ok = gap >= -0.02
    report(ok, "leaky ablation direction",
           f"noise 0.6 mean AUC over 5 seeds: leaky on {means[True]:.4f}, "
           f"leaky off {means[False]:.4f}, gap {gap:+.4f} (fail below -0.02); "
           f"{time.time() - t0:.0f} s")


def test_encoder_truncation_invariant():
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(100):
        d_ce = 2 * int(rng.integers(2, 5))
        d_h = d_ce // 2
        n_vocab, d_embed = 30, 5
        table = rng.normal(size=(n_vocab, d_embed))
        params = encoder.init_encoder_params(d_embed, d_ce, rng)
        length = int(rng.integers(3, 9))
        pos = int(rng.integers(length))
        ids = [int(t) for t in rng.integers(2, n_vocab, size=length)]
        base = corpus.ContextWindow(tuple(ids), pos)
        out = encoder.encode_batch([base], params, table, "anchored")[0]

        edited = list(ids)
        for i in range(pos + 1, length):
            edited[i] = int(rng.integers(2, n_vocab))
        suffix = corpus.ContextWindow(tuple(edited), pos)
        out_s = encoder.encode_batch([suffix], params, table, "anchored")[0]
        assert np.array_equal(out[:d_h], out_s[:d_h]), "forward half changed"

        edited = list(ids)
        for i in range(pos):
            edited[i] = int(rng.integers(2, n_vocab))
        prefix = corpus.ContextWindow(tuple(edited), pos)
        out_p = encoder.encode_batch([prefix], params, table, "anchored")[0]
        assert np.array_equal(out[d_h:], out_p[d_h:]), "backward half changed"
        checked += 1
    report(checked == 100, "encoder truncation invariant",
           f"{checked} random draws: suffix edits left the forward half "
           f"bitwise unchanged, prefix edits the backward half")


def test_determinism(tmp_path):
    metrics = {}
    blobs = {}
    for name in ("a", "b"):
        root = tmp_path / name
        metrics[name] = run_pipeline(root, 5)
        blobs[name] = {f: (root / f).read_bytes()
                       for f in ("metrics.txt", "history.txt", "model.json")}
    files_ok = blobs["a"] == blobs["b"]

    params, config, _ = training.load_checkpoint(str(tmp_path / "a" / "model.json"))
    p2 = tmp_path / "roundtrip.json"
    training.save_checkpoint(str(p2), params, config,
                             meta={"trained_epochs": config.epochs})
    round_ok = p2.read_bytes() == blobs["a"]["model.json"]
    ok = files_ok and round_ok
    report(ok, "determinism",
           f"repeated train+evaluate byte-identical: {files_ok}; "
           f"checkpoint save/load/save bit-exact: {round_ok}")
