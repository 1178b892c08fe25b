"""Acceptance checks for the assembled pipeline.

One test per criterion; each prints a single pass/fail line with the
measured quantities, and the -v listing doubles as the per-criterion
record. Oracles here are deliberately independent implementations
(pure-Python loops, closed forms), not rearrangements of library calls.
"""

import hashlib
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from selcorr.cli import _match_sweep, main
from selcorr.config import ExperimentConfig, load_config
from selcorr.dpc import cluster_tokens
from selcorr.evaluation import (
    MASKED,
    inter_ocular_error,
    kind_means,
    regressor_forward,
    soft_argmax,
    train_regressor,
)
from selcorr.lcr import (
    correspondence_matrix,
    locality_matrix,
    loss_and_gradient,
    pair_weight,
    repellence_matrix,
)
from selcorr.partition import cls_similarity, split_tokens
from selcorr.projector import init_projector, train_projector
from selcorr.synth import LEFT_EYE, RIGHT_EYE, generate_backbone_output, sample_spec
from selcorr.tensorio import read_tensor, write_tensor


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {num} ({name}): {detail}"


def _grid_cells(grid_h: int, grid_w: int) -> np.ndarray:
    """(row, col) of each token cell in row-major order, the loss's positions."""
    rows, cols = np.divmod(np.arange(grid_h * grid_w), grid_w)
    return np.stack([rows, cols], axis=1).astype(np.float64)


def _max_rel(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b)))) if a.size else 0.0


@pytest.fixture(scope="module")
def cfg():
    return ExperimentConfig()


@pytest.fixture(scope="module")
def corpus64(cfg):
    """64 corpus samples built exactly like the gen command builds them."""
    base = cfg.face_spec()
    out = []
    for i in range(64):
        spec = sample_spec(base, cfg.seed, i)
        out.append((generate_backbone_output(spec, seed=i), np.asarray(spec.landmarks_px)))
    return out


@pytest.fixture(scope="module")
def trained(cfg, corpus64):
    """Projector fitted on the first 32 samples at the documented defaults."""
    corpus = [o for o, _ in corpus64[:32]]
    start = time.perf_counter()
    proj, trace = train_projector(corpus, cfg)
    return proj, trace, time.perf_counter() - start


# criterion 1: analytic gradients agree with central finite differences


def test_criterion_01_gradients_match_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    h = 1e-5
    worst_phi = 0.0
    for _ in range(20):
        n = int(rng.integers(4, 21))
        dp = int(rng.integers(2, 7))
        phi = rng.standard_normal((n, dp))
        labels = np.zeros(n, dtype=bool)
        labels[rng.permutation(n)[: int(rng.integers(1, n))]] = True
        weight = pair_weight(locality_matrix(_grid_cells(1, n)), labels, ExperimentConfig())
        tau = float(rng.choice([0.07, 0.5]))
        cosine = bool(rng.integers(0, 2))
        _, grad = loss_and_gradient(phi, weight, tau=tau, cosine=cosine)
        fd = np.zeros_like(phi)
        for i in range(n):
            for k in range(dp):
                up, dn = phi.copy(), phi.copy()
                up[i, k] += h
                dn[i, k] -= h
                fd[i, k] = (
                    loss_and_gradient(up, weight, tau=tau, cosine=cosine)[0]
                    - loss_and_gradient(dn, weight, tau=tau, cosine=cosine)[0]
                ) / (2.0 * h)
        worst_phi = max(worst_phi, _max_rel(grad, fd))

    worst_param = 0.0
    for _ in range(5):
        n = int(rng.integers(4, 16))
        d = int(rng.integers(3, 9))
        dp = int(rng.integers(2, 7))
        z = rng.standard_normal((n, d))
        w = rng.standard_normal((d, dp)) * 0.3
        b = rng.standard_normal(dp) * 0.1
        labels = np.zeros(n, dtype=bool)
        labels[: max(1, n // 3)] = True
        weight = pair_weight(locality_matrix(_grid_cells(1, n)), labels, ExperimentConfig())

        def loss_of(wm, bm):
            return loss_and_gradient(z @ wm + bm, weight)[0]

        _, g_phi = loss_and_gradient(z @ w + b, weight)
        grad_w, grad_b = z.T @ g_phi, g_phi.sum(axis=0)
        fd_w = np.zeros_like(w)
        for i in range(d):
            for k in range(dp):
                up, dn = w.copy(), w.copy()
                up[i, k] += h
                dn[i, k] -= h
                fd_w[i, k] = (loss_of(up, b) - loss_of(dn, b)) / (2.0 * h)
        fd_b = np.zeros_like(b)
        for k in range(dp):
            up, dn = b.copy(), b.copy()
            up[k] += h
            dn[k] -= h
            fd_b[k] = (loss_of(w, up) - loss_of(w, dn)) / (2.0 * h)
        worst_param = max(worst_param, _max_rel(grad_w, fd_w), _max_rel(grad_b, fd_b))

    elapsed = time.perf_counter() - start
    ok = worst_phi <= 1e-5 and worst_param <= 1e-5 and elapsed < 10.0
    _report(
        1,
        "gradient check",
        ok,
        f"max rel err: features {worst_phi:.2e}, params {worst_param:.2e} "
        f"(tol 1e-5), {elapsed:.1f}s (limit 10s)",
    )


# criterion 2: clustering agrees with an exhaustive reference


def _brute_dpc(features, kc, verbatim):
    m, dim = features.shape
    sq = [[sum((features[i][c] - features[j][c]) ** 2 for c in range(dim)) for j in range(m)] for i in range(m)]
    if verbatim:
        rho = [math.exp(sum(sq[i])) for i in range(m)]
    else:
        rho = [sum(math.exp(-sq[i][j]) for j in range(m) if j != i) for i in range(m)]
    delta = []
    for i in range(m):
        denser = [j for j in range(m) if rho[j] > rho[i] or (rho[j] == rho[i] and j < i)]
        if denser:
            delta.append(min(math.sqrt(sq[i][j]) for j in denser))
        else:
            delta.append(max(math.sqrt(sq[i][j]) for j in range(m)))
    score = [rho[i] * delta[i] for i in range(m)]
    centers = sorted(sorted(range(m), key=lambda i: (-score[i], i))[: min(kc, m)])
    member = []
    for i in range(m):
        best = min(centers, key=lambda c: sq[i][c])
        member.append(i if i in centers else best)
    return rho, delta, score, centers, member


def test_criterion_02_clustering_matches_brute_force():
    rng = np.random.default_rng(202)
    worst = 0.0
    for trial in range(120):
        verbatim = trial >= 100
        m = int(rng.integers(1, 11))
        dim = int(rng.integers(1, 5))
        span = 0.5 if verbatim else 2.0
        feats = rng.uniform(-span, span, size=(m, dim))
        kc = int(rng.integers(1, m + 1))
        got = cluster_tokens(feats, kc, verbatim=verbatim)
        rho, delta, score, centers, member = _brute_dpc(feats, kc, verbatim)
        tol = 1e-9 if verbatim else 1e-12
        rel = max(
            _max_rel(got.rho, rho), _max_rel(got.delta, delta), _max_rel(got.score, score)
        )
        assert rel <= tol, f"trial {trial}: numeric mismatch {rel:.2e}"
        assert got.centers.tolist() == centers, f"trial {trial}: centers differ"
        assert got.member_center.tolist() == member, f"trial {trial}: membership differs"
        worst = max(worst, rel)
    _report(
        2,
        "density-peak clustering vs brute force",
        True,
        f"120 instances exact, worst numeric err {worst:.2e} (tol 1e-12 / 1e-9 verbatim)",
    )


# criterion 3: correspondence rows always sum to one


def test_criterion_03_correspondence_rows_are_stochastic():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 31))
        dp = int(rng.integers(2, 9))
        phi = rng.standard_normal((n, dp)) * float(rng.uniform(0.1, 10.0))
        for tau in (0.01, 0.07, 1.0):
            for cosine in (True, False):
                p = correspondence_matrix(phi, tau=tau, cosine=cosine)
                assert (p >= 0.0).all()
                worst = max(worst, float(np.abs(p.sum(axis=1) - 1.0).max()))
    ok = worst <= 1e-9
    _report(3, "row-stochastic correspondence", ok, f"max |row sum - 1| = {worst:.2e} (tol 1e-9)")


# criterion 4: loss decomposition against an independent pairwise loop


def _loop_loss(phi, positions, labels, cfg, tau, cosine):
    """Scalar-math reference: per-row softmax and explicit pair typing."""
    n = phi.shape[0]
    rows = []
    for i in range(n):
        if cosine:
            nrm = math.sqrt(sum(v * v for v in phi[i]))
            rows.append([v / nrm for v in phi[i]])
        else:
            rows.append(list(phi[i]))
    totals = {"aa": 0.0, "ai": 0.0, "ii": 0.0}
    for i in range(n):
        logits = [sum(a * b for a, b in zip(rows[i], rows[j])) / tau for j in range(n)]
        peak = max(logits)
        exps = [math.exp(v - peak) for v in logits]
        z = sum(exps)
        for j in range(n):
            f = math.log1p(math.dist(positions[i], positions[j]))
            if labels[i] and labels[j]:
                lam, key = cfg.r_aa, "aa"
            elif not labels[i] and not labels[j]:
                lam, key = cfg.r_ii, "ii"
            else:
                lam, key = cfg.r_ai, "ai"
            totals[key] += f * lam * exps[j] / z
    return totals


_WEIGHTS = ("r_aa", "r_ai", "r_ii")


def _loss_split(phi, positions, labels, cfg, cosine):
    """The training core's loss total and its att-att, att-inatt and
    inatt-inatt parts: the loss is linear in the pair weight, so a type's
    part is `loss_and_gradient` with the other two repellence weights at 0."""
    locality = locality_matrix(positions)

    def loss(c):
        return loss_and_gradient(phi, pair_weight(locality, labels, c), c.tau, cosine)[0]

    only = [replace(cfg, **{k: 0.0 for k in _WEIGHTS if k != keep}) for keep in _WEIGHTS]
    return (loss(cfg), *map(loss, only))


def test_criterion_04_loss_decomposition():
    rng = np.random.default_rng(404)
    cfg = ExperimentConfig()
    worst = 0.0
    for gh, gw in ((3, 4), (4, 5), (2, 7)):
        n = gh * gw
        positions = _grid_cells(gh, gw)
        phi = rng.standard_normal((n, 5))
        labels = np.zeros(n, dtype=bool)
        labels[rng.permutation(n)[: n // 3]] = True
        for cosine in (True, False):
            total, aa, ai, ii = _loss_split(phi, positions, labels, cfg, cosine)
            ref = _loop_loss(phi, positions, labels, cfg, cfg.tau, cosine)
            ref_total = ref["aa"] + ref["ai"] + ref["ii"]
            worst = max(
                worst,
                _max_rel(total, ref_total),
                _max_rel(aa, ref["aa"]),
                _max_rel(ai, ref["ai"]),
                _max_rel(ii, ref["ii"]),
                # partials must partition the library total as well
                _max_rel(aa + ai + ii, total),
            )
            # same value when composed from the three public matrices
            composed = (
                locality_matrix(positions)
                * repellence_matrix(labels, cfg)
                * correspondence_matrix(phi, tau=cfg.tau, cosine=cosine)
            ).sum()
            worst = max(worst, _max_rel(composed, total))
            # scaling every pair-type factor by c scales the loss by exactly c
            c = 10.0 / 3.0
            cfg_c = replace(
                cfg,
                r_aa=cfg.r_aa * c,
                r_ai=cfg.r_ai * c,
                r_ii=cfg.r_ii * c,
            )
            total_c = _loss_split(phi, positions, labels, cfg_c, cosine)[0]
            worst = max(worst, _max_rel(total_c, c * total))
            # zeroing one pair type removes exactly that term
            cfg0 = replace(cfg, r_aa=0.0)
            total0, aa0, _, _ = _loss_split(phi, positions, labels, cfg0, cosine)
            ref0 = _loop_loss(phi, positions, labels, cfg0, cfg0.tau, cosine)
            assert aa0 == 0.0
            worst = max(worst, _max_rel(total0, ref0["ai"] + ref0["ii"]))
    ok = worst <= 1e-12
    _report(4, "loss decomposition", ok, f"max rel err {worst:.2e} (tol 1e-12)")


# criterion 5: the attentive split finds the informative cells


def test_criterion_05_attentive_split_covers_landmarks(cfg, corpus64):
    spec = cfg.face_spec()
    gw = spec.image_size // spec.patch
    hits = total = 0
    for output, landmarks in corpus64:
        part = split_tokens(cls_similarity(output.q_cls, output.keys), cfg.eta)
        assert part.attentive.size == 36  # eta * 144 with round-half-up
        att = set(part.attentive.tolist())
        for x, y in landmarks:
            cell = int(y // spec.patch) * gw + int(x // spec.patch)
            hits += cell in att
            total += 1
    recall = hits / total
    ok = recall >= 0.95
    _report(5, "attentive landmark recall", ok, f"{hits}/{total} = {recall:.3f} (need >= 0.95)")


# criterion 6: training the projector improves matching


def test_criterion_06_training_improves_matching(cfg, corpus64, trained):
    proj, trace, train_wall = trained
    start = time.perf_counter()
    # reference point: the projector exactly as training initialized it
    in_dim = corpus64[0][0].main.channels
    initial = init_projector(in_dim, cfg.d_proj, cfg.seed)
    before, after = _match_sweep(cfg, [initial, proj], (0.0,))[:, 0]
    before_same, before_diff = kind_means(before, cfg.pairs)
    after_same, after_diff = kind_means(after, cfg.pairs)
    wall = train_wall + (time.perf_counter() - start)
    improvement = (before_same - after_same) / before_same
    ok = (
        improvement >= 0.30
        and after_diff < before_diff
        and trace[-1] < trace[0]
        and wall < 120.0
    )
    _report(
        6,
        "matching improvement",
        ok,
        f"same {before_same:.2f}->{after_same:.2f}px ({improvement:+.1%}, need >= +30%), "
        f"diff {before_diff:.2f}->{after_diff:.2f}px, "
        f"loss {trace[0]:.0f}->{trace[-1]:.0f}, {wall:.0f}s (limit 120s)",
    )


# criterion 7: limited-annotation detection beats the mean-position baseline


def test_criterion_07_limited_budget_detection(cfg, corpus64, trained):
    heat = np.full((12, 12), MASKED)
    heat[3, 7] = 1.0
    assert soft_argmax(heat, temperature=cfg.softargmax_temp) == (7.0, 3.0)

    proj = trained[0]
    corpus = [(o.main, lm) for o, lm in corpus64[:32]]
    held = corpus[32 - cfg.holdout :]
    gts = np.stack([lm for _, lm in held])
    results = {}
    for budget in (1, 5, 10, 20, 50, 100):
        train_n = min(budget, 32 - cfg.holdout)
        params, _ = train_regressor(corpus[:train_n], proj, cfg)
        preds = np.stack(
            [regressor_forward(params, grid, proj, cfg.softargmax_temp) for grid, _ in held]
        )
        mean_pct = inter_ocular_error(preds, gts, LEFT_EYE, RIGHT_EYE).mean()
        assert np.isfinite(mean_pct)
        results[budget] = mean_pct

    mean_lm = np.stack([lm for _, lm in corpus[:20]]).mean(axis=0)
    baseline = inter_ocular_error(
        np.tile(mean_lm, (len(held), 1, 1)), gts, LEFT_EYE, RIGHT_EYE
    ).mean()
    ok = results[20] < baseline
    curve = ", ".join(f"{b}:{v:.2f}" for b, v in results.items())
    _report(
        7,
        "budget-20 detection",
        ok,
        f"{results[20]:.2f}% IOD vs mean-position baseline {baseline:.2f}%; all budgets ran ({curve})",
    )


# criterion 8: identical command lines reproduce identical bytes


def _tree_digest(root):
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_08_cli_reruns_are_byte_identical(tmp_path):
    flags = ["--config", str(Path(__file__).resolve().parent / "configs" / "criterion_08.txt")]

    def run(args):
        assert main(args) == 0, f"command failed: {args}"

    for tag in ("a", "b"):
        run(["gen", "--count", "8", "--out", str(tmp_path / f"corpus_{tag}"), *flags])
    manifest = tmp_path / "corpus_a" / "manifest.txt"
    for tag in ("a", "b"):
        run(["train-projector", "--manifest", str(manifest), "--out", str(tmp_path / f"run_{tag}"), *flags])
    ckpt = tmp_path / "run_a" / "checkpoint"
    for tag in ("a", "b"):
        run(["eval-match", "--checkpoint", str(ckpt), "--out", str(tmp_path / f"em_{tag}"), *flags])
        run(["eval-detect", "--manifest", str(manifest), "--checkpoint", str(ckpt),
             "--budget", "4", "--out", str(tmp_path / f"det_{tag}"), *flags])
        run(["ablate", "--axis", "drop_rate", "--out", str(tmp_path / f"ab_{tag}"), *flags, "--pairs", "5"])
        run(["export-simmap", "--checkpoint", str(ckpt), "--out", str(tmp_path / f"sim_{tag}.pgm"), *flags])

    compared = 0
    for name in ("corpus", "run", "em", "det", "ab"):
        da = _tree_digest(tmp_path / f"{name}_a")
        db = _tree_digest(tmp_path / f"{name}_b")
        assert da and da == db, f"{name} outputs differ between identical runs"
        compared += len(da)
    assert (tmp_path / "sim_a.pgm").read_bytes() == (tmp_path / "sim_b.pgm").read_bytes()
    compared += 1
    meta_a = (tmp_path / "run_a" / "checkpoint" / "meta.txt").read_text()
    meta_b = (tmp_path / "run_b" / "checkpoint" / "meta.txt").read_text()
    assert meta_a == meta_b and "sha256" in meta_a
    _report(8, "deterministic command reruns", True, f"{compared} files byte-identical across reruns")


# criterion 9: tensor files round-trip bit for bit


def test_criterion_09_tensor_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(909)
    cases = [
        rng.standard_normal(10**6),
        (rng.standard_normal((1000, 1000)) * 1e20).astype(np.float32),
        rng.standard_normal((3, 7, 11, 2)),
        np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324]),
        np.array([[1.5]], dtype=np.float32),
    ]
    checked = 0
    for i, arr in enumerate(cases):
        path = tmp_path / f"t{i}.scet"
        write_tensor(path, arr)
        back = read_tensor(path)
        assert back.dtype == arr.dtype and back.shape == arr.shape
        assert back.tobytes() == arr.tobytes(), f"case {i} not bit-exact"
        checked += arr.size
    _report(9, "tensor round-trip", True, f"{checked} scalars bit-exact incl. non-finite values")


# criterion 10: the documented defaults are the shipped defaults


def test_criterion_10_documented_defaults():
    cfg = ExperimentConfig()
    checks = {
        "eta": cfg.eta == 0.25,
        "kc": cfg.kc == 4,
        "repellence": (cfg.r_aa, cfg.r_ai, cfg.r_ii) == (5.0, 5.0, 2.0),
        "tau": cfg.tau == 0.07,
        "heatmaps": cfg.heatmaps == 50,
        "geometry": (cfg.crop, cfg.patch) == (96, 8),
        "pairs": cfg.pairs == 500,
        "projector": (cfg.proj_lr, cfg.proj_steps, cfg.optimizer) == (1e-3, 200, "gd"),
        "alternate eta loads": load_config(overrides={"eta": "0.1"}).eta == 0.1,
    }
    bad = [k for k, v in checks.items() if not v]
    _report(10, "documented defaults", not bad, "all pinned" if not bad else f"wrong: {bad}")
