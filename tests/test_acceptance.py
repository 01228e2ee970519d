"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Numerical criteria run against independent oracles (finite differences,
brute-force loops, grid search, quadrature); the mechanism-level criteria
run on fully trained desk-scale models shared through the session bundle
(three seeds, default settings). All tolerances are pinned here.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

import distilab.autodiff as ad
from distilab.data import corrupt, load_csv, make_ood, save_csv
from distilab.distill import (DistillConfig, ProxyDirichlet, aekd_weights,
                              dirichlet_kl_np, kd_loss, one_to_one_loss,
                              proxy_dirichlet_target, proxy_end2_loss, train_student)
from distilab.metrics import (accuracy, batched_logits, diversity, diversity_from_probs, ece,
                              entropy_values, fit_temperature, member_probs, nll,
                              nll_with_stats, softmax_np)
from distilab.nets import (ModelSpec, build_be, build_plain, checkpoint_load,
                           checkpoint_save, join)
from distilab.optim import OptimConfig, cross_entropy, one_hot, train_teachers
from distilab.perturb import (_ods_gradients, _pair_gap_grad, build_perturbation,
                              default_gamma, diversity_shift_values, draw_pairs)
from distilab.seeding import rng_stream
from distilab.subspace import line_scan
from test_distill import dirichlet_kl_quadrature
from test_metrics import accuracy_loop, diversity_loop, ece_loop, nll_loop, random_probs

SEEDS = (0, 1, 2)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def mean_shift(teachers, students, x, eps):
    """Mean teacher and student diversity change under x -> x + eps."""
    d_t, d_s = diversity_shift_values(teachers, students, x, eps)
    return float(d_t.mean()), float(d_s.mean())


def gap_step(teachers, student, x, gamma, index_rng):
    """The tdiv_sdiv step, its pairs drawn from index_rng; it draws no noise."""
    return build_perturbation("tdiv_sdiv", teachers, student, x, gamma, 1.0,
                              np.random.default_rng(0), index_rng)


def plain_logits(net, x):
    """(N, K) logits of a one-member net."""
    return batched_logits(net, x)[0]


def pair_gap_values(teachers, student, x: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Values (no gradients) of the per-sample stochastic diversity gap
    KL_T(i_b, j_b) - KL_S(i_b, j_b), from member probabilities: the
    reference the pair-gap step ascends (KL_T alone without a student)."""
    rows = np.arange(len(x))

    def pair_kl(ensemble) -> np.ndarray:
        logs = np.log(member_probs(ensemble, x))
        log_i, log_j = logs[pairs[:, 0], rows], logs[pairs[:, 1], rows]
        return np.einsum("bk,bk->b", np.exp(log_i), log_i - log_j)

    out = pair_kl(teachers)
    return out if student is None else out - pair_kl(student)


def _relu_pattern(*passes) -> bytes:
    """The activation pattern of every relu in the layers that
    ``MLP.forward_kept`` kept: all but each net's last."""
    return b"|".join(np.packbits(out > 0.0).tobytes()
                     for kept in passes for _, _, out in kept[:-1])


def _fd_max_rel(fn, arrays, h=1e-5):
    """Worst relative error of closed-form gradients against finite
    differences, one value per argument.

    fn(*arrays) returns its value, its gradient with respect to each array,
    and the relu activation pattern it ran through (b"" for none). A
    coordinate whose +h or -h step changes that pattern is differenced
    one-sided, on the side that keeps x's pattern, so the stencil does not
    straddle a kink; when both steps change it, the central difference
    stands.
    """
    base, grads, base_pattern = fn(*arrays)
    worst = []
    for ti, (arr, got) in enumerate(zip(arrays, grads)):
        worst_here = 0.0
        for idx in np.ndindex(arr.shape):
            plus = [a.copy() for a in arrays]
            minus = [a.copy() for a in arrays]
            plus[ti][idx] += h
            minus[ti][idx] -= h
            f_plus, _, pattern_plus = fn(*plus)
            f_minus, _, pattern_minus = fn(*minus)
            keeps_plus = pattern_plus == base_pattern
            keeps_minus = pattern_minus == base_pattern
            if keeps_plus and not keeps_minus:
                fd = (f_plus - base) / h
            elif keeps_minus and not keeps_plus:
                fd = (base - f_minus) / h
            else:
                fd = (f_plus - f_minus) / (2 * h)
            rel = abs(got[idx] - fd) / max(abs(fd), 1e-6)
            worst_here = max(worst_here, rel)
        worst.append(worst_here)
    return worst


def _dense(x, w, *rest):
    """sum(out^2) of one relu dense layer of (w, b) or (w, r, s, b), its
    gradients (the input's summed over the members when they share it) and
    its relu pattern, from the kernels ``MLP`` runs."""
    r, s, b = rest if len(rest) == 3 else (None, None, rest[0])
    w_members = ad.member_weights(w, r, s)
    out = ad.dense_values(x, w_members, b, True)
    g = ad.dense_pre_grad(2.0 * out, out, True)
    g_x = ad.dense_input_grad(g, w_members)
    g_w, g_r, g_s, g_b = ad.dense_param_grads(x, g, w, r, s)
    grads = [g_x.sum(axis=0) if x.ndim == 2 else g_x, g_w]
    grads += [] if r is None else [g_r, g_s]
    return float((out * out).sum()), grads + [g_b], np.packbits(out > 0.0).tobytes()


def test_criterion_1_autodiff_finite_differences():
    """Every closed-form gradient, 100 random cases each, rel err < 1e-4: the
    dense layer's gradients for each argument group of plain and factored
    layers; input gradients through a 2-64-64-3 MLP; the logits gradient of
    each loss and the input gradients of the ODS and pair-gap steps; the
    derivatives of the gamma-family kernels; runtime under a minute."""
    started = time.time()
    rng = np.random.default_rng(100)
    tol = 1e-4
    cases = 100
    worst_by_op = {}

    def record(name, groups, build, draw):
        for _ in range(cases):
            for group, err in zip(groups, _fd_max_rel(build, draw())):
                key = name if group is None else f"{name}[{group}]"
                worst_by_op[key] = max(worst_by_op.get(key, 0.0), err)

    # the two-member dense layer through its relu: a plain layer (one weight
    # per member) on a shared input, a factored one on one input per member;
    # each weight drawn as (out, in) rows and stored (in, out)
    def weight(shape):
        return np.ascontiguousarray(rng.normal(size=shape).transpose(0, 2, 1))

    record("dense_plain", ("input", "weight", "bias"), _dense,
           lambda: [rng.normal(size=(3, 4)), weight((2, 2, 4)), rng.normal(size=(2, 2))])
    record("dense_factored", ("input", "weight", "r", "s", "bias"), _dense,
           lambda: [rng.normal(size=(2, 3, 4)), weight((1, 2, 4)),
                    rng.normal(size=(2, 2)), rng.normal(size=(2, 4)), rng.normal(size=(2, 2))])

    # end-to-end input gradients through the default architecture
    model = build_plain(ModelSpec(2, 3, (64, 64)), rng_stream(0, "init"))
    readout = rng.normal(size=(1, 2, 3))

    def through_net(x):
        kept = model.forward_kept(x)
        return ((readout * kept[-1][2]).sum(), [model.backward(kept, readout, False)[0]],
                _relu_pattern(kept))

    record("mlp_input", (None,), through_net, lambda: [rng.normal(size=(2, 2))])

    # the logits gradient of each loss
    cfg = DistillConfig(tau=3.0, alpha=0.7, num_teachers=2,
                        optim=OptimConfig(epochs=2, warmup_epochs=1))
    t_logits = rng.normal(size=(2, 3, 4))
    y = rng.integers(0, 4, size=3)
    weights = rng.dirichlet(np.ones(2), size=3)
    target = proxy_dirichlet_target(softmax_np(rng.normal(size=(2, 3, 4))))
    losses = {
        "cross_entropy": ((2, 3, 4), lambda z: cross_entropy(z, np.stack([y, y[::-1]]))),
        "kd": ((1, 3, 4), lambda z: kd_loss(t_logits, z, one_hot(y, 4), cfg)),
        "aekd": ((1, 3, 4), lambda z: kd_loss(t_logits, z, one_hot(y, 4), cfg, weights)),
        "one_to_one": ((2, 3, 4), lambda z: one_to_one_loss(t_logits, z, 2.0)),
        "proxy_end2": ((1, 3, 4), lambda z: proxy_end2_loss(z, target)),
    }
    for name, (shape, loss) in losses.items():
        def build(z, loss=loss):
            value, grad = loss(z)
            return value, [grad], b""

        record(name, (None,), build, lambda shape=shape: [rng.normal(size=shape)])

    # the input gradients of the ODS and pair-gap steps, through small nets
    spec = ModelSpec(2, 3, (8,))
    teachers = join([build_plain(spec, rng_stream(s, "init")) for s in (1, 2)])
    student = build_be(spec, rng_stream(3, "init"), "random_sign", members=2)
    guidance = rng.uniform(-1.0, 1.0, size=(3, 3))
    members = np.array([0, 1, 1])
    pairs = draw_pairs(rng, 2, 3)

    def ods(x):
        value = sum((guidance[members == m] * member_probs(t, x[members == m], 2.0)[0]).sum()
                    for m, t in enumerate(teachers))
        return (value, [_ods_gradients(teachers, x, 2.0, guidance, members)[0]],
                _relu_pattern(*(t.forward_kept(x) for t in teachers)))

    def pair_gap(x):
        return (pair_gap_values(teachers, student, x, pairs).sum(),
                [_pair_gap_grad(teachers, student, x, pairs)],
                _relu_pattern(teachers.forward_kept(x), student.forward_kept(x)))

    record("ods", (None,), ods, lambda: [rng.normal(size=(3, 2))])
    record("pair_gap", (None,), pair_gap, lambda: [rng.normal(size=(3, 2))])

    # d lgamma = digamma and d digamma = trigamma on the array kernels
    def pos():
        return [rng.uniform(0.3, 2.5, size=(3,))]

    record("lgamma", (None,), lambda a: (ad.lgamma(a).sum(), [ad.digamma(a)], b""), pos)
    record("digamma", (None,), lambda a: (ad.digamma(a).sum(), [ad._trigamma_arr(a)], b""),
           pos)

    elapsed = time.time() - started
    worst = max(worst_by_op.values())
    ok = worst < tol and elapsed < 60
    report(1, ok, f"max FD rel err {worst:.2e} (tol {tol}) over "
                  f"{len(worst_by_op)} gradients and argument groups x {cases} cases "
                  f"in {elapsed:.1f}s")


def test_criterion_2_metric_oracles():
    """ACC/NLL/ECE/Div vs brute-force loop oracles on 1000 random instances
    (ECE within 1e-12), plus the two hand-derived spot cases."""
    started = time.time()
    rng = np.random.default_rng(200)
    worst_ece = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(1, 40))
        probs = random_probs(rng, n, k)
        labels = rng.integers(0, k, size=n)
        assert accuracy(probs, labels) == accuracy_loop(probs, labels)
        assert nll(probs, labels) == pytest.approx(nll_loop(probs, labels), rel=1e-13)
        worst_ece = max(worst_ece, abs(ece(probs, labels) - ece_loop(probs, labels)))
        if n >= 2:
            stacked = np.stack([probs, random_probs(rng, n, k)])
            assert diversity_from_probs(stacked) == pytest.approx(
                diversity_loop(stacked), rel=1e-12)
    hand_ece = ece(np.array([[0.8, 0.2], [0.6, 0.4]]), np.array([0, 1]), bins=15)
    pair_div = diversity_from_probs(np.array([[[0.5, 0.5]], [[0.9, 0.1]]]))
    elapsed = time.time() - started
    ok = (worst_ece <= 1e-12 and abs(hand_ece - 0.4) < 1e-12
          and abs(pair_div - 0.439445) < 1e-6 and elapsed < 60)
    report(2, ok, f"1000 instances, worst ECE gap {worst_ece:.1e}, "
                  f"hand ECE {hand_ece:.3f}, pair Div {pair_div:.6f}, {elapsed:.1f}s")


def test_criterion_3_calibration_invariance(bundle):
    """Temperature scaling never changes accuracy; on every evaluated split
    the fitted temperature's NLL dominates the raw tau=1 value (the argmin
    beats a feasible point of the same objective)."""
    checked = 0
    acc_ok = True
    cnll_ok = True
    for seed in SEEDS:
        run = bundle.runs[seed]
        models = [run.teachers[0], run.latent_avg_none, run.latent_avg_tdiv]
        for model in models:
            for split in (bundle.val, bundle.test):
                logits = batched_logits(model, split.x)[0]
                base_acc = accuracy(softmax_np(logits), split.y)
                for tau in (0.1, 1.0, 4.0, 10.0):
                    acc_ok &= accuracy(softmax_np(logits, tau), split.y) == base_acc
                tau_star = fit_temperature(logits, split.y)
                cnll = nll(softmax_np(logits, tau_star), split.y)
                cnll_ok &= cnll <= nll(softmax_np(logits), split.y) + 1e-9
                checked += 1
    report(3, acc_ok and cnll_ok,
           f"accuracy exactly invariant and cNLL(tau*) <= NLL(1) on {checked} "
           "model/split pairs")


def test_criterion_4_algorithm_reductions(tiny_task, tiny_teachers, tiny_spec):
    """Ones-init one-to-one run is bit-identical to the latent path with the
    pull and perturbation off; adaptive weights specialize correctly."""
    train, _, _ = tiny_task
    # gentle learning rate: the tau^2 factor makes lr=0.1 diverge at this
    # miniature scale, and the reduction property is lr-independent
    cfg = DistillConfig(num_teachers=2, rank_decay=0.0, perturbation="none",
                        method="latentbe",
                        optim=OptimConfig(base_lr=0.02, epochs=6, warmup_epochs=1,
                                          batch_size=32, seed=4))
    latent = train_student(tiny_teachers, tiny_spec, train, cfg)
    be = train_student(tiny_teachers, tiny_spec, train,
                       replace(cfg, method="be", student_init="ones"))
    bit_identical = all(
        la.weight.tobytes() == lb.weight.tobytes()
        and all(la.r[m].tobytes() == lb.r[m].tobytes() for m in range(2))
        and all(la.s[m].tobytes() == lb.s[m].tobytes() for m in range(2))
        and all(la.bias[m].tobytes() == lb.bias[m].tobytes() for m in range(2))
        for la, lb in zip(latent.layers, be.layers))

    rng = np.random.default_rng(40)
    uniform_ok = True
    for m in (2, 3):
        probs = random_probs(rng, m, 4)
        target = random_probs(rng, 1, 4)[0]
        w = aekd_weights(probs, target, tau=2.0, c=1.0 / m)
        uniform_ok &= np.array_equal(w, np.full(m, 1.0 / m))

    p1 = np.array([0.7, 0.2, 0.1])
    p2 = np.array([0.1, 0.3, 0.6])
    w = aekd_weights(np.stack([p1, p2]), p1, tau=1.0, c=0.6)
    grid = np.arange(0.0, 0.6 + 1e-12, 1e-5)
    objective = [np.sum((p1 - (g * p1 + (1 - g) * p2)) ** 2) for g in grid]
    w_grid = grid[int(np.argmin(objective))]
    box_ok = abs(w[0] - w_grid) < 1e-4 and abs(w[1] - (1 - w_grid)) < 1e-4

    ok = bit_identical and uniform_ok and box_ok
    report(4, ok, f"bit-identical reduction={bit_identical}, uniform at c=1/M="
                  f"{uniform_ok}, box case w=({w[0]:.4f},{w[1]:.4f}) vs grid {w_grid:.4f}")


def test_criterion_5_proxy_dirichlet_math():
    """Concentration spot case, reverse-KL zero/non-negativity, quadrature."""
    target = proxy_dirichlet_target(np.array([[0.9, 0.1], [0.5, 0.5]]))
    beta_ok = np.abs(target.beta - 1.0 - np.array([2.966776, 1.271476])).max() < 1e-5

    beta = np.array([[3.0, 1.5, 2.2]])
    zero_loss = proxy_end2_loss(np.log(beta - 1.0), ProxyDirichlet(beta))[0]
    rng = np.random.default_rng(50)
    nonneg = True
    for _ in range(1000):
        k = int(rng.integers(2, 5))
        b = rng.uniform(1.05, 8.0, size=(1, k))
        logits = rng.normal(size=(1, k)) * 1.5
        nonneg &= proxy_end2_loss(logits, ProxyDirichlet(b))[0] > -1e-12

    closed = dirichlet_kl_np(np.array([2.0, 2.0]), np.array([3.0, 1.0]))
    quad = dirichlet_kl_quadrature((2.0, 2.0), (3.0, 1.0))
    quad_ok = abs(closed - quad) < 1e-4

    ok = beta_ok and abs(zero_loss) < 1e-12 and nonneg and quad_ok
    report(5, ok, f"beta within 1e-5, loss at equality {zero_loss:.1e}, "
                  f"non-negative on 1000 pairs={nonneg}, closed-vs-quadrature "
                  f"gap {abs(closed - quad):.2e}")


def test_criterion_6_loss_barrier(bundle):
    """One-to-one students sit across a train-loss barrier; the weight-
    averaged construction does not (mean over three seeds, < 0.05)."""
    be_barriers = []
    latent_barriers = []
    for seed in SEEDS:
        run = bundle.runs[seed]
        be_barriers.append(line_scan(run.be_student, bundle.train, bundle.test).barrier)
        latent_barriers.append(line_scan(run.latent_be_none, bundle.train,
                                         bundle.test).barrier)
    be_mean = float(np.mean(be_barriers))
    latent_mean = float(np.mean(latent_barriers))
    ok = be_mean > latent_mean and latent_mean < 0.05
    report(6, ok, f"mean barrier one-to-one {be_mean:.4f} vs weight-averaged "
                  f"{latent_mean:.6f}")


def test_criterion_7_averaging_soundness(bundle):
    """Averaged student test NLL within 0.02 of the best endpoint, per seed."""
    worst_gap = -np.inf
    for seed in SEEDS:
        run = bundle.runs[seed]
        def mean_nll(model):
            probs = softmax_np(plain_logits(model, bundle.test.x))
            return nll_with_stats(probs, bundle.test.y)[1]
        endpoints = min(mean_nll(run.latent_be_none[m])
                        for m in range(2))
        gap = mean_nll(run.latent_avg_none) - endpoints
        worst_gap = max(worst_gap, gap)
    ok = worst_gap <= 0.02
    report(7, ok, f"worst averaged-minus-endpoint NLL gap {worst_gap:.5f} (<= 0.02)")


def test_criterion_8_perturbation_mechanism(bundle):
    """On a mid-training snapshot the diversity-gap step raises teacher
    diversity, lowers student diversity, and ascends its objective to first
    order on at least 95% of non-degenerate samples."""
    d_ts, d_ss, ascents = [], [], []
    x = bundle.train.x
    gamma = default_gamma(x)
    for seed in SEEDS:
        run = bundle.runs[seed]
        mid = run.mid_snapshot
        pert = gap_step(run.teachers, mid, x, gamma, rng_stream(seed, "diag"))
        d_t, d_s = mean_shift(run.teachers, mid, x, pert.epsilon)
        d_ts.append(d_t)
        d_ss.append(d_s)
        small = gap_step(run.teachers, mid, x[:500], 1e-4, rng_stream(seed, "diag-small"))
        moved = np.linalg.norm(small.epsilon, axis=1) > 0
        before = pair_gap_values(run.teachers, mid, x[:500], small.pairs)
        after = pair_gap_values(run.teachers, mid, x[:500] + small.epsilon,
                                small.pairs)
        ascents.append(float((after[moved] > before[moved]).mean()))
    ok = (np.mean(d_ts) > 0 and np.mean(d_ss) < 0 and min(ascents) >= 0.95)
    report(8, ok, f"mean dT {np.mean(d_ts):.2e} (>0), mean dS {np.mean(d_ss):.2e} "
                  f"(<0), worst ascent rate {min(ascents):.3f} (>= 0.95)")


def test_criterion_9_diversity_transfer(bundle):
    """The diversity-gap perturbation both diversifies the student members
    and improves the averaged student's test NLL (three-seed means)."""
    div_gap, div_none, nll_gap, nll_none = [], [], [], []
    for seed in SEEDS:
        run = bundle.runs[seed]
        div_gap.append(diversity(run.latent_be_tdiv, bundle.train.x))
        div_none.append(diversity(run.latent_be_none, bundle.train.x))
        def mean_nll(model):
            probs = softmax_np(plain_logits(model, bundle.test.x))
            return nll_with_stats(probs, bundle.test.y)[1]
        nll_gap.append(mean_nll(run.latent_avg_tdiv))
        nll_none.append(mean_nll(run.latent_avg_none))
    ok = (np.mean(div_gap) > np.mean(div_none)
          and np.mean(nll_gap) < np.mean(nll_none))
    report(9, ok, f"member Div {np.mean(div_gap):.2e} > {np.mean(div_none):.2e}; "
                  f"avg NLL {np.mean(nll_gap):.5f} < {np.mean(nll_none):.5f}")


def test_criterion_10_ood_and_corruption(bundle):
    """Perturbation-distilled averaged students are more uncertain on the
    shifted OOD set, and degrade monotonically under rising corruption."""
    ood = make_ood(bundle.test, shift=6.0, seed=3)
    ent_in, ent_ood = [], []
    curves = []
    for seed in SEEDS:
        run = bundle.runs[seed]
        model = run.latent_avg_tdiv
        ent_in.append(entropy_values(softmax_np(plain_logits(model, bundle.test.x))).mean())
        ent_ood.append(entropy_values(softmax_np(plain_logits(model, ood.x))).mean())
        curve = []
        for intensity in range(1, 6):
            noisy = corrupt(bundle.test, intensity, seed=11)
            probs = softmax_np(plain_logits(model, noisy.x))
            curve.append(nll_with_stats(probs, noisy.y)[1])
        curves.append(curve)
    mean_curve = np.mean(curves, axis=0)
    inversions = int(sum(mean_curve[i + 1] < mean_curve[i] for i in range(4)))
    ok = (np.mean(ent_ood) > np.mean(ent_in)) and inversions <= 1
    report(10, ok, f"entropy OOD {np.mean(ent_ood):.4f} > in-dist "
                   f"{np.mean(ent_in):.4f}; corruption NLL curve "
                   f"{np.round(mean_curve, 3).tolist()} with {inversions} inversions")


def test_criterion_11_determinism_and_round_trips(tmp_path, tiny_task, tiny_spec):
    """Same seed twice gives byte-identical checkpoints; checkpoint and CSV
    round trips are exact."""
    train, _, _ = tiny_task
    cfg = OptimConfig(epochs=5, warmup_epochs=1, batch_size=32, seed=9)
    paths = []
    for name in ("one", "two"):
        teacher = train_teachers(tiny_spec, train, 1, cfg)[0]
        path = tmp_path / f"{name}.json"
        checkpoint_save(teacher, path)
        paths.append(path)
    deterministic = paths[0].read_bytes() == paths[1].read_bytes()

    loaded = checkpoint_load(paths[0])
    resaved = tmp_path / "resaved.json"
    checkpoint_save(loaded, resaved)
    ckpt_round = resaved.read_bytes() == paths[0].read_bytes()

    csv_path = tmp_path / "task.csv"
    save_csv(train, csv_path)
    reloaded = load_csv(csv_path, num_classes=3)
    csv_round = (reloaded.x.tobytes() == train.x.tobytes()
                 and np.array_equal(reloaded.y, train.y))

    ok = deterministic and ckpt_round and csv_round
    report(11, ok, f"retrain bytes equal={deterministic}, checkpoint "
                   f"round trip={ckpt_round}, csv round trip={csv_round}")


class TestSupportingEmpirics:
    """Module-level empirical examples that need the trained bundle."""

    def test_teachers_reach_train_accuracy(self, bundle):
        for seed in SEEDS:
            for teacher in bundle.runs[seed].teachers:
                probs = softmax_np(plain_logits(teacher, bundle.train.x))
                assert accuracy(probs, bundle.train.y) >= 0.95

    def test_corruption_degrades_teacher_accuracy(self, bundle):
        teacher = bundle.runs[0].teachers[0]
        for noise_seed in (3, 4, 5):
            weak = corrupt(bundle.test, 5, seed=noise_seed)
            mild = corrupt(bundle.test, 1, seed=noise_seed)
            acc5 = accuracy(softmax_np(plain_logits(teacher, weak.x)), weak.y)
            acc1 = accuracy(softmax_np(plain_logits(teacher, mild.x)), mild.y)
            assert acc5 <= acc1

    def test_teacher_entropy_separates_ood(self, bundle):
        teacher = bundle.runs[0].teachers[0]
        ood = make_ood(bundle.test, shift=6.0, seed=3)
        e_in = entropy_values(softmax_np(plain_logits(teacher, bundle.test.x))).mean()
        e_ood = entropy_values(softmax_np(plain_logits(teacher, ood.x))).mean()
        assert e_ood > e_in

    def test_gaussian_shifts_are_small_next_to_diversity_gap(self, bundle):
        # isotropic noise has zero expected first-order effect on either
        # diversity while the directed step moves both systematically; the
        # comparison runs at a matched small step, with the noise shift
        # averaged over draws to estimate its (near-zero) expectation
        gamma = 1e-3
        draws = 5
        x = bundle.train.x
        ratios_t, ratios_s = [], []
        for seed in SEEDS:
            run = bundle.runs[seed]
            mid = run.mid_snapshot
            pert = gap_step(run.teachers, mid, x, gamma, rng_stream(seed, "ratio"))
            d_t, d_s = mean_shift(run.teachers, mid, x, pert.epsilon)
            g_ts, g_ss = [], []
            for draw in range(draws):
                noise = build_perturbation("gaussian", run.teachers, mid, x, gamma, 1.0,
                                           rng_stream(100 + draw, "ratio"),
                                           np.random.default_rng(0))
                g_t, g_s = mean_shift(run.teachers, mid, x, noise.epsilon)
                g_ts.append(g_t)
                g_ss.append(g_s)
            ratios_t.append(abs(np.mean(g_ts)) / abs(d_t))
            ratios_s.append(abs(np.mean(g_ss)) / abs(d_s))
        assert np.mean(ratios_t) < 0.3
        assert np.mean(ratios_s) < 0.3

    def test_endpoint_divergence_dominates_without_perturbation(self, bundle):
        gap, none = [], []
        for seed in SEEDS:
            run = bundle.runs[seed]
            gap.append(diversity(run.latent_be_tdiv, bundle.train.x))
            none.append(diversity(run.latent_be_none, bundle.train.x))
        assert np.mean(gap) > np.mean(none)
