"""Perturbation strategies, all built through ``build_perturbation``:
normalization contracts, gradient directions against finite differences,
pair-estimator consistency with the full diversity, and which stream each
kind draws from."""

import numpy as np
import pytest

import distilab.autodiff as ad
import tape
from distilab.autodiff import NumericsError
from distilab.metrics import diversity_from_probs, member_probs
from distilab.nets import MLP, ModelSpec, build_be, build_plain, join
from distilab.optim import train_teachers
from distilab.perturb import (KINDS, _normalize_rows, _ods_gradients, _pair_gap_grad,
                              _pair_logits_grad, build_perturbation, diversity_shift_values,
                              draw_pairs)
from distilab.seeding import rng_stream
from tape import Tensor
from test_acceptance import pair_gap_values


class ZeroUniformRng:
    """Stub noise generator forcing all-zero guidance vectors."""

    def uniform(self, lo, hi, size=None):
        return np.zeros(size)


def perturb(kind, teachers, x, gamma, seed, student=None, tau=1.0):
    """build_perturbation with both streams drawn from one seed."""
    return build_perturbation(kind, teachers, student, x, gamma, tau,
                              rng_stream(seed, "noise"), rng_stream(seed, "index"))


def tape_pair_kl(log_pi, log_pj):
    """Per-row KL(p_i || p_j) on the tape, from two (B, K) log-probability
    tensors: the formulation ``_pair_logits_grad`` differentiates in closed
    form."""
    return tape.sum(tape.mul(tape.exp(log_pi), tape.sub(log_pi, log_pj)), axis=-1)


def pair_kl(model_i, model_j, x, tau=1.0):
    """Per-sample KL(p_i || p_j) between two logit functions of x."""
    return tape_pair_kl(tape.log_softmax_temp(model_i(x), tau),
                        tape.log_softmax_temp(model_j(x), tau))


def logits_of(net):
    """net's logits as a function of a tape input."""
    return lambda x: tape.forward(net, x)[0]


def per_pair_gap_grad(teachers, student, x, pairs):
    """Oracle: d/dx of the masked pair gap built one ordered pair at a time,
    four forwards per pair, all on one shared input leaf."""
    xt = Tensor(x, requires_grad=True)
    total = None
    for i, j in sorted({(int(a), int(b)) for a, b in pairs}):
        mask = Tensor(((pairs[:, 0] == i) & (pairs[:, 1] == j)).astype(np.float64)[None])
        gap = pair_kl(logits_of(teachers[i]), logits_of(teachers[j]), xt)
        if student is not None:
            gap = tape.sub(gap, pair_kl(logits_of(student[i]), logits_of(student[j]), xt))
        masked = tape.sum(tape.mul(mask, gap))
        total = masked if total is None else tape.add(total, masked)
    total.backward()
    return xt.grad


def masked_member_rows(log_p, members):
    """Row b of member members[b] of an (M, B, K) tensor, as the member sum of
    one-hot-masked members: a gather on the tape."""
    onehot = np.arange(log_p.shape[0])[:, None, None] == members[None, :, None]
    return tape.sum(tape.mul(Tensor(np.broadcast_to(onehot, log_p.shape)), log_p), axis=0)


def pair_ensembles(members, hidden=(16,), student_hidden=None):
    spec = ModelSpec(2, 3, hidden)
    teachers = [build_plain(spec, rng_stream(40 + s, "init")) for s in range(members)]
    student_spec = spec if student_hidden is None else ModelSpec(2, 3, student_hidden)
    student = build_be(student_spec, rng_stream(50, "init"), "random_sign", members=members)
    rng = np.random.default_rng(51)
    for l in student.layers:
        for m in range(members):
            l.r[m] += 0.3 * rng.normal(size=l.r[m].shape)
    return teachers, student


@pytest.fixture(scope="module")
def teachers():
    spec = ModelSpec(2, 3, (16,))
    return join([build_plain(spec, rng_stream(s, "init")) for s in (1, 2)])


@pytest.fixture(scope="module")
def student():
    spec = ModelSpec(2, 3, (16,))
    model = build_be(spec, rng_stream(9, "init"), "ones", members=2)
    rng = np.random.default_rng(10)
    for l in model.layers:
        for m in range(2):
            l.r[m] += 0.3 * rng.normal(size=l.r[m].shape)
            l.s[m] += 0.3 * rng.normal(size=l.s[m].shape)
    return model


class TestGaussian:
    def test_zero_gamma_is_identity(self):
        x = np.random.default_rng(0).normal(size=(5, 3))
        pert = perturb("gaussian", [], x, 0.0, 0)
        np.testing.assert_array_equal(x + pert.epsilon, x)

    def test_expected_squared_norm(self):
        gamma, dim = 0.3, 4
        x = np.zeros((10_000, dim))
        pert = perturb("gaussian", [], x, gamma, 1)
        got = (pert.epsilon ** 2).sum(axis=1).mean()
        assert got == pytest.approx(gamma ** 2 * dim, rel=0.03)

    def test_deterministic_under_seed(self):
        x = np.zeros((8, 2))
        a = perturb("gaussian", [], x, 0.1, 3)
        b = perturb("gaussian", [], x, 0.1, 3)
        assert a.epsilon.tobytes() == b.epsilon.tobytes()

    def test_negative_gamma_rejected(self):
        for gamma in (-0.1, float("nan")):
            with pytest.raises(ValueError, match="gamma must be non-negative"):
                perturb("gaussian", [], np.zeros((2, 2)), gamma, 0)


class TestOds:
    def test_zero_guidance_gives_zero_step(self, teachers):
        x = np.random.default_rng(4).normal(size=(6, 2))
        pert = build_perturbation("ods", teachers, None, x, 0.5, 1.0, ZeroUniformRng(),
                                  rng_stream(4, "index"))
        assert not pert.epsilon.any()

    def test_norm_is_exactly_gamma(self, teachers):
        x = np.random.default_rng(5).normal(size=(40, 2))
        gamma = 0.37
        pert = perturb("ods", teachers, x, gamma, 6, tau=2.0)
        norms = np.linalg.norm(pert.epsilon, axis=1)
        moved = norms > 0
        assert moved.any()
        np.testing.assert_allclose(norms[moved], gamma, atol=1e-12)

    def test_direction_matches_finite_differences(self, teachers):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 2))
        k = teachers[0].spec.num_classes
        guidance = rng.uniform(-1, 1, size=(3, k))
        members = np.zeros(3, dtype=np.int64)
        grads, _ = _ods_gradients(teachers, x, 2.0, guidance, members)
        h = 1e-5
        for b in range(3):
            for d in range(2):
                xp, xm = x.copy(), x.copy()
                xp[b, d] += h
                xm[b, d] -= h
                fp = (guidance[b] * member_probs(teachers[0], xp[b:b + 1], 2.0)).sum()
                fm = (guidance[b] * member_probs(teachers[0], xm[b:b + 1], 2.0)).sum()
                fd = (fp - fm) / (2 * h)
                assert abs(grads[b, d] - fd) / max(abs(fd), 1e-6) < 1e-4

    def test_deterministic_draws(self, teachers):
        x = np.random.default_rng(8).normal(size=(10, 2))
        a = perturb("ods", teachers, x, 0.2, 11)
        b = perturb("ods", teachers, x, 0.2, 11)
        assert a.epsilon.tobytes() == b.epsilon.tobytes()
        # another teacher-index stream picks other teachers for some rows
        c = build_perturbation("ods", teachers, None, x, 0.2, 1.0,
                               rng_stream(11, "noise"), rng_stream(12, "index"))
        assert c.epsilon.tobytes() != a.epsilon.tobytes()


class TestConfOds:
    def test_uniform_teacher_scales_step_to_gamma_over_k(self):
        spec = ModelSpec(2, 4, (8,))
        teacher = build_plain(spec, rng_stream(12, "init"))
        for l in teacher.layers:
            l.weight[:] = 0.0
            l.bias[0] = 0.0
        # zero network emits uniform probabilities; confidence = 1/K
        x = np.random.default_rng(13).normal(size=(5, 2))
        pert = perturb("conf_ods", [teacher], x, 0.4, 14)
        norms = np.linalg.norm(pert.epsilon, axis=1)
        # direction may be degenerate for a constant network; only scale is
        # asserted where a direction exists
        moved = norms > 0
        if moved.any():
            np.testing.assert_allclose(norms[moved], 0.4 / 4, atol=1e-12)

    def test_saturated_teacher_recovers_plain_ods(self, teachers):
        saturated = build_plain(ModelSpec(2, 3, (16,)), rng_stream(15, "init"))
        for l in saturated.layers:
            l.weight[:] *= 50.0  # confidence pinned at 1 almost everywhere
        x = np.random.default_rng(16).normal(size=(20, 2)) * 3
        probs = member_probs(saturated, x)[0]
        assert probs.max(axis=1).min() > 1 - 1e-9
        a = perturb("ods", [saturated], x, 0.2, 17)
        b = perturb("conf_ods", [saturated], x, 0.2, 17)
        np.testing.assert_allclose(a.epsilon, b.epsilon, atol=1e-9)


class TestDivEstimate:
    def test_identical_members_give_zero(self, teachers):
        x = Tensor(np.random.default_rng(18).normal(size=(4, 2)))
        kl = pair_kl(logits_of(teachers[0]), logits_of(teachers[0]), x)
        np.testing.assert_allclose(kl.data, 0.0, atol=1e-15)

    def test_two_point_value(self):
        fi = lambda x: tape.mul(x, Tensor(np.ones((1, 2))))  # identity logits
        pi = np.log([[0.5, 0.5]])
        pj = np.log([[0.9, 0.1]])
        kl = pair_kl(lambda x: Tensor(pi), lambda x: Tensor(pj), Tensor(np.zeros((1, 2))))
        assert kl.data[0] == pytest.approx(0.510826, abs=1e-6)

    def test_pair_average_reproduces_full_diversity(self, teachers, student):
        # mean over all ordered pairs / (M(M-1)) equals the full measure
        x_np = np.random.default_rng(20).normal(size=(6, 2))
        for models in (teachers, student):
            probs = member_probs(models, x_np)
            fns = [logits_of(m) for m in models]
            total = np.zeros(len(x_np))
            m_count = len(fns)
            for i in range(m_count):
                for j in range(m_count):
                    if i != j:
                        total += pair_kl(fns[i], fns[j], Tensor(x_np)).data[0]
            est = (total / (m_count * (m_count - 1))).mean()
            assert est == pytest.approx(diversity_from_probs(probs), rel=1e-10)


class TestPairPerturbations:
    def test_identical_ensembles_give_zero_step(self, teachers):
        spec = ModelSpec(2, 3, (16,))
        ones_student = build_be(spec, rng_stream(21, "init"), "ones", members=2)
        same_teachers = teachers[[0, 0]]
        x = np.random.default_rng(22).normal(size=(6, 2))
        pert = perturb("tdiv_sdiv", same_teachers, x, 0.3, 23, student=ones_student)
        assert not pert.epsilon.any()

    def test_norms_exact(self, teachers, student):
        x = np.random.default_rng(24).normal(size=(30, 2))
        pert = perturb("tdiv_sdiv", teachers, x, 0.25, 25, student=student)
        norms = np.linalg.norm(pert.epsilon, axis=1)
        moved = norms > 0
        np.testing.assert_allclose(norms[moved], 0.25, atol=1e-12)

    def test_direction_parallel_to_recomputed_gradient(self, teachers, student):
        x_np = np.random.default_rng(26).normal(size=(20, 2))
        pert = perturb("tdiv_sdiv", teachers, x_np, 0.1, 27, student=student)
        g = per_pair_gap_grad(teachers, student, x_np, pert.pairs)
        for b in range(len(x_np)):
            gn = np.linalg.norm(g[b])
            en = np.linalg.norm(pert.epsilon[b])
            if gn < 1e-12 or en == 0:
                continue
            cos = float(g[b] @ pert.epsilon[b] / (gn * en))
            assert abs(cos - 1.0) < 1e-10

    @pytest.mark.parametrize("members", [2, 3, 4])
    @pytest.mark.parametrize("joined", [False, pytest.param(True, id="joined")])
    @pytest.mark.parametrize("with_student", [False, True])
    def test_gradient_bitwise_equals_per_pair_oracle(self, members, joined,
                                                     with_student):
        # the teachers go to build_perturbation as a list of nets, or joined
        # into one net
        teachers, student = pair_ensembles(members, hidden=(64, 64))
        student = student if with_student else None
        given = join(teachers) if joined else teachers
        kind = "tdiv" if student is None else "tdiv_sdiv"
        rng = np.random.default_rng(52)
        # full batches, the README task's last batch (2 mod 4 rows), one row
        for trial, rows in enumerate((128, 26, 1)):
            x = 2.0 * rng.normal(size=(rows, 2))
            # the oracle's pairs come from one copy of the pair stream and
            # build_perturbation draws its own from a fresh copy
            pairs = draw_pairs(rng_stream(trial, "pairs"), members, len(x))
            oracle = per_pair_gap_grad(teachers, student, x, pairs)
            got = _pair_gap_grad(join(teachers), student, x, pairs)
            assert np.array_equal(got, oracle)
            pert = build_perturbation(kind, given, student, x, 0.3, 1.0,
                                      rng_stream(trial, "noise"), rng_stream(trial, "pairs"))
            assert np.array_equal(pert.pairs, pairs)
            assert np.array_equal(pert.epsilon, _normalize_rows(oracle, 0.3))

    @pytest.mark.parametrize("members", [2, 4])
    def test_logits_gradient_bitwise_equals_tape(self, members):
        # the closed form against the pair KLs of gathered rows on the tape,
        # at logits wide enough that some probabilities underflow to zero
        rng = np.random.default_rng(56)
        for scale in (1.0, 3.0, 800.0):
            for ensembles in (1, 2):
                logits = scale * rng.normal(size=(ensembles * members, 26, 5))
                pairs = draw_pairs(rng, members, 26)
                leaves = [Tensor(logits[k * members:(k + 1) * members], requires_grad=True)
                          for k in range(ensembles)]
                gap = None
                for leaf in leaves:
                    log_p = tape.log_softmax_temp(leaf, 1.0)
                    kl = tape.sum(tape_pair_kl(*(masked_member_rows(log_p, pairs[:, c])
                                               for c in (0, 1))))
                    gap = kl if gap is None else tape.sub(gap, kl)
                gap.backward()
                want = np.concatenate([leaf.grad for leaf in leaves])
                got = _pair_logits_grad(logits, pairs, members)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("hidden, student_hidden", [
        ((16, 16), (8,)), ((3, 3), (3,)), ((8,), (16, 16, 16)),
    ])
    def test_student_architecture_may_differ_from_the_teachers(self, hidden,
                                                               student_hidden):
        # the student runs on its own layers: narrower, shallower (at widths
        # that line up with the 3 classes) or deeper than the teachers
        teachers, student = pair_ensembles(3, hidden, student_hidden)
        rng = np.random.default_rng(55)
        x = 2.0 * rng.normal(size=(26, 2))
        pairs = draw_pairs(rng_stream(0, "pairs"), 3, len(x))
        oracle = per_pair_gap_grad(teachers, student, x, pairs)
        assert np.array_equal(_pair_gap_grad(join(teachers), student, x, pairs), oracle)
        pert = build_perturbation("tdiv_sdiv", teachers, student, x, 0.3, 1.0,
                                  rng_stream(0, "noise"), rng_stream(0, "pairs"))
        assert np.array_equal(pert.epsilon, _normalize_rows(oracle, 0.3))

    @pytest.mark.parametrize("members", [2, 3, 4])
    def test_each_member_runs_once(self, members, monkeypatch):
        # the teachers, joined into one net, and then the student each run one
        # forward on the shared input, every member once; no net runs a graph
        # forward
        teachers, student = pair_ensembles(members, student_hidden=(8, 8))
        calls, forwards = [], []
        values = ad.dense_values
        monkeypatch.setattr(ad, "dense_values",
                            lambda x, w, *a: calls.append((x, w)) or values(x, w, *a))
        monkeypatch.setattr(MLP, "forward", lambda net, x: forwards.append(net))
        x = np.random.default_rng(53).normal(size=(64, 2))
        joined = join(teachers)
        for kind, nets in (("tdiv_sdiv", [joined, student]), ("tdiv", [joined])):
            calls.clear()
            perturb(kind, teachers, x, 0.2, 54, student=student)
            layers = [l for net in nets for l in net.layers]
            assert len(calls) == len(layers)
            firsts = [0, len(joined.layers)][:len(nets)]
            assert all(calls[k][0] is x for k in firsts)
            for (_, w), l in zip(calls, layers):
                assert len(w) == members
                assert np.array_equal(w, ad.member_weights(l.weight, l.r, l.s))
        assert forwards == []

    def test_overflow_raises_numerics_error(self, teachers, student):
        x = np.random.default_rng(57).normal(size=(8, 2))
        big = [build_plain(t.spec, rng_stream(58, "init")) for t in teachers]
        for layer in big[1].layers:
            layer.weight *= 1e200
        with pytest.raises(NumericsError, match="'dense'"):
            perturb("tdiv_sdiv", big, x, 0.2, 59, student=student)
        # finite logits whose log-probabilities are not
        logits = np.array([[[-1e308, 1e308, 0.0]], [[0.0, 1.0, 2.0]]])
        with np.errstate(over="ignore"), pytest.raises(NumericsError, match="'pair_gap'"):
            _pair_logits_grad(logits, np.array([[0, 1]]), 2)

    def test_first_order_ascent(self, teachers, student):
        x = np.random.default_rng(28).normal(size=(400, 2))
        pert = perturb("tdiv_sdiv", teachers, x, 1e-4, 29, student=student)
        moved = np.linalg.norm(pert.epsilon, axis=1) > 0
        before = pair_gap_values(teachers, student, x, pert.pairs)
        after = pair_gap_values(teachers, student, x + pert.epsilon, pert.pairs)
        assert (after[moved] > before[moved]).mean() >= 0.95

    def test_teacher_only_variant(self, teachers):
        x = np.random.default_rng(30).normal(size=(25, 2))
        pert = perturb("tdiv", teachers, x, 0.2, 31)
        before = pair_gap_values(teachers, None, x, pert.pairs)
        after = pair_gap_values(teachers, None, x + pert.epsilon, pert.pairs)
        moved = np.linalg.norm(pert.epsilon, axis=1) > 0
        assert (after[moved] > before[moved]).mean() >= 0.95

    def test_member_counts_validated(self, teachers, student):
        x = np.zeros((3, 2))
        with pytest.raises(ValueError, match="at least two members on both sides"):
            perturb("tdiv_sdiv", teachers[0], x, 0.1, 0, student=student)
        with pytest.raises(ValueError, match="student member count must match"):
            perturb("tdiv_sdiv", teachers[[0, 1, 0]], x, 0.1, 0, student=student)
        with pytest.raises(ValueError, match="requires a factored student"):
            perturb("tdiv_sdiv", teachers, x, 0.1, 0)
        with pytest.raises(ValueError, match="at least two teachers"):
            perturb("tdiv", teachers[0], x, 0.1, 0)

    def test_builds_leave_every_array_unchanged(self, tiny_task, tiny_spec, tiny_optim):
        train, _, _ = tiny_task
        teachers = train_teachers(tiny_spec, train, 2, tiny_optim)
        student = build_be(tiny_spec, rng_stream(60, "init"), "random_sign", members=2)
        before = [p.copy() for net in (teachers, student) for p in net.parameters()]
        x = train.x[:16]
        perturb("tdiv_sdiv", teachers, x, 0.1, 61, student=student)
        perturb("ods", teachers, x, 0.1, 62)
        # a perturbation writes nothing onto any net it reads
        after = [p for net in (teachers, student) for p in net.parameters()]
        assert len(after) == len(before)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(after, before))

    def test_pair_draws_deterministic_and_offdiagonal(self):
        rng_a = rng_stream(32, "pairs")
        rng_b = rng_stream(32, "pairs")
        a = draw_pairs(rng_a, 4, 1000)
        b = draw_pairs(rng_b, 4, 1000)
        assert np.array_equal(a, b)
        assert (a[:, 0] != a[:, 1]).all()
        # ordered pairs should be roughly uniform over the off-diagonal
        counts = np.zeros((4, 4))
        for i, j in a:
            counts[i, j] += 1
        off = counts[~np.eye(4, dtype=bool)]
        assert off.min() > 1000 / 12 * 0.6


class TestBuildPerturbation:
    # the streams each kind draws from: (noise_rng, index_rng)
    DRAWS = {"none": (False, False), "gaussian": (True, False), "ods": (True, True),
             "conf_ods": (True, True), "tdiv": (False, True), "tdiv_sdiv": (False, True)}

    @pytest.mark.parametrize("kind", KINDS)
    def test_stream_contract(self, kind, teachers, student):
        noise_rng, index_rng = rng_stream(34, "noise"), rng_stream(34, "index")
        before = [rng.bit_generator.state for rng in (noise_rng, index_rng)]
        x = np.random.default_rng(35).normal(size=(8, 2))
        build_perturbation(kind, teachers, student, x, 0.2, 1.0, noise_rng, index_rng)
        after = [rng.bit_generator.state for rng in (noise_rng, index_rng)]
        assert [a != b for a, b in zip(after, before)] == list(self.DRAWS[kind])

    def test_unknown_kind_rejected(self, teachers):
        with pytest.raises(ValueError, match="unknown perturbation kind 'warp'"):
            perturb("warp", teachers, np.zeros((2, 2)), 0.1, 0)

    def test_none_is_zero(self, teachers, student):
        x = np.random.default_rng(36).normal(size=(4, 2))
        pert = perturb("none", teachers, x, 0.3, 0, student=student)
        assert pert.epsilon.shape == x.shape and not pert.epsilon.any()
        assert pert.pairs is None


class TestDiversityShift:
    def test_zero_perturbation_gives_zero_shift(self, teachers, student):
        x = np.random.default_rng(33).normal(size=(10, 2))
        d_t, d_s = diversity_shift_values(teachers, student, x, np.zeros_like(x))
        assert not d_t.any() and not d_s.any()
