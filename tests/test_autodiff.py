"""Unit tests for the dense kernels every forward and backward is built
from, against a per-member numpy reference and finite differences; for the
tape of ``tape.py`` that the closed-form gradients are checked against:
its backward rules and graph semantics; and for the gamma-family special
functions against independent oracles (stdlib math / scipy)."""

import math

import numpy as np
import pytest
import scipy.special as sp

import distilab.autodiff as ad
import tape
from distilab.autodiff import DomainError, NumericsError, ShapeError
from distilab.nets import MLP, Layer, ModelSpec
from tape import Tensor


def finite_diff(fn, arrays, h=1e-5):
    """Central finite differences of a scalar-valued fn of numpy arrays."""
    grads = []
    for target in range(len(arrays)):
        g = np.zeros_like(arrays[target])
        flat = g.reshape(-1)
        for i in range(flat.size):
            plus = [a.copy() for a in arrays]
            minus = [a.copy() for a in arrays]
            plus[target].reshape(-1)[i] += h
            minus[target].reshape(-1)[i] -= h
            flat[i] = (fn(*plus) - fn(*minus)) / (2 * h)
        grads.append(g)
    return grads


def check_grad(build, arrays, rel_tol=1e-6, h=1e-5):
    """AD gradients of build(*tensors) vs central differences of its value."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(*tensors)
    out.backward()
    fd = finite_diff(lambda *arrs: build(*[Tensor(a) for a in arrs]).item(),
                     arrays, h=h)
    for t, g in zip(tensors, fd):
        got = t.grad if t.grad is not None else np.zeros_like(g)
        rel = np.abs(got - g) / np.maximum(np.abs(g), 1e-6)
        assert rel.max() < rel_tol, f"max rel err {rel.max():.3e}"


def check_value_grad(fn, array, rel_tol=1e-6, h=1e-5):
    """The gradient of fn(array) -> (value, gradient) vs central differences
    of its value."""
    got = fn(array)[1]
    fd = finite_diff(lambda a: float(fn(a)[0]), [array], h=h)[0]
    rel = np.abs(got - fd) / np.maximum(np.abs(fd), 1e-6)
    assert rel.max() < rel_tol, f"max rel err {rel.max():.3e}"


def dense_grads(x, weight, r, s, bias, relu, upstream):
    """Output, per-member input gradient and the weight, r, s and bias
    gradients of one dense layer under the readout sum(upstream * out), from
    the shared kernels: the layer ``nets.MLP`` runs forward and backward."""
    w = ad.member_weights(weight, r, s)
    out = ad.dense_values(x, w, bias, relu)
    g = ad.dense_pre_grad(upstream, out, relu)
    g_x = ad.first_arrival(ad.dense_input_grad(g, w))
    return (out, g_x, *ad.dense_param_grads(x, g, weight, r, s))


def dense_reference(x, weights, r, s, bias, relu, upstream):
    """Per-member numpy reference of the dense kernels: each member runs the float
    operations of the one-member op chain (W ∘ s r^T of an (in, out) W,
    matmul, bias, relu) and the gradients accumulate as that chain's graph
    did, from zeros and in member order; the r and s gradients take the
    (out, in) rows of the rank gradient. Returns (output, each member's input
    gradient, weight gradients, r, s and bias gradients)."""
    members = len(bias)
    outs, g_x, g_w = [], [], [np.zeros_like(w) for w in weights]
    g_r, g_s, g_b = [], [], []
    for m in range(members):
        x_m = x if x.ndim == 2 else x[m]
        w = weights[0] * np.outer(s[m], r[m]) if r else weights[m]
        pre = x_m @ w + bias[m]
        outs.append(np.maximum(pre, 0.0) if relu else pre)
        g = upstream[m] * (pre > 0.0) if relu else upstream[m]
        g_eff = np.zeros_like(w) + x_m.T @ g
        if r:
            g_w[0] += g_eff * np.outer(s[m], r[m])
            g_rank = np.zeros(w.T.shape) + (g_eff * weights[0]).T
            g_r.append(np.zeros_like(r[m]) + g_rank @ s[m])
            g_s.append(np.zeros_like(s[m]) + g_rank.T @ r[m])
        else:
            g_w[m] += g_eff
        g_b.append(np.zeros_like(bias[m]) + g.sum(axis=0))
        g_x.append(np.zeros_like(x_m) + g @ w.T)
    return np.stack(outs), np.stack(g_x), g_w, g_r, g_s, g_b


def dense_case(rng, members, factored, shared_input, batch=5, in_dim=4, out_dim=3):
    x = rng.normal(size=(batch, in_dim) if shared_input else (members, batch, in_dim))
    weights = [rng.normal(size=(in_dim, out_dim)) for _ in range(1 if factored else members)]
    r = [rng.normal(size=out_dim) for _ in range(members)] if factored else []
    s = [rng.normal(size=in_dim) for _ in range(members)] if factored else []
    bias = [rng.normal(size=out_dim) for _ in range(members)]
    return x, weights, r, s, bias


def stacked(group):
    """A list of per-member arrays as one member-stacked array; None when empty."""
    return np.stack(group) if group else None


def one_layer_net(weight, bias, r=None, s=None):
    """A net of the one dense layer with these arrays and no relu."""
    spec = ModelSpec(weight.shape[1], bias.shape[1], (1,))
    return MLP(spec, [Layer(weight, bias, r, s)])


class TestDense:
    def test_identity(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = ad.dense_values(x, ad.member_weights(np.eye(2)[None], None, None),
                              np.zeros((1, 2)), False)
        assert np.array_equal(out, [[[1.0, 2.0], [3.0, 4.0]]])

    def test_projector(self):
        # rows of x times the projector keep the first coordinate
        x = np.array([[5.0, 6.0], [7.0, 8.0]])
        p = np.array([[[1.0, 0.0], [0.0, 0.0]]])
        out = ad.dense_values(x, ad.member_weights(p, None, None), np.zeros((1, 2)), False)
        assert np.array_equal(out, [[[5.0, 0.0], [7.0, 0.0]]])

    def test_relu_values(self):
        out = ad.dense_values(np.array([[-1.0, 0.0, 2.0]]),
                              ad.member_weights(np.eye(3)[None], None, None),
                              np.zeros((1, 3)), True)
        assert np.array_equal(out, [[[0.0, 0.0, 2.0]]])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        x, weights, r, s, bias = dense_case(rng, 2, True, False)
        arrays = [x, *map(stacked, (weights, r, s, bias))]
        upstream = rng.normal(size=(2, 5, 3))

        def value(*arrs):
            xa, *ts = arrs
            return float((upstream * dense_grads(xa, *ts, False, upstream)[0]).sum())

        got = dense_grads(x, *arrays[1:], False, upstream)
        # each member's input gradient, and the parameter gradients
        for a, g, fd in zip(arrays, (got[1], *got[2:]), finite_diff(value, arrays)):
            assert np.abs(g - fd).max() < 1e-6 * max(1.0, np.abs(fd).max())

    def test_shape_mismatch(self):
        net = one_layer_net(np.ones((1, 3, 2)), np.zeros((1, 2)))
        with pytest.raises(ShapeError):
            net.forward_kept(np.ones((4, 2)))
        with pytest.raises(ShapeError):
            net.forward_kept(np.ones((2, 4, 3)))

    @pytest.mark.parametrize("members", [1, 2, 3, 4])
    @pytest.mark.parametrize("factored", [False, True])
    @pytest.mark.parametrize("shared_input", [False, True])
    @pytest.mark.parametrize("relu", [False, True])
    def test_bitwise_equals_per_member_reference(self, members, factored, shared_input,
                                                 relu):
        # a plain layer of several members is a teacher ensemble: one weight each
        rng = np.random.default_rng(100 + members)
        x, weights, r, s, bias = dense_case(rng, members, factored, shared_input,
                                            batch=33, in_dim=17, out_dim=9)
        upstream = rng.normal(size=(members, 33, 9))
        got = dense_grads(x, *map(stacked, (weights, r, s, bias)), relu, upstream)
        ref = dense_reference(x, weights, r, s, bias, relu, upstream)
        assert got[0].tobytes() == ref[0].tobytes()
        assert got[1].tobytes() == ref[1].tobytes()
        for grad, expected in zip(got[2:], ref[2:]):
            if grad is None:
                assert expected == []
                continue
            assert len(grad) == len(expected)
            for g, e in zip(grad, expected):
                assert g.tobytes() == e.tobytes()

    @pytest.mark.parametrize("factored", [False, True])
    @pytest.mark.parametrize("poisoned", ["", "w", "rs", "b", "w rs b"])
    def test_constant_tensors_collect_no_gradient(self, factored, poisoned, monkeypatch):
        # a net used as constants (teachers in a perturbation) passes g to its
        # input alone: params=False forms no parameter gradient, reads only
        # what the forward kept (a plain layer keeps its own weight as its
        # member weights), not the net's arrays, and gives the full backward's
        # bytes
        rng = np.random.default_rng(21)
        arrays = dense_case(rng, 3, factored, False, batch=33, in_dim=17, out_dim=9)
        x, arrays = arrays[0], list(map(stacked, arrays[1:]))
        upstream = rng.normal(size=(3, 33, 9))
        want = dense_grads(x, *arrays, False, upstream)[1]
        w, r, s, b = (None if a is None else a.copy() for a in arrays)
        net = one_layer_net(w, b, r, s)
        kept = net.forward_kept(x)
        names = poisoned.split()
        layer = net.layers[0]
        for attr, name in (("weight", "w"), ("r", "rs"), ("s", "rs"), ("bias", "b")):
            a = getattr(layer, attr)
            if a is not None and name in names:
                setattr(layer, attr, np.full_like(a, np.nan))

        def no_param_grads(*args):
            raise AssertionError("params=False formed a parameter gradient")

        monkeypatch.setattr(ad, "dense_param_grads", no_param_grads)
        g_x = net.backward(kept, upstream, False)
        assert g_x.tobytes() == want.tobytes()

    # finite operands whose products overflow: -inf, inf - inf = NaN, +inf
    @pytest.mark.parametrize("relu,x,w", [
        (True, [[1e300]], [[[-1e300]]]),
        (True, [[1e300, 1e300]], [[[1e300], [-1e300]]]),
        (False, [[1e300]], [[[1e300]]]),
    ], ids=["relu-neg-inf", "relu-nan", "linear-pos-inf"])
    def test_non_finite_output_names_dense(self, relu, x, w):
        # a relu would turn the -inf into 0, so a relu layer is checked before it
        with pytest.raises(NumericsError, match="'dense'"):
            ad.dense_values(np.array(x), ad.member_weights(np.array(w), None, None),
                            np.zeros((1, 1)), relu)

    def test_member_weights(self):
        rng = np.random.default_rng(12)
        _, weights, r, s, _ = dense_case(rng, 3, True, True)
        got = ad.member_weights(*(stacked(g) for g in (weights, r, s)))
        assert got.shape == (3, 4, 3) and got.flags.c_contiguous
        for m in range(3):
            assert got[m].tobytes() == (weights[0] * np.outer(s[m], r[m])).tobytes()
        plain = stacked(dense_case(rng, 3, False, True)[1])
        assert ad.member_weights(plain, None, None) is plain


class TestElementwise:
    """The tape's elementwise ops."""

    def test_scalar_broadcast(self):
        out = tape.add(Tensor([[1.0, 2.0]]), Tensor(3.0))
        assert np.array_equal(out.data, [[4.0, 5.0]])

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ShapeError):
            tape.add(Tensor(np.ones(3)), Tensor(np.ones(4)))

    def test_backward_rules_against_finite_differences(self):
        rng = np.random.default_rng(7)
        cases = {
            "add": lambda x, y: tape.sum(tape.add(x, y)),
            "sub": lambda x, y: tape.sum(tape.mul(tape.sub(x, y), tape.sub(x, y))),
            "mul": lambda x, y: tape.sum(tape.mul(x, y)),
        }
        for name, build in cases.items():
            a, b = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
            check_grad(build, [a, b])
        check_grad(lambda x: tape.sum(tape.exp(x)), [rng.normal(size=(2, 3))])
        check_grad(lambda x: tape.scale(tape.sum(x), 2.5), [rng.normal(size=(5,))])
        check_grad(lambda x: tape.mean(tape.mul(x, x)), [rng.normal(size=(6,))])

    def test_sum_axis_backward(self):
        rng = np.random.default_rng(3)
        check_grad(lambda x: tape.sum(tape.mul(tape.sum(x, axis=-1), tape.sum(x, axis=-1))),
                   [rng.normal(size=(4, 3))])


class TestSoftmaxTemp:
    """The tape's softmax ops."""

    def test_uniform_on_constant_logits(self):
        for tau in (0.3, 1.0, 7.0):
            p = tape.softmax_temp(Tensor([2.5, 2.5, 2.5]), tau)
            np.testing.assert_allclose(p.data, np.full(3, 1 / 3), atol=1e-15)

    def test_two_class_value(self):
        # exp(1)/(exp(1)+exp(0)) at logits (2,0), tau=2
        p = tape.softmax_temp(Tensor([2.0, 0.0]), 2.0)
        np.testing.assert_allclose(p.data, [0.731059, 0.268941], atol=5e-7)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        p = tape.softmax_temp(Tensor(rng.normal(size=(50, 7)) * 30), 0.7)
        np.testing.assert_allclose(p.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_argmax_invariant_under_temperature(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(100, 5))
        base = z.argmax(axis=-1)
        for tau in (0.1, 1.0, 10.0):
            p = tape.softmax_temp(Tensor(z), tau)
            assert np.array_equal(p.data.argmax(axis=-1), base)

    def test_rejects_nonpositive_temperature(self):
        for bad in (0.0, -1.0):
            with pytest.raises(DomainError):
                tape.softmax_temp(Tensor([1.0, 2.0]), bad)

    def test_gradients(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(3, 4))
        w = rng.normal(size=(3, 4))
        check_grad(lambda x: tape.sum(tape.mul(Tensor(w), tape.softmax_temp(x, 2.0))), [z])
        check_grad(lambda x: tape.sum(tape.mul(Tensor(w), tape.log_softmax_temp(x, 0.5))), [z])

    def test_log_softmax_matches_log_of_softmax(self):
        rng = np.random.default_rng(8)
        z = rng.normal(size=(10, 6)) * 20
        a = tape.log_softmax_temp(Tensor(z), 3.0).data
        b = np.log(tape.softmax_temp(Tensor(z), 3.0).data)
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestGraphSemantics:
    """The tape's reverse sweep."""

    def test_diamond_accumulates_over_paths(self):
        x = Tensor([3.0], requires_grad=True)
        tape.sum(tape.mul(x, x)).backward()
        np.testing.assert_array_equal(x.grad, [6.0])

    def test_backward_after_reset_is_bit_identical(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        out = tape.sum(tape.exp(tape.mul(tape.mul(x, w), x)))
        out.backward()
        first = (x.grad.copy(), w.grad.copy())
        x.zero_grad()
        w.zero_grad()
        out.backward()
        assert np.array_equal(first[0], x.grad) and first[0].tobytes() == x.grad.tobytes()
        assert first[1].tobytes() == w.grad.tobytes()

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError):
            tape.mul(x, x).backward()

    def test_nan_inf_raise_immediately(self):
        with pytest.raises(NumericsError):
            tape.exp(Tensor([1000.0]))
        with pytest.raises(NumericsError):
            Tensor([np.inf])


class TestGammaFamily:
    def test_integer_values(self):
        assert abs(ad.lgamma(1.0)) < 1e-12
        assert abs(ad.lgamma(2.0)) < 1e-12

    def test_half_value(self):
        assert abs(ad.lgamma(0.5) - 0.5723649429) < 1e-9

    def test_digamma_at_one_is_negative_euler(self):
        assert abs(ad.digamma(1.0) - (-0.5772156649)) < 1e-9

    def test_lgamma_against_stdlib(self):
        xs = np.geomspace(0.1, 100.0, 400)
        errs = [abs(ad.lgamma(float(v)) - math.lgamma(v)) for v in xs]
        assert max(errs) < 1e-10

    def test_digamma_trigamma_against_scipy(self):
        xs = np.geomspace(0.05, 150.0, 500)
        assert np.abs(ad.digamma(xs) - sp.psi(xs)).max() < 1e-10
        assert np.abs(ad._trigamma_arr(xs) - sp.polygamma(1, xs)).max() < 1e-10

    def test_domain_errors(self):
        for fn in (ad.lgamma, ad.digamma, ad._trigamma_arr):
            with pytest.raises(DomainError):
                fn(0.0)
            with pytest.raises(DomainError):
                fn(-1.3)

    def test_ad_rules(self):
        # d lgamma = digamma, d digamma = trigamma, on the tape
        x = Tensor([0.7, 1.3, 4.2], requires_grad=True)
        tape.sum(tape.lgamma(x)).backward()
        np.testing.assert_allclose(x.grad, sp.psi(x.data), atol=1e-10)
        x.zero_grad()
        tape.sum(tape.digamma(x)).backward()
        np.testing.assert_allclose(x.grad, sp.polygamma(1, x.data), atol=1e-10)

    def test_gradients_against_finite_differences(self):
        rng = np.random.default_rng(13)
        a = rng.uniform(0.5, 5.0, size=(6,))
        check_grad(lambda x: tape.sum(tape.lgamma(x)), [a], rel_tol=1e-5)
        check_grad(lambda x: tape.sum(tape.digamma(x)), [a], rel_tol=1e-5)
