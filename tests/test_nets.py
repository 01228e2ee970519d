"""Plain and factored MLPs: forward semantics, member selection and isolation,
rank-one averaging against a per-element loop oracle, checkpoint round trips
and committed format-v1 files."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

import tape
from distilab.autodiff import ShapeError
from distilab.metrics import batched_logits
from distilab.nets import (CheckpointError, Layer, MLP, ModelSpec, _fmt_values, _parse_values,
                           average_rank_one, build_be, build_plain, checkpoint_load,
                           checkpoint_save, join, restack, stack)
from distilab.seeding import rng_stream
from distilab.subspace import interpolate
from test_autodiff import check_value_grad

DATA = Path(__file__).parent / "data"
# the finite float64s among 100,000 random bit patterns: every exponent,
# subnormals included, at random mantissas
_BITS = np.random.default_rng(32).integers(0, 2 ** 64, size=100_000, dtype=np.uint64)
RANDOM_BITS = _BITS.view(np.float64)[np.isfinite(_BITS.view(np.float64))]


def logits(net, x):
    """(B, K) logits of a one-member net."""
    return batched_logits(net, x)[0]


def _spec(hidden=(16,)):
    return ModelSpec(2, 3, hidden)


def member_grads(net, x, m):
    """The gradients of the sum of member m's logits, through the full
    (M, B, K) forward, keyed by the id of each parameter array."""
    kept = net.forward_kept(x)
    upstream = np.zeros(kept[-1][2].shape)
    upstream[m] = 1.0
    return {id(p): g for p, g in zip(net.parameters(), net.backward(kept, upstream, True))}


class TestModelSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelSpec(0, 3, (8,))
        with pytest.raises(ValueError):
            ModelSpec(2, 1, (8,))
        with pytest.raises(ValueError):
            ModelSpec(2, 3, ())
        with pytest.raises(ValueError):
            build_be(ModelSpec(2, 3, (8,)), rng_stream(0, "init"), members=0)

    @pytest.mark.parametrize("field, value, message", [
        ("in_dim", 2.0, "in_dim must be an integer"),
        ("num_classes", True, "num_classes must be an integer"),
        ("hidden", (8.7,), "hidden widths must be integers >= 1"),
        ("hidden", (8, 0), "hidden widths must be integers >= 1"),
        ("hidden", 64, "hidden widths must be a list"),
        ("hidden", "64", "hidden widths must be a list"),
    ])
    def test_counts_must_be_integers(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}, got "):
            ModelSpec(**{"in_dim": 2, "num_classes": 3, "hidden": (8,), field: value})

    def test_numpy_integers_become_python_integers(self):
        spec = ModelSpec(np.int64(2), np.int32(3), (np.int64(8),))
        assert json.dumps(spec.to_dict()) == json.dumps(ModelSpec(2, 3, (8,)).to_dict())


class TestForwardPlain:
    def test_zero_network_gives_zero_logits(self):
        model = build_plain(_spec(), rng_stream(0, "init"))
        for layer in model.layers:
            layer.weight[:] = 0.0
            layer.bias[0] = 0.0
        out = model.forward(np.ones((4, 2)))
        assert np.array_equal(out, np.zeros((1, 4, 3)))

    def test_single_linear_layer_composition(self):
        # relu hidden set to identity passthrough makes the net affine:
        # fix hidden weight to the (padded) identity, zero bias
        rng = np.random.default_rng(0)
        model = build_plain(ModelSpec(3, 2, (3,)), rng_stream(1, "init"))
        model.layers[0].weight[:] = np.eye(3)
        model.layers[0].bias[0] = 10.0  # keep relu inactive region away
        w = rng.normal(size=(2, 3))
        b = rng.normal(size=2)
        model.layers[1].weight[:] = w.T
        model.layers[1].bias[0] = b
        x = np.abs(rng.normal(size=(5, 3)))
        expected = (x + 10.0) @ w.T + b
        np.testing.assert_allclose(model.forward(x)[0], expected, atol=1e-12)

    def test_input_gradient_finite_difference(self):
        # the input-only backward of a weighted readout of the logits
        model = build_plain(ModelSpec(2, 3, (16,)), rng_stream(2, "init"))
        w = np.random.default_rng(3).normal(size=(1, 4, 3))

        def readout(x):
            kept = model.forward_kept(x)
            return (w * kept[-1][2]).sum(), model.backward(kept, w, False)[0]

        check_value_grad(readout, np.random.default_rng(4).normal(size=(4, 2)), rel_tol=1e-4)

    @pytest.mark.parametrize("name, bad", [
        ("weight", np.ones((1, 2, 3), dtype=np.float32)),
        ("bias", np.zeros((2, 3), dtype=np.int64)),
        ("r", np.ones((2, 3), dtype=np.float32)),
        ("s", np.ones((2, 2)).tolist()),
    ])
    def test_layer_rejects_non_float64_arrays(self, name, bad):
        arrays = {"weight": np.ones((1, 2, 3)), "bias": np.zeros((2, 3)),
                  "r": np.ones((2, 3)), "s": np.ones((2, 2))}
        Layer(**arrays)
        with pytest.raises(TypeError, match="float64 arrays"):
            Layer(**{**arrays, name: bad})

    def test_input_shape_check(self):
        model = build_plain(_spec(), rng_stream(0, "init"))
        with pytest.raises(Exception):
            model.forward(np.ones((4, 5)))


class TestLayout:
    """Every weight is the C-ordered (M, in, out) array its matmul reads, or a
    factored net's shared (1, in, out) one: a strided weight would slow each
    update of it."""

    def test_every_weight_is_c_ordered_in_out(self, tmp_path):
        spec = _spec((8, 5))
        plain = build_plain(spec, [rng_stream(s, "init") for s in range(3)])
        be = build_be(spec, rng_stream(1, "init"), "random_sign", members=2)
        checkpoint_save(plain[0], tmp_path / "plain.json")
        checkpoint_save(be, tmp_path / "be.json")
        stacked = stack([plain, be, build_plain(_spec((4,)), rng_stream(2, "init")), be])
        assert [len(net) for net in stacked] == [5, 1, 2]
        for l in be.layers:
            l.r += 0.5
        restack(stacked, be)
        nets = [plain, be, checkpoint_load(tmp_path / "plain.json"),
                checkpoint_load(tmp_path / "be.json"), join([plain[1], be]), *stacked,
                average_rank_one(be), interpolate(be, 0.3)]
        for net in nets:
            for l, fan_in, fan_out in zip(net.layers, net.spec.widths, net.spec.widths[1:]):
                rows = 1 if net.factored else len(net)
                assert l.weight.shape == (rows, fan_in, fan_out)
                assert l.weight.dtype == np.float64 and l.weight.flags.c_contiguous
        x = np.random.default_rng(2).normal(size=(4, 2))
        assert stacked[-1].forward(x).tobytes() == be.forward(x).tobytes()

    def test_every_parameter_is_a_view_of_one_buffer(self, tmp_path):
        # net.flat holds parameters() end to end; each layer array is a view
        spec = _spec((8, 5))
        plain = build_plain(spec, [rng_stream(s, "init") for s in range(3)])
        be = build_be(spec, rng_stream(1, "init"), "random_sign", members=2)
        checkpoint_save(be, tmp_path / "be.json")
        nets = [plain, be, plain[[2, 0]], be[1], checkpoint_load(tmp_path / "be.json"),
                join([plain[1], be]), *stack([plain, be]), average_rank_one(be),
                interpolate(be, 0.3)]
        for net in nets:
            params = net.parameters()
            assert net.flat.dtype == np.float64 and net.flat.ndim == 1
            assert net.flat.tobytes() == b"".join(p.tobytes() for p in params)
            assert all(p.base is net.flat and p.flags.c_contiguous for p in params)
            # groups: the weights, the r and s factors and the biases, tiling flat
            w, rs, b = net.groups
            assert (w.start, w.stop, rs.stop, b.stop) == (0, rs.start, b.start, net.flat.size)
            factors = [a for l in net.layers if l.r is not None for a in (l.r, l.s)]
            for group, arrays in ((w, [l.weight for l in net.layers]), (rs, factors),
                                  (b, [l.bias for l in net.layers])):
                assert net.flat[group].tobytes() == b"".join(a.tobytes() for a in arrays)
            net.flat[:] = 0.5
            assert all((p == 0.5).all() for p in params)

    def test_layer_rejects_out_in_weights(self):
        with pytest.raises(ShapeError):
            Layer(np.ones((2, 3, 4)), np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            Layer(np.ones((1, 3, 2)), np.zeros((2, 3)), np.ones((2, 3)), np.ones((2, 2)))


class TestForwardMember:
    def test_ones_factors_match_shared_network(self):
        spec = _spec()
        be = build_be(spec, rng_stream(3, "init"), "ones", members=3)
        plain = MLP(spec, [Layer(l.weight, l.bias[:1]) for l in be.layers])
        x = np.random.default_rng(5).normal(size=(6, 2))
        ref = logits(plain, x)
        for m in range(3):
            np.testing.assert_array_equal(logits(be[m], x), ref)

    def test_zero_r_leaves_only_biases(self):
        be = build_be(_spec(), rng_stream(4, "init"), "ones", members=2)
        for l in be.layers:
            l.r[0] = 0.0
            l.bias[0] = np.arange(l.bias[0].shape[0], dtype=float)
        x = np.random.default_rng(6).normal(size=(4, 2))
        out = logits(be[0], x)
        # every row identical: input influence is annihilated
        assert np.ptp(out, axis=0).max() == 0.0

    def test_materialization_oracle(self):
        be = build_be(_spec((8, 8)), rng_stream(7, "init"), "random_sign", members=2)
        for l in be.layers:
            for m in range(2):
                l.r[m] += np.random.default_rng(m).normal(size=l.r[m].shape) * 0.1
        x = np.random.default_rng(8).normal(size=(10, 2))
        for m in range(2):
            direct = logits(be[m], x)
            materialized = MLP(be.spec, [
                Layer(l.weight * np.outer(l.s[m], l.r[m]), l.bias[m][None])
                for l in be.layers])
            assert np.abs(direct - logits(materialized, x)).max() < 1e-12

    def test_member_index_range(self):
        be = build_be(_spec(), rng_stream(9, "init"), "ones", members=2)
        for m in (2, -1):
            with pytest.raises(IndexError):
                be[m]
        assert len(list(be)) == 2

    @pytest.mark.parametrize("factored", [False, True])
    def test_selected_members_are_bit_equal_to_full_forward(self, factored):
        spec = _spec((8, 8))
        if factored:
            net = build_be(spec, rng_stream(9, "init"), "random_sign", members=4)
        else:
            net = join([build_plain(spec, rng_stream(s, "init")) for s in range(4)])
        x = np.random.default_rng(10).normal(size=(5, 2))
        full = net.forward(x)
        for idx in ([2, 0], [1, 1], range(4), (3,)):
            picked = net[idx]
            assert (len(picked), picked.factored) == (len(list(idx)), factored)
            assert picked.forward(x).tobytes() == full[list(idx)].tobytes()
        assert net[3].forward(x).tobytes() == full[3:].tobytes()
        with pytest.raises(IndexError):
            net[[0, 4]]
        with pytest.raises(IndexError):
            net[[]]

    @pytest.mark.parametrize("factored", [False, True])
    def test_selected_members_are_constant_copies(self, factored):
        spec = _spec()
        if factored:
            net = build_be(spec, rng_stream(9, "init"), "random_sign", members=3)
        else:
            net = join([build_plain(spec, rng_stream(s, "init")) for s in range(3)])
        before = [p.copy() for p in net.parameters()]
        for idx in ([2, 1], 0):
            for p in net[idx].parameters():
                p[:] = 7.0
        for p, b in zip(net.parameters(), before):
            assert p.tobytes() == b.tobytes()

    @pytest.mark.parametrize("factored", [False, True])
    def test_selected_parameters_are_bit_equal_to_the_source_rows(self, factored):
        spec = _spec((8, 8))
        if factored:
            net = build_be(spec, rng_stream(9, "init"), "random_sign", members=4)
        else:
            net = join([build_plain(spec, rng_stream(s, "init")) for s in range(4)])
        for idx in ([2, 0], 3):
            rows = [idx] if isinstance(idx, int) else idx
            picked = net[idx]
            for src, got in zip(net.layers, picked.layers):
                # a factored net's one weight is shared by every member
                weight = src.weight if factored else src.weight[rows]
                assert got.weight.tobytes() == weight.tobytes()
                assert got.weight is not src.weight
                for name in ("bias", "r", "s"):
                    a, b = getattr(src, name), getattr(got, name)
                    assert (a is None) == (b is None)
                    if a is not None:
                        assert b.tobytes() == a[rows].tobytes()
                        assert b.flags.c_contiguous and b is not a

    @pytest.mark.parametrize("factored", [False, True])
    def test_multi_member_forward_stacks_the_members(self, factored):
        spec = _spec((8, 8))
        if factored:
            net = build_be(spec, rng_stream(9, "init"), "random_sign", members=3)
        else:
            net = join([build_plain(spec, rng_stream(s, "init")) for s in range(3)])
        x = np.random.default_rng(10).normal(size=(5, 2))
        stacked = net.forward(x)
        assert stacked.shape == (3, 5, 3)
        per_member = np.random.default_rng(11).normal(size=(3, 5, 2))
        sliced = net.forward(per_member)
        for m in range(3):
            assert stacked[m].tobytes() == net[m].forward(x)[0].tobytes()
            assert sliced[m].tobytes() == logits(net[m], per_member[m]).tobytes()
        with pytest.raises(ShapeError):
            net.forward(np.ones((2, 5, 2)))

    def test_join_concatenates_plain_nets(self, tmp_path):
        spec = _spec()
        plains = [build_plain(spec, rng_stream(s, "init")) for s in range(2)]
        joined = join(plains)
        assert (len(joined), joined.factored) == (2, False)
        assert not any(np.shares_memory(a, b) for a in joined.parameters()
                       for plain in plains for b in plain.parameters())
        x = np.random.default_rng(12).normal(size=(4, 2))
        full = joined.forward(x)
        for m, plain in enumerate(plains):
            assert full[m].tobytes() == logits(plain, x).tobytes()
        # a factored net joins as plain members of its member weights
        be = build_be(spec, rng_stream(9, "init"), "random_sign", members=3)
        picked = join([be[2], be[0]])
        assert (len(picked), picked.factored) == (2, False)
        assert picked.forward(x).tobytes() == be.forward(x)[[2, 0]].tobytes()
        with pytest.raises(ValueError):
            checkpoint_save(joined, tmp_path / "joined.json")

    def test_member_isolation_in_backward(self):
        be = build_be(_spec(), rng_stream(10, "init"), "random_sign", members=3)
        grads = member_grads(be, np.random.default_rng(11).normal(size=(5, 2)), 1)
        for l in be.layers:
            for m in (0, 2):
                assert not grads[id(l.r)][m].any()
                assert not grads[id(l.s)][m].any()
            assert grads[id(l.r)][1].any()

    def test_shared_accumulation_equals_sum_of_member_grads(self):
        be = build_be(_spec(), rng_stream(12, "init"), "random_sign", members=2)
        x_np = np.random.default_rng(13).normal(size=(4, 2))
        separate = [member_grads(be, x_np, m) for m in range(2)]
        kept = be.forward_kept(x_np)
        both = be.backward(kept, np.ones(kept[-1][2].shape), True)
        for l, g in zip(be.layers, both):
            np.testing.assert_allclose(g, separate[0][id(l.weight)] + separate[1][id(l.weight)],
                                       atol=1e-12)


class TestBackward:
    """``MLP.backward`` against the tape of ``tape.py``, bit for bit."""

    @staticmethod
    def _net(factored, members, hidden=(16, 8)):
        spec = ModelSpec(2, 3, hidden)
        if factored:
            net = build_be(spec, rng_stream(70, "init"), "random_sign", members=members)
        else:
            net = build_plain(spec, [rng_stream(70 + m, "init") for m in range(members)])
        rng = np.random.default_rng(71)
        for l in net.layers:
            l.bias[:] = 0.1 * rng.normal(size=l.bias.shape)
            if factored:
                l.r[:] += 0.3 * rng.normal(size=l.r.shape)
        return net

    @pytest.mark.parametrize("members", [1, 2, 3])
    @pytest.mark.parametrize("factored", [False, True])
    @pytest.mark.parametrize("shared_input", [False, True])
    def test_parameter_gradients_bitwise_equal_tape(self, members, factored, shared_input):
        net = self._net(factored, members)
        rng = np.random.default_rng(72)
        x = rng.normal(size=(26, 2) if shared_input else (members, 26, 2))
        # an upstream with zeros of both signs, as a loss gradient may carry
        upstream = rng.normal(size=(members, 26, 3))
        upstream[:, ::3] = -0.0
        upstream[:, 1::5] = 0.0
        out, leaves = tape.forward(net, x)
        tape.sum(tape.mul(tape.Tensor(upstream), out)).backward()
        params = net.parameters()
        before = [p.copy() for p in params]
        kept = net.forward_kept(x)
        assert kept[-1][2].tobytes() == out.data.tobytes()
        grads = net.backward(kept, upstream + 0.0, True)
        # one gradient per array of parameters(), in its order and shape
        assert len(grads) == len(params) == len(leaves)
        for p, b, got, leaf in zip(params, before, grads, leaves):
            assert leaf.data.tobytes() == p.tobytes() == b.tobytes()
            assert got.shape == p.shape
            assert got.tobytes() == leaf.grad.tobytes()

    @pytest.mark.parametrize("factored", [False, True])
    def test_input_gradients_bitwise_equal_tape(self, factored):
        # member m's input gradient is that of the tape's input leaf of net[m]
        net = self._net(factored, 3)
        rng = np.random.default_rng(73)
        x = rng.normal(size=(26, 2))
        upstream = rng.normal(size=(3, 26, 3))
        got = net.backward(net.forward_kept(x), upstream, False)
        for m in range(3):
            leaf = tape.Tensor(x, requires_grad=True)
            out, _ = tape.forward(net[m], leaf)
            tape.sum(tape.mul(tape.Tensor(upstream[m:m + 1]), out)).backward()
            assert got[m].tobytes() == leaf.grad.tobytes()


class TestAverageRankOne:
    def test_identical_members_equal_any_member(self):
        be = build_be(_spec(), rng_stream(14, "init"), "ones", members=4)
        rng = np.random.default_rng(15)
        for l in be.layers:
            rv = rng.normal(size=l.r[0].shape)
            sv = rng.normal(size=l.s[0].shape)
            for m in range(4):
                l.r[m] = rv
                l.s[m] = sv
        x = rng.normal(size=(5, 2))
        np.testing.assert_allclose(logits(average_rank_one(be), x), logits(be[0], x),
                                   atol=1e-12)

    def test_ones_init_average_is_shared_network(self):
        be = build_be(_spec(), rng_stream(16, "init"), "ones", members=3)
        avg = average_rank_one(be)
        for l_avg, l_be in zip(avg.layers, be.layers):
            np.testing.assert_array_equal(l_avg.weight, l_be.weight)

    def test_elementwise_loop_oracle(self):
        be = build_be(_spec((8,)), rng_stream(17, "init"), "random_sign", members=3)
        rng = np.random.default_rng(18)
        for l in be.layers:
            for m in range(3):
                l.r[m] += 0.3 * rng.normal(size=l.r[m].shape)
                l.s[m] += 0.3 * rng.normal(size=l.s[m].shape)
        avg = average_rank_one(be)
        for l_avg, l_be in zip(avg.layers, be.layers):
            in_dim, out_dim = l_be.weight[0].shape
            expect = np.zeros((in_dim, out_dim))
            for i in range(out_dim):
                for j in range(in_dim):
                    acc = 0.0
                    for m in range(3):
                        acc += l_be.r[m][i] * l_be.s[m][j]
                    expect[j, i] = l_be.weight[0][j, i] * acc / 3
            np.testing.assert_allclose(l_avg.weight[0], expect, atol=1e-15)

    def test_single_member_average_is_that_member(self):
        be = build_be(_spec(), rng_stream(19, "init"), "random_sign", members=1)
        x = np.random.default_rng(20).normal(size=(3, 2))
        np.testing.assert_allclose(logits(average_rank_one(be), x), logits(be[0], x),
                                   atol=1e-14)

    def test_plain_net_is_rejected(self):
        with pytest.raises(ValueError):
            average_rank_one(build_plain(_spec(), rng_stream(19, "init")))


class TestCheckpoints:
    @pytest.mark.parametrize("token", ["nan", "-inf", "1e309"])
    def test_non_finite_value_names_the_file_and_tensor(self, tmp_path, token):
        path = tmp_path / "net.json"
        checkpoint_save(build_plain(_spec(), rng_stream(0, "init")), path)
        doc = json.loads(path.read_text())
        rec = doc["tensors"]["layer1.b"]
        rec["values"] = " ".join([*rec["values"].split()[:-1], token])
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=re.escape(
                f"{path}: tensor 'layer1.b' has a non-finite value")):
            checkpoint_load(path)

    def test_round_trip_is_byte_identical(self, tmp_path):
        model = build_plain(_spec((8, 8)), rng_stream(21, "init"))
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        checkpoint_save(model, p1)
        loaded = checkpoint_load(p1)
        checkpoint_save(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_factored(self, tmp_path):
        model = build_be(_spec(), rng_stream(22, "init"), "random_sign", members=2)
        p1 = tmp_path / "a.json"
        checkpoint_save(model, p1)
        loaded = checkpoint_load(p1)
        assert loaded.factored and len(loaded) == 2
        x = np.random.default_rng(23).normal(size=(4, 2))
        for m in range(2):
            np.testing.assert_array_equal(logits(loaded[m], x), logits(model[m], x))

    def test_forward_identical_after_load(self, tmp_path):
        model = build_plain(_spec(), rng_stream(24, "init"))
        path = tmp_path / "m.json"
        checkpoint_save(model, path)
        x = np.random.default_rng(25).normal(size=(6, 2))
        np.testing.assert_array_equal(logits(checkpoint_load(path), x), logits(model, x))

    def test_class_count_mismatch_rejected(self, tmp_path):
        model = build_plain(_spec(), rng_stream(26, "init"))
        path = tmp_path / "m.json"
        checkpoint_save(model, path)
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: checkpoint has 3 "):
            checkpoint_load(path, expected_spec=ModelSpec(2, 5, (16,)))
        with pytest.raises(CheckpointError,
                           match=f"^{re.escape(str(path))}: checkpoint architecture disagrees"):
            checkpoint_load(path, expected_spec=ModelSpec(2, 3, (8,)))

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            checkpoint_load(tmp_path / "nope.json")

    def test_version_mismatch(self, tmp_path):
        model = build_plain(_spec(), rng_stream(27, "init"))
        path = tmp_path / "m.json"
        checkpoint_save(model, path)
        doc = path.read_text().replace('"format_version": 1', '"format_version": 9')
        path.write_text(doc)
        with pytest.raises(CheckpointError):
            checkpoint_load(path)

    @pytest.mark.parametrize("values", [
        np.array([-0.0, 0.0, 5e-324, -5e-324, 1e-300, 1e300, 0.1, 1.0 / 3.0, -2.5,
                  2.2250738585072014e-308, np.finfo(np.float64).max,
                  -np.finfo(np.float64).max]),
        np.random.default_rng(30).normal(size=(64, 64)) * 10.0 ** np.arange(-8, 8, 0.25),
        RANDOM_BITS,
    ])
    def test_value_format_matches_numpy_scalar_format(self, values):
        # the reference formats one numpy scalar per value, as format v1 was written
        assert _fmt_values(values) == " ".join(format(v, ".17g") for v in values.reshape(-1))

    @pytest.mark.parametrize("text", [
        " ".join(tok for f in sorted(DATA.glob("v1_*.json"))
                 for rec in json.loads(f.read_text())["tensors"].values()
                 for tok in rec["values"].split()),
        " ".join(format(v, ".17g") for v in RANDOM_BITS.tolist()),
        "-0 0 5e-324 -5e-324 2.2250738585072014e-308 1.7976931348623157e+308 "
        "-1.7976931348623157e+308 1e-400 +5 .5 5. 1_0 nan -inf 1e309",
    ], ids=["v1-files", "random-bits", "edge-tokens"])
    def test_value_parse_matches_float_bit_for_bit(self, text):
        # one call per tensor reads what float() of each token reads
        want = np.array([float(tok) for tok in text.split()])
        assert _parse_values(text, want.shape).tobytes() == want.tobytes()

    @pytest.mark.parametrize("token", ["abc", "1,5", "0x1p3", "--1", "1e", "True"])
    def test_malformed_value_names_the_tensor(self, tmp_path, token):
        path = tmp_path / "net.json"
        checkpoint_save(build_be(_spec(), rng_stream(0, "init"), members=2), path)
        doc = json.loads(path.read_text())
        rec = doc["tensors"]["layer1.s1"]
        rec["values"] = " ".join([token, *rec["values"].split()[1:]])
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=re.escape(
                f"{path}: tensor 'layer1.s1' is malformed: ")):
            checkpoint_load(path)

    def test_dirichlet_head_round_trips(self, tmp_path):
        model = build_plain(_spec(), rng_stream(28, "init"), head="dirichlet")
        path = tmp_path / "m.json"
        checkpoint_save(model, path)
        assert checkpoint_load(path).head == "dirichlet"


def _json_member_forwards(doc: dict, x: np.ndarray) -> list[np.ndarray]:
    """Logits of every member, computed straight from a checkpoint's JSON."""
    def value(name):
        rec = doc["tensors"][name]
        return np.array([float(v) for v in rec["values"].split()]).reshape(rec["shape"])

    n_layers = len(doc["spec"]["hidden"]) + 1
    out = []
    for m in range(doc["M"] or 1):
        h = x
        for i in range(n_layers):
            if doc["kind"] == "plain":
                w, b = value(f"layer{i}.W"), value(f"layer{i}.b")
            else:
                w = value(f"layer{i}.shared") * np.outer(value(f"layer{i}.r{m}"),
                                                         value(f"layer{i}.s{m}"))
                b = value(f"layer{i}.b{m}")
            h = h @ w.T + b
            if i < n_layers - 1:
                h = np.maximum(h, 0.0)
        out.append(h)
    return out


class TestFormatV1Files:
    """Checkpoints written by an earlier version of the program keep loading,
    predicting and re-saving byte for byte."""

    @pytest.mark.parametrize("name, members, factored, head", [
        ("v1_plain_teacher.json", 1, False, "softmax"),
        ("v1_dirichlet_student.json", 1, False, "dirichlet"),
        ("v1_factored_m2_student.json", 2, True, "softmax"),
    ])
    def test_load_predict_and_resave(self, tmp_path, name, members, factored, head):
        path = DATA / name
        model = checkpoint_load(path)
        assert (len(model), model.factored, model.head) == (members, factored, head)
        x = np.random.default_rng(29).normal(size=(7, model.spec.in_dim))
        expected = _json_member_forwards(json.loads(path.read_text()), x)
        assert len(expected) == members
        for member, want in zip(model, expected):
            np.testing.assert_allclose(logits(member, x), want, rtol=1e-13, atol=1e-13)
        out = tmp_path / name
        checkpoint_save(model, out)
        assert out.read_bytes() == path.read_bytes()
