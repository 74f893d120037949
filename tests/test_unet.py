import numpy as np
import pytest

from phoenix import autodiff as ad
from phoenix.layers import as_leaves
from phoenix.unet import (
    DenoiserConfig,
    _ResBlock,
    apply_denoiser,
    build_unet,
    merge_parameters,
    predict_noise,
    split_parameters,
    time_embedding,
)
from gradcheck import assert_gradients_match

DESK = DenoiserConfig()
TINY = DenoiserConfig(base_channels=4, time_embed_dim=8)


def conv_params(cin, cout, k):
    return cout * cin * k * k + cout


def block_params(cin, cout, embed):
    total = 2 * cin                      # first normalization
    total += conv_params(cin, cout, 3)
    total += embed * cout + cout         # step-embedding projection
    total += 2 * cout                    # second normalization
    total += conv_params(cout, cout, 3)
    if cin != cout:
        total += conv_params(cin, cout, 1)
    return total


def counted_params(cfg: DenoiserConfig) -> int:
    """Independent re-derivation of the architecture's parameter count."""
    widths = [cfg.base_channels * 2 ** i for i in range(cfg.depth)]
    total = conv_params(cfg.image_channels, cfg.base_channels, 3)  # stem
    ch = cfg.base_channels
    for w in widths:
        for _ in range(cfg.blocks_per_stage):
            total += block_params(ch, w, cfg.time_embed_dim)
            ch = w
    total += block_params(ch, ch, cfg.time_embed_dim)  # bottleneck
    for i in reversed(range(cfg.depth)):
        cin = ch + widths[i]
        for _ in range(cfg.blocks_per_stage):
            total += block_params(cin, widths[i], cfg.time_embed_dim)
            cin = widths[i]
        ch = widths[i]
    total += 2 * cfg.base_channels       # output normalization
    total += conv_params(cfg.base_channels, cfg.image_channels, 3)
    return total


class TestBuild:
    def test_same_seed_bitwise_identical(self):
        a = build_unet(DESK, seed=4)
        b = build_unet(DESK, seed=4)
        assert list(a.params) == list(b.params)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])

    def test_different_seed_differs(self):
        a = build_unet(DESK, seed=4)
        b = build_unet(DESK, seed=5)
        assert any(not np.array_equal(a.params[n], b.params[n]) for n in a.params)

    def test_desk_parameter_count_matches_closed_form(self):
        model = build_unet(DESK, seed=1)
        assert model.parameter_count() == counted_params(DESK) == 82561

    @pytest.mark.parametrize("cfg", [
        TINY,
        DenoiserConfig(image_side=16, depth=3, base_channels=8, time_embed_dim=16),
        DenoiserConfig(blocks_per_stage=2, base_channels=8, time_embed_dim=16),
    ])
    def test_parameter_count_closed_form_other_configs(self, cfg):
        model = build_unet(cfg, seed=1)
        assert model.parameter_count() == counted_params(cfg)

    def test_personal_set_is_last_decoder_block(self):
        model = build_unet(DESK, seed=1)
        expected_prefix = f"dec0.block{DESK.blocks_per_stage - 1}."
        assert model.personal_names
        assert all(n.startswith(expected_prefix) for n in model.personal_names)
        # every parameter of that block is flagged, none of any other
        block_names = {n for n in model.params if n.startswith(expected_prefix)}
        assert model.personal_names == frozenset(block_names)

    @pytest.mark.parametrize("bad", [
        DenoiserConfig(image_side=12),                 # not a power of two
        DenoiserConfig(image_side=4, depth=3),          # not divisible by 2^depth
        DenoiserConfig(time_embed_dim=7),               # odd embedding
        DenoiserConfig(depth=0),
    ])
    def test_invalid_configs_rejected(self, bad):
        with pytest.raises(ValueError):
            build_unet(bad, seed=0)


class TestPredictNoise:
    @pytest.mark.parametrize("batch", [1, 2, 5])
    def test_output_shape_equals_input(self, batch):
        model = build_unet(TINY, seed=2)
        x = np.zeros((batch, 1, 8, 8), np.float32)
        out = predict_noise(model, x, np.full(batch, 3))
        assert out.shape == x.shape

    def test_time_conditioning_is_live(self):
        model = build_unet(TINY, seed=2)
        x = np.random.default_rng(0).standard_normal((1, 1, 8, 8)).astype(np.float32)
        a = predict_noise(model, x, np.array([1]))
        b = predict_noise(model, x, np.array([40]))
        assert not np.array_equal(a, b)

    def test_wrong_image_shape_rejected(self):
        model = build_unet(TINY, seed=2)
        with pytest.raises(ad.ShapeMismatchError):
            predict_noise(model, np.zeros((1, 1, 4, 4), np.float32), np.array([1]))

    def test_gradients_match_finite_differences_sampled(self):
        model = build_unet(TINY, seed=5)
        params = {k: v.astype(np.float64) for k, v in model.params.items()}
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 1, 8, 8))
        t = np.array([3, 17])
        target = rng.standard_normal((2, 1, 8, 8))

        def build(p):
            return ad.mse_loss(apply_denoiser(TINY, p, ad.Tensor(x), t),
                               ad.Tensor(target))

        leaves = {k: ad.Tensor(v, requires_grad=True, name=k) for k, v in params.items()}
        ad.backward(build(leaves))

        h = 1e-3
        pick = np.random.default_rng(17)
        for name, arr in params.items():
            flat = pick.choice(arr.size, size=min(3, arr.size), replace=False)
            analytic = {name: np.empty(len(flat))}
            numeric = {name: np.empty(len(flat))}
            for j, fi in enumerate(flat):
                idx = np.unravel_index(fi, arr.shape)
                saved = arr[idx]
                arr[idx] = saved + h
                up = build({k: ad.Tensor(v) for k, v in params.items()}).item()
                arr[idx] = saved - h
                dn = build({k: ad.Tensor(v) for k, v in params.items()}).item()
                arr[idx] = saved
                numeric[name][j] = (up - dn) / (2 * h)
                analytic[name][j] = leaves[name].grad[idx]
            assert_gradients_match(analytic, numeric)

    def test_output_side_equals_input_side_across_depths(self):
        for depth, side in ((1, 8), (2, 8), (3, 16)):
            cfg = DenoiserConfig(image_side=side, depth=depth, base_channels=4,
                                 time_embed_dim=8)
            model = build_unet(cfg, seed=1)
            x = np.zeros((1, 1, side, side), np.float32)
            assert predict_noise(model, x, np.array([1])).shape == x.shape


class TestTimeEmbedding:
    def test_zero_step(self):
        emb = time_embedding(0, 8)
        np.testing.assert_array_equal(emb[0::2], np.zeros(4))
        np.testing.assert_array_equal(emb[1::2], np.ones(4))

    def test_pair_norms_are_one(self):
        emb = time_embedding(123, 16)
        pairs = emb.reshape(-1, 2)
        np.testing.assert_allclose((pairs ** 2).sum(axis=1), 1.0, rtol=1e-12)

    def test_injective_over_training_steps(self):
        rows = time_embedding(np.arange(1, 1001), 8)
        distinct = {tuple(np.round(r, 12)) for r in rows}
        assert len(distinct) == 1000

    def test_odd_dim_rejected(self):
        with pytest.raises(ValueError):
            time_embedding(1, 7)

    def test_batch_shape(self):
        assert time_embedding(np.array([1, 2, 3]), 8).shape == (3, 8)


class TestResidualBlock:
    def test_zeroed_convolutions_give_identity(self):
        block = _ResBlock("blk", 4, 4, embed_dim=8, groups=4)
        rng = np.random.default_rng(0)
        params = {}
        for layer in block.layers:
            params.update(layer.init(rng))
        for name in ("blk.conv1.w", "blk.conv1.b", "blk.conv2.w", "blk.conv2.b"):
            params[name] = np.zeros_like(params[name])
        x = rng.standard_normal((2, 4, 8, 8)).astype(np.float32)
        emb = rng.standard_normal((2, 8)).astype(np.float32)
        out = block.apply(as_leaves(params, False), ad.Tensor(x), ad.Tensor(emb))
        np.testing.assert_array_equal(out.data, x)


class TestPartition:
    def test_split_is_a_partition(self):
        model = build_unet(DESK, seed=1)
        base, personal = split_parameters(model)
        assert set(base) | set(personal) == set(model.params)
        assert not set(base) & set(personal)
        assert set(personal) == set(model.personal_names)

    def test_empty_personal_set(self):
        model = build_unet(DESK, seed=1)
        model.personal_names = frozenset()
        base, personal = split_parameters(model)
        assert personal == {}
        assert set(base) == set(model.params)

    def test_merge_round_trips(self):
        model = build_unet(DESK, seed=1)
        base, personal = split_parameters(model)
        merged = merge_parameters(model, base, personal)
        assert list(merged) == list(model.params)
        for name in merged:
            np.testing.assert_array_equal(merged[name], model.params[name])

    def test_merge_rejects_unknown_names(self):
        model = build_unet(TINY, seed=1)
        base, personal = split_parameters(model)
        base["bogus"] = np.zeros(1, np.float32)
        with pytest.raises(ValueError):
            merge_parameters(model, base, personal)
