import math

import numpy as np
import pytest

from outpaint import attention as A
from outpaint import tensor as T
from outpaint.prompt import PromptEmbedding
from outpaint.tensor import ShapeMismatch, Tensor, backward, finite_diff_check


def rng(seed=0):
    return np.random.default_rng(seed)


def make_weights(g, d_img=4, d_text=4, d_k=4, d_v=4):
    return A.CrossAttnWeights(
        w_q=Tensor(g.uniform(-1, 1, (d_img, d_k)), requires_grad=True),
        w_k=Tensor(g.uniform(-1, 1, (d_text, d_k)), requires_grad=True),
        w_v=Tensor(g.uniform(-1, 1, (d_text, d_v)), requires_grad=True),
    )


def make_pe(g, l_c=3, l_s=2, d_text=4):
    center = Tensor(g.uniform(-1, 1, (l_c, d_text)))
    surrounding = Tensor(g.uniform(-1, 1, (l_s, d_text)))
    total = T.concat([center, surrounding], axis=0)
    return PromptEmbedding(total=total, center=center, surrounding=surrounding)


def numpy_cross_attention(f_img, f_txt, wq, wk, wv):
    """Independent step-by-step oracle for the baseline attention."""
    q = f_img @ wq
    k = f_txt @ wk
    v = f_txt @ wv
    logits = q @ k.T / math.sqrt(wq.shape[1])
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=1, keepdims=True)
    return probs @ v


def numpy_cts(f_img, pe, mask, w):
    """Equation-by-equation oracle: region branches, mask gating, fusion."""
    wq = w.base.w_q.data
    baseline = numpy_cross_attention(f_img, pe.total.data, wq, w.base.w_k.data, w.base.w_v.data)
    center_out = numpy_cross_attention(f_img, pe.center.data, wq, w.center_k.data, w.center_v.data)
    surround_out = numpy_cross_attention(f_img, pe.surrounding.data, wq, w.surround_k.data, w.surround_v.data)
    col = mask.reshape(-1, 1)
    regional = center_out * (1 - col) + surround_out * col
    a = float(w.fusion.data)
    return (1 - a) * baseline + a * regional


def test_single_key_attention_weight_is_one():
    g = rng(0)
    w = make_weights(g)
    f_img = g.uniform(-1, 1, (3, 4))
    f_txt = g.uniform(-1, 1, (1, 4))
    out = A.cross_attention(Tensor(f_img), Tensor(f_txt), w).data
    expected_row = f_txt @ w.w_v.data
    for i in range(3):
        np.testing.assert_allclose(out[i], expected_row[0], atol=1e-12)


def test_duplicate_keys_match_single_key():
    g = rng(1)
    w = make_weights(g)
    f_img = g.uniform(-1, 1, (3, 4))
    tok = g.uniform(-1, 1, (1, 4))
    single = A.cross_attention(Tensor(f_img), Tensor(tok), w).data
    double = A.cross_attention(Tensor(f_img), Tensor(np.vstack([tok, tok])), w).data
    np.testing.assert_allclose(double, single, atol=1e-12)


def test_cross_attention_matches_composition_oracle():
    g = rng(2)
    w = make_weights(g, d_img=4, d_text=4, d_k=4, d_v=4)
    f_img = g.uniform(-1, 1, (3, 4))
    f_txt = g.uniform(-1, 1, (5, 4))
    got = A.cross_attention(Tensor(f_img), Tensor(f_txt), w).data
    want = numpy_cross_attention(f_img, f_txt, w.w_q.data, w.w_k.data, w.w_v.data)
    np.testing.assert_allclose(got, want, atol=1e-12)


def random_cts_case(g, n_img=5, fusion_mode=A.FUSION_LEARNABLE, fusion_value=None):
    base = make_weights(g)
    w = A.init_cts_from_base(base, fusion_mode, constant=fusion_value, rng=g)
    # decorrelate region branches from the base copies
    w.center_k = Tensor(g.uniform(-1, 1, w.center_k.shape), requires_grad=True)
    w.center_v = Tensor(g.uniform(-1, 1, w.center_v.shape), requires_grad=True)
    w.surround_k = Tensor(g.uniform(-1, 1, w.surround_k.shape), requires_grad=True)
    w.surround_v = Tensor(g.uniform(-1, 1, w.surround_v.shape), requires_grad=True)
    pe = make_pe(g)
    f_img = g.uniform(-1, 1, (n_img, 4))
    mask = (g.uniform(size=n_img) < 0.5).astype(np.float64)
    return f_img, pe, mask, w


def test_cts_fusion_zero_equals_baseline():
    g = rng(3)
    f_img, pe, mask, w = random_cts_case(g)
    w.fusion = Tensor(0.0)
    got = A.cts_cross_attention(Tensor(f_img), pe, A.RegionMask(mask), w).data
    want = A.cross_attention(Tensor(f_img), pe.total, w.base).data
    np.testing.assert_allclose(got, want, atol=1e-15)


def test_cts_fusion_one_all_ones_mask_is_surround_branch():
    g = rng(4)
    f_img, pe, _, w = random_cts_case(g)
    w.fusion = Tensor(1.0)
    mask = np.ones(f_img.shape[0])
    got = A.cts_cross_attention(Tensor(f_img), pe, A.RegionMask(mask), w).data
    q = f_img @ w.base.w_q.data
    want = numpy_cross_attention(f_img, pe.surrounding.data, w.base.w_q.data, w.surround_k.data, w.surround_v.data)
    np.testing.assert_allclose(got, want, atol=1e-12)
    del q


def test_cts_matches_equation_oracle():
    g = rng(5)
    for _ in range(20):
        f_img, pe, mask, w = random_cts_case(g)
        w.fusion = Tensor(0.5)
        got = A.cts_cross_attention(Tensor(f_img), pe, A.RegionMask(mask), w).data
        np.testing.assert_allclose(got, numpy_cts(f_img, pe, mask, w), atol=1e-12)


def test_gated_outputs_partition_token_rows():
    g = rng(6)
    f_img, pe, mask, w = random_cts_case(g)
    w.fusion = Tensor(1.0)
    out = A.cts_cross_attention(Tensor(f_img), pe, A.RegionMask(mask), w).data
    center_only = numpy_cross_attention(f_img, pe.center.data, w.base.w_q.data, w.center_k.data, w.center_v.data)
    surround_only = numpy_cross_attention(f_img, pe.surrounding.data, w.base.w_q.data, w.surround_k.data, w.surround_v.data)
    for i, m in enumerate(mask):
        if m == 0:
            np.testing.assert_allclose(out[i], center_only[i], atol=1e-12)
        else:
            np.testing.assert_allclose(out[i], surround_only[i], atol=1e-12)


def test_keys_outside_a_token_region_do_not_reach_it():
    g = rng(16)
    f_img, pe, mask, w = random_cts_case(g, n_img=8)
    mask[:2] = [0.0, 1.0]  # both regions present
    w.fusion = Tensor(1.0)
    rm = A.RegionMask(mask)
    before = A.cts_cross_attention(Tensor(f_img), pe, rm, w).data
    for attr, region in (("center_v", 0.0), ("surround_v", 1.0)):
        old = getattr(w, attr)
        setattr(w, attr, Tensor(g.uniform(-1, 1, old.shape)))
        after = A.cts_cross_attention(Tensor(f_img), pe, rm, w).data
        setattr(w, attr, old)
        inside = mask == region
        np.testing.assert_array_equal(after[~inside], before[~inside])
        assert np.abs(after[inside] - before[inside]).max(axis=1).min() > 1e-9


def test_init_copies_base_weights():
    g = rng(7)
    base = make_weights(g)
    for mode, kw in [
        (A.FUSION_LEARNABLE, {}),
        (A.FUSION_CONSTANT, {"constant": 0.5}),
        (A.FUSION_RANDOM, {"rng": rng(99)}),
    ]:
        w = A.init_cts_from_base(base, mode, **kw)
        np.testing.assert_array_equal(w.center_k.data, base.w_k.data)
        np.testing.assert_array_equal(w.center_v.data, base.w_v.data)
        np.testing.assert_array_equal(w.surround_k.data, base.w_k.data)
        np.testing.assert_array_equal(w.surround_v.data, base.w_v.data)
        assert w.center_k is not base.w_k  # deep copy, not an alias


def test_init_fusion_modes():
    g = rng(8)
    base = make_weights(g)
    learn = A.init_cts_from_base(base, A.FUSION_LEARNABLE)
    assert learn.fusion.item() == 0.0 and learn.fusion.requires_grad
    const = A.init_cts_from_base(base, A.FUSION_CONSTANT, constant=0.5)
    assert const.fusion.item() == 0.5 and not const.fusion.requires_grad
    rand = A.init_cts_from_base(base, A.FUSION_RANDOM, rng=rng(100))
    assert 0.0 <= rand.fusion.item() <= 1.0 and not rand.fusion.requires_grad
    with pytest.raises(ValueError):
        A.init_cts_from_base(base, "bogus")


def test_learnable_init_reproduces_baseline_forward():
    g = rng(9)
    base = make_weights(g)
    w = A.init_cts_from_base(base, A.FUSION_LEARNABLE)
    for _ in range(5):
        pe = make_pe(g)
        f_img = g.uniform(-1, 1, (6, 4))
        mask = (g.uniform(size=6) < 0.5).astype(np.float64)
        cts = A.cts_cross_attention(Tensor(f_img), pe, A.RegionMask(mask), w).data
        plain = A.cross_attention(Tensor(f_img), pe.total, base).data
        np.testing.assert_allclose(cts, plain, atol=1e-12)


def test_query_projection_is_shared():
    g = rng(10)
    f_img, pe, mask, w = random_cts_case(g)
    w.fusion = Tensor(0.5)
    rm = A.RegionMask(mask)

    def branch_outputs():
        baseline = numpy_cross_attention(f_img, pe.total.data, w.base.w_q.data, w.base.w_k.data, w.base.w_v.data)
        center_out = numpy_cross_attention(f_img, pe.center.data, w.base.w_q.data, w.center_k.data, w.center_v.data)
        return baseline, center_out

    base_before, center_before = branch_outputs()
    w.center_k = Tensor(w.center_k.data + 0.3)
    base_after, center_after = branch_outputs()
    np.testing.assert_array_equal(base_before, base_after)  # baseline untouched
    assert np.abs(center_before - center_after).max() > 1e-6

    out_before = A.cts_cross_attention(Tensor(f_img), pe, rm, w).data
    w.base.w_q = Tensor(w.base.w_q.data + 0.3, requires_grad=True)
    out_after = A.cts_cross_attention(Tensor(f_img), pe, rm, w).data
    assert np.abs(out_before - out_after).max() > 1e-6  # q feeds every branch


def test_fusion_gradient_matches_regional_minus_baseline():
    g = rng(11)
    f_img, pe, mask, w = random_cts_case(g)
    out = A.cts_cross_attention(Tensor(f_img), pe, A.RegionMask(mask), w)
    backward(T.sum_all(out))
    baseline = numpy_cross_attention(f_img, pe.total.data, w.base.w_q.data, w.base.w_k.data, w.base.w_v.data)
    col = mask.reshape(-1, 1)
    center_out = numpy_cross_attention(f_img, pe.center.data, w.base.w_q.data, w.center_k.data, w.center_v.data)
    surround_out = numpy_cross_attention(f_img, pe.surrounding.data, w.base.w_q.data, w.surround_k.data, w.surround_v.data)
    regional = center_out * (1 - col) + surround_out * col
    # d/d_fusion of sum((1-f)*baseline + f*regional) = sum(regional - baseline)
    np.testing.assert_allclose(w.fusion.grad, (regional - baseline).sum(), atol=1e-10)


def test_fusion_gradient_matches_finite_differences():
    g = rng(12)
    f_img, pe, mask, w = random_cts_case(g)
    rm = A.RegionMask(mask)

    def f(fusion):
        w.fusion = fusion
        return T.sum_all(A.cts_cross_attention(Tensor(f_img), pe, rm, w))

    assert finite_diff_check(f, Tensor(0.3, requires_grad=True)) < 1e-4


def test_cts_gradients_via_finite_differences_on_weights():
    g = rng(13)
    f_img, pe, mask, w = random_cts_case(g)
    rm = A.RegionMask(mask)

    def on(setter):
        def f(x):
            setter(x)
            return T.sum_all(A.cts_cross_attention(Tensor(f_img), pe, rm, w))
        return f

    for setter, init in [
        (lambda x: setattr(w.base, "w_q", x), w.base.w_q.data.copy()),
        (lambda x: setattr(w, "center_v", x), w.center_v.data.copy()),
        (lambda x: setattr(w, "surround_k", x), w.surround_k.data.copy()),
    ]:
        assert finite_diff_check(on(setter), Tensor(init, requires_grad=True)) < 1e-4


def test_mask_validation():
    with pytest.raises(A.MaskNotBinary):
        A.RegionMask(np.array([0.0, 0.5, 1.0]))
    with pytest.raises(ShapeMismatch):
        A.RegionMask(np.zeros((2, 2)))
    g = rng(14)
    f_img, pe, mask, w = random_cts_case(g)
    with pytest.raises(ShapeMismatch):
        A.cts_cross_attention(Tensor(f_img), pe, A.RegionMask(np.ones(len(mask) + 1)), w)


def test_resize_mask_all_ones():
    rm = A.resize_mask(np.ones((8, 8)), (4, 4))
    np.testing.assert_array_equal(rm.values, np.ones(16))


def test_resize_mask_paper_geometry():
    # 128x128 zero block centered in 192x192, 12x12 token grid:
    # 128/192*12 = 8, so the center 8x8 token block is exactly 0.
    pm = np.ones((192, 192))
    pm[32:160, 32:160] = 0.0
    rm = A.resize_mask(pm, (12, 12)).values.reshape(12, 12)
    np.testing.assert_array_equal(rm[2:10, 2:10], np.zeros((8, 8)))
    border = rm.copy()
    border[2:10, 2:10] = 1.0
    np.testing.assert_array_equal(border, np.ones((12, 12)))


def test_resize_mask_matches_per_cell_oracle():
    g = rng(15)
    pm = (g.uniform(size=(12, 18)) < 0.4).astype(np.float64)
    rm = A.resize_mask(pm, (4, 6)).values.reshape(4, 6)
    for i in range(4):
        for j in range(6):
            cell = pm[i * 3:(i + 1) * 3, j * 3:(j + 1) * 3]
            assert rm[i, j] == (1.0 if cell.mean() >= 0.5 else 0.0)


def test_resize_mask_ties_round_to_surrounding():
    pm = np.zeros((2, 2))
    pm[0] = 1.0  # each 2x2 cell mean is exactly 0.5
    assert A.resize_mask(pm, (1, 1)).values[0] == 1.0


def test_resize_mask_indivisible_grid():
    with pytest.raises(A.IndivisibleGrid):
        A.resize_mask(np.ones((10, 10)), (3, 3))
