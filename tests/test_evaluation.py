import hashlib
import json

import numpy as np
import pytest

from outpaint import evaluation as EV
from outpaint import synthdata as SD
from outpaint import trainer as TR
from outpaint.prompt import CsPrompt
from outpaint.tensor import ShapeMismatch


VOCAB = SD.vocabulary()


def rng(seed=0):
    return np.random.default_rng(seed)


def small_setup(iterations=2):
    cfg = TR.TrainConfig(
        iterations=iterations,
        batch_size=2,
        seed=1,
        t_steps=10,
        infer_steps=5,
        image_size=12,
        center_size=8,
        patch_size=3,
        d_model=16,
        n_blocks=1,
        d_text=8,
        l_center=4,
        l_surround=4,
    )
    samples, _ = SD.build_dataset(6, seed=2, spec=SD.SynthSpec(image_size=12, center_size=8))
    params = TR.init_model(cfg, VOCAB)
    return cfg, samples, params


# -- copy_center ---------------------------------------------------------------


def test_copy_center_extreme_masks():
    g = rng(1)
    gen = g.uniform(-1, 1, (3, 8, 8))
    orig = g.uniform(-1, 1, (3, 8, 8))
    np.testing.assert_array_equal(EV.copy_center(gen, orig, np.ones((8, 8))), gen)
    np.testing.assert_array_equal(EV.copy_center(gen, orig, np.zeros((8, 8))), orig)


def test_copy_center_partitions_pixels_bitwise():
    g = rng(2)
    gen = g.uniform(-1, 1, (3, 16, 16))
    orig = g.uniform(-1, 1, (3, 16, 16))
    mask = SD.make_center_mask(16, 8)
    out = EV.copy_center(gen, orig, mask)
    keep = mask == 0
    assert (out[:, keep] == orig[:, keep]).all()
    assert (out[:, ~keep] == gen[:, ~keep]).all()


def test_copy_center_idempotent():
    g = rng(3)
    gen = g.uniform(-1, 1, (3, 16, 16))
    orig = g.uniform(-1, 1, (3, 16, 16))
    mask = SD.make_center_mask(16, 8)
    once = EV.copy_center(gen, orig, mask)
    np.testing.assert_array_equal(EV.copy_center(once, orig, mask), once)


def test_copy_center_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        EV.copy_center(np.zeros((3, 4, 4)), np.zeros((3, 8, 8)), np.zeros((4, 4)))


# -- detector edge behavior -----------------------------------------------------


def test_detector_deterministic_on_noise():
    g = rng(4)
    img = g.uniform(-1, 1, (3, 16, 16))
    mask = SD.make_center_mask(16, 8)
    a = EV.detect_keywords(img, mask)
    b = EV.detect_keywords(img, mask)
    assert a == b
    for kw in a[0] + a[1]:
        assert kw in VOCAB.words


def test_detector_gray_image_tie_order():
    # mid-gray normalizes to white's direction; the documented tie order
    # (red < green < blue < yellow < white) only breaks exact ties.
    img = np.zeros((3, 16, 16))
    mask = SD.make_center_mask(16, 8)
    center, surround = EV.detect_keywords(img, mask)
    assert surround[1] == "white"
    black = np.full((3, 16, 16), -1.0)
    _, surround_black = EV.detect_keywords(black, mask)
    assert surround_black[1] == "red"  # all-equal distances: first in order


def test_detector_agreement_invariant_under_copy_on_clean_images():
    for seed in range(20):
        s = SD.generate(seed)
        copied = EV.copy_center(s.image, s.image, s.pixel_mask)
        assert EV.detect_keywords(copied, s.pixel_mask) == EV.detect_keywords(s.image, s.pixel_mask)


def test_swap_surrounding_colors():
    prompts = [SD.generate(seed).caption for seed in range(30)]
    swapped = EV.swap_surrounding_colors(prompts, seed=9)
    for before, after in zip(prompts, swapped):
        assert after.center == before.center
        assert before.surrounding[0] == after.surrounding[0]  # texture kept
        assert before.surrounding[1] != after.surrounding[1]  # color changed
        assert after.surrounding[1] in SD.COLORS
    again = EV.swap_surrounding_colors(prompts, seed=9)
    assert again == swapped


def test_surrounding_chance_rate():
    assert EV.surrounding_chance_rate() == pytest.approx(1.0 / 15.0)


# -- evaluate -------------------------------------------------------------------


def test_evaluate_reports_and_duplicates_are_reproducible(tmp_path):
    cfg, samples, params = small_setup()
    schedule = cfg.schedule()
    rep1 = EV.evaluate(params, schedule, samples, 3, VOCAB, infer_steps=5, seed=4,
                       out_dir=tmp_path / "a")
    rep2 = EV.evaluate(params, schedule, samples, 3, VOCAB, infer_steps=5, seed=4,
                       out_dir=tmp_path / "b")
    assert rep1 == rep2
    files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files_a == ["gen_00000.ppm", "gen_00001.ppm", "gen_00002.ppm", "report.json", "report.txt"]
    for name in files_a:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    record = json.loads((tmp_path / "a" / "report.json").read_text())
    assert record["n_samples"] == 3
    assert "region_accuracy_surrounding" in record


def test_evaluate_center_mse_zero_after_copy():
    cfg, samples, params = small_setup()
    schedule = cfg.schedule()
    report = EV.evaluate(params, schedule, samples, 2, VOCAB, infer_steps=5, seed=5,
                         copy=True)
    # center_mse is measured before the copy, so it is generally nonzero...
    assert report.center_mse > 0.0

    # ...but recomputing on copied outputs gives exactly zero.
    from outpaint.prompt import tokenize_and_embed
    from outpaint.sampling import ddim_sample

    s = samples[0]
    pe = tokenize_and_embed(s.caption, VOCAB, params.text_table, cfg.l_center, cfg.l_surround)
    gen = ddim_sample(params, schedule, s.image * (1 - s.pixel_mask), s.pixel_mask, pe, 5,
                      np.random.default_rng(0))
    copied = EV.copy_center(gen, s.image, s.pixel_mask)
    keep = s.pixel_mask == 0
    assert float(((copied - s.image)[:, keep] ** 2).mean()) == 0.0


def test_evaluate_perfect_generator_upper_bound(monkeypatch):
    # with generation stubbed to return the clean image, dataset-caption
    # accuracy is exactly 1.0 and center_mse is 0.
    cfg, samples, params = small_setup()
    import outpaint.evaluation as module

    calls = {"i": -1}

    def perfect(params, schedule, masked, mask, pe, steps, rng):
        calls["i"] += 1
        return samples[calls["i"]].image

    monkeypatch.setattr(module, "ddim_sample", perfect)
    report = EV.evaluate(params, cfg.schedule(), samples, 4, VOCAB, seed=6)
    assert report.region_accuracy_center == 1.0
    assert report.region_accuracy_surrounding == 1.0
    assert report.texture_accuracy_surrounding == report.color_accuracy_surrounding == 1.0
    assert report.center_mse == 0.0


def test_evaluate_splits_surrounding_texture_from_color(monkeypatch):
    # the clean image under color-swapped prompts: every texture matches, no color does
    cfg, samples, params = small_setup()
    import outpaint.evaluation as module

    images = iter(s.image for s in samples)
    monkeypatch.setattr(module, "ddim_sample", lambda *args: next(images))
    swapped = EV.swap_surrounding_colors([s.caption for s in samples], seed=3)
    report = EV.evaluate(params, cfg.schedule(), samples, 4, VOCAB, prompt_mode="custom",
                         custom_prompts=swapped)
    assert report.texture_accuracy_surrounding == 1.0
    assert report.color_accuracy_surrounding == 0.0
    assert report.region_accuracy_surrounding == 0.0


def test_evaluate_unconditional_mode_has_empty_denominators():
    cfg, samples, params = small_setup()
    report = EV.evaluate(params, cfg.schedule(), samples, 2, VOCAB,
                         prompt_mode="unconditional", infer_steps=3, seed=7)
    assert report.region_accuracy_center == 0.0
    assert report.region_accuracy_surrounding == 0.0
    assert report.texture_accuracy_surrounding == report.color_accuracy_surrounding == 0.0
    assert report.n_samples == 2


def test_evaluate_rejects_bad_modes():
    cfg, samples, params = small_setup()
    with pytest.raises(ValueError):
        EV.evaluate(params, cfg.schedule(), samples, 2, VOCAB, prompt_mode="nope")
    with pytest.raises(ValueError):
        EV.evaluate(params, cfg.schedule(), samples, 2, VOCAB, prompt_mode="custom",
                    custom_prompts=[CsPrompt()])
    with pytest.raises(ValueError):
        EV.evaluate(params, cfg.schedule(), samples, 2, VOCAB, prompt_mode="custom")


def test_custom_prompts_are_counted_after_n_is_clipped(monkeypatch):
    # one custom prompt per sample is enough however large n is, as in dataset mode
    cfg, samples, params = small_setup()
    import outpaint.evaluation as module

    monkeypatch.setattr(module, "ddim_sample", lambda params, schedule, image, *rest: image)
    swapped = EV.swap_surrounding_colors([s.caption for s in samples], seed=3)
    for mode, custom in (("dataset", None), ("custom", swapped)):
        report = EV.evaluate(params, cfg.schedule(), samples, len(samples) + 5, VOCAB,
                             prompt_mode=mode, custom_prompts=custom)
        assert report.n_samples == len(samples)


# sha256 over every gen_*.ppm in name order, then the exact accuracies, of a
# fresh (untrained) 12 px model at 3 DDIM steps on six samples, two of them
# unconditional; computed before scoring moved into score()
EVALUATE_PINS = {
    ("dataset", False): ("301e2f3ca5dbedc842f3be1dc11afcf704b8bbcd43ac6f179c59b6a89a099d1d", 0.0, 0.0, 0.75, 0.0),
    ("dataset", True): ("5cbabd978778fa794f801211653a0c380cee78df2cb2a3aff09f9496c757c0b0", 1.0, 0.0, 0.75, 0.0),
    ("unconditional", False): ("301e2f3ca5dbedc842f3be1dc11afcf704b8bbcd43ac6f179c59b6a89a099d1d", 0.0, 0.0, 0.0, 0.0),
    ("unconditional", True): ("5cbabd978778fa794f801211653a0c380cee78df2cb2a3aff09f9496c757c0b0", 0.0, 0.0, 0.0, 0.0),
    ("custom", False): ("52ec0195d198ca57461bffbbc24e098401fc4c2f708cf3d025a7f22b18b628cb", 0.0, 0.25, 0.75, 0.25),
    ("custom", True): ("5cbabd978778fa794f801211653a0c380cee78df2cb2a3aff09f9496c757c0b0", 1.0, 0.25, 0.75, 0.25),
}
# center_mse passes through BLAS, whose last bit may differ between builds
EVALUATE_CENTER_MSE = {"dataset": 1.7748174911511976, "unconditional": 1.7748195546334227,
                       "custom": 1.7748167159695125}


@pytest.mark.parametrize("mode,copy", sorted(EVALUATE_PINS))
def test_evaluate_images_and_reports_are_pinned(tmp_path, mode, copy):
    cfg, _, params = small_setup()
    samples, _ = SD.build_dataset(6, seed=2, spec=SD.SynthSpec(image_size=12, center_size=8),
                                  uncond_fraction=0.3)
    swapped = EV.swap_surrounding_colors([s.caption for s in samples], seed=3)
    report = EV.evaluate(params, cfg.schedule(), samples, 6, VOCAB, prompt_mode=mode,
                         custom_prompts=swapped if mode == "custom" else None,
                         infer_steps=3, seed=8, copy=copy, out_dir=tmp_path)
    images = sorted(tmp_path.glob("gen_*.ppm"))
    assert len(images) == 6
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in images)).hexdigest()
    accuracies = (report.region_accuracy_center, report.region_accuracy_surrounding,
                  report.texture_accuracy_surrounding, report.color_accuracy_surrounding)
    assert (digest, *accuracies) == EVALUATE_PINS[mode, copy]
    assert report.n_samples == 6
    assert report.center_mse == pytest.approx(EVALUATE_CENTER_MSE[mode], rel=1e-12, abs=0.0)


# -- score ----------------------------------------------------------------------


def test_score_empty_denominators_give_zero():
    detected = [(("circle", "red", "large"), ("solid", "red", "bright"))] * 2
    report = EV.score([CsPrompt(), CsPrompt()], detected, [0.5, 0.0])
    assert report == EV.EvalReport(0.0, 0.0, 0.0, 0.0, 0.25, 2)


def test_score_center_needs_shape_and_color_and_ignores_size():
    detected = (("circle", "red", "small"), ("solid", "red", "bright"))
    prompts = [CsPrompt(("circle", "red", "large")), CsPrompt(("circle", "blue", "small")),
               CsPrompt(("square", "red", "small")), CsPrompt(("red", "circle"))]
    report = EV.score(prompts, [detected] * 4, [0.0] * 4)
    assert report.region_accuracy_center == 2 / 4
    assert report.region_accuracy_surrounding == 0.0  # no prompt names the surrounding


def test_score_scores_texture_and_color_separately():
    detected = (("circle", "red", "large"), ("stripes", "green", "fine"))
    prompts = [CsPrompt((), ("stripes", "green", "coarse")), CsPrompt((), ("stripes", "blue", "fine")),
               CsPrompt((), ("checker", "green", "fine")), CsPrompt((), ("solid", "red", "dark")),
               CsPrompt(("circle", "red", "large"))]
    report = EV.score(prompts, [detected] * 5, [1.0, 2.0, 3.0, 4.0, 5.0])
    assert report.region_accuracy_surrounding == 1 / 4
    assert report.texture_accuracy_surrounding == 2 / 4
    assert report.color_accuracy_surrounding == 2 / 4
    assert report.region_accuracy_center == 1.0
    assert (report.center_mse, report.n_samples) == (3.0, 5)


def test_score_sums_center_errors_left_to_right():
    errors = [1.0, 1e-16, 1e-16, 1e-16, 1e-16]  # a compensated sum would keep the small terms
    assert EV.score([CsPrompt()] * 5, [(("",) * 3, ("",) * 3)] * 5, errors).center_mse == 1.0 / 5


def test_score_rejects_lists_of_different_lengths():
    detected = (("circle", "red", "large"), ("solid", "red", "bright"))
    with pytest.raises(ValueError):
        EV.score([CsPrompt()] * 2, [detected], [0.0, 0.0])
    with pytest.raises(ValueError):
        EV.score([CsPrompt()], [detected], [0.0, 0.0])
