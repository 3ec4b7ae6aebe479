"""Command-line surface: data generation, training, sampling, evaluation,
and the fusion-mode ablation.

Exit codes: 0 ok, 2 usage/config error, 3 data error (also a non-finite
training step or generated image), 4 checkpoint error.
Every command is bit-reproducible given the same flags, seeds and inputs.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from outpaint import evaluation as EV
from outpaint import ppm
from outpaint import synthdata as SD
from outpaint import trainer as TR
from outpaint.prompt import parse, tokenize_and_embed
from outpaint.sampling import ddim_sample

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_CHECKPOINT = 4

DATA_ERRORS = (OSError, ValueError)  # MalformedPrompt, BadImageFile and the like are ValueErrors


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="outpaint", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="write a synthetic dataset")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--n", type=int, required=True, help="number of samples")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--image-size", type=int, default=16)
    gen.add_argument("--center-size", type=int, default=8)
    gen.add_argument("--uncond-fraction", type=float, default=0.0)
    gen.add_argument("--irregular", action="store_true", help="blob masks instead of the center square")

    train = sub.add_parser("train", help="fine-tune the denoiser on a dataset")
    train.add_argument("--data", required=True, help="dataset directory (from gen-data)")
    train.add_argument("--out", required=True, help="run directory for checkpoints and the log")

    sample = sub.add_parser("sample", help="outpaint one image with a trained model")
    sample.add_argument("--ckpt", required=True)
    sample.add_argument("--prompt", default="Center:; Surrounding:")
    sample.add_argument("--image", help="source PPM providing the known content (defaults to blank)")
    sample.add_argument("--mask", default="center", help="mask PGM path, or 'center' for the centered square")
    sample.add_argument("--steps", type=int, default=None, help="sampler steps (default: checkpoint setting)")
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument("--copy", action="store_true", help="paste the source center into the result")
    sample.add_argument("--out", required=True, help="output PPM path")

    ev = sub.add_parser("eval", help="score a trained model on a dataset")
    ev.add_argument("--ckpt", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--n", type=int, default=100)
    ev.add_argument("--mode", choices=("dataset", "unconditional", "swapped"), default="dataset")
    ev.add_argument("--steps", type=int, default=None)
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--copy", action="store_true")
    ev.add_argument("--out", required=True, help="report directory")

    ab = sub.add_parser("ablate", help="train the three fusion-mode arms and compare")
    ab.add_argument("--data", required=True)
    ab.add_argument("--out", required=True)
    ab.add_argument("--eval-n", type=int, default=32, help="samples scored per arm")

    for p in (train, ab):
        p.add_argument("--config", help="key = value config file")
        for name in TR.TrainConfig.__dataclass_fields__:
            p.add_argument(f"--{name.replace('_', '-')}", dest=f"cfg_{name}")

    return parser


def _config_from_args(args) -> TR.TrainConfig:
    overrides = {}
    for key, value in vars(args).items():
        if key.startswith("cfg_") and value is not None:
            overrides[key.removeprefix("cfg_")] = value
    if getattr(args, "config", None):
        return TR.load_config(args.config, overrides)
    return TR.config_from_mapping(overrides)


def _load_samples(data_dir, cfg: TR.TrainConfig):
    samples, _ = SD.load_dataset(data_dir)
    if not samples:
        raise ValueError(f"{data_dir}: empty dataset")
    shape = cfg.image_shape
    for i, s in enumerate(samples):  # every sample, so a stray one cannot stop training midway
        if s.image.shape != shape or s.pixel_mask.shape != shape[1:]:
            raise TR.GeometryMismatch(f"{data_dir}: sample {i} image {s.image.shape} and mask "
                                      f"{s.pixel_mask.shape}, model expects {shape}")
    return samples


def cmd_gen_data(args) -> int:
    spec = SD.SynthSpec(image_size=args.image_size, center_size=args.center_size)
    samples, seeds = SD.build_dataset(
        args.n, args.seed, spec, uncond_fraction=args.uncond_fraction, irregular=args.irregular
    )
    os.makedirs(args.out, exist_ok=True)
    SD.save_dataset(samples, seeds, args.out)
    n_uncond = sum(s.caption.is_unconditional for s in samples)
    print(f"wrote {len(samples)} samples ({n_uncond} unconditional) to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _config_from_args(args)
    samples = _load_samples(args.data, cfg)
    vocab = SD.vocabulary()
    os.makedirs(args.out, exist_ok=True)
    log_path = os.path.join(args.out, "train_log.tsv")
    with open(log_path, "w", encoding="utf-8") as log_fh:
        params, opt, losses = TR.run_training(cfg, samples, vocab, out_dir=args.out, log_fh=log_fh)
    TR.save_checkpoint(params, opt, cfg, os.path.join(args.out, "model.ckpt"))
    print(f"trained {cfg.iterations} steps; final loss {losses[-1]:.6f}; run dir {args.out}")
    return EXIT_OK


def cmd_sample(args) -> int:
    prompt = parse(args.prompt)
    params, _, cfg = TR.load_checkpoint(args.ckpt)
    vocab = SD.vocabulary()
    shape = cfg.image_shape

    if args.mask == "center":
        mask = SD.make_center_mask(cfg.image_size, cfg.center_size)
    else:
        mask = ppm.read_pgm(args.mask)
        if mask.shape != shape[1:]:
            raise TR.GeometryMismatch(f"mask {args.mask} is {mask.shape}, model expects {shape[1:]}")
    if args.image:
        source = ppm.read_ppm(args.image)
        if source.shape != shape:
            raise TR.GeometryMismatch(f"image {args.image} is {source.shape}, model expects {shape}")
    else:
        source = np.zeros(shape)

    pe = tokenize_and_embed(prompt, vocab, params.text_table, cfg.l_center, cfg.l_surround)
    steps = args.steps if args.steps is not None else cfg.infer_steps
    rng = np.random.default_rng(args.seed)
    gen = ddim_sample(params, cfg.schedule(), source, mask, pe, steps, rng)
    if args.copy:
        gen = EV.copy_center(gen, source, mask)
    out_dir = os.path.dirname(args.out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    ppm.write_ppm(args.out, gen)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    params, _, cfg = TR.load_checkpoint(args.ckpt)
    samples = _load_samples(args.data, cfg)
    vocab = SD.vocabulary()
    mode = args.mode
    custom = None
    if mode == "swapped":
        custom = EV.swap_surrounding_colors([s.caption for s in samples], args.seed)
        mode = "custom"
    steps = args.steps if args.steps is not None else cfg.infer_steps
    report = EV.evaluate(
        params,
        cfg.schedule(),
        samples,
        args.n,
        vocab,
        prompt_mode=mode,
        custom_prompts=custom,
        infer_steps=steps,
        seed=args.seed,
        copy=args.copy,
        out_dir=args.out,
    )
    print(report.to_text(), end="")
    return EXIT_OK


def cmd_ablate(args) -> int:
    cfg = _config_from_args(args)
    samples = _load_samples(args.data, cfg)
    vocab = SD.vocabulary()
    os.makedirs(args.out, exist_ok=True)

    def eval_arm(params, arm_cfg):
        report = EV.evaluate(
            params, arm_cfg.schedule(), samples, args.eval_n, vocab,
            infer_steps=arm_cfg.infer_steps, seed=arm_cfg.seed,
        )
        return {
            "region_accuracy_surrounding": report.region_accuracy_surrounding,
            "center_mse": report.center_mse,
        }

    rows = TR.run_ablation(cfg, samples, vocab, eval_fn=eval_arm)
    text = TR.format_ablation_report(rows)
    with open(os.path.join(args.out, "ablation.tsv"), "w", encoding="utf-8") as fh:
        fh.write(text)
    print(text, end="")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    command = {"gen-data": cmd_gen_data, "train": cmd_train, "sample": cmd_sample,
               "eval": cmd_eval, "ablate": cmd_ablate}[args.command]
    try:
        # no numpy overflow warnings: a non-finite training step or sampled
        # image raises NonFiniteTraining or NonFiniteImage, reported once below
        with np.errstate(over="ignore", invalid="ignore"):
            return command(args)
    except TR.ConfigError as exc:
        print(f"outpaint: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TR.CorruptCheckpoint as exc:
        print(f"outpaint: checkpoint error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except DATA_ERRORS as exc:
        print(f"outpaint: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
