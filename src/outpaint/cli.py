"""Command-line surface: data generation, training, sampling, evaluation,
and the fusion-mode ablation.

Exit codes: 0 ok, 2 usage/config error, 3 data error (also a non-finite
training step or generated image), 4 checkpoint error.
Every command is bit-reproducible given the same flags, seeds and inputs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields

import numpy as np

from outpaint import evaluation as EV
from outpaint import ppm
from outpaint import synthdata as SD
from outpaint import trainer as TR
from outpaint.prompt import LengthExceeded, parse, tokenize, tokenize_and_embed
from outpaint.sampling import ddim_sample

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_CHECKPOINT = 4

DATA_ERRORS = (OSError, ValueError, MemoryError)  # MalformedPrompt, BadImageFile and the like are ValueErrors


def bounded(parse, lo, hi=math.inf):
    """Argparse type: ``parse(text)``, refused unless lo <= value <= hi (NaN never is)."""
    def check(text: str):
        value = parse(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"must be in [{lo}, {hi}], got {value}")
        return value
    check.__name__ = parse.__name__  # argparse names it in "invalid int value"
    return check


count = bounded(int, 1)  # flags that count samples
seed = bounded(int, *TR.TrainConfig.range_of("seed"))
steps = bounded(int, *TR.TrainConfig.range_of("infer_steps"))  # overrides the checkpoint's infer_steps

# The TrainConfig settings a command does not read, with the reason; it offers them neither as
# flags nor as --config keys. ablate keeps center_size, which TrainConfig checks against image_size.
_SET_BY_THE_DATA = {"uncond_fraction": "a dataset setting; give it to gen-data --uncond-fraction",
                    "channels": "every image the CLI reads or writes is RGB"}
UNREAD_SETTINGS = {"train": _SET_BY_THE_DATA,
                   "ablate": {**_SET_BY_THE_DATA, "a_mode": "each arm sets its own (ABLATION_MODES)",
                              "checkpoint_every": "the arms write no checkpoint"}}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="outpaint", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="write a synthetic dataset")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--n", type=count, required=True, help="number of samples")
    gen.add_argument("--seed", type=seed, default=0)
    gen.add_argument("--image-size", type=int, default=16)
    gen.add_argument("--center-size", type=int, default=8)
    gen.add_argument("--uncond-fraction", type=bounded(float, *TR.TrainConfig.range_of("uncond_fraction")), default=0.0)
    gen.add_argument("--irregular", action="store_true", help="blob masks instead of the center square")

    train = sub.add_parser("train", help="fine-tune the denoiser on a dataset")
    train.add_argument("--data", required=True, help="dataset directory (from gen-data)")
    train.add_argument("--out", required=True, help="run directory for checkpoints and the log")

    sample = sub.add_parser("sample", help="outpaint one image with a trained model")
    sample.add_argument("--ckpt", required=True)
    sample.add_argument("--prompt", default="Center:; Surrounding:")
    sample.add_argument("--image", help="source PPM providing the known content (defaults to blank)")
    sample.add_argument("--mask", default="center", help="mask PGM path, or 'center' for the centered square")
    sample.add_argument("--steps", type=steps, default=None, help="sampler steps (default: checkpoint setting)")
    sample.add_argument("--seed", type=seed, default=0)
    sample.add_argument("--copy", action="store_true", help="paste the source center into the result")
    sample.add_argument("--out", required=True, help="output PPM path")

    ev = sub.add_parser("eval", help="score a trained model on a dataset")
    ev.add_argument("--ckpt", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--n", type=count, default=100)
    ev.add_argument("--mode", choices=("dataset", "unconditional", "swapped"), default="dataset")
    ev.add_argument("--steps", type=steps, default=None)
    ev.add_argument("--seed", type=seed, default=0)
    ev.add_argument("--copy", action="store_true")
    ev.add_argument("--out", required=True, help="report directory")

    ab = sub.add_parser("ablate", help="train the three fusion-mode arms and compare")
    ab.add_argument("--data", required=True)
    ab.add_argument("--out", required=True)
    ab.add_argument("--eval-n", type=count, default=32, help="samples scored per arm")

    for command, p in (("train", train), ("ablate", ab)):
        p.add_argument("--config", help="key = value config file")
        for f in fields(TR.TrainConfig):
            if f.name in UNREAD_SETTINGS[command]:
                continue
            span = "range [{}, {}], ".format(*f.metadata["range"]) if "range" in f.metadata else ""
            p.add_argument(f"--{f.name.replace('_', '-')}", dest=f"cfg_{f.name}", help=f"{span}default {f.default}")

    return parser


def _config_from_args(args) -> TR.TrainConfig:
    """The ``--config`` file's settings, overridden by the config flags given."""
    mapping = TR.read_config_file(args.config) if args.config else {}
    unread = UNREAD_SETTINGS[args.command]
    refused = next((key for key in mapping if key in unread), None)
    if refused is not None:
        raise TR.ConfigError(f"{args.config}: {args.command} does not read {refused!r}: {unread[refused]}")
    mapping.update({key.removeprefix("cfg_"): value for key, value in vars(args).items()
                    if key.startswith("cfg_") and value is not None})
    return TR.config_from_mapping(mapping)


def _load_samples(data_dir, cfg: TR.TrainConfig):
    samples, _ = SD.load_dataset(data_dir)
    if not samples:
        raise ValueError(f"{data_dir}: empty dataset")
    shape, vocab = cfg.image_shape, SD.vocabulary()
    for i, s in enumerate(samples):  # every sample, so a stray one cannot stop training midway
        if s.image.shape != shape or s.pixel_mask.shape != shape[1:]:
            raise TR.GeometryMismatch(f"{data_dir}: sample {i} image {s.image.shape} and mask "
                                      f"{s.pixel_mask.shape}, model expects {shape}")
        try:
            tokenize(s.caption, vocab, cfg.l_center, cfg.l_surround)
        except LengthExceeded as exc:
            raise LengthExceeded(f"{data_dir}: sample {i} caption: {exc}") from None
    return samples


def cmd_gen_data(args) -> int:
    spec = SD.SynthSpec(image_size=args.image_size, center_size=args.center_size)
    SD.output_dir(args.out)  # refuses a used --out before rendering anything
    samples, seeds = SD.build_dataset(args.n, args.seed, spec, uncond_fraction=args.uncond_fraction,
                                      irregular=args.irregular)
    SD.save_dataset(samples, seeds, args.out)
    n_uncond = sum(s.caption.is_unconditional for s in samples)
    print(f"wrote {len(samples)} samples ({n_uncond} unconditional) to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _config_from_args(args)
    samples = _load_samples(args.data, cfg)
    SD.output_dir(args.out)  # refuses a used --out before the model is built; run_training writes it
    _, _, losses = TR.run_training(cfg, samples, SD.vocabulary(), out_dir=args.out)
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
    rng = np.random.default_rng(args.seed)
    gen = ddim_sample(params, cfg.schedule(), source, mask, pe, args.steps or cfg.infer_steps, rng)
    if args.copy:
        gen = EV.copy_center(gen, source, mask)
    with SD.output_file(args.out) as tmp:
        ppm.write_ppm(tmp, gen)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    params, _, cfg = TR.load_checkpoint(args.ckpt)
    samples = _load_samples(args.data, cfg)
    swapped = args.mode == "swapped"
    custom = EV.swap_surrounding_colors([s.caption for s in samples], args.seed) if swapped else None
    report = EV.evaluate(params, cfg.schedule(), samples, args.n, SD.vocabulary(),
                         prompt_mode="custom" if swapped else args.mode, custom_prompts=custom,
                         infer_steps=args.steps or cfg.infer_steps, seed=args.seed, copy=args.copy, out_dir=args.out)
    print(report.to_text(), end="")
    return EXIT_OK


def cmd_ablate(args) -> int:
    cfg = _config_from_args(args)
    samples = _load_samples(args.data, cfg)
    vocab = SD.vocabulary()

    def eval_arm(params, arm_cfg):
        return EV.evaluate(params, arm_cfg.schedule(), samples, args.eval_n, vocab,
                           infer_steps=arm_cfg.infer_steps, seed=arm_cfg.seed)

    with SD.output_dir(args.out) as out:  # refuses a used --out before an arm trains
        text = TR.format_ablation_report(TR.run_ablation(cfg, samples, vocab, eval_fn=eval_arm))
        with open(os.path.join(out, "ablation.tsv"), "w", encoding="utf-8") as fh:
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
