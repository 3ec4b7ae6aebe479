"""Fine-tuning loop, optimizer, checkpoints, and the fusion-mode ablation.

Each step draws a batch and, per sample, a uniformly random timestep and its
noise. ``sample_loss`` is the per-sample recipe: noise the image, embed the
prompt, run the denoiser on (noisy, image, mask, prompt) and take the mean
squared error against the added noise. That loss is backpropagated before the
next sample's forward, and one Adam update to every trainable parameter ends
the step. All randomness for step k comes from a generator derived from
(seed, k), so resuming from a checkpoint continues the exact trajectory of an
uninterrupted run.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import sys
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from outpaint import attention as A
from outpaint import denoiser as DN
from outpaint import diffusion as D
from outpaint import synthdata as SD
from outpaint import tensor as T
from outpaint.denoiser import ConfigError
from outpaint.prompt import Vocab, tokenize_and_embed
from outpaint.synthdata import SynthSample
from outpaint.tensor import Tensor, backward


class GeometryMismatch(ValueError):
    """Batch sample geometry differs from the model configuration."""


class CorruptCheckpoint(ValueError):
    """Checkpoint file has a bad magic, a bad length, or records other than ``_records`` lists."""


class NonFiniteTraining(ValueError):
    """A training step produced a non-finite loss or gradient norm."""


@dataclass(frozen=True)
class TrainConfig(DN.DenoiserConfig):
    """Training hyperparameters on top of the model geometry they train."""

    iterations: int = DN.ranged(3000, 1, math.inf)
    batch_size: int = DN.ranged(4, 1, 1024)
    learning_rate: float = DN.ranged(1e-3, 0.0, sys.float_info.max)
    seed: int = DN.ranged(0, 0, math.inf)  # numpy seed sequences refuse negative entropy
    uncond_fraction: float = DN.ranged(0.1, 0.0, 1.0)
    a_mode: str = "learnable"  # learnable | random | constant:<value>
    beta_start: float = DN.ranged(1e-4, math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0))  # (0, 1) without its ends
    beta_end: float = DN.ranged(0.05, math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0))
    infer_steps: int = DN.ranged(50, 1, math.inf)
    center_size: int = DN.ranged(8, 2, 1024)  # only `sample --mask center`'s mask; training uses each sample's own
    checkpoint_every: int = DN.ranged(1000, 1, math.inf)
    grad_clip: float = DN.ranged(1.0, 0.0, sys.float_info.max)  # 0 means no clipping

    def __post_init__(self):
        super().__post_init__()
        self.schedule()
        SD.make_center_mask(self.image_size, self.center_size)
        parse_fusion_mode(self.a_mode)

    def schedule(self) -> D.NoiseSchedule:
        return D.linear_schedule(self.t_steps, self.beta_start, self.beta_end)


def parse_fusion_mode(a_mode: str) -> tuple[str, float | None]:
    """Split an a_mode string into (mode, constant value)."""
    if a_mode in (A.FUSION_LEARNABLE, A.FUSION_RANDOM):
        return a_mode, None
    mode, _, text = a_mode.partition(":")
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if mode != A.FUSION_CONSTANT or not math.isfinite(value):
        raise ConfigError(f"a_mode {a_mode!r} is not learnable, random or constant:<finite number>")
    return mode, value


_PARSERS = {f.name: {"int": int, "float": float}.get(f.type, str) for f in fields(TrainConfig)}


def config_from_mapping(mapping: dict[str, str]) -> TrainConfig:
    """Build a config from string key/values; unknown keys are errors."""
    parsed = {}
    for key, raw in mapping.items():
        if key not in _PARSERS:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            parsed[key] = _PARSERS[key](raw)
        except ValueError:
            raise ConfigError(f"bad value for {key}: {raw!r}") from None
    return TrainConfig(**parsed)


def parse_config_lines(lines, where) -> dict[str, str]:
    """`key = value` lines; `#` starts a comment; a key set twice is an error.
    Errors name ``where`` and the line number."""
    mapping, first_line = {}, {}
    for lineno, line in enumerate(lines, 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{where}:{lineno}: expected 'key = value', got {body!r}")
        key, value = (part.strip() for part in body.split("=", 1))
        if key in first_line:
            raise ConfigError(f"{where}:{lineno}: {key!r} already set on line {first_line[key]}")
        first_line[key] = lineno
        mapping[key] = value
    return mapping


def read_config_file(path) -> dict[str, str]:
    """A UTF-8 text file of ``parse_config_lines`` lines; a leading byte-order mark is skipped."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = list(fh)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    return parse_config_lines(lines, path)


# -- optimizer -------------------------------------------------------------

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def adam_update(param: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray, t: int, lr: float) -> None:
    """In-place bias-corrected Adam update of one parameter array (0-d too); two scratch
    arrays hold every temporary of the textbook formula, evaluated in its written order."""
    if param.shape != grad.shape:
        raise T.ShapeMismatch(f"param {param.shape} vs grad {grad.shape}")
    step, denom = np.empty_like(param), np.empty_like(param)
    m *= ADAM_BETA1
    m += np.multiply(1.0 - ADAM_BETA1, grad, out=step)
    v *= ADAM_BETA2
    v += np.multiply(np.multiply(1.0 - ADAM_BETA2, grad, out=step), grad, out=step)
    np.sqrt(np.divide(v, 1.0 - ADAM_BETA2**t, out=denom), out=denom)  # sqrt(v_hat)
    denom += ADAM_EPS
    np.multiply(lr, np.divide(m, 1.0 - ADAM_BETA1**t, out=step), out=step)  # lr * m_hat
    param -= np.divide(step, denom, out=step)


class Adam:
    """Adam over named tensors; moments keyed by parameter name."""

    def __init__(self, named_params, lr: float):
        self.named_params = list(named_params)
        self.lr = lr
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.named_params}
        self.v = {name: np.zeros_like(p.data) for name, p in self.named_params}

    def step(self) -> None:
        self.t += 1
        for name, p in self.named_params:
            grad = p.grad if p.grad is not None else np.zeros_like(p.data)
            adam_update(p.data, grad, self.m[name], self.v[name], self.t, self.lr)

    def zero_grad(self) -> None:
        for _, p in self.named_params:
            p.zero_grad()


def clip_gradients(named_params, max_norm: float) -> float:
    """Scale all gradients so their global norm is at most max_norm."""
    total = 0.0
    for _, p in named_params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = np.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        factor = max_norm / norm
        for _, p in named_params:
            if p.grad is not None:
                p.grad *= factor
    return norm


# -- training ---------------------------------------------------------------


def init_model(cfg: TrainConfig, vocab: Vocab) -> DN.DenoiserParams:
    """Seeded model init; the fusion mode comes from the config."""
    mode, constant = parse_fusion_mode(cfg.a_mode)
    rng = np.random.default_rng(cfg.seed)
    return DN.init_denoiser_params(cfg, vocab, rng, fusion_mode=mode, fusion_constant=constant)


def step_rng(seed: int, step: int) -> np.random.Generator:
    """All randomness of training step `step` comes from this generator."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(step,)))


def sample_loss(params: DN.DenoiserParams, image: np.ndarray, pixel_mask: np.ndarray, caption: str, t: int,
                eps: np.ndarray, vocab: Vocab, schedule: D.NoiseSchedule) -> Tensor:
    """One sample's noise loss at timestep ``t`` with noise ``eps``, on the tape and not yet backpropagated."""
    x_t = D.forward_sample(image, t, eps, schedule)
    pe = tokenize_and_embed(caption, vocab, params.text_table, params.cfg.l_center, params.cfg.l_surround)
    return D.training_loss(eps, DN.forward(params, x_t, image, pixel_mask, t, pe))


def train_step(
    batch: list[SynthSample],
    params: DN.DenoiserParams,
    opt: Adam,
    schedule: D.NoiseSchedule,
    rng: np.random.Generator,
    vocab: Vocab,
    grad_clip: float = 1.0,
) -> float:
    """One optimization step over a batch; returns the pre-update loss (``sample_loss``
    values summed in batch order, then scaled by 1/B). Each sample draws its ``t``, then
    its ``eps``, from ``rng``; its scaled loss is backpropagated as soon as its forward
    ends, and ``backward`` frees each node's saved arrays as it runs it, so a step holds
    at most one sample's tape and its memory does not grow with B (about 14 MB at its
    peak for a default 32 px sample); the B ``backward`` calls add up in the leaf
    gradients. A sample of the wrong geometry raises before any gradient is written, a
    non-finite loss or pre-clip gradient norm (``NonFiniteTraining``) before the update."""
    if not batch:
        raise ValueError("empty batch")
    cfg = params.cfg
    images = [sample.image for sample in batch]
    for image in images:
        if image.shape != cfg.image_shape:
            raise GeometryMismatch(f"sample {image.shape} vs model {cfg.image_shape}")
    weight, loss_sum = 1.0 / len(batch), 0.0
    opt.zero_grad()
    for sample, image in zip(batch, images):
        t = int(rng.integers(1, schedule.t_steps + 1))
        eps = rng.standard_normal(cfg.image_shape)
        loss = sample_loss(params, image, sample.pixel_mask, sample.caption, t, eps, vocab, schedule)
        backward(T.scale(loss, weight))
        loss_sum += loss.item()
    loss_value = loss_sum * weight
    grad_norm = clip_gradients(opt.named_params, grad_clip)
    if not (math.isfinite(loss_value) and math.isfinite(grad_norm)):
        raise NonFiniteTraining(f"step {opt.t + 1}: loss {loss_value}, gradient norm {grad_norm}")
    opt.step()
    return loss_value


def run_training(cfg: TrainConfig, samples: list[SynthSample], vocab: Vocab, params: DN.DenoiserParams | None = None,
                 opt: Adam | None = None, out_dir=None) -> tuple[DN.DenoiserParams, Adam, list[float]]:
    """Train from scratch or continue (params+opt) up to cfg.iterations.

    The optimizer step counter doubles as the global step index, so a
    loaded checkpoint resumes mid-trajectory with identical randomness.
    Given ``out_dir``, the run is its only writer: ``SD.output_dir`` refuses a
    used one, and the run then writes in place (so a diverged run keeps its
    finite checkpoints) each step's ``train_log.tsv`` line, closed before that
    step's ``ckpt_<step>.bin``, and ``model.ckpt`` after the last step.
    """
    if params is None:
        params = init_model(cfg, vocab)
    if opt is None:
        opt = Adam(params.trainable_parameters(), lr=cfg.learning_rate)
    if out_dir is not None:
        with SD.output_dir(out_dir) as tmp:  # after the model, so one too large for memory writes nothing
            open(os.path.join(tmp, "train_log.tsv"), "w").close()
    schedule = cfg.schedule()
    losses = []
    for step in range(opt.t, cfg.iterations):
        rng = step_rng(cfg.seed, step)
        idx = rng.integers(0, len(samples), size=cfg.batch_size)
        batch = [samples[i] for i in idx]
        loss = train_step(batch, params, opt, schedule, rng, vocab, cfg.grad_clip)
        losses.append(loss)
        if out_dir is not None:
            fusion_csv = ",".join(repr(v) for v in params.fusion_values())
            with open(os.path.join(out_dir, "train_log.tsv"), "a", encoding="utf-8") as log:
                log.write(f"{opt.t}\t{repr(loss)}\t{fusion_csv}\n")
            if opt.t % cfg.checkpoint_every == 0 or opt.t == cfg.iterations:
                save_checkpoint(params, opt, cfg, os.path.join(out_dir, f"ckpt_{opt.t:06d}.bin"))
    if out_dir is not None:
        save_checkpoint(params, opt, cfg, os.path.join(out_dir, "model.ckpt"))
    return params, opt, losses


# -- checkpoints -------------------------------------------------------------
# Layout; every integer is a little-endian u32:
#   magic, header length, config header (`name=repr(value)` lines, UTF-8),
#   record count, then per record: name length, UTF-8 name, rank, dims, and
#   the tensor's little-endian f64 data in C order. Records come in
#   ``_records`` order; a name is a parameter's field path (``named_parameters``)
#   and a load reads the records back in that order.

_MAGIC = b"OUTPAINT-CKPT-1\n"


def _config_header(cfg: TrainConfig) -> bytes:
    lines = [f"{f.name}={getattr(cfg, f.name)!r}\n" for f in fields(TrainConfig)]
    return "".join(lines).encode("utf-8")


def _parse_header(blob: bytes) -> TrainConfig:
    try:
        mapping = parse_config_lines(blob.decode("utf-8").splitlines(), "header")
        return config_from_mapping({k: v.strip("'\"") for k, v in mapping.items()})
    except ValueError as exc:  # not UTF-8, a bad or repeated line, or a bad config
        raise CorruptCheckpoint(f"bad config header: {exc}") from None


def _records(params: DN.DenoiserParams, opt: Adam):
    """Every checkpoint record as (name, array), in file order: the parameters,
    the optimizer step counter, then both moments of each trainable parameter."""
    yield from ((name, t.data) for name, t in params.named_parameters())
    yield "opt.t", np.array(float(opt.t))
    for name, _ in params.trainable_parameters():
        yield f"opt.m.{name}", opt.m[name]
        yield f"opt.v.{name}", opt.v[name]


def save_checkpoint(params: DN.DenoiserParams, opt: Adam, cfg: TrainConfig, path) -> None:
    """Write ``_records`` under the config header through ``SD.output_file``."""
    records = list(_records(params, opt))
    header = _config_header(cfg)
    with SD.output_file(path) as tmp, open(tmp, "wb") as fh:
        fh.write(_MAGIC + struct.pack("<I", len(header)) + header + struct.pack("<I", len(records)))
        for name, arr in records:
            raw, data = name.encode("utf-8"), np.asarray(arr, dtype="<f8")
            fh.write(struct.pack(f"<I{len(raw)}sI{data.ndim}I", len(raw), raw, data.ndim, *data.shape))
            fh.write(data.tobytes())


def load_checkpoint(path, vocab: Vocab | None = None) -> tuple[DN.DenoiserParams, Adam, TrainConfig]:
    """Rebuild (params, opt, cfg) exactly as saved, reading the records once,
    in ``_records`` order. No length read from the file is trusted beyond the
    bytes the file has left, and no record's data is read before its dims
    match the shape the model asks for."""
    vocab = vocab or SD.vocabulary()
    try:
        with open(path, "rb") as fh:
            if fh.read(len(_MAGIC)) != _MAGIC:
                raise CorruptCheckpoint(f"{path}: bad magic")
            size = os.fstat(fh.fileno()).st_size

            def read(n: int) -> bytes:
                if n > size - fh.tell():
                    raise EOFError(f"expected {n} bytes, only {size - fh.tell()} left")
                return fh.read(n)

            def u32() -> int:
                return struct.unpack("<I", read(4))[0]

            cfg = _parse_header(read(u32()))
            fusion_mode, constant = parse_fusion_mode(cfg.a_mode)
            count, names = u32(), []

            def record(shape: tuple) -> np.ndarray:
                if len(names) == count:
                    raise CorruptCheckpoint(f"{path}: more records expected than the {count} declared")
                names.append(read(u32()).decode("utf-8"))
                rank = u32()
                if rank > 32:
                    raise CorruptCheckpoint(f"{path}: implausible tensor rank {rank}")
                dims = struct.unpack(f"<{rank}I", read(4 * rank))
                if dims != shape:
                    raise CorruptCheckpoint(f"{path}: record {names[-1]} has shape {dims}, expected {shape}")
                return np.frombuffer(read(8 * math.prod(dims)), dtype="<f8").reshape(dims).astype(np.float64)

            def make(shape, init):
                data = record(shape)
                if init != "fusion":
                    return Tensor(data, requires_grad=True)
                if constant is not None and data != constant:  # the model must use the constant its header reports
                    raise CorruptCheckpoint(f"{path}: fusion {names[-1]} is {float(data)!r}, not {cfg.a_mode}")
                return A.fusion_scalar(data, fusion_mode)

            params = DN.assemble(cfg, vocab.size, make)
            step = record(())
            if not (step >= 0 and float(step).is_integer()):
                raise CorruptCheckpoint(f"{path}: bad optimizer step counter {float(step)!r}")
            opt = Adam(params.trainable_parameters(), lr=cfg.learning_rate)
            opt.t = int(step)
            for name, p in opt.named_params:
                opt.m[name], opt.v[name] = record(p.shape), record(p.shape)
            if fh.read(1):
                raise CorruptCheckpoint(f"{path}: trailing bytes")
    except (EOFError, UnicodeDecodeError) as exc:
        raise CorruptCheckpoint(f"{path}: truncated or garbled ({exc})") from None
    if count != len(names):
        raise CorruptCheckpoint(f"{path}: {count} records declared, {len(names)} expected")
    for got, (want, _) in zip(names, _records(params, opt)):
        if got != want:
            raise CorruptCheckpoint(f"{path}: record {got!r} where {want!r} belongs")
    return params, opt, cfg


def params_checksum(params: DN.DenoiserParams, exclude_fusion: bool = False) -> str:
    """SHA-256 over all parameter bytes in declaration order."""
    digest = hashlib.sha256()
    for name, tensor in params.named_parameters():
        if exclude_fusion and name.endswith("fusion"):
            continue
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(tensor.data, dtype="<f8").tobytes())
    return digest.hexdigest()


# -- ablation -----------------------------------------------------------------

ABLATION_MODES = ("random", "constant:0.5", "learnable")


def run_ablation(
    base_cfg: TrainConfig,
    samples: list[SynthSample],
    vocab: Vocab,
    eval_fn=None,
) -> list[dict]:
    """Train one arm per ``ABLATION_MODES`` entry from a shared seed.

    Because fusion scalars are initialized after every shared parameter,
    all arms start from checksum-identical base weights. Returns one report
    row per arm with initial/final fusion values and, given ``eval_fn``, the
    ``EvalReport`` it returns for the trained arm.
    """
    rows = []
    for mode in ABLATION_MODES:
        cfg = replace(base_cfg, a_mode=mode)
        params = init_model(cfg, vocab)
        row = {
            "a_mode": mode,
            "base_checksum": params_checksum(params, exclude_fusion=True),
            "fusion_init": params.fusion_values(),
        }
        params, opt, losses = run_training(cfg, samples, vocab, params=params)
        row["fusion_final"] = params.fusion_values()
        window = max(1, min(50, len(losses) // 5))
        row["loss_first"] = float(np.mean(losses[:window]))
        row["loss_last"] = float(np.mean(losses[-window:]))
        if eval_fn is not None:
            row["report"] = eval_fn(params, cfg)
        rows.append(row)
    return rows


def format_ablation_report(rows: list[dict]) -> str:
    """Tab-separated, one line per arm; each ``EvalReport`` field gets a column."""
    reports = [asdict(row["report"]) if "report" in row else {} for row in rows]
    header = ["a_mode", "base_checksum", "fusion_init", "fusion_final", "loss_first", "loss_last", *reports[0]]
    lines = ["\t".join(header)]
    for row, report in zip(rows, reports):
        fusion = [",".join(f"{v:.6f}" for v in row[key]) for key in ("fusion_init", "fusion_final")]
        losses = [f"{row[key]:.6f}" for key in ("loss_first", "loss_last")]
        cells = [row["a_mode"], row["base_checksum"][:12], *fusion, *losses, *map(repr, report.values())]
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"
