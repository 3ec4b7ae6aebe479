"""Fine-tuning loop, optimizer, checkpoints, and the fusion-mode ablation.

Each step draws a batch, noises every sample to a uniformly random
timestep, runs the denoiser on (noisy, image, mask, prompt), takes the
mean squared error against the added noise, and applies one Adam update to
all trainable parameters. All randomness for step k comes from a generator
derived from (seed, k), so resuming from a checkpoint continues the exact
trajectory of an uninterrupted run.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from dataclasses import dataclass, fields, replace

import numpy as np

from outpaint import attention as A
from outpaint import denoiser as DN
from outpaint import diffusion as D
from outpaint import synthdata as SD
from outpaint import tensor as T
from outpaint.prompt import Vocab, tokenize_and_embed
from outpaint.synthdata import SynthSample
from outpaint.tensor import Tensor, backward


class GeometryMismatch(ValueError):
    """Batch sample geometry differs from the model configuration."""


class CorruptCheckpoint(ValueError):
    """Checkpoint file has a bad magic, bad length, or missing tensors."""


class ConfigError(ValueError):
    """Config file contains unknown keys or unparsable values."""


class NonFiniteTraining(ValueError):
    """A training step produced a non-finite loss or gradient norm."""


@dataclass(frozen=True)
class TrainConfig(DN.DenoiserConfig):
    """Training hyperparameters on top of the model geometry they train."""

    iterations: int = 3000
    batch_size: int = 4
    learning_rate: float = 1e-3
    seed: int = 0
    uncond_fraction: float = 0.1
    a_mode: str = "learnable"  # learnable | random | constant:<value>
    beta_start: float = 1e-4
    beta_end: float = 0.05
    infer_steps: int = 50
    center_size: int = 8
    checkpoint_every: int = 1000
    grad_clip: float = 1.0

    def __post_init__(self):
        try:
            super().__post_init__()
            self.schedule()
            D.ddim_timesteps(self.t_steps, self.infer_steps)
            SD.make_center_mask(self.image_size, self.center_size)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        for name in ("iterations", "batch_size", "checkpoint_every"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("learning_rate", "grad_clip"):  # grad_clip 0 means no clipping
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        parse_fusion_mode(self.a_mode)

    def schedule(self) -> D.NoiseSchedule:
        return D.linear_schedule(self.t_steps, self.beta_start, self.beta_end)


def parse_fusion_mode(a_mode: str) -> tuple[str, float | None]:
    """Split an a_mode string into (mode, constant value)."""
    if a_mode in (A.FUSION_LEARNABLE, A.FUSION_RANDOM):
        return a_mode, None
    if a_mode.startswith(A.FUSION_CONSTANT + ":"):
        try:
            return A.FUSION_CONSTANT, float(a_mode.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad constant fusion value in {a_mode!r}") from None
    raise ConfigError(f"unknown a_mode {a_mode!r}")


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


def read_config_file(path) -> dict[str, str]:
    """Plain-text `key = value` lines; `#` starts a comment."""
    mapping = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = list(fh)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    for lineno, line in enumerate(lines, 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {body!r}")
        key, value = body.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping


def load_config(path, overrides: dict[str, str] | None = None) -> TrainConfig:
    mapping = read_config_file(path)
    mapping.update(overrides or {})
    return config_from_mapping(mapping)


# -- optimizer -------------------------------------------------------------


def adam_update(
    param: np.ndarray,
    grad: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    t: int,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """In-place bias-corrected Adam update of one parameter array."""
    if param.shape != grad.shape:
        raise T.ShapeMismatch(f"param {param.shape} vs grad {grad.shape}")
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    param -= lr * m_hat / (np.sqrt(v_hat) + eps)


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


def train_step(
    batch: list[SynthSample],
    params: DN.DenoiserParams,
    opt: Adam,
    schedule: D.NoiseSchedule,
    rng: np.random.Generator,
    vocab: Vocab,
    grad_clip: float = 1.0,
) -> float:
    """One optimization step over a batch; returns the pre-update loss. A
    non-finite loss or pre-clip gradient norm raises ``NonFiniteTraining``
    before the update."""
    if not batch:
        raise ValueError("empty batch")
    cfg = params.cfg
    losses = []
    for sample in batch:
        if sample.image.shape != cfg.image_shape:
            raise GeometryMismatch(f"sample {sample.image.shape} vs model {cfg.image_shape}")
        t = int(rng.integers(1, schedule.t_steps + 1))
        eps = rng.standard_normal(cfg.image_shape)
        x_t = D.forward_sample(sample.image, t, eps, schedule)
        pe = tokenize_and_embed(sample.caption, vocab, params.text_table, cfg.l_center, cfg.l_surround)
        pred = DN.forward(params, x_t, sample.image, sample.pixel_mask, t, pe)
        losses.append(D.training_loss(eps, pred))
    total = losses[0]
    for extra in losses[1:]:
        total = T.add(total, extra)
    total = T.scale(total, 1.0 / len(losses))
    loss_value = total.item()

    opt.zero_grad()
    backward(total)
    grad_norm = clip_gradients(opt.named_params, grad_clip)
    if not (math.isfinite(loss_value) and math.isfinite(grad_norm)):
        raise NonFiniteTraining(f"step {opt.t + 1}: loss {loss_value}, gradient norm {grad_norm}")
    opt.step()
    return loss_value


def run_training(
    cfg: TrainConfig,
    samples: list[SynthSample],
    vocab: Vocab,
    params: DN.DenoiserParams | None = None,
    opt: Adam | None = None,
    out_dir=None,
    log_fh=None,
) -> tuple[DN.DenoiserParams, Adam, list[float]]:
    """Train from scratch or continue (params+opt) up to cfg.iterations.

    The optimizer step counter doubles as the global step index, so a
    loaded checkpoint resumes mid-trajectory with identical randomness.
    """
    if params is None:
        params = init_model(cfg, vocab)
    if opt is None:
        opt = Adam(params.trainable_parameters(), lr=cfg.learning_rate)
    schedule = cfg.schedule()
    losses = []
    for step in range(opt.t, cfg.iterations):
        rng = step_rng(cfg.seed, step)
        idx = rng.integers(0, len(samples), size=cfg.batch_size)
        batch = [samples[i] for i in idx]
        loss = train_step(batch, params, opt, schedule, rng, vocab, cfg.grad_clip)
        losses.append(loss)
        if log_fh is not None:
            fusion_csv = ",".join(repr(v) for v in params.fusion_values())
            log_fh.write(f"{opt.t}\t{repr(loss)}\t{fusion_csv}\n")
        if out_dir is not None and (opt.t % cfg.checkpoint_every == 0 or opt.t == cfg.iterations):
            save_checkpoint(params, opt, cfg, os.path.join(out_dir, f"ckpt_{opt.t:06d}.bin"))
    return params, opt, losses


# -- checkpoints -------------------------------------------------------------
# Layout; every integer is a little-endian u32:
#   magic, header length, config header (`name=repr(value)` lines, UTF-8),
#   record count, then per record: name length, UTF-8 name, rank, dims, and
#   the tensor's little-endian f64 data in C order.

_MAGIC = b"OUTPAINT-CKPT-1\n"


def _config_header(cfg: TrainConfig) -> bytes:
    lines = [f"{f.name}={getattr(cfg, f.name)!r}\n" for f in fields(TrainConfig)]
    return "".join(lines).encode("utf-8")


def _parse_header(blob: bytes) -> TrainConfig:
    try:
        mapping = dict(line.split("=", 1) for line in blob.decode("utf-8").splitlines())
        return config_from_mapping({k: v.strip("'\"") for k, v in mapping.items()})
    except ValueError as exc:  # not UTF-8, a line without '=', or a bad config
        raise CorruptCheckpoint(f"bad config header: {exc}") from None


def save_checkpoint(params: DN.DenoiserParams, opt: Adam, cfg: TrainConfig, path) -> None:
    """Parameters in declaration order, the optimizer step counter, then
    both moment buffers. A failed write leaves any previous file at ``path``
    whole."""
    entries = [(name, t.data) for name, t in params.named_parameters()]
    entries.append(("opt.t", np.array(float(opt.t))))
    for name, _ in params.trainable_parameters():
        entries += [(f"opt.m.{name}", opt.m[name]), (f"opt.v.{name}", opt.v[name])]
    header = _config_header(cfg)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_MAGIC + struct.pack("<I", len(header)) + header + struct.pack("<I", len(entries)))
            for name, arr in entries:
                raw, data = name.encode("utf-8"), np.asarray(arr, dtype="<f8")
                fh.write(struct.pack(f"<I{len(raw)}sI{data.ndim}I", len(raw), raw, data.ndim, *data.shape))
                fh.write(data.tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path, vocab: Vocab | None = None) -> tuple[DN.DenoiserParams, Adam, TrainConfig]:
    """Rebuild (params, opt, cfg) exactly as saved. No length read from the
    file is trusted beyond the bytes the file has left."""
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
            blobs: dict[str, np.ndarray] = {}
            for _ in range(u32()):
                name = read(u32()).decode("utf-8")
                rank = u32()
                if rank > 32:
                    raise CorruptCheckpoint(f"{path}: implausible tensor rank {rank}")
                dims = struct.unpack(f"<{rank}I", read(4 * rank))
                data = read(8 * math.prod(dims))  # rank 0: prod(()) == 1
                blobs[name] = np.frombuffer(data, dtype="<f8").reshape(dims).astype(np.float64)
            if fh.read(1):
                raise CorruptCheckpoint(f"{path}: trailing bytes")
    except (EOFError, UnicodeDecodeError) as exc:
        raise CorruptCheckpoint(f"{path}: truncated or garbled ({exc})") from None

    fusion_mode, _ = parse_fusion_mode(cfg.a_mode)

    def take(name, shape):
        # the file's own arrays, checked, so header sizes never allocate more than the file holds
        blob = blobs.pop(name, None)
        if blob is None or blob.shape != shape:
            found = "missing" if blob is None else f"of shape {blob.shape}"
            raise CorruptCheckpoint(f"{path}: tensor {name} is {found}, expected shape {shape}")
        return blob

    def make(name, shape, init):
        blob = take(name, shape)
        return A.fusion_scalar(blob, fusion_mode) if init == "fusion" else Tensor(blob, requires_grad=True)

    params = DN.assemble(cfg, vocab.size, make)
    step = blobs.pop("opt.t", None)
    if step is None or step.shape != () or not (step >= 0 and float(step).is_integer()):
        raise CorruptCheckpoint(f"{path}: missing or bad optimizer step counter")
    opt = Adam(params.trainable_parameters(), lr=cfg.learning_rate)
    opt.t = int(step)
    for name, p in opt.named_params:
        opt.m[name], opt.v[name] = take("opt.m." + name, p.shape), take("opt.v." + name, p.shape)
    if blobs:
        raise CorruptCheckpoint(f"{path}: unexpected tensors {sorted(blobs)}")
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
    row per arm with initial/final fusion values and optional eval metrics.
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
            row["metrics"] = eval_fn(params, cfg)
        rows.append(row)
    return rows


def format_ablation_report(rows: list[dict]) -> str:
    lines = ["a_mode\tbase_checksum\tfusion_init\tfusion_final\tloss_first\tloss_last\tmetrics"]
    for row in rows:
        lines.append(
            "\t".join(
                [
                    row["a_mode"],
                    row["base_checksum"][:12],
                    ",".join(f"{v:.6f}" for v in row["fusion_init"]),
                    ",".join(f"{v:.6f}" for v in row["fusion_final"]),
                    f"{row['loss_first']:.6f}",
                    f"{row['loss_last']:.6f}",
                    repr(row.get("metrics", {})),
                ]
            )
        )
    return "\n".join(lines) + "\n"
