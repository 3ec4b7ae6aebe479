"""The spatial "Center:...; Surrounding:..." prompt format.

A prompt carries two ordered keyword lists, one describing the known center
region of an image and one describing the surroundings to be generated.
Both lists empty is the unconditional prompt. Prompts are tokenized against
a small closed vocabulary and embedded with a learned table; the combined
embedding keeps the center stream, the surrounding stream, and their
concatenation mutually consistent so the conditioning branches all see the
same token content.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from outpaint import tensor as T
from outpaint.tensor import Tensor


class MalformedPrompt(ValueError):
    """Input text is not a valid Center/Surrounding prompt."""


class LengthExceeded(ValueError):
    """A keyword list does not fit in the fixed token window."""


PAD_ID = 0
CENTER_MARK_ID = 1
SURROUND_MARK_ID = 2
UNK_ID = 3
N_RESERVED = 4

_FORBIDDEN = set(",;:")

_PROMPT_RE = re.compile(
    r"^\s*center\s*:(?P<center>[^;:]*);\s*surrounding\s*:(?P<surrounding>[^;:]*)$",
    re.IGNORECASE,
)


def _check_keywords(kws: tuple[str, ...], which: str) -> None:
    for kw in kws:
        if not kw or kw != kw.strip() or kw != kw.lower() or _FORBIDDEN & set(kw):
            raise MalformedPrompt(f"bad {which} keyword {kw!r}")


@dataclass(frozen=True)
class CsPrompt:
    """Parsed center/surrounding keyword lists (lowercase, deduplicated)."""

    center: tuple[str, ...] = ()
    surrounding: tuple[str, ...] = ()

    def __post_init__(self):
        _check_keywords(self.center, "center")
        _check_keywords(self.surrounding, "surrounding")

    @property
    def is_unconditional(self) -> bool:
        return not self.center and not self.surrounding


UNCONDITIONAL = CsPrompt()


def _parse_keywords(raw: str) -> tuple[str, ...]:
    items = [kw.strip().lower() for kw in raw.split(",")]
    return tuple(dict.fromkeys(kw for kw in items if kw))


def parse(text: str) -> CsPrompt:
    """Parse a prompt string, raising MalformedPrompt on anything else.

    Matching is case-insensitive and tolerant of spacing, but the two
    markers must both be present and in center-first order.
    """
    m = _PROMPT_RE.match(text)
    if m is None:
        raise MalformedPrompt(
            f"expected 'Center:<keywords>; Surrounding:<keywords>', got {text!r}"
        )
    return CsPrompt(_parse_keywords(m.group("center")), _parse_keywords(m.group("surrounding")))


def render(p: CsPrompt) -> str:
    """Canonical string form; parse(render(p)) == p."""
    return f"Center:{','.join(p.center)}; Surrounding:{','.join(p.surrounding)}"


class Vocab:
    """Keyword -> token id map.

    Ids 0..3 are reserved (PAD, center marker, surrounding marker, UNK);
    keyword ids are dense starting at 4, in the order given.
    """

    def __init__(self, words):
        words = tuple(words)
        if len(set(words)) != len(words):
            raise ValueError("duplicate vocabulary words")
        for w in words:
            _check_keywords((w,), "vocab")
        self.words = words
        self._to_id = {w: i + N_RESERVED for i, w in enumerate(words)}

    @property
    def size(self) -> int:
        return N_RESERVED + len(self.words)

    def id_of(self, word: str) -> int:
        return self._to_id.get(word, UNK_ID)


@dataclass
class PromptEmbedding:
    """Embedded prompt streams: the full prompt and its two region halves.

    ``total`` is the row-wise concatenation of ``center`` and
    ``surrounding``, so the global conditioning stream and the two region
    streams always agree on token content.
    """

    total: Tensor
    center: Tensor
    surrounding: Tensor


def _region_ids(mark_id: int, keywords: tuple[str, ...], vocab: Vocab, length: int) -> np.ndarray:
    if 1 + len(keywords) > length:
        raise LengthExceeded(
            f"{len(keywords)} keywords do not fit in a window of {length} (one slot is the marker)"
        )
    ids = [mark_id] + [vocab.id_of(kw) for kw in keywords]
    ids += [PAD_ID] * (length - len(ids))
    return np.array(ids, dtype=np.int64)


def tokenize(p: CsPrompt, vocab: Vocab, l_center: int, l_surround: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-length token id windows: [marker, keywords..., PAD...]."""
    center = _region_ids(CENTER_MARK_ID, p.center, vocab, l_center)
    surrounding = _region_ids(SURROUND_MARK_ID, p.surrounding, vocab, l_surround)
    return center, surrounding


def tokenize_and_embed(
    p: CsPrompt, vocab: Vocab, table: Tensor, l_center: int, l_surround: int
) -> PromptEmbedding:
    """Embed the prompt with a learned table (rows indexed by token id)."""
    if table.shape[0] != vocab.size:
        raise ValueError(f"table has {table.shape[0]} rows for vocab of size {vocab.size}")
    center_ids, surround_ids = tokenize(p, vocab, l_center, l_surround)
    center = T.embedding(table, center_ids)
    surrounding = T.embedding(table, surround_ids)
    total = T.concat([center, surrounding], axis=0)
    return PromptEmbedding(total=total, center=center, surrounding=surrounding)
