import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from outpaint import prompt as P
from outpaint.tensor import Tensor


VOCAB = P.Vocab(["desert", "airplane", "sand", "sky", "runway", "mountain", "tree", "cat", "grass", "red"])


def test_parse_full_prompt():
    p = P.parse("Center:desert,airplane,sand; Surrounding:sky,runway,mountain")
    assert p.center == ("desert", "airplane", "sand")
    assert p.surrounding == ("sky", "runway", "mountain")


def test_parse_unconditional():
    p = P.parse("Center:; Surrounding:")
    assert p.center == () and p.surrounding == ()
    assert p.is_unconditional


def test_parse_tolerates_case_and_spacing():
    p = P.parse("  center : Desert , SKY ;  SURROUNDING : tree ")
    assert p.center == ("desert", "sky")
    assert p.surrounding == ("tree",)


def test_parse_no_space_unconditional_variant():
    assert P.parse("Center:;Surrounding:").is_unconditional


def test_parse_rejects_free_text():
    with pytest.raises(P.MalformedPrompt):
        P.parse("a photo of a dog")


@pytest.mark.parametrize(
    "bad",
    [
        "Surrounding:sky; Center:desert",  # wrong order
        "Center:desert",  # missing surrounding
        "Center:a; Surrounding:b; extra:c",  # stray tail
        "Center:a:b; Surrounding:c",  # colon inside keywords
    ],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(P.MalformedPrompt):
        P.parse(bad)


def test_render_single_and_empty():
    assert P.render(P.CsPrompt(("tree",), ())) == "Center:tree; Surrounding:"
    assert P.render(P.CsPrompt()) == "Center:; Surrounding:"


def test_parse_render_round_trip_random():
    rng = np.random.default_rng(0)
    words = VOCAB.words
    for _ in range(500):
        nc, ns = rng.integers(0, 4, size=2)
        p = P.CsPrompt(
            tuple(rng.choice(words, size=nc, replace=False)),
            tuple(rng.choice(words, size=ns, replace=False)),
        )
        assert P.parse(P.render(p)) == p


# arbitrary text, and text around the two markers with keyword lists made
# of separators, letters and characters whose case mapping is unusual
_KEYWORDS = st.lists(st.sampled_from([",", ";", ":", " ", "\n", "sky", "Red", "İ", "ß"]) | st.text(max_size=2),
                     max_size=5).map("".join)
_PROMPT_TEXT = st.text(max_size=20) | st.builds(
    lambda head, center, sep, surrounding: f"{head}Center:{center};{sep}Surrounding:{surrounding}",
    st.sampled_from(["", " ", "x"]), _KEYWORDS, st.sampled_from(["", " ", "\t"]), _KEYWORDS,
)


@settings(max_examples=200, deadline=None)
@given(_PROMPT_TEXT)
def test_parse_returns_a_prompt_or_raises_malformed(text):
    try:
        p = P.parse(text)
    except P.MalformedPrompt:
        return
    assert P.parse(P.render(p)) == p


def test_prompt_rejects_bad_keywords():
    with pytest.raises(P.MalformedPrompt):
        P.CsPrompt(("Bad",), ())
    with pytest.raises(P.MalformedPrompt):
        P.CsPrompt((" padded ",), ())


def test_vocab_ids_dense_from_four():
    assert VOCAB.id_of("desert") == 4
    assert VOCAB.id_of("red") == 13
    assert VOCAB.id_of("nonsense") == P.UNK_ID
    assert VOCAB.size == 14


def test_tokenize_padding_rule():
    center, _ = P.tokenize(P.CsPrompt(("red",), ()), VOCAB, 4, 4)
    np.testing.assert_array_equal(center, [P.CENTER_MARK_ID, VOCAB.id_of("red"), 0, 0])


def test_tokenize_unconditional():
    center, surround = P.tokenize(P.CsPrompt(), VOCAB, 4, 4)
    np.testing.assert_array_equal(center, [1, 0, 0, 0])
    np.testing.assert_array_equal(surround, [2, 0, 0, 0])


def test_tokenize_overflow_raises():
    with pytest.raises(P.LengthExceeded):
        P.tokenize(P.CsPrompt(("desert", "airplane", "sand"), ()), VOCAB, 3, 3)


def test_embedding_rows_match_table():
    rng = np.random.default_rng(1)
    table = Tensor(rng.uniform(-1, 1, (VOCAB.size, 6)))
    p = P.CsPrompt(("cat",), ("grass", "sky"))
    pe = P.tokenize_and_embed(p, VOCAB, table, 4, 4)
    np.testing.assert_array_equal(pe.center.data[1], table.data[VOCAB.id_of("cat")])
    np.testing.assert_array_equal(pe.surrounding.data[2], table.data[VOCAB.id_of("sky")])
    np.testing.assert_array_equal(pe.center.data[2], table.data[P.PAD_ID])


def test_total_is_concat_of_region_streams():
    rng = np.random.default_rng(2)
    table = Tensor(rng.uniform(-1, 1, (VOCAB.size, 6)))
    pe = P.tokenize_and_embed(P.CsPrompt(("cat",), ("sky",)), VOCAB, table, 5, 3)
    assert pe.total.shape == (8, 6)
    np.testing.assert_array_equal(pe.total.data[:5], pe.center.data)
    np.testing.assert_array_equal(pe.total.data[5:], pe.surrounding.data)


def test_unknown_keyword_maps_to_unk():
    center, _ = P.tokenize(P.CsPrompt(("zebra",), ()), VOCAB, 4, 4)
    assert center[1] == P.UNK_ID
