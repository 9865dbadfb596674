import numpy as np
import pytest

from phonorm.charcodec import (
    END_MARKER,
    PAD_MARKER,
    SOURCE,
    START_MARKER,
    TARGET,
    Alphabet,
    EncodingError,
    build_alphabet,
    decode,
    encode,
)


def test_source_alphabet_snaps_to_ascii_letters():
    ab = build_alphabet(["cab", "bed"], SOURCE)
    assert ab.content == tuple("abcdefghijklmnopqrstuvwxyz")
    assert ab.size == 27
    assert ab.pad_index == 0
    assert ab.start_index is None and ab.end_index is None


def test_source_alphabet_keeps_exotic_corpus_as_is():
    ab = build_alphabet(["abç"], SOURCE)
    assert ab.content == ("a", "b", "ç")
    assert ab.size == 4


def test_target_alphabet_reserves_three_markers():
    ab = build_alphabet(["ba", "ad"], TARGET)
    assert ab.content == ("a", "b", "d")
    assert ab.symbols[:3] == (PAD_MARKER, START_MARKER, END_MARKER)
    assert ab.size == 6
    assert (ab.pad_index, ab.start_index, ab.end_index) == (0, 1, 2)


def test_membership_is_content_only():
    # perfbench's workloads test `ch in model.source_alphabet` to draw words
    # the model cannot encode
    ab = build_alphabet(["ba", "ad"], TARGET)
    assert [ch in ab for ch in "abdc"] == [True, True, True, False]
    assert not any(marker in ab for marker in (PAD_MARKER, START_MARKER, END_MARKER))


def test_content_sorted_by_code_point():
    ab = build_alphabet(["zaç"], TARGET)
    assert ab.content == ("a", "z", "ç")


def test_build_alphabet_empty_corpus():
    with pytest.raises(ValueError):
        build_alphabet([], SOURCE)
    with pytest.raises(ValueError):
        build_alphabet([""], TARGET)


@pytest.mark.parametrize(
    "side, content, message",
    [("middle", ("a",), "side must be"), (SOURCE, (), "at least one content character"),
     (TARGET, ("a", "bc"), "single characters"), (SOURCE, ("a", "b", "a"), "duplicate content")],
)
def test_alphabet_rejects_bad_side_and_content(side, content, message):
    with pytest.raises(ValueError, match=message):
        Alphabet(side=side, content=content)


def test_encode_source_pads_to_max_len():
    ab = build_alphabet(["abç"], SOURCE)
    enc = encode(["ba"], ab, max_len=5)
    assert enc.tolist() == [[ab.index_of("b"), ab.index_of("a"), 0, 0, 0]]


def test_encode_target_brackets_with_markers():
    ab = build_alphabet(["ab"], TARGET)
    enc = encode(["ab"], ab, max_len=4)
    # start, a, b, end, then padding to max_len + 2
    assert enc.tolist() == [[1, ab.index_of("a"), ab.index_of("b"), 2, 0, 0]]


@pytest.mark.parametrize("side, width", [(SOURCE, 6), (TARGET, 8)])
def test_encode_of_a_list_stacks_the_rows_of_its_words(side, width):
    ab = build_alphabet(["abc"], side)
    words = ["cab", "", "a", "abcabc", "bb"]
    enc = encode(words, ab, max_len=6)
    assert enc.shape == (len(words), width)
    assert enc.dtype.kind == "i"
    for row, word in zip(enc, words):
        assert np.array_equal(row, encode([word], ab, max_len=6)[0])
    assert encode([], ab, max_len=6).shape == (0, width)


@pytest.mark.parametrize("first, second", [("aëb", "a" * 9), ("a" * 9, "aëb")])
def test_encode_of_a_list_raises_for_its_first_bad_word(first, second):
    ab = build_alphabet(["ab"], SOURCE)
    with pytest.raises(EncodingError) as alone:
        encode([first], ab, max_len=6)
    with pytest.raises(EncodingError) as listed:
        encode(["ab", first, "b", second], ab, max_len=6)
    assert str(listed.value) == str(alone.value)


def test_encode_rejects_overlong_word():
    ab = build_alphabet(["ab"], SOURCE)
    with pytest.raises(EncodingError):
        encode(["a" * 7], ab, max_len=6)


def test_encode_rejects_unknown_character():
    ab = build_alphabet(["ab"], TARGET)
    with pytest.raises(EncodingError) as err:
        encode(["aëb"], ab, max_len=5)
    assert "ë" in str(err.value)


def test_decode_inverse_of_encode():
    ab = build_alphabet(["abcde"], TARGET)
    rng = np.random.default_rng(5)
    letters = "abcde"
    for _ in range(200):
        n = int(rng.integers(0, 7))
        word = "".join(letters[i] for i in rng.integers(0, 5, size=n))
        (row,) = encode([word], ab, max_len=7)
        assert decode(row, ab) == word


def test_decode_stops_at_end_marker():
    ab = build_alphabet(["ab"], TARGET)
    a, b = ab.index_of("a"), ab.index_of("b")
    assert decode([1, a, 2, b], ab) == "a"
    assert decode([a, 0, b], ab) == "ab"  # bare pads are skipped, not terminal
    # start markers and pads in mid-row are skipped too; only the end marker stops
    assert decode([a, 1, 0, b, 1, 2, a, 2], ab) == "ab"
    assert decode(np.array([0, 0, a, 2, 99]), ab) == "a"


def test_decode_rejects_out_of_range():
    ab = build_alphabet(["ab"], TARGET)
    with pytest.raises(EncodingError, match=r"^index 99 out of range for alphabet of size 5$"):
        decode([99], ab)
    with pytest.raises(EncodingError, match=r"^index -1 out of range for alphabet of size 5$"):
        decode(np.array([3, -1]), ab)


def test_decode_of_a_source_row_reads_indices_1_and_2_as_content():
    # the source side has a pad but no start or end marker
    ab = build_alphabet(["abc"], SOURCE)
    assert decode([1, 0, 2, 3, 0], ab) == "abc"
    assert decode(np.array([26, 2, 1]), ab) == "zba"
    with pytest.raises(EncodingError, match=r"^index 27 out of range for alphabet of size 27$"):
        decode([27], ab)


def _reference_decode(indices, alphabet):
    """decode written as a loop over the Alphabet properties, the oracle."""
    chars = []
    for index in indices:
        i = int(index)
        if not 0 <= i < alphabet.size:
            raise EncodingError(f"index {i} out of range for alphabet of size {alphabet.size}")
        if i == alphabet.pad_index or i == alphabet.start_index:
            continue
        if i == alphabet.end_index:
            break
        chars.append(alphabet.symbols[i])
    return "".join(chars)


@pytest.mark.parametrize("corpus, side", [("abc", SOURCE), ("abcé", SOURCE), ("abcé", TARGET)])
def test_decode_equals_the_reference_on_random_rows(corpus, side):
    ab = build_alphabet([corpus], side)
    rng = np.random.default_rng(11)
    for _ in range(500):
        row = rng.integers(0, ab.size, size=int(rng.integers(0, 12)))
        assert decode(row, ab) == decode(row.tolist(), ab) == _reference_decode(row, ab)


def test_source_alphabet_has_no_marker_symbols():
    ab = build_alphabet(["ab"], SOURCE)
    assert ab.symbols == (PAD_MARKER,) + ab.content
    # index 0 is the pad, skipped; index 1 is the first content character
    assert decode([0, 1], ab) == ab.content[0]
