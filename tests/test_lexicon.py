import pytest

from phonorm.lexicon import (
    LexiconFormatError,
    ParallelLexicon,
    TestSet,
    TransliterationDictionary,
    load_dictionary,
    load_parallel_lexicon,
    load_test_set,
    save_dictionary,
    save_parallel_lexicon,
    save_test_set,
)


def write(tmp_path, body):
    path = tmp_path / "pairs.tsv"
    path.write_text(body, encoding="utf-8")
    return path


def test_load_parallel_lexicon(tmp_path):
    path = write(tmp_path, "kalo\tkala\nbhalo\tbhala\n")
    lex = load_parallel_lexicon(path)
    assert lex.entries == (("kalo", "kala"), ("bhalo", "bhala"))
    assert len(lex) == 2


def test_load_without_trailing_newline(tmp_path):
    path = write(tmp_path, "a\tb\nc\td")
    assert load_parallel_lexicon(path).entries == (("a", "b"), ("c", "d"))


def test_load_rejects_blank_line(tmp_path):
    path = write(tmp_path, "a\tb\n\nc\td\n")
    with pytest.raises(LexiconFormatError) as err:
        load_parallel_lexicon(path)
    assert ":2:" in str(err.value)


def test_load_rejects_missing_tab(tmp_path):
    with pytest.raises(LexiconFormatError) as err:
        load_parallel_lexicon(write(tmp_path, "a\tb\nnocolumns\n"))
    assert ":2:" in str(err.value)


def test_load_rejects_three_columns(tmp_path):
    with pytest.raises(LexiconFormatError):
        load_parallel_lexicon(write(tmp_path, "a\tb\tc\n"))


def test_load_rejects_empty_cell(tmp_path):
    with pytest.raises(LexiconFormatError):
        load_parallel_lexicon(write(tmp_path, "a\t\n"))


def test_load_rejects_empty_file(tmp_path):
    with pytest.raises(LexiconFormatError):
        load_parallel_lexicon(write(tmp_path, ""))


def test_a_byte_that_is_not_utf8_is_named_with_its_file_and_offset(tmp_path):
    # the offset counts from the file's first byte, a byte-order mark included
    path = tmp_path / "pairs.tsv"
    path.write_bytes(b"\xef\xbb\xbfa\tb\nc\t\xffd\n")
    with pytest.raises(ValueError, match=r"pairs\.tsv: not UTF-8 text \(invalid start byte at byte 9\)$"):
        load_parallel_lexicon(path)


def test_dictionary_reverse_lookup_preserves_file_order(tmp_path):
    body = "কালো\tkala\nকলা\tkala\nভালো\tbhala\n"
    d = load_dictionary(write(tmp_path, body))
    assert d.standards == ("kala", "kala", "bhala")
    # natives returns the dictionary's own tuple, shared by callers
    assert d.natives("kala") == ("কালো", "কলা")
    assert d.natives("bhala") == ("ভালো",)
    assert d.natives("kala") is d.natives("kala")
    assert d.natives("missing") == ()


def test_dictionary_standard_set():
    d = TransliterationDictionary(entries=(("ক", "ka"), ("খ", "kha")))
    assert d.standard_set == frozenset({"ka", "kha"})


def test_save_load_round_trip(tmp_path):
    lex = ParallelLexicon(entries=(("noisy", "clean"), ("আবার", "abar")))
    path = tmp_path / "lex.tsv"
    save_parallel_lexicon(lex, path)
    assert path.read_text(encoding="utf-8") == "noisy\tclean\nআবার\tabar\n"
    assert load_parallel_lexicon(path) == lex

    d = TransliterationDictionary(entries=(("কালো", "kala"),))
    dpath = tmp_path / "dict.tsv"
    save_dictionary(d, dpath)
    assert load_dictionary(dpath) == d

    t = TestSet(entries=(("kaalo", "kala"),))
    tpath = tmp_path / "test.tsv"
    save_test_set(t, tpath)
    assert load_test_set(tpath) == t


@pytest.mark.parametrize("table", [ParallelLexicon, TransliterationDictionary, TestSet], ids=lambda t: t.kind)
def test_a_table_with_no_entries_cannot_be_built(table):
    with pytest.raises(LexiconFormatError, match=f"^empty {table.kind}$"):
        table(entries=())


def test_entries_validated_on_construction():
    with pytest.raises(LexiconFormatError):
        ParallelLexicon(entries=(("", "x"),))
    with pytest.raises(LexiconFormatError):
        TestSet(entries=(("x", ""),))
