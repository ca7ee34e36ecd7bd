"""The golden-table check, its registry and its one writer."""

import pytest

from repro.bench.experiments import TABLES
from repro.bench.report import RESULTS_DIR, check_golden, main, regenerate


def test_check_passes_on_equal_bytes(tmp_path):
    (tmp_path / "t.txt").write_text("title\na  b\n1  2\n")
    check_golden("t", {"t.txt": "title\na  b\n1  2\n"}, tmp_path)


def test_check_fails_on_one_byte_with_diff_and_regenerate_command(tmp_path):
    (tmp_path / "t.txt").write_text("title\na  b\n1  2\n")
    with pytest.raises(AssertionError) as failure:
        check_golden("t", {"t.txt": "title\na  b\n1  3\n"}, tmp_path)
    message = str(failure.value)
    assert "-1  2\n" in message and "+1  3\n" in message
    assert "python -m repro.bench.report t\n" in message
    # comparing never repairs: the committed bytes are untouched
    assert (tmp_path / "t.txt").read_text() == "title\na  b\n1  2\n"


def test_check_fails_on_a_missing_golden_and_does_not_create_it(tmp_path):
    with pytest.raises(AssertionError, match="t.txt is missing"):
        check_golden("t", {"t.txt": "title\n"}, tmp_path)
    assert not list(tmp_path.iterdir())


def test_check_covers_every_file_of_the_table(tmp_path):
    (tmp_path / "t.txt").write_text("same\n")
    (tmp_path / "t.json").write_text("{}\n")
    with pytest.raises(AssertionError, match="t.json drifted"):
        check_golden("t", {"t.txt": "same\n", "t.json": "[]\n"}, tmp_path)


def test_registry_and_results_dir_name_the_same_files():
    registered = {f"{name}.txt" for name in TABLES} | {
        f"{name}.json" for name, spec in TABLES.items() if spec.json_of}
    committed = {path.name for path in RESULTS_DIR.iterdir()}
    assert committed - registered == set(), "golden file nothing regenerates"
    assert registered - committed == set(), "registered table never committed"


def test_writer_reproduces_the_committed_bytes(tmp_path, capsys):
    regenerate(["fig07_index_size", "section63_real_sizes"], tmp_path)
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == ["fig07_index_size.txt", "section63_real_sizes.txt"]
    for name in written:
        assert ((tmp_path / name).read_bytes()
                == (RESULTS_DIR / name).read_bytes()), name
    assert "Figure 7" in capsys.readouterr().out


def test_cli_rejects_an_unknown_table_without_writing(capsys):
    assert main(["fig99"]) == 2
    assert "unknown tables: ['fig99']" in capsys.readouterr().out
