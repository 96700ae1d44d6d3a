"""Every output of both pipelines and of the CLI commands, hashed as
``golden.py`` hashes them, against the digests in ``golden.json``: with 1
and 2 workers, and with every chunk constant at its default, 1 and 7, the
outputs do not change. A change that alters an output on purpose rewrites
``golden.json`` with ``golden.py`` and names each changed digest."""

import json

import golden
import pytest

GOLDEN = json.loads(golden.GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, fixture_model):
    root = tmp_path_factory.mktemp("golden-inputs")
    golden.write_inputs(root, fixture_model)
    return root


def test_every_case_has_digests():
    assert sorted(GOLDEN) == sorted(golden.CASES)


def test_every_reader_of_the_chunk_size_is_varied():
    # names, not modules: golden.py's ``cli`` is the command group, not bitextkit.cli
    found = {module.__name__ for module in golden.chunk_modules()}
    readers = {"corpus_io", "cleaner", "pipeline", "cli"}
    assert found >= {f"bitextkit.{name}" for name in readers}
    # eval, ``score`` and ``cognates`` cut their chunks in corpus_io's lockstep reader
    assert not found & {"bitextkit.evaluation", "bitextkit.metrics.report"}


@pytest.mark.parametrize(
    "name, workers, chunk", [(name, workers, chunk) for name in golden.CASES for workers, chunk in golden.variants(name)]
)
def test_outputs_match_golden_digests(inputs, tmp_path, name, workers, chunk):
    got = golden.run_case(name, inputs, tmp_path / "out", workers, chunk)
    assert {key: digest for key, digest in got.items() if digest != GOLDEN[name].get(key)} == {}
    assert sorted(got) == sorted(GOLDEN[name])
