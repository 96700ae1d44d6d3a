import itertools
import json
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

sys.path.insert(0, str(Path(__file__).parent))

from bitextkit.cli import cli  # noqa: E402
from bitextkit.langid import train  # noqa: E402
from synth import seed_lines  # noqa: E402

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def seeds():
    return {lang: seed_lines(lang) for lang in ("es", "ca", "pt", "fr")}


@pytest.fixture(scope="session")
def fixture_model(seeds):
    """The bundled-seed es/ca/pt/fr model used across the suite."""
    return train(seeds)


@pytest.fixture(scope="session")
def heldout_rows():
    rows = []
    for line in (DATA_DIR / "langid_heldout.tsv").read_text(encoding="utf-8").splitlines():
        lang, text = line.split("\t")
        rows.append((lang, text))
    return rows


@pytest.fixture(scope="session")
def data_dir():
    return DATA_DIR


@pytest.fixture
def cognates_command(tmp_path):
    """``bitextkit cognates --dump`` on tokenized pairs, in order, and on
    one token list per pair of system output or None: returns the dump's
    text and the report body without its provenance."""
    runs = itertools.count()

    def run(pairs, system, threshold, min_len, workers):
        stem = tmp_path / f"cognates-{next(runs)}"
        inputs = {"src": [p.source for p in pairs], "ref": [p.target for p in pairs]}
        if system is not None:
            inputs["sys"] = [" ".join(tokens) for tokens in system]
        args = ["cognates", "--threshold", repr(threshold), "--min-len", str(min_len), "--workers", str(workers)]
        for option, lines in inputs.items():
            path = stem.with_suffix(f".{option}")
            path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            args += [f"--{option}", str(path)]
        result = CliRunner().invoke(cli, args + ["--dump", str(stem.with_suffix(".tsv"))], catch_exceptions=False)
        assert result.exit_code == 0, result.output
        body = json.loads(result.stdout)
        del body["tool_version"], body["config_echo"]
        return stem.with_suffix(".tsv").read_text(encoding="utf-8"), body

    return run
