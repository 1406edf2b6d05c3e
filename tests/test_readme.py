"""README examples run as written: the Library block and each CLI transcript."""

import re
import shlex
from pathlib import Path

import pytest

from nearmiss4 import cli

README = (Path(__file__).parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, flags=re.M | re.S)


def transcripts():
    """(argv, stdout) for each `$ nearmiss4 ...` line and the lines below it."""
    for _, body in BLOCKS:
        for chunk in re.split(r"^\$ ", body, flags=re.M)[1:]:
            command, _, output = chunk.partition("\n")
            program, *argv = shlex.split(command)
            assert program == "nearmiss4"
            yield argv, output


TRANSCRIPTS = list(transcripts())


def test_readme_has_examples():
    assert [lang for lang, _ in BLOCKS].count("python") == 1
    assert len(TRANSCRIPTS) >= 2


def test_library_block_runs():
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    exec(compile(code, "README.md", "exec"), {})


@pytest.mark.parametrize(
    "argv, stdout", TRANSCRIPTS, ids=[" ".join(argv) for argv, _ in TRANSCRIPTS]
)
def test_cli_transcript(capsys, argv, stdout):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == stdout
