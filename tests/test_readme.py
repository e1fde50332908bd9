"""The README's Python examples run as written, and its CLI examples parse.

Run as a script, this file prints the CLI examples as a shell script."""

import re
import shlex
from pathlib import Path

from colecole.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def cli_examples() -> str:
    """The first sh block under README's "## CLI"."""
    cli = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    return re.search(r"^```sh\n(.*?)^```$", cli, re.M | re.S).group(1)


def test_readme_python_blocks_run():
    # the blocks build on each other: one namespace, in order
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["r"] <= namespace["report"].tolerance


def test_readme_cli_examples_parse():
    # a renamed or dropped flag fails here, not only when CI runs the block
    lines = cli_examples().replace("\\\n", " ").splitlines()
    commands = [argv for argv in (shlex.split(line, comments=True) for line in lines) if argv]
    assert len(commands) == 9 and all(argv[0] == "colecole" for argv in commands)
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])


if __name__ == "__main__":
    print(cli_examples())
