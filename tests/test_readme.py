"""The README's examples stay runnable: its configs load, its subcommand
list matches the parser and its run log bullet names every column."""

import json
import re
from pathlib import Path

import pytest

from phoenix.cli import build_parser
from phoenix.config import config_from_dict
from phoenix.federation import RUNLOG_COLUMNS

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def readme_configs() -> dict[str, str]:
    """Every JSON config in the README: fenced ``json`` blocks and the
    ``*.json`` files its shell blocks write through a heredoc."""
    blocks = re.findall(r"^```json\n(.*?)^```", README, re.M | re.S)
    heredocs = re.findall(r"^cat > (\S+\.json) <<'EOF'\n(.*?)^EOF$", README, re.M | re.S)
    return {**{f"json-block-{i}": text for i, text in enumerate(blocks)},
            **dict(heredocs)}


def test_readme_holds_both_kinds_of_config():
    assert set(readme_configs()) == {"json-block-0", "sharing.json"}


@pytest.mark.parametrize("name", sorted(readme_configs()))
def test_readme_config_loads(name):
    config_from_dict(json.loads(readme_configs()[name]))


def test_readme_lists_every_subcommand():
    listed = re.search(r"^Subcommands: ([^.]*)\.", README, re.M).group(1)
    choices = re.search(r"\{([a-z,]+)\}", build_parser().format_usage()).group(1)
    assert re.findall(r"`([a-z]+)`", listed) == choices.split(",")


def test_readme_names_every_runlog_column():
    bullet = re.search(r"^- `runlog\.csv`: (.*?)(?=^- |\Z)", README, re.M | re.S).group(1)
    named = list(dict.fromkeys(re.findall(r"`(\w+)`", bullet)))
    assert named == RUNLOG_COLUMNS
