"""The README's reference lists match the code they document."""

import re
from pathlib import Path

import macsim
from macsim.config import PARSERS
from macsim.scenarios import REPRODUCE_ALL

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_config_key_table_lists_every_parser_once():
    table = README.split("Key reference:", 1)[1].lstrip().split("\n\n", 1)[0]
    rows = table.splitlines()[2:]  # after the header and the rule
    keys = [key for row in rows for key in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert sorted(keys) == sorted(PARSERS)


def test_library_layout_names_every_module_once():
    table = README.split("## Library layout", 1)[1].lstrip().split("\n\n", 1)[0]
    rows = table.splitlines()[2:]  # after the header and the rule
    listed = [name for row in rows for name in re.findall(r"`macsim\.(\w+)`", row.split("|")[1])]
    package = Path(macsim.__file__).parent
    modules = [p.stem for p in package.glob("*.py") if p.stem != "__init__"]
    assert sorted(listed) == sorted(modules)


def test_reproduce_all_keys_listed_in_run_order():
    listed = re.search(r"The keys, in the order they run:(.*?)\.", README, re.S).group(1)
    assert re.findall(r"`(\w+)`", listed) == list(REPRODUCE_ALL)
