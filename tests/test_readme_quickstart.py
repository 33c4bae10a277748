"""The README's Quickstart is the first code a reader copies: it must run
as printed and attach its UE."""

import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def quickstart_source():
    with open(README, encoding="utf-8") as f:
        section = f.read().split("## Quickstart (60 seconds)", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_readme_quickstart_attaches_its_ue(capsys):
    exec(compile(quickstart_source(), "README.md (Quickstart)", "exec"), {})
    assert capsys.readouterr().out == "True 10.128.0.1\n"
