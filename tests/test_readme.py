"""The code of README.md runs as printed."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


def test_every_python_block_of_the_readme_runs(capsys):
    with open(README, encoding="utf-8") as handle:
        blocks = re.findall(r"^```python\n(.*?)^```", handle.read(),
                            re.MULTILINE | re.DOTALL)
    assert blocks
    namespace = {}
    for index, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {index}", "exec"),
             namespace)
    assert capsys.readouterr().out.strip()
