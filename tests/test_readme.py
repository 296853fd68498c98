import re
from pathlib import Path

from invdist import BoundReport, CertifiedValue

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    scope = {}
    exec(blocks[0], scope)
    assert isinstance(scope["c"], CertifiedValue)
    assert isinstance(scope["rep"], BoundReport)
