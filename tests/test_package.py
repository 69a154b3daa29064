from pathlib import Path

import cavity_eit as ce


def test_public_names_resolve():
    # a stale export fails here rather than at a user's star import
    assert len(ce.__all__) == len(set(ce.__all__))
    missing = [name for name in ce.__all__ if not hasattr(ce, name)]
    assert missing == []
    namespace = {}
    exec("from cavity_eit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ce.__all__)


def test_readme_quick_start_runs():
    # the README's library example runs against the public API as it stands
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(block, {})
