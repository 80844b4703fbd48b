"""Lets ``python -m pytest perfbench`` import the program and the
benchmark's own modules the way ``run.py`` does."""

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
