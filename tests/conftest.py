import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# `pytest --hypothesis-profile=ci` draws the same examples on every run, so a
# fuzz failure seen in CI reproduces exactly; the default profile stays random.
settings.register_profile("ci", derandomize=True)
