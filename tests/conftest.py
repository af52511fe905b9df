"""One hypothesis profile for the whole suite: derandomized, so every run draws the same examples."""

from hypothesis import settings

settings.register_profile("strongarc", derandomize=True)
settings.load_profile("strongarc")
