"""Tests for the node-local staging list."""

from repro.core.staging import StagingManager
from repro.oslayer.process import ExecutableImage


def image(name, *libraries):
    return ExecutableImage(name, 10, libraries=tuple(libraries))


def test_flatten_is_depth_first_preorder():
    # Stage order sets the shared-FS read order, so it must stay the
    # recursive preorder: each image, then each library's subtree.
    c, d = image("c"), image("d")
    a = image("a", image("b", c), d)
    e = image("e", c)
    staging = StagingManager(env=None, files=[a, e])
    names = [img.name for img in staging.flatten()]
    assert names == ["a", "b", "c", "d", "e", "c"]
