import pytest


def pytest_collection_modifyitems(items):
    """Mark every test that needs the desk-scale training run as slow."""
    for item in items:
        if "desk_run" in getattr(item, "fixturenames", ()):
            item.add_marker(pytest.mark.slow)
