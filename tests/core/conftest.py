"""``REPRO_TEST_START_METHOD=spawn`` runs the pooled snowflake traversal
on workers started that way.

A spawned worker imports ``repro`` afresh and unpickles every relation
it is sent, so a pooled run proves that nothing leans on state a
``fork`` would inherit.  Only the tests read the variable.
"""

import os
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from multiprocessing import get_context

import pytest


@pytest.fixture(autouse=True)
def _pool_start_method(monkeypatch):
    method = os.environ.get("REPRO_TEST_START_METHOD")
    if method:
        monkeypatch.setattr(
            "repro.core.snowflake.ProcessPoolExecutor",
            partial(ProcessPoolExecutor, mp_context=get_context(method)),
        )
