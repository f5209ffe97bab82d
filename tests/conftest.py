"""Fixtures shared by the remote-executor test modules."""

import pytest

from repro.core.remote import start_worker_subprocess


@pytest.fixture
def fresh_pair():
    """Two cold forked worker servers for one test.

    Workers key warm task state by content, so a shared worker that
    already ran a byte-identical Monte-Carlo closure (an earlier
    test's) is warm and does less work; tests that compare work counts
    with a cold serial run need cold workers.
    """
    workers = [start_worker_subprocess() for _ in range(2)]
    yield [address for _proc, address in workers]
    for proc, _address in workers:
        proc.terminate()
        proc.join(timeout=10)
