"""An in-process stand-in for ``concurrent.futures.ProcessPoolExecutor``."""


class InProcessPool:
    """Runs a sweep's points one after another in this process, so that
    patches made by a test reach every point; appends the pool size the
    sweep asks for to ``sizes``.  Bind ``sizes`` with ``functools.partial``."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)
