"""Shared benchmark configuration."""


def run_once(benchmark, fn, *args, **kwargs):
    """Run a sweep exactly once under pytest-benchmark.

    The sweeps are full experiment grids; statistical repetition
    happens *inside* them (the paper's N-run averaging), so the bench
    harness should not re-run them.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, iterations=1, rounds=1)
