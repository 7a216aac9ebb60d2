"""The package's one thread pool: one thread per usable core.

Its callers are the two row-blocked reference kernels, `pwv_joint` and
`verify_wigner_identity`; no command runs either.  The commands, the
Monte Carlo included, work in the calling thread."""

import os

# Samples in flight over all threads in row-block tasks (the Wigner check's x
# rows, the joint table's kernels; 16 rows at n = 16384 on one core), any n.
ROW_BLOCK = 2 ** 18


def usable_cores():  # CPU affinity (e.g. taskset) limits it
    return len(os.sched_getaffinity(0))


def rows_per_task(n):
    """Rows of n samples per thread task, shrinking with the thread count."""
    return max(1, ROW_BLOCK // usable_cores() // n)


def map_threads(fn, items):
    """[fn(item) for item in items] on usable_cores() threads, in order.
    Tasks must write disjoint outputs; an exception raised in one reaches
    the caller unchanged, and the tasks not yet started are cancelled."""
    from concurrent.futures import ThreadPoolExecutor  # ~8 ms; off `import wwm.cli`

    with ThreadPoolExecutor(usable_cores()) as pool:
        return list(pool.map(fn, items))
