"""The package's one thread pool: one thread per usable core."""

import os


def usable_cores():  # CPU affinity (e.g. taskset) limits it
    return len(os.sched_getaffinity(0))


def map_threads(fn, items):
    """[fn(item) for item in items] on usable_cores() threads, in order.
    Tasks must write disjoint outputs; an exception raised in one reaches
    the caller unchanged, and the tasks not yet started are cancelled."""
    from concurrent.futures import ThreadPoolExecutor  # ~8 ms; off `import wwm.cli`

    with ThreadPoolExecutor(usable_cores()) as pool:
        return list(pool.map(fn, items))
