"""Order-preserving parallel map.

No module of the package calls it: it stays because the benchmark trace
binds ``parallel.pmap`` (bench/layers.py) until that trace drops it (ROADMAP
item 3(a)).  It preserves input order for any thread count, and the thread
pool is imported on first use, so a single-threaded run never loads
``concurrent.futures``.
"""

from __future__ import annotations


def pmap(fn, items, threads: int = 1) -> list:
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, items))
