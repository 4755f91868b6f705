"""Order-preserving parallel map.

Searches and enumerations fan out over candidate lists; results must not
depend on scheduling, so everything funnels through this one helper, which
preserves input order for any thread count.  The thread pool is imported on
first use, so a single-threaded run never loads ``concurrent.futures``.
"""

from __future__ import annotations


def pmap(fn, items, threads: int = 1) -> list:
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, items))
