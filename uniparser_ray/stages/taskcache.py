"""Task-pool form for light stateful stages.

Ray Data actor pools pay pool spin-up on every pipeline execution;
for stages whose per-actor state is cheap to build but worth caching
(compiled rules, hash params, selector engines), the idiomatic
alternative is a plain task — a task ``map_batches``, or a plain
``ray.remote`` task that calls the function itself (the crawl round's
fetch tasks) — whose function pulls the stage instance from a
per-worker-process cache.  Ray reuses warm worker processes for tasks,
so construction happens once per worker without any pool startup or
min-actor wait.

Use actor pools (``concurrency=N``) only when construction is heavy
enough to need explicit placement (models, sessions, big indexes).
"""

from __future__ import annotations

import json
from typing import Dict

_CACHE: Dict[str, object] = {}


def cached_stage(stage_cls, **kwargs):
    """Return a batch function (for ``map_batches`` or a plain task)
    that lazily builds (and caches per worker process)
    ``stage_cls(**kwargs)``.

    ``kwargs`` must be JSON-serializable — they key the cache.
    """
    key = f"{stage_cls.__module__}.{stage_cls.__qualname__}|" \
          f"{json.dumps(kwargs, sort_keys=True, default=repr)}"

    def apply(batch):
        stage = _CACHE.get(key)
        if stage is None:
            if len(_CACHE) > 64:
                _CACHE.clear()
            stage = stage_cls(**kwargs)
            _CACHE[key] = stage
        return stage(batch)

    apply.__name__ = f"cached_{stage_cls.__name__}"
    apply.__qualname__ = apply.__name__
    return apply
