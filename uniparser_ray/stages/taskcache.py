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

The batch function is a :class:`CachedStage` instance, a module-level
class, so it pickles by reference to this module and every unpickled
copy reads the worker's one ``_CACHE``.  A nested closure would not:
cloudpickle ships a closure by value together with its own copy of
the module globals it names, so each plain task that received it as
an argument started from an empty cache and rebuilt the stage.

The key is the stage class's qualified name plus its JSON-encoded
kwargs; what JSON cannot encode enters by ``repr``, which names the
object for refs, actor handles and the state-host clients.
``_CACHE`` keeps ONE entry per stage class: a new key for a class
replaces that class's old stage.  Keys of the crawl stages embed a
run's actor handles and rule-pack ref, so without the replacement a
long-lived worker would keep every past run's stage.

Use actor pools (``concurrency=N``) only when construction is heavy
enough to need explicit placement (models, sessions, big indexes).
"""

from __future__ import annotations

import json
from typing import Dict, Tuple

# stage class name -> (key, stage) — one live stage per class
_CACHE: Dict[str, Tuple[str, object]] = {}


class CachedStage:
    """Batch function that builds ``stage_cls(**kwargs)`` once per
    worker process and key, and calls it on each batch."""

    def __init__(self, stage_cls, kwargs: dict):
        self.stage_cls = stage_cls
        self.kwargs = kwargs
        self.cls_name = f"{stage_cls.__module__}.{stage_cls.__qualname__}"
        self.key = json.dumps(kwargs, sort_keys=True, default=repr)

    def __call__(self, batch):
        hit = _CACHE.get(self.cls_name)
        if hit is None or hit[0] != self.key:
            hit = (self.key, self.stage_cls(**self.kwargs))
            _CACHE[self.cls_name] = hit
        return hit[1](batch)


def cached_stage(stage_cls, **kwargs) -> CachedStage:
    """Return a batch function (for ``map_batches`` or a plain task)
    that lazily builds (and caches per worker process)
    ``stage_cls(**kwargs)``.

    ``kwargs`` must be JSON-serializable or have a ``repr`` that
    names the object (refs, actor handles) — they key the cache.
    """
    return CachedStage(stage_cls, kwargs)
