"""Crawl state: URL-seen filters and robots caches — logical shards
held by a few state-host actors.  Per-host politeness is not state:
the crawl's grant budgets each host per round, and the fetch task
that owns a ruled host's round paces it (crawl/loop.py)."""
