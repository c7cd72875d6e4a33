"""Crawl state: URL-seen filters, politeness token buckets, robots
caches — logical shards held by a few state-host actors."""
