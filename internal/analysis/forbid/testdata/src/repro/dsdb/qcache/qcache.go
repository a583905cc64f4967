// Package qcache brings back the raw-text aliases beside the one key
// space.
package qcache

const maxAliases = 4 // want "maxAliases is forbidden here: a cache entry has no second names"

const aliasOverhead = 48 // want "aliasOverhead is forbidden here"

type Cache struct{ entries map[string]bool }

func (c *Cache) Get(key string) bool { return c.entries[key] }

func (c *Cache) GetRaw(raw string) bool { return c.entries[raw] } // want "repro/dsdb/qcache.Cache.GetRaw is forbidden here: the result cache has one key space"

func (c *Cache) AddAlias(key, raw string) { c.entries[raw] = true } // want "repro/dsdb/qcache.Cache.AddAlias is forbidden here"
