// Package dsdb brings back the one-shot query's pre-plan cache lookup.
package dsdb

import "repro/dsdb/qcache"

func cachedQuery(c *qcache.Cache, query string) bool { // want "cachedQuery is forbidden here: a one-shot query is a pooled statement"
	if c.GetRaw(query) { // want "qcache.Cache.GetRaw is forbidden here"
		return true
	}
	c.AddAlias("key", query) // want "qcache.Cache.AddAlias is forbidden here"
	return c.Get("key")
}

// oneShot stays legal.
func oneShot(c *qcache.Cache, key string) bool { return c.Get(key) }
