// Package storage may name a type shard: the rule covers only the
// buffer pool.
package storage

type shard struct{ pages []byte }

func shardOf(s []shard, i int) *shard { return &s[i] }
