// Package buffer stands in for the buffer pool: its lookup shards are
// gone, and a comment may still name shardOf or numShards.
package buffer

import "sync"

type shard struct { // want "shard is forbidden here: a buffer hit takes no lock"
	mu sync.Mutex
}

const numShards = 64 // want "numShards is forbidden here"

func (m *Manager) shardOf(page uint64) *shard { // want "shardOf is forbidden here"
	return &m.shards[page%numShards]
}

type Manager struct {
	shards [numShards]shard
	table  []uint64 // the atomic page table: legal
}
