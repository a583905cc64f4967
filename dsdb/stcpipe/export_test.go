package stcpipe

import (
	"encoding/binary"
	"hash/fnv"
)

// BlockHash is an FNV-64a of the recorded block stream (little-endian
// 32-bit block IDs in trace order), for the external test package.
func (pr *Profile) BlockHash() uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, b := range pr.tr.Blocks {
		binary.LittleEndian.PutUint32(buf[:], uint32(b))
		h.Write(buf[:])
	}
	return h.Sum64()
}
