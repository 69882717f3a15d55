package hdfs

import (
	"encoding/binary"
	"hash/fnv"
	"math"
)

// Census is a deterministic digest of namenode state, recorded in snapshots
// and re-checked after a deterministic replay: any field diverging means
// the replay did not reconstruct the filesystem the snapshot saw.
type Census struct {
	Datanodes     int     `json:"datanodes"`
	AliveNodes    int     `json:"alive_nodes"`
	Blocks        int     `json:"blocks"`
	Files         int     `json:"files"`
	NextBlock     BlockID `json:"next_block"`
	ReplQueue     int     `json:"repl_queue"`
	ReplStreams   int     `json:"repl_streams"`
	Down          bool    `json:"down"`
	SafeMode      bool    `json:"safe_mode"`
	PendingWrites int     `json:"pending_writes"`
	Stats         Stats   `json:"stats"`
	// Fault-injection state (corruption.go); zero — and omitted — fault-free,
	// so fault-free documents match builds that predate these faults.
	CorruptReplicas int    `json:"corrupt_replicas,omitempty"`
	GrayNodes       int    `json:"gray_nodes,omitempty"`
	HeldReplicas    int    `json:"held_replicas,omitempty"`
	Hash            uint64 `json:"hash"`
}

// Census digests the namenode's current state. The hash walks every
// registered datanode in ascending ID order (ID, liveness, replica count) and
// every block in ascending block-ID order (size, liveness flags, ascending
// replica set), so two namenodes agreeing on the counts but placing
// replicas differently still differ.
func (nn *Namenode) Census() Census {
	c := Census{
		Files:         len(nn.files),
		NextBlock:     BlockID(len(nn.blocks)),
		ReplQueue:     nn.replQueue.len(),
		ReplStreams:   len(nn.streams),
		Down:          nn.down,
		SafeMode:      nn.safeMode,
		PendingWrites: len(nn.pendingWrites),
		Stats:         nn.stats,
	}
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, d := range nn.datanodes {
		if d == nil {
			continue
		}
		c.Datanodes++
		if d.Alive {
			c.AliveNodes++
			put(1)
		} else {
			put(0)
		}
		put(uint64(d.ID))
		put(uint64(len(d.blocks)))
		// Fault state folds in only when present, so fault-free hashes match
		// builds that predate gray nodes and partition-heal recovery.
		if d.gray {
			c.GrayNodes++
			put(^uint64(0) - 1)
		}
		if len(d.held) > 0 {
			c.HeldReplicas += len(d.held)
			put(^uint64(0) - 2)
			put(uint64(len(d.held)))
		}
	}
	for _, blk := range nn.blocks {
		if blk == nil {
			continue
		}
		c.Blocks++
		put(uint64(blk.ID))
		put(math.Float64bits(blk.Size))
		flags := uint64(0)
		if blk.lost {
			flags |= 1
		}
		if blk.writing {
			flags |= 2
		}
		put(flags)
		for _, id := range blk.replicas {
			put(uint64(id))
		}
		put(uint64(blk.pending.Len()))
		if blk.corrupt.Len() > 0 {
			c.CorruptReplicas += blk.corrupt.Len()
			put(^uint64(0) - 3)
			for _, id := range blk.corrupt {
				put(uint64(id))
			}
		}
	}
	c.Hash = h.Sum64()
	return c
}
