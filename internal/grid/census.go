package grid

import (
	"encoding/binary"
	"hash/fnv"
)

// Census is a deterministic digest of the pool's state, recorded in
// snapshots and re-checked after a deterministic replay: any field diverging
// means the replay did not reconstruct the pool the snapshot saw.
type Census struct {
	Target   int   `json:"target"`
	InFlight int   `json:"in_flight"`
	Alive    int   `json:"alive"`
	Nodes    int   `json:"nodes"`
	Stats    Stats `json:"stats"`
	// SiteAlive and SiteHostSeq are per-site (site-list order) alive counts
	// and hostname sequence counters — the state that decides which hostname
	// the next glide-in at each site receives.
	SiteAlive   []int  `json:"site_alive"`
	SiteHostSeq []int  `json:"site_host_seq"`
	Hash        uint64 `json:"hash"`
}

// Census digests the pool's current state. The hash folds in per-node
// membership (ascending node ID, alive flag), so two pools agreeing on every
// count but differing in which nodes are alive still differ.
func (p *Pool) Census() Census {
	c := Census{
		Target:   p.target,
		InFlight: p.inflight,
		Alive:    p.alive,
		Stats:    p.stats,
	}
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, s := range p.sites {
		c.SiteAlive = append(c.SiteAlive, len(s.nodes))
		c.SiteHostSeq = append(c.SiteHostSeq, s.hostSeq)
		put(uint64(len(s.nodes)))
		put(uint64(s.hostSeq))
	}
	for _, n := range p.nodes {
		if n == nil {
			continue
		}
		c.Nodes++
		put(uint64(n.ID))
		if n.Alive {
			put(1)
		} else {
			put(0)
		}
	}
	c.Hash = h.Sum64()
	return c
}
