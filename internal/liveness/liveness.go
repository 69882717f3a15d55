// Package liveness is the heartbeat ledger both HOG masters keep. The
// namenode and the JobTracker declare a node dead once it has been silent
// for longer than their dead timeout, which HOG cuts to 30 s so preempted
// glide-ins are noticed fast (paper §III.B). The protocol is the same on
// both masters; only what a death does differs, and that stays with them.
//
// Heartbeats are lazy. In the steady state a node beats on every driver
// tick, and a beat only records "heard from at this tick", so the ledger
// keeps one tick stamp (Tick) that its steady records read instead of
// writing every record on every tick. The records outside the steady state
// (freshly added, revived, or no longer beating) sit in the quiet set, and
// the dead scan (Expired) walks only that set: a steady record is at most
// one tick old, so it cannot have expired while the timeout is at least
// the tick interval.
package liveness

import (
	"cmp"
	"slices"

	"hog/internal/netmodel"
	"hog/internal/sim"
)

// Record is one node's heartbeat state, embedded in the master's record of
// the node. heard holds explicit stamps, and the frozen time of a record
// that is not steady; slot is the record's index in the quiet set, -1 for
// steady and dropped records.
type Record struct {
	heard  sim.Time
	slot   int32
	steady bool
}

// member is one quiet-set entry: the record, the node it belongs to (the
// dead scan's order) and the master's record that embeds it.
type member[T any] struct {
	rec   *Record
	id    netmodel.NodeID
	owner T
}

// Work counts a ledger's dead scans and the records they visited; Quiet is
// the quiet set's current size, what the next scan will visit. The counts
// are bookkeeping only: no result reports them.
type Work struct {
	Scans, Scanned int64
	Quiet          int
}

// Ledger is one master's heartbeat ledger over records owned by values of
// type T. The zero value is ready to use.
type Ledger[T any] struct {
	tick           sim.Time
	quiet          []member[T]
	scans, scanned int64
}

// Add enters a record heard from at now into the quiet set: a node that
// registers or is revived.
func (l *Ledger[T]) Add(r *Record, id netmodel.NodeID, owner T, now sim.Time) {
	r.heard = now
	l.enter(r, id, owner)
}

// Beat records a heartbeat at now. A steady record's beat is implied by
// Tick, so only a quiet one is stamped.
func (l *Ledger[T]) Beat(r *Record, now sim.Time) {
	if !r.steady {
		r.heard = now
	}
}

// Stamp sets the record's last heartbeat to now whatever its state: a
// re-registration, or a grace stamp that keeps a restarted master's dead
// scan from charging a node for the master's own outage.
func (l *Ledger[T]) Stamp(r *Record, now sim.Time) { r.heard = now }

// Tick records that every steady record heartbeat at now. The heartbeat
// driver calls it once per tick, after it has quiesced every record that
// did not beat on the tick.
func (l *Ledger[T]) Tick(now sim.Time) { l.tick = now }

// Settle moves a record that heartbeat at now into the steady state: from
// then on its beats are implied by Tick, and the dead scan skips it. The
// caller promises the node beats on every tick until it calls Quiesce. A
// record that did not just beat stays quiet, and Settle reports false.
func (l *Ledger[T]) Settle(r *Record, now sim.Time) bool {
	if r.steady {
		return true
	}
	if r.heard != now {
		return false
	}
	l.leave(r)
	r.steady = true
	return true
}

// Quiesce takes a record out of the steady state, freezing its last
// heartbeat at the last tick (or a later explicit stamp). The driver calls
// it before the first tick the node may miss.
func (l *Ledger[T]) Quiesce(r *Record, id netmodel.NodeID, owner T) {
	if !r.steady {
		return
	}
	r.heard = l.Last(r)
	r.steady = false
	l.enter(r, id, owner)
}

// Drop takes a record out of the ledger when its node is declared dead,
// freezing its last heartbeat. Add brings it back.
func (l *Ledger[T]) Drop(r *Record) {
	r.heard = l.Last(r)
	r.steady = false
	l.leave(r)
}

// Last returns when the node was last heard from.
func (l *Ledger[T]) Last(r *Record) sim.Time {
	if r.steady && l.tick > r.heard {
		return l.tick
	}
	return r.heard
}

// Expired returns the owners of the records silent for longer than timeout
// at now, in ascending node order. The set is fixed before the caller acts
// on any of it, so the work one death triggers cannot change which nodes
// this scan declares dead.
func (l *Ledger[T]) Expired(now, timeout sim.Time) []T {
	l.scans++
	l.scanned += int64(len(l.quiet))
	var doomed []member[T]
	for _, m := range l.quiet {
		if now-m.rec.heard > timeout {
			doomed = append(doomed, m)
		}
	}
	slices.SortFunc(doomed, func(a, b member[T]) int { return cmp.Compare(a.id, b.id) })
	var out []T
	for _, m := range doomed {
		out = append(out, m.owner)
	}
	return out
}

// Work returns the dead-scan counters.
func (l *Ledger[T]) Work() Work {
	return Work{l.scans, l.scanned, len(l.quiet)}
}

func (l *Ledger[T]) enter(r *Record, id netmodel.NodeID, owner T) {
	r.slot = int32(len(l.quiet))
	l.quiet = append(l.quiet, member[T]{r, id, owner})
}

// leave removes r from the quiet set if it is there, moving the last
// member into its slot.
func (l *Ledger[T]) leave(r *Record) {
	i := int(r.slot)
	if i < 0 {
		return
	}
	last := len(l.quiet) - 1
	l.quiet[i] = l.quiet[last]
	l.quiet[i].rec.slot = int32(i)
	l.quiet[last] = member[T]{}
	l.quiet = l.quiet[:last]
	r.slot = -1
}
