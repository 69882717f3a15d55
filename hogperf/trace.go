package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"
)

// span is one traced public call: its name, its start and end relative to
// the trace start, and the span it ran inside (-1 for none).
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
}

// tracer keeps spans in memory; childRunOnce writes them out after the run. A
// nil tracer records nothing, so untraced runs pay one branch per call.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func (t *tracer) start() { t.t0 = time.Now() }

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, StartNs: time.Since(t.t0).Nanoseconds(), Parent: parent})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].EndNs = time.Since(t.t0).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

// total sums the durations of the spans named name, in seconds.
func (t *tracer) total(name string) float64 {
	if t == nil {
		return 0
	}
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.EndNs - s.StartNs
		}
	}
	return float64(ns) / 1e9
}

// layers are the repository packages the traced run reports self time for,
// plus "runtime" for samples with no frame in any of them.
var layers = []string{"workload", "core", "sim", "grid", "netmodel", "disk", "hdfs", "mapred", "audit", "event", "runtime"}

const internalPrefix = "hog/internal/"

// layerOf attributes one CPU sample to a layer: the innermost frame (leaf
// first, inlined frames included) in a measured hog/internal package.
// Frames of other hog/internal packages (metrics, topology) and of the
// runtime or standard library are charged to the measured layer that called
// them; a stack with no measured frame is "runtime".
func layerOf(stack []string) string {
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, internalPrefix)
		if !ok {
			continue
		}
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		for _, l := range layers {
			if l == rest {
				return l
			}
		}
	}
	return "runtime"
}

// cpuSample is one decoded profile sample: its stack of function names, leaf
// first, and the CPU time it stands for.
type cpuSample struct {
	stack []string
	ns    int64
}

// selfTimes charges each sample to its layer and returns seconds per layer.
func selfTimes(samples []cpuSample) map[string]float64 {
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		out[l] = 0
	}
	for _, s := range samples {
		out[layerOf(s.stack)] += float64(s.ns) / 1e9
	}
	return out
}

// parseProfile decodes the samples of a gzip-compressed pprof CPU profile as
// runtime/pprof writes it. Only the fields attribution needs are read:
// samples' location IDs and values, locations' lines, functions' names, and
// the string table. The last sample value is taken as CPU nanoseconds.
func parseProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs []uint64
		vals []int64
	}
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location ID -> function IDs, innermost first
		funcs   = map[uint64]int64{}    // function ID -> name string index
		strs    []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, wire, v, b)
				case 2:
					for _, x := range appendPacked(nil, wire, v, b) {
						s.vals = append(s.vals, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, wire int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			return nil, errors.New("profile: sample without values")
		}
		cs := cpuSample{ns: s.vals[len(s.vals)-1]}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i >= 0 && i < int64(len(strs)) {
					cs.stack = append(cs.stack, strs[i])
				}
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// appendPacked appends a repeated varint field's values, which the encoder
// writes either one per field (wire type 0) or packed (wire type 2).
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling fn with each field's number,
// wire type, and varint value or length-delimited bytes.
func eachField(msg []byte, fn func(num int, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
