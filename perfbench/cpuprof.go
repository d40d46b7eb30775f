package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// cpuLayers are the buckets a CPU profile sample can land in, in report
// order. Each repro/internal/<layer> package is its own bucket; "repro"
// is the root facade and "other" holds the benchmark itself, the Go
// scheduler and anything else no rule claims.
var cpuLayers = []string{
	"sim", "ixp", "xen", "netsim", "pcie", "core", "rubis", "mplayer",
	"overload", "energy", "stats", "scenario", "flight", "platform", "sweep",
	"repro", "runtime.malloc", "runtime.gc", "other",
}

// cpuMetric names the per-layer metric of a bucket.
func cpuMetric(layer string) string {
	if strings.HasPrefix(layer, "runtime.") {
		return layer + "_pct"
	}
	return layer + ".cpu_pct"
}

// frameLayer classifies one function name, or returns "" when the frame
// does not decide the sample.
func frameLayer(fn string) string {
	if strings.HasPrefix(fn, "runtime.") {
		name := strings.TrimPrefix(fn, "runtime.")
		for _, p := range []string{"gc", "bgsweep", "sweepone", "(*mspan).sweep", "(*sweepLocked)", "scanobject",
			"scanblock", "scanstack", "scanframe", "markroot", "greyobject", "findObject", "(*gcWork)", "wbBuf",
			"bulkBarrier", "bgscavenge", "(*gcControllerState)", "(*gcBits)"} {
			if strings.HasPrefix(name, p) {
				return "runtime.gc"
			}
		}
		for _, p := range []string{"malloc", "newobject", "newarray", "makeslice", "growslice", "makemap", "convT",
			"(*mcache)", "(*mcentral)", "(*mheap)", "nextFreeFast", "(*mspan).nextFreeIndex", "heapSetType",
			"(*mspan).refillAllocCache", "deductAssistCredit"} {
			if strings.HasPrefix(name, p) {
				return "runtime.malloc"
			}
		}
		return ""
	}
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			rest = rest[:i]
		}
		for _, l := range cpuLayers {
			if l == rest {
				return l
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "repro.") {
		return "repro"
	}
	return ""
}

// cpuShares attributes every sample of a gzipped pprof CPU profile to the
// layer of its innermost deciding frame and returns each layer's share of
// all samples in percent, and the sample count.
func cpuShares(profile []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}

	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		layer := "other"
	stack:
		for _, id := range s.locations {
			for _, fid := range p.locations[id] {
				if l := frameLayer(p.strings[p.functions[fid]]); l != "" {
					layer = l
					break stack
				}
			}
		}
		counts[layer] += s.values[0]
		total += s.values[0]
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("cpu profile holds no samples")
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[cpuMetric(l)] = 100 * float64(counts[l]) / float64(total)
	}
	return shares, total, nil
}

// profile is the part of a pprof profile the attribution needs.
type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

type profSample struct {
	locations []uint64 // leaf first
	values    []int64
}

// decodeProfile decodes the fields of profile.proto that cpuShares reads.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := protoFields(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case 2: // Sample
			var s profSample
			err := protoFields(data, func(num int, wire int, v uint64, data []byte) error {
				var err error
				switch num {
				case 1:
					s.locations, err = appendVarints(s.locations, wire, v, data)
				case 2:
					var xs []uint64
					xs, err = appendVarints(nil, wire, v, data)
					for _, x := range xs {
						s.values = append(s.values, int64(x))
					}
				}
				return err
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := protoFields(data, func(num int, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return protoFields(data, func(num int, wire int, v uint64, data []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := protoFields(data, func(num int, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, s := range p.samples {
		for _, id := range s.locations {
			for _, fid := range p.locations[id] {
				name, ok := p.functions[fid]
				if !ok || name < 0 || name >= int64(len(p.strings)) {
					return nil, fmt.Errorf("location %d names function %d without a name in the string table", id, fid)
				}
			}
		}
	}
	return p, nil
}

// protoFields walks the top-level fields of one protobuf message. Varint
// fields arrive in v, length-delimited ones in data.
func protoFields(b []byte, fn func(num int, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", num)
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64 in field %d", num)
			}
			v = binary.LittleEndian.Uint64(b)
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length in field %d", num)
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32 in field %d", num)
			}
			v = uint64(binary.LittleEndian.Uint32(b))
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, num)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, fmt.Errorf("bad packed varint")
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}
