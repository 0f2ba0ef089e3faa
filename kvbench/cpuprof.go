package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// hostGroups are the self-time groups the CPU profile is folded into:
// the simulator's packages, the event heap's container/heap, the
// benchmark's own code, and the Go runtime and standard library split
// into allocation, garbage collection and the rest (copies, maps,
// hashing). The repository's other packages land in "other".
var hostGroups = []string{"sim", "container_heap", "rnic", "core", "mem", "redn",
	"telemetry", "extent", "bench", "runtime_alloc", "runtime_gc", "runtime_other", "other"}

var pkgGroup = map[string]string{
	"repro":                    "redn",
	"repro/internal/sim":       "sim",
	"container/heap":           "container_heap",
	"repro/internal/rnic":      "rnic",
	"repro/internal/core":      "core",
	"repro/internal/mem":       "mem",
	"repro/internal/telemetry": "telemetry",
	"repro/internal/extent":    "extent",
	"main":                     "bench",
}

// Runtime frames that mark a sample as collector work or as allocation;
// a stack is checked for collector frames first, because assists run
// inside the allocator.
var (
	gcFrames = []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
		"runtime.scanobject", "runtime.scanblock", "runtime.greyobject", "runtime.sweepone",
		"runtime.(*gcWork)", "runtime.wbBuf", "runtime.bulkBarrier", "runtime.GC"}
	allocFrames = []string{"runtime.mallocgc", "runtime.newobject", "runtime.makeslice",
		"runtime.growslice", "runtime.makemap", "runtime.newarray", "runtime.convT",
		"runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mheap).alloc"}
)

func anyPrefix(frames []string, prefixes []string) bool {
	for _, f := range frames {
		for _, p := range prefixes {
			if strings.HasPrefix(f, p) {
				return true
			}
		}
	}
	return false
}

// pkgOf returns the import path of a symbol such as
// "repro/internal/sim.(*Engine).RunUntil".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// groupOf assigns a sample's stack (leaf first) to its self-time group.
func groupOf(frames []string) string {
	if len(frames) == 0 {
		return "other"
	}
	pkg := pkgOf(frames[0])
	if g, ok := pkgGroup[pkg]; ok {
		return g
	}
	if pkg == "repro" || strings.HasPrefix(pkg, "repro/") {
		return "other"
	}
	// The Go runtime, the standard library and assembly routines.
	switch {
	case anyPrefix(frames, gcFrames):
		return "runtime_gc"
	case anyPrefix(frames, allocFrames):
		return "runtime_alloc"
	}
	return "runtime_other"
}

// selfSamples decodes a gzipped pprof CPU profile and adds each
// sample's count to the group of its leaf frame.
func selfSamples(prof []byte, into map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	var (
		strs    []string
		samples [][]byte
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]uint64{}   // function id -> name string index
	)
	// Profile fields: 2 sample, 4 location, 5 function, 6 string_table.
	err = pbFields(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 2:
			samples = append(samples, data)
		case 4:
			var id uint64
			var fns []uint64
			err := pbFields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line: 1 function_id
					return pbFields(data, func(num int, v uint64, _ []byte) error {
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
		case 5:
			var id, name uint64
			err := pbFields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	var frames []string
	for _, s := range samples {
		var locIDs, values []uint64
		// Sample fields: 1 location_id, 2 value (packed or not).
		err := pbFields(s, func(num int, v uint64, data []byte) error {
			var dst *[]uint64
			switch num {
			case 1:
				dst = &locIDs
			case 2:
				dst = &values
			default:
				return nil
			}
			if data == nil {
				*dst = append(*dst, v)
				return nil
			}
			for len(data) > 0 {
				x, n := binary.Uvarint(data)
				if n <= 0 {
					return errors.New("bad packed varint")
				}
				*dst = append(*dst, x)
				data = data[n:]
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("cpu profile sample: %w", err)
		}
		if len(values) == 0 {
			continue
		}
		frames = frames[:0]
		for _, l := range locIDs {
			for _, f := range locs[l] {
				if i := funcs[f]; i < uint64(len(strs)) {
					frames = append(frames, strs[i])
				}
			}
		}
		into[groupOf(frames)] += int64(values[0])
	}
	return nil
}

// pbFields walks the fields of one protobuf message, passing varint
// and fixed values as v and length-delimited payloads as data.
func pbFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
			if data == nil {
				data = []byte{}
			}
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}
