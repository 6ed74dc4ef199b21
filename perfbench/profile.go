package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file attributes CPU-profile self time to the repository's modules.
// It decodes the gzipped profile.proto that runtime/pprof writes with a
// minimal protobuf reader (the standard library ships no decoder), keeps
// each sample's leaf frame — for an inlined call, the innermost function —
// and sums the CPU nanoseconds per module.

// moduleOf names the module a function belongs to: the package directory
// under internal/ for repository code, "harness" for this benchmark, and
// a short name for the standard library and runtime packages the
// workloads are expected to show.
func moduleOf(fn string) string {
	// Strip the receiver and function: the package path ends at the first
	// '.' after the last '/'.
	pkg := fn
	slash := strings.LastIndex(pkg, "/")
	if dot := strings.Index(pkg[slash+1:], "."); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "readduo/internal/"):
		mod := strings.TrimPrefix(pkg, "readduo/internal/")
		if i := strings.Index(mod, "/"); i >= 0 {
			mod = mod[:i] // sim/linetable counts as sim
		}
		return mod
	case pkg == "main" || strings.HasPrefix(pkg, "readduo/perfbench"):
		return "harness"
	case pkg == "math/rand":
		return "rand"
	case pkg == "math":
		return "math"
	case pkg == "syscall" || pkg == "net" || strings.HasPrefix(pkg, "internal/poll") ||
		strings.HasPrefix(pkg, "internal/syscall") || pkg == "internal/runtime/syscall":
		return "syscall"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime"):
		return "runtime"
	case strings.HasPrefix(pkg, "net/http"):
		return "net_http"
	case strings.HasPrefix(pkg, "encoding/"):
		return "encoding"
	default:
		return "other"
	}
}

// moduleShares accumulates self CPU time per module across profiles.
type moduleShares map[string]int64

// add decodes one gzipped CPU profile and adds its self time per module.
func (m moduleShares) add(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) <= p.cpuIndex {
			continue
		}
		fn := p.leafFunction(s.locs[0])
		m[moduleOf(fn)] += s.values[p.cpuIndex]
	}
	return nil
}

// pct returns each module's share of total self time, in percent.
func (m moduleShares) pct() map[string]float64 {
	var total int64
	for _, v := range m {
		total += v
	}
	out := make(map[string]float64, len(m))
	for k, v := range m {
		if total > 0 {
			out[k] = 100 * float64(v) / float64(total)
		}
	}
	return out
}

// table renders the shares as "module  pct" lines, largest first.
func (m moduleShares) table() string {
	shares := m.pct()
	names := make([]string, 0, len(shares))
	for k := range shares {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool {
		if shares[names[i]] != shares[names[j]] {
			return shares[names[i]] > shares[names[j]]
		}
		return names[i] < names[j]
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %7s %12s\n", "module", "self%", "self_ms")
	for _, k := range names {
		fmt.Fprintf(&b, "%-14s %7.2f %12.1f\n", k, shares[k], float64(m[k])/1e6)
	}
	return b.String()
}

type profSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	samples  []profSample
	locFunc  map[uint64]uint64 // location id -> innermost function id
	funcName map[uint64]int64  // function id -> string table index
	strings  []string
	cpuIndex int // sample value index holding CPU nanoseconds
}

func (p *profile) leafFunction(loc uint64) string {
	fid, ok := p.locFunc[loc]
	if !ok {
		return ""
	}
	si, ok := p.funcName[fid]
	if !ok || si < 0 || int(si) >= len(p.strings) {
		return ""
	}
	return p.strings[si]
}

var errTruncated = errors.New("profile: truncated protobuf")

// pbField is one decoded protobuf field: a varint value or a
// length-delimited payload.
type pbField struct {
	num   int
	wire  int
	value uint64
	bytes []byte
}

// pbFields splits a protobuf message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0: // varint
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return nil, errTruncated
			}
			f.value, b = v, b[n:]
		case 1: // fixed64
			if len(b) < 8 {
				return nil, errTruncated
			}
			f.value, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errTruncated
			}
			f.bytes, b = b[n:n+int(l)], b[n+int(l):]
		case 5: // fixed32
			if len(b) < 4 {
				return nil, errTruncated
			}
			f.value, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// pbUints reads a repeated integer field that may be packed or not.
func pbUints(f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.value}, nil
	}
	var out []uint64
	b := f.bytes
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// decodeProfile reads the fields of profile.proto this file needs:
// sample_type (1), sample (2), location (4), function (5), string_table (6).
func decodeProfile(raw []byte) (*profile, error) {
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	p := &profile{locFunc: map[uint64]uint64{}, funcName: map[uint64]int64{}, cpuIndex: -1}
	var sampleTypes []uint64 // string index of each value type's "type"
	for _, f := range top {
		switch f.num {
		case 1:
			vt, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var typ uint64
			for _, g := range vt {
				if g.num == 1 {
					typ = g.value
				}
			}
			sampleTypes = append(sampleTypes, typ)
		case 2:
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var s profSample
			for _, g := range fs {
				vs, err := pbUints(g)
				if err != nil {
					return nil, err
				}
				switch g.num {
				case 1:
					s.locs = append(s.locs, vs...)
				case 2:
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				}
			}
			p.samples = append(p.samples, s)
		case 4:
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, fn uint64
			haveFn := false
			for _, g := range fs {
				switch g.num {
				case 1:
					id = g.value
				case 4: // Line; the first is the innermost inlined frame
					if haveFn {
						continue
					}
					ls, err := pbFields(g.bytes)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.num == 1 {
							fn, haveFn = l.value, true
						}
					}
				}
			}
			if haveFn {
				p.locFunc[id] = fn
			}
		case 5:
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			for _, g := range fs {
				switch g.num {
				case 1:
					id = g.value
				case 2:
					name = int64(g.value)
				}
			}
			p.funcName[id] = name
		case 6:
			p.strings = append(p.strings, string(f.bytes))
		}
	}
	for i, si := range sampleTypes {
		if si < uint64(len(p.strings)) && p.strings[si] == "cpu" {
			p.cpuIndex = i
		}
	}
	if p.cpuIndex < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	return p, nil
}
