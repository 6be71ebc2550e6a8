package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// This file decodes the subset of the pprof profile.proto format that
// runtime/pprof writes and the layer split needs: sample types, samples
// (location ids and values), locations (with their inlined lines) and
// function names. The standard library ships no profile reader, and the
// benchmark imports nothing outside it.

// stackSample is one profile sample: its call stack as function names,
// innermost frame first (inlined frames expanded), and its values in
// sample-type order.
type stackSample struct {
	Stack  []string
	Values []int64
}

// profile is a decoded profile: the sample type names and the samples.
type profile struct {
	Types   []string
	Samples []stackSample
}

// typeIndex returns the index of the named sample type, or -1.
func (p *profile) typeIndex(name string) int {
	for i, t := range p.Types {
		if t == name {
			return i
		}
	}
	return -1
}

// parseProfile decodes a (possibly gzipped) profile.proto message.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs     []string
		typeStr  []int64
		samples  []rawSample
		locLines = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName = map[uint64]int64{}    // function id -> string index
	)
	err := eachField(data, func(field int, wire int, v uint64, b []byte) error {
		switch {
		case field == 1 && wire == 2: // sample_type
			return eachField(b, func(f, w int, v uint64, _ []byte) error {
				if f == 1 && w == 0 {
					typeStr = append(typeStr, int64(v))
				}
				return nil
			})
		case field == 2 && wire == 2: // sample
			var s rawSample
			err := eachField(b, func(f, w int, v uint64, pb []byte) error {
				switch f {
				case 1:
					return appendVarints(w, v, pb, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return appendVarints(w, v, pb, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case field == 4 && wire == 2: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, w int, v uint64, lb []byte) error {
				switch {
				case f == 1 && w == 0:
					id = v
				case f == 4 && w == 2: // line
					return eachField(lb, func(f, w int, v uint64, _ []byte) error {
						if f == 1 && w == 0 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case field == 5 && wire == 2: // function
			var id uint64
			var name int64
			err := eachField(b, func(f, w int, v uint64, _ []byte) error {
				if w == 0 && f == 1 {
					id = v
				} else if w == 0 && f == 2 {
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case field == 6 && wire == 2: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	p := &profile{}
	for _, t := range typeStr {
		p.Types = append(p.Types, str(t))
	}
	for _, s := range samples {
		if len(s.values) != len(p.Types) {
			return nil, fmt.Errorf("profile: sample has %d values for %d types", len(s.values), len(p.Types))
		}
		var stack []string
		for _, loc := range s.locs {
			fns, ok := locLines[loc]
			if !ok {
				return nil, fmt.Errorf("profile: sample names unknown location %d", loc)
			}
			for _, fn := range fns {
				stack = append(stack, str(funcName[fn]))
			}
		}
		p.Samples = append(p.Samples, stackSample{Stack: stack, Values: s.values})
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated message")

// eachField walks one protobuf message, calling fn with each field's
// number and wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints feeds a repeated integer field to add, whether it was
// encoded as one varint or as a packed run.
func appendVarints(wire int, v uint64, packed []byte, add func(uint64)) error {
	switch wire {
	case 0:
		add(v)
	case 2:
		for len(packed) > 0 {
			x, n := binary.Uvarint(packed)
			if n <= 0 {
				return errTruncated
			}
			add(x)
			packed = packed[n:]
		}
	}
	return nil
}
