// Record payload codec: the fixed-order binary encoding of one
// SPEXSNP2 record (key, stamp, inject.Outcome) and of a constraint set
// (the container's constraint frame). Every field is written in
// declaration order, with no names and no tags:
//
//	integers      varint (signed) or uvarint (lengths, counts)
//	strings       uvarint length, then the bytes
//	bools         one byte, 0 or 1
//	float64       8 bytes, little-endian IEEE-754 bits
//	slices, maps  uvarint 0 for nil, else 1 + element count, then the
//	              elements; map entries sorted by key
//	pointers      one byte, 0 for nil, 1 followed by the value
//
// The nil flags keep nil and empty apart, as the JSON the snapshot
// fingerprint hashes does, so json.Marshal of a decoded outcome is
// byte-identical to json.Marshal of the outcome that was encoded. The
// sorted map keys make the bytes a function of the value alone.
//
// Decoding is strict: a truncated field, a length longer than the bytes
// that remain, a bool other than 0 or 1, a NaN or infinite float, map
// keys out of order, or bytes left over after the value are all
// corruption errors.
package campaignstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"spex/internal/confgen"
	"spex/internal/constraint"
	"spex/internal/inject"
)

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendInt(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// appendLen writes a slice or map header: 0 for nil, else 1 + n.
func appendLen(b []byte, isNil bool, n int) []byte {
	if isNil {
		return append(b, 0)
	}
	return binary.AppendUvarint(b, uint64(n)+1)
}

func appendLoc(b []byte, l constraint.SourceLoc) []byte {
	b = appendString(b, l.File)
	b = appendInt(b, int64(l.Line))
	return appendString(b, l.Func)
}

// appendRecord appends one record frame's body: the key, the stamp in
// UnixNano, and the outcome's fields in declaration order.
func appendRecord(b []byte, key string, nano int64, o *inject.Outcome) []byte {
	b = appendString(b, key)
	b = appendInt(b, nano)
	b = appendMisconf(b, &o.Misconf)
	b = appendInt(b, int64(o.Reaction))
	b = appendBool(b, o.Pinpointed)
	b = appendString(b, o.FailedTest)
	b = appendString(b, o.LogDump)
	b = appendLoc(b, o.Loc)
	b = appendInt(b, int64(o.SimCost))
	b = appendString(b, o.Err)
	b = appendBool(b, o.Skipped)
	return appendBool(b, o.Yielded)
}

func appendMisconf(b []byte, m *confgen.Misconf) []byte {
	b = appendString(b, m.ID)
	b = appendString(b, m.Param)
	b = appendString(b, m.Rule)
	b = appendLen(b, m.Values == nil, len(m.Values))
	if len(m.Values) > 0 {
		keys := make([]string, 0, len(m.Values))
		for k := range m.Values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			b = appendString(b, k)
			b = appendString(b, m.Values[k])
		}
	}
	b = appendLen(b, m.Env == nil, len(m.Env))
	for _, a := range m.Env {
		b = appendInt(b, int64(a.Kind))
		b = appendString(b, a.Path)
		b = appendInt(b, int64(a.Port))
	}
	b = appendBool(b, m.Violates != nil)
	if m.Violates != nil {
		b = appendConstraint(b, m.Violates)
	}
	return appendString(b, m.Description)
}

func appendConstraint(b []byte, c *constraint.Constraint) []byte {
	b = appendInt(b, int64(c.Kind))
	b = appendString(b, c.Param)
	b = appendInt(b, int64(c.Basic))
	b = appendString(b, string(c.Semantic))
	b = appendString(b, string(c.Unit))
	b = appendBool(b, c.CaseSensitive)
	b = appendBool(b, c.CaseKnown)
	b = appendLen(b, c.Intervals == nil, len(c.Intervals))
	for _, iv := range c.Intervals {
		b = appendInt(b, iv.Min)
		b = appendInt(b, iv.Max)
		b = appendBool(b, iv.HasMin)
		b = appendBool(b, iv.HasMax)
		b = appendBool(b, iv.Valid)
	}
	b = appendLen(b, c.Enum == nil, len(c.Enum))
	for _, e := range c.Enum {
		b = appendString(b, e.Value)
		b = appendBool(b, e.Valid)
		b = appendBool(b, e.Overruled)
	}
	b = appendString(b, c.Peer)
	b = appendString(b, string(c.Cond))
	b = appendString(b, c.Value)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.Confidence))
	b = appendString(b, string(c.Rel))
	b = appendBool(b, c.Documented)
	return appendLoc(b, c.Loc)
}

// appendSet appends the constraint frame's payload: a nil flag, the
// system name, and the constraints in ID order (the order
// Set.MarshalJSON uses), each in Misconf.Violates' encoding.
func appendSet(b []byte, s *constraint.Set) []byte {
	b = appendBool(b, s != nil)
	if s == nil {
		return b
	}
	b = appendString(b, s.System)
	cs := s.SortedByID()
	b = binary.AppendUvarint(b, uint64(len(cs)))
	for _, c := range cs {
		b = appendConstraint(b, c)
	}
	return b
}

// payloadReader decodes one payload. src is a single string copy of the
// payload bytes and every decoded string is a substring of it, so a
// record costs one string allocation however many fields it carries.
// The first error sticks; later reads return zero values.
type payloadReader struct {
	src string
	off int
	err error
}

func (r *payloadReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("at byte %d: %s", r.off, fmt.Sprintf(format, args...))
	}
}

func (r *payloadReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		if r.off >= len(r.src) {
			r.fail("truncated varint")
			return 0
		}
		c := r.src[r.off]
		r.off++
		if c < 0x80 {
			if i == binary.MaxVarintLen64-1 && c > 1 {
				break
			}
			return x | uint64(c)<<s
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	r.fail("varint overflows 64 bits")
	return 0
}

func (r *payloadReader) int64() int64 {
	ux := r.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

func (r *payloadReader) int() int {
	v := r.int64()
	if int64(int(v)) != v {
		r.fail("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

// remaining is the number of undecoded payload bytes.
func (r *payloadReader) remaining() int { return len(r.src) - r.off }

func (r *payloadReader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(r.remaining()) {
		r.fail("string length %d exceeds the %d bytes that remain", n, r.remaining())
		return ""
	}
	s := r.src[r.off : r.off+int(n)]
	r.off += int(n)
	return s
}

func (r *payloadReader) bool() bool {
	if r.err != nil {
		return false
	}
	if r.off >= len(r.src) {
		r.fail("truncated bool")
		return false
	}
	c := r.src[r.off]
	r.off++
	if c > 1 {
		r.fail("bool byte %d", c)
		return false
	}
	return c == 1
}

func (r *payloadReader) float64() float64 {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 8 {
		r.fail("truncated float64")
		return 0
	}
	var bits uint64
	for i := 7; i >= 0; i-- {
		bits = bits<<8 | uint64(r.src[r.off+i])
	}
	r.off += 8
	f := math.Float64frombits(bits)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		// json.Marshal refuses these, so no encoder wrote one.
		r.fail("non-finite float64")
		return 0
	}
	return f
}

// length reads a slice or map header. A count larger than the bytes
// that remain cannot be honest (every element takes at least one byte),
// so it is rejected before anything is allocated for it.
func (r *payloadReader) length() (n int, isNil bool) {
	v := r.uvarint()
	if r.err != nil || v == 0 {
		return 0, true
	}
	if v-1 > uint64(r.remaining()) {
		r.fail("element count %d exceeds the %d bytes that remain", v-1, r.remaining())
		return 0, true
	}
	return int(v - 1), false
}

// finish reports the first decode error, or leftover bytes after the
// value.
func (r *payloadReader) finish() error {
	if r.err == nil && r.off != len(r.src) {
		r.fail("%d bytes left over", len(r.src)-r.off)
	}
	return r.err
}

func (r *payloadReader) loc() constraint.SourceLoc {
	return constraint.SourceLoc{File: r.str(), Line: r.int(), Func: r.str()}
}

// decodeRecord decodes one record frame: the key, the stamp in
// UnixNano, and the outcome. Every string it returns is a substring of
// src.
func decodeRecord(src string) (key string, nano int64, out inject.Outcome, err error) {
	r := payloadReader{src: src}
	key = r.str()
	nano = r.int64()
	r.misconf(&out.Misconf)
	out.Reaction = inject.Reaction(r.int())
	out.Pinpointed = r.bool()
	out.FailedTest = r.str()
	out.LogDump = r.str()
	out.Loc = r.loc()
	out.SimCost = r.int()
	out.Err = r.str()
	out.Skipped = r.bool()
	out.Yielded = r.bool()
	if err := r.finish(); err != nil {
		return "", 0, inject.Outcome{}, err
	}
	return key, nano, out, nil
}

func (r *payloadReader) misconf(m *confgen.Misconf) {
	m.ID = r.str()
	m.Param = r.str()
	m.Rule = r.str()
	if n, isNil := r.length(); !isNil {
		m.Values = make(map[string]string, n)
		last := ""
		for i := 0; i < n && r.err == nil; i++ {
			k := r.str()
			if i > 0 && k <= last {
				r.fail("map key %q out of order after %q", k, last)
			}
			last = k
			m.Values[k] = r.str()
		}
	}
	if n, isNil := r.length(); !isNil {
		m.Env = make([]confgen.EnvAction, n)
		for i := range m.Env {
			m.Env[i] = confgen.EnvAction{Kind: confgen.EnvActionKind(r.int()), Path: r.str(), Port: r.int()}
		}
	}
	if r.bool() {
		m.Violates = new(constraint.Constraint)
		r.constraint(m.Violates)
	}
	m.Description = r.str()
}

func (r *payloadReader) constraint(c *constraint.Constraint) {
	c.Kind = constraint.Kind(r.int())
	c.Param = r.str()
	c.Basic = constraint.BasicType(r.int())
	c.Semantic = constraint.SemanticType(r.str())
	c.Unit = constraint.Unit(r.str())
	c.CaseSensitive = r.bool()
	c.CaseKnown = r.bool()
	if n, isNil := r.length(); !isNil {
		c.Intervals = make([]constraint.Interval, n)
		for i := range c.Intervals {
			c.Intervals[i] = constraint.Interval{Min: r.int64(), Max: r.int64(),
				HasMin: r.bool(), HasMax: r.bool(), Valid: r.bool()}
		}
	}
	if n, isNil := r.length(); !isNil {
		c.Enum = make([]constraint.EnumValue, n)
		for i := range c.Enum {
			c.Enum[i] = constraint.EnumValue{Value: r.str(), Valid: r.bool(), Overruled: r.bool()}
		}
	}
	c.Peer = r.str()
	c.Cond = constraint.Op(r.str())
	c.Value = r.str()
	c.Confidence = r.float64()
	c.Rel = constraint.Op(r.str())
	c.Documented = r.bool()
	c.Loc = r.loc()
}

// decodeSet decodes the constraint frame's payload, rebuilding the
// set's deduplication index through Set.Add as Set.UnmarshalJSON does.
func decodeSet(src string) (*constraint.Set, error) {
	r := payloadReader{src: src}
	if !r.bool() {
		return nil, r.finish()
	}
	s := constraint.NewSet(r.str())
	n := r.uvarint()
	if r.err == nil && n > uint64(r.remaining()) {
		r.fail("constraint count %d exceeds the %d bytes that remain", n, r.remaining())
	}
	for i := uint64(0); i < n && r.err == nil; i++ {
		c := new(constraint.Constraint)
		r.constraint(c)
		s.Add(c)
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return s, nil
}
