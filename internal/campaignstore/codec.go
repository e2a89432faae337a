// Binary snapshot container: the storage format behind Save. The JSON
// document format (now "legacy v2") held every outcome in one
// json.MarshalIndent blob, so both ends of the pipeline were O(whole
// snapshot in RAM) and the daemon re-parsed megabytes per table
// request. The binary container is a stream of length-prefixed frames:
//
//	magic "SPEXSNP2"
//	uvarint len | header JSON    (schema, system, saved_at, options,
//	                              set_fingerprint)
//	uvarint len | constraint set (record.go's encoding: nil flag,
//	                              system, count, constraints in ID order)
//	repeated records in ascending key order, each one frame:
//	  uvarint len                (len > 0)
//	  uvarint len(key) | key     (len > 0; inject.CacheKey)
//	  varint  stamp              (UnixNano of the outcome's freshness stamp)
//	  outcome                    (record.go's fixed-order binary encoding)
//	uvarint 0                    (terminator)
//	uvarint record count
//	uint32  CRC-32 (IEEE, little-endian) of every preceding byte
//
// The frames are what buy streaming: read or write one outcome at a
// time, skip without parsing. The ascending key order is load-bearing
// twice: it makes the snapshot fingerprint computable in one pass, and
// it lets shard.Merge fold k shard files with a k-way merge that holds
// one record per shard in memory.
//
// Why the payloads are binary. The first container, "SPEXSNP1", framed
// each outcome as compact JSON, the very bytes Snapshot.Fingerprint
// hashes, and kept the constraint set inside the header JSON. That made
// every load run encoding/json over every outcome and over a ~20 KB
// constraint set per system, and every List re-parsed the set just to
// read a system name: replaying a campaign cost more than running it
// fresh. The binary encoding decodes with no reflection and one string
// allocation per record. The fingerprint did not move with it: the
// encoder still folds json.Marshal(outcome) into the Fingerprinter, and
// the codec is exact (nil and empty kept apart, float64 bits stored), so
// the JSON of a decoded outcome is the JSON of the encoded one. A
// SPEXSNP1 file loads as ErrStale, so a store written before the switch
// falls back to one full campaign, which rewrites it.
//
// Every frame is checked on the way in: the magic, schema staleness and
// the constraint-set fingerprint in the header; key order, the record
// count and the CRC across the records; leftover bytes after a record or
// the constraint set; and any length prefix longer than the bytes that
// remain, which is refused before anything is allocated for it.
//
// The logical schema (SchemaVersion, SchemaFingerprint) is unchanged by
// the container: a binary snapshot and its legacy JSON form carry the
// same schema fingerprint and the same Snapshot.Fingerprint, which is
// what lets a v2 JSON store migrate to binary on its next save without
// perturbing replay equivalence checks.
package campaignstore

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"strconv"
	"time"

	"spex/internal/inject"
)

// snapMagic opens every binary snapshot file this build writes.
var snapMagic = []byte("SPEXSNP2")

// oldSnapMagic opens the first container version, whose records carried
// JSON payloads. This build does not read it: such a file is stale.
var oldSnapMagic = []byte("SPEXSNP1")

// errOldContainer reports a SPEXSNP1 file; label names it.
func errOldContainer(label string) error {
	return fmt.Errorf("%w: snapshot %s was written by an older container version (%s; this build reads %s)",
		ErrStale, label, oldSnapMagic, snapMagic)
}

// refuseOldContainer returns errOldContainer when the file at path opens
// with the older container's magic, and nil for anything else: the
// checks that need the whole file stay with the decoder.
func refuseOldContainer(path, label string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("campaignstore: %w", err)
	}
	defer f.Close()
	magic := make([]byte, len(oldSnapMagic))
	if n, _ := io.ReadFull(f, magic); n == len(magic) && bytes.Equal(magic, oldSnapMagic) {
		return errOldContainer(label)
	}
	return nil
}

// maxFrameLen bounds any single length prefix — a corrupt prefix must
// not turn into a multi-gigabyte allocation.
const maxFrameLen = 1 << 30

// Fingerprinter folds Snapshot.Fingerprint incrementally: the same hash
// as the in-memory method, computed record by record in ascending key
// order, so streaming writers (Save, shard.Merge) get the fingerprint
// as a byproduct of encoding instead of a second pass over the store.
type Fingerprinter struct {
	h       hash.Hash
	last    string
	started bool
	line    []byte // the record line being hashed, reused across Adds
}

// NewFingerprinter starts the hash with the snapshot's header lines.
func NewFingerprinter(schema, system, options, setFingerprint string) *Fingerprinter {
	h := sha256.New()
	fmt.Fprintf(h, "schema %s\nsystem %s\noptions %s\nset %s\n",
		schema, system, options, setFingerprint)
	return &Fingerprinter{h: h}
}

// Add folds one outcome record. outJSON must be the outcome's compact
// json.Marshal bytes; keys must arrive in strictly ascending order.
func (f *Fingerprinter) Add(key string, outJSON []byte) error {
	if f.started && key <= f.last {
		return fmt.Errorf("campaignstore: fingerprint keys out of order (%q after %q)", key, f.last)
	}
	f.started, f.last = true, key
	// "outcome <len>:<key> <len>:<json>\n", built without fmt.
	b := append(f.line[:0], "outcome "...)
	b = strconv.AppendInt(b, int64(len(key)), 10)
	b = append(append(append(b, ':'), key...), ' ')
	b = strconv.AppendInt(b, int64(len(outJSON)), 10)
	b = append(append(append(b, ':'), outJSON...), '\n')
	f.h.Write(b)
	f.line = b
	return nil
}

// Sum returns the fingerprint accumulated so far.
func (f *Fingerprinter) Sum() string {
	return hex.EncodeToString(f.h.Sum(nil))[:32]
}

// snapshotHeader is the container's header blob — Snapshot minus the
// constraint set (its own frame) and the outcome records.
type snapshotHeader struct {
	Schema         string    `json:"schema"`
	System         string    `json:"system"`
	SavedAt        time.Time `json:"saved_at"`
	Options        string    `json:"options"`
	SetFingerprint string    `json:"set_fingerprint"`
}

// crcWriter folds everything written into a running CRC.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

// SnapshotEncoder streams one snapshot into a writer: header first,
// then Add per outcome in ascending key order, then Finish. The encoder
// folds the container CRC and the snapshot fingerprint as records pass
// through, so the caller never holds more than one outcome in memory.
type SnapshotEncoder struct {
	bw      *bufio.Writer
	cw      *crcWriter
	fp      *Fingerprinter
	count   int
	last    string
	started bool
	frame   []byte // the frame being built, reused across records
}

// NewSnapshotEncoder writes the magic, the header and the constraint
// set. hdr carries the snapshot's metadata; its Outcomes/Stamps are
// ignored.
func NewSnapshotEncoder(w io.Writer, hdr *Snapshot) (*SnapshotEncoder, error) {
	head, err := json.Marshal(snapshotHeader{
		Schema:         hdr.Schema,
		System:         hdr.System,
		SavedAt:        hdr.SavedAt,
		Options:        hdr.Options,
		SetFingerprint: hdr.SetFingerprint,
	})
	if err != nil {
		return nil, fmt.Errorf("campaignstore: %w", err)
	}
	cw := &crcWriter{w: w}
	bw := bufio.NewWriterSize(cw, 1<<16)
	// The CRC must cover the buffered bytes in write order, so the CRC
	// sits *under* the bufio layer.
	e := &SnapshotEncoder{
		bw: bw,
		cw: cw,
		fp: NewFingerprinter(hdr.Schema, hdr.System, hdr.Options, hdr.SetFingerprint),
	}
	if _, err := bw.Write(snapMagic); err != nil {
		return nil, fmt.Errorf("campaignstore: %w", err)
	}
	if err := e.writeFrame(head); err != nil {
		return nil, err
	}
	e.frame = appendSet(e.frame[:0], hdr.Constraints)
	if err := e.writeFrame(e.frame); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *SnapshotEncoder) writeUvarint(v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	if _, err := e.bw.Write(buf[:binary.PutUvarint(buf[:], v)]); err != nil {
		return fmt.Errorf("campaignstore: %w", err)
	}
	return nil
}

func (e *SnapshotEncoder) writeFrame(b []byte) error {
	if err := e.writeUvarint(uint64(len(b))); err != nil {
		return err
	}
	if _, err := e.bw.Write(b); err != nil {
		return fmt.Errorf("campaignstore: %w", err)
	}
	return nil
}

// Add appends one outcome record. Keys must be non-empty and strictly
// ascending — the order the fingerprint and the k-way merge depend on.
func (e *SnapshotEncoder) Add(key string, stamp time.Time, out inject.Outcome) error {
	if key == "" {
		return errors.New("campaignstore: empty outcome key")
	}
	if e.started && key <= e.last {
		return fmt.Errorf("campaignstore: outcome keys out of order (%q after %q)", key, e.last)
	}
	e.started, e.last = true, key
	// The fingerprint hashes the outcome's JSON, as it always has, so
	// the container's payload encoding never moves a fingerprint.
	data, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("campaignstore: %w", err)
	}
	if err := e.fp.Add(key, data); err != nil {
		return err
	}
	e.frame = appendRecord(e.frame[:0], key, stamp.UnixNano(), &out)
	if err := e.writeFrame(e.frame); err != nil {
		return err
	}
	e.count++
	return nil
}

// Finish writes the terminator, record count, and CRC trailer, flushes,
// and returns the snapshot fingerprint.
func (e *SnapshotEncoder) Finish() (string, error) {
	if err := e.writeUvarint(0); err != nil {
		return "", err
	}
	if err := e.writeUvarint(uint64(e.count)); err != nil {
		return "", err
	}
	if err := e.bw.Flush(); err != nil {
		return "", fmt.Errorf("campaignstore: %w", err)
	}
	// The trailer CRC covers everything up to itself; write it past the
	// CRC fold (directly, the buffer is flushed).
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], e.cw.crc)
	if _, err := e.cw.w.Write(tail[:]); err != nil {
		return "", fmt.Errorf("campaignstore: %w", err)
	}
	return e.fp.Sum(), nil
}

// byteReader is what the decoder reads from: a buffered source.
type byteReader interface {
	io.Reader
	io.ByteReader
}

// crcStream folds the bytes the decoder *consumes* into a running CRC
// and counts down the bytes the source has left. The fold must sit
// above any buffering, not below it: bufio prefetches past the
// decoder's logical position, and a fold on the raw reader would
// swallow the trailer (and anything after it) ahead of time.
type crcStream struct {
	r      byteReader
	crc    uint32
	remain int64
	one    [1]byte
}

func (c *crcStream) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.one[0] = b
		c.crc = crc32.Update(c.crc, crc32.IEEETable, c.one[:])
		c.remain--
	}
	return b, err
}

func (c *crcStream) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	c.remain -= int64(n)
	return n, err
}

// SnapshotDecoder streams a binary snapshot: NewSnapshotDecoder
// validates the header and the constraint set (magic, schema
// staleness, constraint fingerprint — the same fail-safe checks as the
// JSON path), then Next yields one record at a time in ascending key
// order; after the last record the trailer's count and CRC are
// verified, so a truncated or bit-flipped file surfaces as an error
// before the caller trusts the stream was complete.
type SnapshotDecoder struct {
	s     *crcStream
	hdr   *Snapshot
	label string
	count int
	done  bool
	last  string
	buf   []byte // frame bytes, reused across records
}

// corruptf builds the decoder's uniform corruption error.
func (d *SnapshotDecoder) corruptf(format string, args ...any) error {
	return fmt.Errorf("campaignstore: corrupt snapshot for %s: %s", d.label, fmt.Sprintf(format, args...))
}

// NewSnapshotDecoder reads and validates the container header. size is
// the number of bytes r holds from the magic on: no length prefix may
// claim more than what remains of it. label names the source in errors.
// The reader must be positioned at the magic (callers sniff the first 8
// bytes to pick binary vs JSON).
func NewSnapshotDecoder(r io.Reader, size int64, label string) (*SnapshotDecoder, error) {
	br, ok := r.(byteReader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	d := &SnapshotDecoder{s: &crcStream{r: br, remain: size}, label: label}
	magic := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(d.s, magic); err != nil {
		return nil, d.corruptf("bad magic")
	}
	if bytes.Equal(magic, oldSnapMagic) {
		return nil, errOldContainer(label)
	}
	if !bytes.Equal(magic, snapMagic) {
		return nil, d.corruptf("bad magic")
	}
	head, err := d.readFrame("header")
	if err != nil {
		return nil, err
	}
	var hdr snapshotHeader
	if err := json.Unmarshal(head, &hdr); err != nil {
		return nil, d.corruptf("header: %v", err)
	}
	if hdr.Schema != SchemaFingerprint() {
		return nil, fmt.Errorf("%w: snapshot %q, this build %q", ErrStale, hdr.Schema, SchemaFingerprint())
	}
	frame, err := d.readFrame("constraint set")
	if err != nil {
		return nil, err
	}
	set, err := decodeSet(string(frame))
	if err != nil {
		return nil, d.corruptf("constraint set: %v", err)
	}
	if set == nil {
		return nil, fmt.Errorf("campaignstore: snapshot for %s has no constraint set", label)
	}
	if fp := set.Fingerprint(); fp != hdr.SetFingerprint {
		return nil, fmt.Errorf("campaignstore: snapshot for %s fails its constraint fingerprint (%s != %s)",
			label, fp, hdr.SetFingerprint)
	}
	d.hdr = &Snapshot{
		Schema:         hdr.Schema,
		System:         hdr.System,
		SavedAt:        hdr.SavedAt,
		Options:        hdr.Options,
		SetFingerprint: hdr.SetFingerprint,
		Constraints:    set,
	}
	return d, nil
}

// Header returns the decoded snapshot metadata (Outcomes/Stamps nil).
func (d *SnapshotDecoder) Header() *Snapshot { return d.hdr }

// readLen reads a frame's length prefix, refusing one longer than the
// bytes that remain.
func (d *SnapshotDecoder) readLen(what string) (int, error) {
	n, err := binary.ReadUvarint(d.s)
	if err != nil {
		return 0, d.corruptf("truncated %s length", what)
	}
	if n > maxFrameLen || n > uint64(d.s.remain) {
		return 0, d.corruptf("%s length %d exceeds the %d bytes that remain", what, n, d.s.remain)
	}
	return int(n), nil
}

// readFrame reads one length-prefixed frame into the decoder's reused
// buffer; the result is valid until the next read.
func (d *SnapshotDecoder) readFrame(what string) ([]byte, error) {
	n, err := d.readLen(what)
	if err != nil {
		return nil, err
	}
	return d.readN(n, what)
}

func (d *SnapshotDecoder) readN(n int, what string) ([]byte, error) {
	if cap(d.buf) < n {
		d.buf = make([]byte, n)
	}
	b := d.buf[:n]
	if _, err := io.ReadFull(d.s, b); err != nil {
		return nil, d.corruptf("truncated %s", what)
	}
	return b, nil
}

// Next returns the next outcome record. After the final record it
// verifies the trailer and returns io.EOF.
func (d *SnapshotDecoder) Next() (key string, stamp time.Time, out inject.Outcome, err error) {
	if d.done {
		return "", time.Time{}, inject.Outcome{}, io.EOF
	}
	n, err := d.readLen("record")
	if err != nil {
		return "", time.Time{}, inject.Outcome{}, err
	}
	if n == 0 {
		return "", time.Time{}, inject.Outcome{}, d.finish()
	}
	frame, err := d.readN(n, "record")
	if err != nil {
		return "", time.Time{}, inject.Outcome{}, err
	}
	// One string copy backs the key and every string of the outcome.
	key, nano, out, err := decodeRecord(string(frame))
	switch {
	case err != nil:
		return "", time.Time{}, inject.Outcome{}, d.corruptf("record %d: %v", d.count, err)
	case key == "":
		return "", time.Time{}, inject.Outcome{}, d.corruptf("empty record key")
	case d.count > 0 && key <= d.last:
		return "", time.Time{}, inject.Outcome{}, d.corruptf("keys out of order (%q after %q)", key, d.last)
	}
	d.last = key
	d.count++
	return key, time.Unix(0, nano).UTC(), out, nil
}

// finish checks the trailer after the terminator: the record count,
// then the CRC. It returns io.EOF when both hold.
func (d *SnapshotDecoder) finish() error {
	want, err := binary.ReadUvarint(d.s)
	if err != nil {
		return d.corruptf("truncated trailer")
	}
	if want != uint64(d.count) {
		return d.corruptf("record count %d, trailer says %d", d.count, want)
	}
	sum := d.s.crc // CRC of everything consumed before the trailer CRC
	var tail [4]byte
	if _, err := io.ReadFull(d.s.r, tail[:]); err != nil {
		return d.corruptf("truncated CRC trailer")
	}
	if got := binary.LittleEndian.Uint32(tail[:]); got != sum {
		return d.corruptf("CRC mismatch")
	}
	d.done = true
	return io.EOF
}

// isContainer reports whether data opens with a container magic, this
// build's or the older one — anything else is a legacy JSON document.
func isContainer(data []byte) bool {
	return bytes.HasPrefix(data, snapMagic) || bytes.HasPrefix(data, oldSnapMagic)
}

// decodeBinarySnapshot materializes a whole binary snapshot — the Load
// path. Every record is decoded and the trailer verified before the
// snapshot is returned, so a truncated or corrupt file yields an error
// and a nil snapshot, never a partial replay.
func decodeBinarySnapshot(data []byte, label string) (*Snapshot, error) {
	d, err := NewSnapshotDecoder(bytes.NewReader(data), int64(len(data)), label)
	if err != nil {
		return nil, err
	}
	snap := d.Header()
	// A record takes a few hundred bytes; an underestimate of the count
	// saves the maps most of their growth steps.
	hint := len(data) / 512
	snap.Outcomes = make(map[string]inject.Outcome, hint)
	snap.Stamps = make(map[string]time.Time, hint)
	for {
		key, stamp, out, err := d.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		snap.Outcomes[key] = out
		snap.Stamps[key] = stamp
	}
	return snap, nil
}

// SnapshotIter streams one snapshot file's records in ascending key
// order — the shard merge's per-source cursor. A binary container is
// truly streamed (one record in memory at a time); a legacy v2 JSON
// document has no record framing, so it is materialized once and
// replayed in key order — memory is bounded by that single legacy file,
// never by the whole shard set.
type SnapshotIter struct {
	hdr  *Snapshot
	next func() (string, time.Time, inject.Outcome, error)
	f    *os.File
}

// OpenSnapshotIter opens the snapshot file at path for streaming reads.
// Header validation (magic, schema staleness, constraint fingerprint)
// happens here, before any record is consumed; label names the source
// in errors.
func OpenSnapshotIter(path, label string) (*SnapshotIter, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("campaignstore: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("campaignstore: %w", err)
	}
	br := bufio.NewReaderSize(f, 1<<16)
	if peek, _ := br.Peek(len(snapMagic)); isContainer(peek) {
		d, err := NewSnapshotDecoder(br, fi.Size(), label)
		if err != nil {
			f.Close()
			return nil, err
		}
		return &SnapshotIter{hdr: d.Header(), f: f, next: d.Next}, nil
	}
	data, err := io.ReadAll(br)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("campaignstore: %w", err)
	}
	snap, err := decodeSnapshot(data, label)
	if err != nil {
		return nil, err
	}
	keys := make([]string, 0, len(snap.Outcomes))
	for k := range snap.Outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	i := 0
	return &SnapshotIter{hdr: snap, next: func() (string, time.Time, inject.Outcome, error) {
		if i >= len(keys) {
			return "", time.Time{}, inject.Outcome{}, io.EOF
		}
		k := keys[i]
		i++
		return k, snap.Stamps[k], snap.Outcomes[k], nil
	}}, nil
}

// Header returns the source snapshot's metadata (for a binary source,
// Outcomes/Stamps are nil — the records only exist in the stream).
func (it *SnapshotIter) Header() *Snapshot { return it.hdr }

// Next returns the next record, or io.EOF after the last one (for a
// binary source, only once the trailer verified the stream complete).
func (it *SnapshotIter) Next() (key string, stamp time.Time, out inject.Outcome, err error) {
	return it.next()
}

// Close releases the underlying file.
func (it *SnapshotIter) Close() error {
	if it.f != nil {
		return it.f.Close()
	}
	return nil
}
