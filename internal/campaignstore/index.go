// Streaming snapshot writes and the outcome index. The StreamWriter is
// the one write path for binary snapshots — Save and the shard merge
// both go through it — and it maintains two derived artifacts as
// records pass through: the snapshot fingerprint (folded by the
// encoder) and the system's outcome index. The index is persisted
// beside the snapshot as <system>.campaign.idx and kept in the Store's
// memory. Both copies are keyed by the snapshot file's name, size and
// mtime; LoadIndex validates that identity with one stat call and
// falls back to the sidecar, then to a rebuild from the snapshot, when
// it does not hold, so a sidecar can always be deleted (or go stale
// via a foreign writer) without any loss.
package campaignstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"spex/internal/inject"
	"spex/internal/outcomeindex"
)

// indexSuffix is the outcome-index sidecar suffix. It matches neither
// snapshot suffix, so List/LoadAll never mistake a sidecar for a
// snapshot.
const indexSuffix = ".campaign.idx"

// IndexPath returns the system's outcome-index sidecar file.
func (s *Store) IndexPath(system string) string {
	return filepath.Join(s.dir, safeName(system)+indexSuffix)
}

// StreamWriter streams one snapshot into the store: Add per outcome in
// ascending key order, then Close to atomically publish the snapshot,
// its fingerprint, and its rebuilt index sidecar. The writer holds one
// outcome in memory at a time (plus the index's compact per-outcome
// projection), which is what lets the shard merge fold arbitrarily
// large shard stores without materializing them.
type StreamWriter struct {
	store *Store
	hdr   *Snapshot
	tmp   *os.File
	enc   *SnapshotEncoder
	idx   *outcomeindex.Builder
	done  bool
}

// NewStreamWriter opens a streaming save for the snapshot's system.
// hdr supplies the header metadata; its Outcomes/Stamps are ignored.
// Like Save, it lives on *Lock: the held writer lock is the only
// capability that can open the snapshot-write path.
func (l *Lock) NewStreamWriter(hdr *Snapshot) (*StreamWriter, error) {
	return l.store.newStreamWriter(hdr)
}

// NewStreamWriter opens a streaming save through the per-system
// capability. The header's system must match the lock's scope.
func (l *SystemLock) NewStreamWriter(hdr *Snapshot) (*StreamWriter, error) {
	if hdr.System != l.system {
		return nil, fmt.Errorf("campaignstore: lock scoped to system %q cannot stream a snapshot for %q", l.system, hdr.System)
	}
	return l.store.newStreamWriter(hdr)
}

// NewStreamWriter routes the streaming save to the header system's
// write capability in the set.
func (ls *LockSet) NewStreamWriter(hdr *Snapshot) (*StreamWriter, error) {
	l, err := ls.System(hdr.System)
	if err != nil {
		return nil, err
	}
	return l.NewStreamWriter(hdr)
}

func (s *Store) newStreamWriter(hdr *Snapshot) (*StreamWriter, error) {
	final := s.Path(hdr.System)
	tmp, err := os.CreateTemp(s.dir, filepath.Base(final)+".tmp-*")
	if err != nil {
		return nil, fmt.Errorf("campaignstore: %w", err)
	}
	enc, err := NewSnapshotEncoder(tmp, hdr)
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, err
	}
	return &StreamWriter{
		store: s,
		hdr:   hdr,
		tmp:   tmp,
		enc:   enc,
		idx: outcomeindex.NewBuilder(outcomeindex.Meta{
			System:         hdr.System,
			SavedAt:        hdr.SavedAt,
			Options:        hdr.Options,
			SetFingerprint: hdr.SetFingerprint,
		}),
	}, nil
}

// Add appends one outcome record (keys strictly ascending).
func (w *StreamWriter) Add(key string, stamp time.Time, out inject.Outcome) error {
	if err := w.enc.Add(key, stamp, out); err != nil {
		return err
	}
	w.idx.Add(key, out)
	return nil
}

// Abort discards the partial write. Safe after Close.
func (w *StreamWriter) Abort() {
	if w.done {
		return
	}
	w.done = true
	w.tmp.Close()
	os.Remove(w.tmp.Name())
}

// Close finalizes the container (terminator, count, CRC), fsyncs,
// renames it over the final path, removes any legacy JSON file the
// save supersedes, rewrites the index sidecar, puts the same index in
// the store's cache (so the next LoadIndex reads nothing back), and
// returns the snapshot fingerprint. The fsync-before-rename contract
// is the same as the JSON era's: the final path only ever holds a
// complete snapshot.
func (w *StreamWriter) Close() (string, error) {
	if w.done {
		return "", errors.New("campaignstore: stream writer already closed")
	}
	w.done = true
	defer os.Remove(w.tmp.Name()) // no-op after a successful rename
	fp, err := w.enc.Finish()
	if err != nil {
		w.tmp.Close()
		return "", err
	}
	if err := w.tmp.Sync(); err != nil {
		w.tmp.Close()
		return "", fmt.Errorf("campaignstore: %w", err)
	}
	if err := w.tmp.Close(); err != nil {
		return "", fmt.Errorf("campaignstore: %w", err)
	}
	final := w.store.Path(w.hdr.System)
	if err := os.Rename(w.tmp.Name(), final); err != nil {
		return "", fmt.Errorf("campaignstore: %w", err)
	}
	// Make the rename itself durable. Directory fsync is best-effort:
	// not every platform supports it, and the data fsync above already
	// rules out the dangerous half (durable rename, lost data).
	if d, err := os.Open(w.store.dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	// The binary file now carries the state: a leftover legacy JSON
	// document would be stale the moment it survived this save.
	_ = os.Remove(w.store.LegacyPath(w.hdr.System))
	// Rebuild the sidecar. Best-effort: the index is derived data that
	// LoadIndex reconstructs from the snapshot if this write fails.
	if fi, err := os.Stat(final); err == nil {
		w.idx.SetFingerprint(fp)
		id := fileIDOf(final, fi)
		sys := w.idx.Finish()
		_ = outcomeindex.WriteFile(w.store.IndexPath(w.hdr.System), id.sidecar(sys))
		w.store.idx.put(w.hdr.System, id, sys)
	} else {
		w.store.idx.put(w.hdr.System, fileID{}, nil)
	}
	return fp, nil
}

// Snapshots returns the store's snapshot files keyed by system name —
// strict like LoadAll (an unreadable or misfiled snapshot header is an
// error, because a merge must never silently skip a shard's data), but
// without decoding any outcome records.
func (s *Store) Snapshots() (map[string]string, error) {
	names, err := s.snapshotFiles()
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(names))
	for _, name := range names {
		path := filepath.Join(s.dir, name)
		system, err := readSystemName(path)
		if errors.Is(err, ErrStale) {
			return nil, err // names the file and the container version
		}
		if err != nil || system == "" {
			return nil, fmt.Errorf("campaignstore: corrupt snapshot for %s", name)
		}
		base := safeName(system)
		if name != base+snapSuffix && name != base+legacySuffix {
			return nil, fmt.Errorf("campaignstore: %s names system %q, which belongs in %s",
				name, system, base+snapSuffix)
		}
		out[system] = path
	}
	return out, nil
}

// SnapshotInfo returns the path and stat of the snapshot file Load
// would read for the system (the binary file, or the legacy JSON file
// of a not-yet-migrated store). The (path, size, mtime) triple is the
// identity LoadIndex revalidates its in-memory and sidecar indexes
// against.
func (s *Store) SnapshotInfo(system string) (string, os.FileInfo, error) {
	p := s.Path(system)
	fi, err := os.Stat(p)
	if errors.Is(err, os.ErrNotExist) {
		p = s.LegacyPath(system)
		fi, err = os.Stat(p)
		if errors.Is(err, os.ErrNotExist) {
			return "", nil, fmt.Errorf("%w for %s", ErrNotExist, system)
		}
	}
	if err != nil {
		return "", nil, fmt.Errorf("campaignstore: %w", err)
	}
	return p, fi, nil
}

// LoadIndex returns the system's outcome index. The store keeps the
// last index it loaded, rebuilt or saved per system in memory and
// serves it while the snapshot file keeps the (path, size, mtime)
// identity the index was derived from — one stat call per read. On a
// mismatch it reads the persisted sidecar when that matches the
// snapshot on disk, otherwise it rebuilds from the snapshot (which
// also rewrites the sidecar, so the next process's read is cheap).
// Errors mirror Load's — ErrNotExist when the system has no snapshot,
// and any snapshot validation failure surfaces unchanged, because an
// index must never outlive the fail-safe checks of the data it
// summarizes.
//
// Saves through this Store write through: StreamWriter.Close installs
// the index it built, so a read after an in-process save always
// returns that save's index, even when two quick saves of equal size
// leave the file's mtime unchanged. A write by another process (or
// another Store on the same directory) is seen only through the stat
// check, so on a file system with coarse mtimes a same-size foreign
// rewrite can be served stale from memory until the file's identity
// next changes.
//
// The returned index is shared with every other caller and must not
// be modified.
func (s *Store) LoadIndex(system string) (*outcomeindex.System, error) {
	gen := s.idx.generation(system)
	path, fi, err := s.SnapshotInfo(system)
	if err != nil {
		return nil, err
	}
	id := fileIDOf(path, fi)
	if sys := s.idx.get(system, id); sys != nil {
		mIndexHits.Inc()
		return sys, nil
	}
	sys, err := s.readIndex(system, id)
	if err != nil {
		return nil, err
	}
	mIndexRebuilds.Inc()
	s.idx.fill(system, gen, id, sys)
	return sys, nil
}

// readIndex loads the system's index from disk: the sidecar when it
// matches the snapshot identity id, otherwise a rebuild from the
// snapshot that also rewrites the sidecar.
func (s *Store) readIndex(system string, id fileID) (*outcomeindex.System, error) {
	// The sidecar is matched by file identity, which cannot tell that
	// the snapshot is in a container version this build no longer reads.
	if err := refuseOldContainer(id.path, system); err != nil {
		return nil, err
	}
	ipath := s.IndexPath(system)
	if f, err := outcomeindex.ReadFile(ipath); err == nil &&
		f.Snap == filepath.Base(id.path) && f.SnapSize == id.size &&
		f.SnapMTime == id.mtime && f.Sys.System == system {
		return f.Sys, nil
	}
	snap, err := s.Load(system)
	if err != nil {
		return nil, err
	}
	fp, err := snap.Fingerprint()
	if err != nil {
		return nil, err
	}
	sys := outcomeindex.Build(outcomeindex.Meta{
		System:         snap.System,
		Fingerprint:    fp,
		SavedAt:        snap.SavedAt,
		Options:        snap.Options,
		SetFingerprint: snap.SetFingerprint,
	}, snap.Outcomes)
	_ = outcomeindex.WriteFile(ipath, id.sidecar(sys))
	return sys, nil
}

// fileID is a snapshot file's identity: the key both index copies are
// validated against. Every save is an atomic rename, which gives the
// path a new inode and (normally) a new mtime.
type fileID struct {
	path  string
	size  int64
	mtime int64
}

func fileIDOf(path string, fi os.FileInfo) fileID {
	return fileID{path: path, size: fi.Size(), mtime: fi.ModTime().UnixNano()}
}

// sidecar wraps sys in the persisted index document for this snapshot.
func (id fileID) sidecar(sys *outcomeindex.System) *outcomeindex.File {
	return &outcomeindex.File{
		Version:   outcomeindex.Version,
		Snap:      filepath.Base(id.path),
		SnapSize:  id.size,
		SnapMTime: id.mtime,
		Sys:       sys,
	}
}

// indexCache is the Store's per-system index memory; its zero value is
// empty and ready.
type indexCache struct {
	mu sync.Mutex
	m  map[string]*indexSlot
}

// indexSlot is one system's cached index (nil when none) and the
// snapshot file identity it was derived from. gen counts the saves
// written through this Store: a read that misses records it before its
// stat and installs what it loaded only if no save wrote through since,
// so a slow disk read never overwrites a newer save's index.
type indexSlot struct {
	gen uint64
	id  fileID
	sys *outcomeindex.System
}

// slot returns the system's slot, creating it; c.mu is held.
func (c *indexCache) slot(system string) *indexSlot {
	if c.m == nil {
		c.m = make(map[string]*indexSlot)
	}
	sl := c.m[system]
	if sl == nil {
		sl = &indexSlot{}
		c.m[system] = sl
	}
	return sl
}

func (c *indexCache) generation(system string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.slot(system).gen
}

// get returns the cached index while its identity is still id.
func (c *indexCache) get(system string, id fileID) *outcomeindex.System {
	c.mu.Lock()
	defer c.mu.Unlock()
	if sl := c.slot(system); sl.sys != nil && sl.id == id {
		return sl.sys
	}
	return nil
}

// fill installs an index a read loaded from disk, unless a save wrote
// through after the read began.
func (c *indexCache) fill(system string, gen uint64, id fileID, sys *outcomeindex.System) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if sl := c.slot(system); sl.gen == gen {
		sl.id, sl.sys = id, sys
	}
}

// put is the write-through: a save installs the index it built (or,
// with a nil sys, empties the slot) and outdates every read in flight.
func (c *indexCache) put(system string, id fileID, sys *outcomeindex.System) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sl := c.slot(system)
	sl.gen++
	sl.id, sl.sys = id, sys
}

// LoadIndexAll loads every system's index, sorted by system name.
func (s *Store) LoadIndexAll() ([]*outcomeindex.System, error) {
	systems, err := s.List()
	if err != nil {
		return nil, err
	}
	out := make([]*outcomeindex.System, 0, len(systems))
	for _, name := range systems {
		sys, err := s.LoadIndex(name)
		if err != nil {
			return nil, err
		}
		out = append(out, sys)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].System < out[j].System })
	return out, nil
}
