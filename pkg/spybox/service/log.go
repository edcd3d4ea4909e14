// LogStore: the durable, shareable Store. One directory holds an
// append-only record log plus a compaction snapshot, and any number of
// serve processes open the same directory — every mutation happens
// under an exclusive flock, so the log is a single serialized history
// that each process replays incrementally to keep its in-memory view
// current.
//
// On-disk layout (all files tagged with the LogSchema version):
//
//	lock           flock target; contentless
//	log            header frame, then one frame per mutation
//	snapshot.json  full state as of the last compaction
//
// Each frame is length-framed JSON: a 4-byte big-endian payload
// length, a 4-byte big-endian CRC32 (IEEE) of the payload, then the
// payload. Appends are fsynced before the mutation is acknowledged, so
// an acknowledged job survives power loss; a crash mid-append leaves a
// torn final frame, which replay detects (short or CRC-mismatched) and
// truncates away — only the unacknowledged mutation is lost.
//
// When the log outgrows its threshold the writer compacts: the full
// state is written to snapshot.json (temp file, fsync, rename, fsync
// directory — the crash-safety the old rewrite-everything FileStore
// claimed but skipped), then the log is reset to a header frame with a
// bumped generation. Peers notice the generation change on their next
// sync and reload from the snapshot. A crash between the snapshot
// rename and the log reset is healed on the next open by completing the
// reset: the writer holds the flock from its append through the reset,
// so the snapshot already holds every frame of the stale log.

package service

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"spybox/pkg/spybox"
	"spybox/pkg/spybox/report"
)

// LogSchema tags the joblog layout — the log's header frame and the
// snapshot document. A different tag means a different layout, and
// OpenLogStore refuses it instead of misreading it.
const LogSchema = "spybox.joblog/v1"

// DefaultCompactBytes is the log size past which a mutation triggers
// compaction.
const DefaultCompactBytes = 1 << 20

// maxFrameBytes bounds a single frame; a length prefix beyond it can
// only be garbage (the store would never write one), so replay treats
// it as a torn record instead of allocating gigabytes.
const maxFrameBytes = 64 << 20

// logHeader is the first frame of every log generation.
type logHeader struct {
	Schema string `json:"schema"`
	Gen    uint64 `json:"gen"`
}

// snapshotDoc is the shape of snapshot.json.
type snapshotDoc struct {
	Schema string   `json:"schema"`
	Gen    uint64   `json:"gen"`
	Jobs   []Record `json:"jobs"`
}

// Log operation kinds, one per mutation the log records.
const (
	opPut     = "put"
	opDelete  = "delete"
	opClaim   = "claim"
	opRelease = "release"
)

// logOp is one mutation frame. Claim doubles as renew (a fresh expiry
// for the same owner); a put of a terminal record implies release.
type logOp struct {
	Op      string       `json:"op"`
	Record  *Record      `json:"record,omitempty"` // put
	ID      spybox.JobID `json:"id,omitempty"`     // delete / claim / release
	Owner   string       `json:"owner,omitempty"`  // claim
	Expires time.Time    `json:"expires,omitempty"`
}

// apply replays one operation onto the table — the single definition
// of what each log record means, used by live mutation and by replay.
func (t *jobTable) apply(op logOp) {
	switch op.Op {
	case opPut:
		if op.Record != nil {
			t.put(op.Record.clone())
		}
	case opDelete:
		t.delete(op.ID)
	case opClaim:
		t.setLease(op.ID, &Lease{Owner: op.Owner, Expires: op.Expires})
	case opRelease:
		t.setLease(op.ID, nil)
	}
	// Unknown ops are skipped: v1 readers tolerate additive growth.
}

// LogStore is the append-only file Store. Safe for concurrent use in
// one process (mutex) and across processes sharing the directory
// (flock around every operation, incremental replay on entry). With no
// directory it is the in-memory store: the same table and methods,
// with no files, flock or fsync.
type LogStore struct {
	mu  sync.Mutex
	dir string           // "" for the in-memory store
	now func() time.Time // lease clock; tests replace it

	compactBytes int64
	lockF        *os.File
	logF         *os.File

	tbl    *jobTable
	gen    uint64
	offset int64 // replay position: everything before it is in tbl
	torn   int   // torn frames truncated away since open
}

// LogStoreOption customizes OpenLogStore.
type LogStoreOption func(*LogStore)

// WithCompactBytes sets the log size that triggers compaction
// (default DefaultCompactBytes); tests use tiny thresholds.
func WithCompactBytes(n int64) LogStoreOption {
	return func(s *LogStore) { s.compactBytes = n }
}

// OpenLogStore opens (or initializes) the store directory at dir.
// Any number of processes may hold the same directory open; every
// operation synchronizes through the shared log. An empty dir opens an
// in-memory store that nothing else shares and that is gone with the
// process; its Compact and Close do nothing.
func OpenLogStore(dir string, opts ...LogStoreOption) (*LogStore, error) {
	s := &LogStore{
		dir:          dir,
		now:          time.Now,
		compactBytes: DefaultCompactBytes,
		tbl:          newJobTable(),
	}
	for _, opt := range opts {
		opt(s)
	}
	if dir == "" {
		return s, nil
	}
	if fi, err := os.Stat(dir); err == nil && !fi.IsDir() {
		return nil, fmt.Errorf("service: job store %s is a file, not a directory (the pre-joblog JSON store is not readable by this build; start fresh with a directory)", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: creating job store dir: %w", err)
	}
	var err error
	if s.lockF, err = os.OpenFile(filepath.Join(dir, "lock"), os.O_CREATE|os.O_RDWR, 0o644); err != nil {
		return nil, fmt.Errorf("service: opening store lock: %w", err)
	}
	if s.logF, err = os.OpenFile(s.logPath(), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644); err != nil {
		s.lockF.Close()
		return nil, fmt.Errorf("service: opening job log: %w", err)
	}
	if err := s.locked(func() error { return nil }); err != nil { // initial sync under the lock
		s.Close()
		return nil, err
	}
	return s, nil
}

func (s *LogStore) logPath() string      { return filepath.Join(s.dir, "log") }
func (s *LogStore) snapshotPath() string { return filepath.Join(s.dir, "snapshot.json") }

// Close releases the store's file handles. It does not compact; the
// directory is valid as-is for the next open.
func (s *LogStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, f := range []*os.File{s.logF, s.lockF} {
		if f != nil {
			if err := f.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	s.logF, s.lockF = nil, nil
	return first
}

// locked runs fn with the process mutex and the cross-process flock
// held, after syncing the in-memory view with whatever peers appended.
// The in-memory store has only the mutex.
func (s *LogStore) locked(fn func() error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dir == "" {
		return fn()
	}
	if s.lockF == nil {
		return fmt.Errorf("service: job store %s is closed", s.dir)
	}
	if err := flockExclusive(s.lockF); err != nil {
		return err
	}
	defer funlock(s.lockF)
	if err := s.syncLocked(); err != nil {
		return err
	}
	return fn()
}

// frame encodes one length+CRC framed payload.
func frame(payload []byte) []byte {
	buf := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[8:], payload)
	return buf
}

// readFrameAt decodes the frame at off. ok is false for a torn frame:
// short header, short payload, implausible length, CRC mismatch.
func (s *LogStore) readFrameAt(off int64) (payload []byte, next int64, ok bool, err error) {
	var hdr [8]byte
	n, rerr := s.logF.ReadAt(hdr[:], off)
	if rerr == io.EOF && n == 0 {
		return nil, off, false, io.EOF
	}
	if n < len(hdr) {
		return nil, off, false, nil // torn header
	}
	size := binary.BigEndian.Uint32(hdr[0:4])
	if size > maxFrameBytes {
		return nil, off, false, nil // garbage length: torn
	}
	payload = make([]byte, size)
	if n, _ := s.logF.ReadAt(payload, off+8); n < int(size) {
		return nil, off, false, nil // torn payload
	}
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(hdr[4:8]) {
		return nil, off, false, nil // corrupt payload: treated as torn
	}
	return payload, off + 8 + int64(size), true, nil
}

// syncLocked brings the in-memory view up to date with the shared
// files; callers hold the flock. A generation change (a peer
// compacted) triggers a full reload from the snapshot; otherwise only
// the frames appended since the last sync are replayed.
func (s *LogStore) syncLocked() error {
	header, _, ok, err := s.readFrameAt(0)
	if err == io.EOF || (!ok && err == nil && s.offset == 0) {
		// Empty (or torn-before-first-use) log: initialize generation
		// 0, or whatever generation a completed snapshot dictates.
		return s.reloadLocked()
	}
	if !ok {
		return fmt.Errorf("service: job log %s: unreadable header frame", s.logPath())
	}
	var hdr logHeader
	if err := json.Unmarshal(header, &hdr); err != nil {
		return fmt.Errorf("service: job log %s: parsing header: %w", s.logPath(), err)
	}
	if hdr.Schema != LogSchema {
		return fmt.Errorf("service: job log %s has schema %q (this build reads %q)", s.logPath(), hdr.Schema, LogSchema)
	}
	if s.offset == 0 || hdr.Gen != s.gen {
		return s.reloadLocked()
	}
	return s.replayLocked(s.offset)
}

// reloadLocked rebuilds the view from scratch: snapshot (if any),
// then the log. It also heals a crash that died between the snapshot
// rename and the log reset, by completing the reset.
func (s *LogStore) reloadLocked() error {
	s.tbl = newJobTable()
	s.gen = 0
	snapGen := uint64(0)
	haveSnap := false
	if b, err := os.ReadFile(s.snapshotPath()); err == nil {
		var doc snapshotDoc
		if err := json.Unmarshal(b, &doc); err != nil {
			return fmt.Errorf("service: parsing snapshot %s: %w", s.snapshotPath(), err)
		}
		if doc.Schema != LogSchema {
			return fmt.Errorf("service: snapshot %s has schema %q (this build reads %q)", s.snapshotPath(), doc.Schema, LogSchema)
		}
		for _, rec := range doc.Jobs {
			lease := rec.Lease
			s.tbl.put(rec) // put ignores the lease field...
			s.tbl.setLease(rec.Status.ID, lease)
		}
		snapGen, haveSnap = doc.Gen, true
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("service: reading snapshot: %w", err)
	}

	header, next, ok, err := s.readFrameAt(0)
	var hdr logHeader
	switch {
	case err == io.EOF, !ok && err == nil:
		// Brand-new (or torn-at-birth) log: write the header for the
		// current generation.
		return s.resetLogLocked(snapGen)
	case err != nil:
		return err
	default:
		if err := json.Unmarshal(header, &hdr); err != nil {
			return fmt.Errorf("service: job log %s: parsing header: %w", s.logPath(), err)
		}
		if hdr.Schema != LogSchema {
			return fmt.Errorf("service: job log %s has schema %q (this build reads %q)", s.logPath(), hdr.Schema, LogSchema)
		}
	}
	switch {
	case haveSnap && hdr.Gen < snapGen:
		// A compaction crashed after renaming the snapshot but before
		// resetting the log. The snapshot already holds every frame of
		// the stale log, so just complete the reset.
		return s.resetLogLocked(snapGen)
	case haveSnap && hdr.Gen > snapGen:
		return fmt.Errorf("service: job log %s is generation %d but snapshot is %d — directory corrupted", s.logPath(), hdr.Gen, snapGen)
	case !haveSnap && hdr.Gen != 0:
		return fmt.Errorf("service: job log %s is generation %d but no snapshot exists — directory corrupted", s.logPath(), hdr.Gen)
	}
	s.gen = hdr.Gen
	s.offset = next
	return s.replayLocked(next)
}

// replayLocked applies frames from off to the end of the log,
// truncating a torn final frame away (we hold the exclusive lock, so
// the torn frame can only be the leavings of a crashed writer).
func (s *LogStore) replayLocked(off int64) error {
	for {
		payload, next, ok, err := s.readFrameAt(off)
		if err == io.EOF {
			s.offset = off
			return nil
		}
		if err != nil {
			return err
		}
		if !ok {
			s.torn++
			if err := s.logF.Truncate(off); err != nil {
				return fmt.Errorf("service: truncating torn job log record: %w", err)
			}
			if err := s.logF.Sync(); err != nil {
				return err
			}
			s.offset = off
			return nil
		}
		var op logOp
		if uerr := json.Unmarshal(payload, &op); uerr != nil {
			// A CRC-valid but unparseable frame is not torn — it is a
			// writer bug or foreign data; refuse rather than guessing.
			return fmt.Errorf("service: job log %s: corrupt record at offset %d: %w", s.logPath(), off, uerr)
		}
		s.tbl.apply(op)
		off = next
	}
}

// appendLocked writes one operation frame with fsync, then applies it
// to the in-memory view. Callers hold the flock via locked. The
// in-memory store only applies it.
func (s *LogStore) appendLocked(op logOp) error {
	if s.dir == "" {
		s.tbl.apply(op)
		return nil
	}
	payload, err := json.Marshal(op)
	if err != nil {
		return fmt.Errorf("service: encoding job log record: %w", err)
	}
	buf := frame(payload)
	if _, err := s.logF.Write(buf); err != nil {
		return fmt.Errorf("service: appending to job log: %w", err)
	}
	if err := s.logF.Sync(); err != nil {
		return fmt.Errorf("service: syncing job log: %w", err)
	}
	s.tbl.apply(op)
	s.offset += int64(len(buf))
	if s.offset > s.compactBytes {
		return s.compactLocked()
	}
	return nil
}

// resetLogLocked rewrites the log as just a header frame for gen,
// fsynced, and makes gen the view's generation.
func (s *LogStore) resetLogLocked(gen uint64) error {
	if err := s.logF.Truncate(0); err != nil {
		return fmt.Errorf("service: resetting job log: %w", err)
	}
	payload, err := json.Marshal(logHeader{Schema: LogSchema, Gen: gen})
	if err != nil {
		return err
	}
	buf := frame(payload)
	if _, err := s.logF.Write(buf); err != nil {
		return fmt.Errorf("service: writing job log header: %w", err)
	}
	if err := s.logF.Sync(); err != nil {
		return err
	}
	s.gen, s.offset = gen, int64(len(buf))
	return nil
}

// compactLocked folds the log into snapshot.json and resets the log
// under a bumped generation. The snapshot write is the crash-safe
// sequence the old FileStore skipped: temp file, fsync the file,
// rename, fsync the directory — a power loss leaves either the old
// snapshot or the new one, never a torn or unlinked in-between.
func (s *LogStore) compactLocked() error {
	doc := snapshotDoc{Schema: LogSchema, Gen: s.gen + 1, Jobs: s.tbl.list()}
	if doc.Jobs == nil {
		doc.Jobs = []Record{}
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("service: encoding snapshot: %w", err)
	}
	b = append(b, '\n')
	tmp := s.snapshotPath() + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return fmt.Errorf("service: writing snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("service: syncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, s.snapshotPath()); err != nil {
		return err
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	return s.resetLogLocked(doc.Gen)
}

// syncDir fsyncs a directory so a just-renamed entry survives power
// loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("service: syncing store directory: %w", err)
	}
	return nil
}

// Compact forces a compaction regardless of log size.
func (s *LogStore) Compact() error {
	if s.dir == "" {
		return nil
	}
	return s.locked(s.compactLocked)
}

// TornRecords reports how many torn log frames this store has
// truncated away since it was opened.
func (s *LogStore) TornRecords() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.torn
}

// Put implements Store.
func (s *LogStore) Put(rec Record) error {
	return s.locked(func() error {
		return s.appendLocked(logOp{Op: opPut, Record: &rec})
	})
}

// Create implements Store.
func (s *LogStore) Create(rec Record) error {
	return s.locked(func() error {
		if _, ok := s.tbl.get(rec.Status.ID); ok {
			return fmt.Errorf("%w: %s", ErrExists, rec.Status.ID)
		}
		return s.appendLocked(logOp{Op: opPut, Record: &rec})
	})
}

// Get implements Store.
func (s *LogStore) Get(id spybox.JobID) (Record, bool, error) {
	var rec Record
	var ok bool
	err := s.locked(func() error {
		if r, found := s.tbl.get(id); found {
			rec, ok = r.clone(), true
		}
		return nil
	})
	return rec, ok, err
}

// List implements Store.
func (s *LogStore) List() ([]Record, error) {
	var out []Record
	err := s.locked(func() error {
		recs := s.tbl.list()
		out = make([]Record, len(recs))
		for i, rec := range recs {
			out[i] = rec.clone()
		}
		return nil
	})
	return out, err
}

// Delete implements Store.
func (s *LogStore) Delete(id spybox.JobID) error {
	return s.locked(func() error {
		if _, ok := s.tbl.get(id); !ok {
			return nil // absent delete is a no-op, and needs no log record
		}
		return s.appendLocked(logOp{Op: opDelete, ID: id})
	})
}

// Counts implements Store.
func (s *LogStore) Counts() (Counts, error) {
	var c Counts
	err := s.locked(func() error {
		c = s.tbl.counts
		c.Leased = s.tbl.leasedCount(s.now())
		c.Cached = len(s.tbl.cached)
		return nil
	})
	return c, err
}

// Cached implements Store. It syncs like every read, so a result a
// peer process stored is a hit here too.
func (s *LogStore) Cached(key string) (*report.Result, bool, error) {
	var res *report.Result
	err := s.locked(func() error {
		if e, ok := s.tbl.cached[key]; ok {
			res = e.res.Clone()
		}
		return nil
	})
	return res, res != nil, err
}

// Claim implements Store.
func (s *LogStore) Claim(owner string, ttl time.Duration) (Record, bool, error) {
	var rec Record
	var claimed bool
	err := s.locked(func() error {
		now := s.now()
		id, ok := s.tbl.pickClaim(now)
		if !ok {
			return nil
		}
		if err := s.appendLocked(logOp{Op: opClaim, ID: id, Owner: owner, Expires: now.Add(ttl)}); err != nil {
			return err
		}
		r, _ := s.tbl.get(id)
		rec, claimed = r.clone(), true
		return nil
	})
	return rec, claimed, err
}

// Renew implements Store.
func (s *LogStore) Renew(id spybox.JobID, owner string, ttl time.Duration) error {
	return s.locked(func() error {
		rec, ok := s.tbl.get(id)
		if !ok {
			return fmt.Errorf("%w: %s", spybox.ErrNoJob, id)
		}
		// An expired-but-unclaimed lease is still renewable: had another
		// worker claimed the job in the meantime, the owner would differ.
		if rec.Lease == nil || rec.Lease.Owner != owner {
			return fmt.Errorf("%w: %s on %s", ErrNotOwner, owner, id)
		}
		return s.appendLocked(logOp{Op: opClaim, ID: id, Owner: owner, Expires: s.now().Add(ttl)})
	})
}

// Release implements Store.
func (s *LogStore) Release(id spybox.JobID, owner string) error {
	return s.locked(func() error {
		rec, ok := s.tbl.get(id)
		if !ok {
			return fmt.Errorf("%w: %s", spybox.ErrNoJob, id)
		}
		if rec.Lease == nil || rec.Lease.Owner != owner {
			return fmt.Errorf("%w: %s on %s", ErrNotOwner, owner, id)
		}
		return s.appendLocked(logOp{Op: opRelease, ID: id})
	})
}
