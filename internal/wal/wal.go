// Package wal implements the write-ahead log of the ingest path: an
// append-only, segmented, CRC-64/ECMA-checksummed record log that makes a
// POST /v1/sessions acknowledgement durable before the registry publishes
// the grown model. One record holds one accepted ingest batch (the
// registry's JSON wire form); on restart the registry replays the tail of
// the log over the latest durable snapshot, so every acknowledged batch
// survives a crash even when the snapshot write behind it never landed.
//
// On disk a log is a directory of segment files named
// "wal-<firstseq:016x>.seg". Each segment opens with a 32-byte header
//
//	[0,8)    magic "PPDWAL01"
//	[8,12)   version  uint32 (currently 1)
//	[12,16)  reserved uint32 (zero)
//	[16,24)  first record sequence number, uint64
//	[24,32)  CRC-64/ECMA over bytes [0,24)
//
// followed by records, each
//
//	[0,4)    payload length uint32
//	[4,12)   CRC-64/ECMA over the payload
//	[12,..)  payload bytes
//
// all little-endian. Sequence numbers start at 1 and are implied by
// position: a segment's n-th record has sequence firstseq+n-1, and the next
// segment's header must continue where the previous one stopped. A crashed
// append can only leave a shorter file than a completed one (segments are
// never preallocated), so Open repairs a torn tail — an incomplete or
// checksum-failing final record of the final segment — by truncating it,
// while the same damage anywhere else is real corruption and fails Open
// with a typed error instead of silently dropping acknowledged records.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Magic is the 8-byte signature opening every segment file.
const Magic = "PPDWAL01"

// Version is the segment format version this package reads and writes.
const Version = 1

const (
	segHeaderSize = 32
	recHeaderSize = 12

	// maxRecordLen bounds one record's payload so a corrupt length prefix
	// can never drive a proportional allocation.
	maxRecordLen = 1 << 28
)

// Typed replay errors. Every decode failure of Open and Replay wraps
// exactly one of these, so callers (and the fuzz target) can classify with
// errors.Is.
var (
	// ErrTornTail reports an incomplete or checksum-failing final record at
	// the very end of the log: the footprint of an append cut short by a
	// crash. Open repairs it by truncating; read-only replay surfaces it.
	ErrTornTail = errors.New("wal: torn tail")
	// ErrChecksum reports a record whose payload does not match its stored
	// CRC anywhere before the end of the log — data corruption, not a torn
	// write.
	ErrChecksum = errors.New("wal: checksum mismatch")
	// ErrFormat reports a structurally invalid segment: bad magic or
	// version, a header checksum mismatch, an oversized record length, or
	// segments whose sequence numbers do not join up.
	ErrFormat = errors.New("wal: malformed segment")
	// ErrClosed reports an operation on a closed log.
	ErrClosed = errors.New("wal: log closed")
	// ErrSyncFailed reports a log that failed closed because an fsync
	// failed. After a failed fsync the kernel may drop the dirty pages and
	// clear the error, so a retried fsync can report success for data that
	// never reached the disk; the first failure is therefore sticky: it
	// fails the append that ran into it and every later Append, Sync and
	// rotation, each wrapping this error and the fsync's own. Close still
	// closes the file; reopening the directory starts from what is on disk.
	ErrSyncFailed = errors.New("wal: fsync failed, log failed closed")
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// syncFile is the fsync the log issues. Only tests assign it, to inject a
// failing fsync.
var syncFile = (*os.File).Sync

// SyncPolicy selects when Append makes records durable.
type SyncPolicy int

// The fsync policies of Options.Sync.
const (
	// SyncAlways fsyncs after every append: the returned sequence number is
	// durable. This is the policy the ack-durability invariant of the
	// ingest path assumes.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs at most once per Options.SyncEvery, driven by
	// appends and a background flusher: a crash can lose up to one
	// interval of acknowledged batches.
	SyncInterval
	// SyncNever never fsyncs explicitly (the OS flushes on its schedule);
	// rotation and Close still sync so sealed segments are safe.
	SyncNever
)

// String returns the flag spelling of the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy parses the flag spelling of a sync policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always | interval | never)", s)
}

// Options tunes an opened log.
type Options struct {
	// Sync selects the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// SyncEvery is the SyncInterval flush period (default 50ms).
	SyncEvery time.Duration
	// SegmentBytes rotates to a new segment once the active one reaches
	// this size (default 4 MiB). Compaction removes whole segments only, so
	// smaller segments reclaim space sooner at the cost of more files.
	SegmentBytes int64
}

func (o Options) withDefaults() Options {
	if o.SyncEvery <= 0 {
		o.SyncEvery = 50 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	return o
}

// Record is one replayed log entry.
type Record struct {
	// Seq is the record's sequence number (1-based, strictly increasing
	// across the whole log).
	Seq uint64
	// Payload is the record's bytes. Replay yields a fresh copy per record;
	// callers may retain it.
	Payload []byte
}

// segment is one sealed (read-only) segment's bookkeeping.
type segment struct {
	path     string
	firstSeq uint64
	lastSeq  uint64 // 0 when the segment holds no records
	size     int64
}

// Log is an open write-ahead log. All methods are safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	mu         sync.Mutex
	sealed     []segment // read-only predecessors of the active segment
	active     *os.File
	activeSeg  segment // size tracks the written (not necessarily synced) length
	nextSeq    uint64
	dirty      bool // writes not yet fsynced
	lastSync   time.Time
	closed     bool
	failed     error // sticky: the first fsync failure (see ErrSyncFailed)
	tornRepair int   // torn-tail truncations performed by Open

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// segName returns the file name of the segment whose first record is seq.
func segName(seq uint64) string {
	return fmt.Sprintf("wal-%016x.seg", seq)
}

// Open opens (creating if needed) the log directory, validates every
// segment, repairs a torn tail in the final segment, and readies the log
// for appends. Mid-log corruption fails Open with ErrChecksum/ErrFormat:
// acknowledged records would be lost, and that must be an operator
// decision, never a silent truncation.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	names, err := segmentNames(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts, nextSeq: 1, stop: make(chan struct{})}
	for i, name := range names {
		path := filepath.Join(dir, name)
		seg, recs, tornAt, err := scanSegment(path, i == len(names)-1)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if tornAt >= 0 && tornAt < segHeaderSize {
			// The crash landed inside the header write: the segment never held
			// a record, so remove the stub. Continuity is carried by the
			// predecessor that rotation sealed just before.
			if err := os.Remove(path); err != nil {
				return nil, fmt.Errorf("removing torn segment %s: %w", name, err)
			}
			l.tornRepair++
			continue
		}
		if i == 0 {
			l.nextSeq = seg.firstSeq
		} else if seg.firstSeq != l.nextSeq {
			return nil, fmt.Errorf("%w: %s starts at seq %d, want %d", ErrFormat, name, seg.firstSeq, l.nextSeq)
		}
		if tornAt >= 0 {
			if err := os.Truncate(path, tornAt); err != nil {
				return nil, fmt.Errorf("repairing torn tail of %s: %w", name, err)
			}
			seg.size = tornAt
			l.tornRepair++
		}
		l.nextSeq = seg.firstSeq + uint64(recs)
		l.sealed = append(l.sealed, seg)
	}
	// The last scanned segment (if any) becomes the active one.
	if n := len(l.sealed); n > 0 {
		l.activeSeg = l.sealed[n-1]
		l.sealed = l.sealed[:n-1]
		f, err := os.OpenFile(l.activeSeg.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		l.active = f
	} else if err := l.openSegmentLocked(); err != nil {
		return nil, err
	}
	if opts.Sync == SyncInterval {
		l.wg.Add(1)
		go l.flushLoop()
	}
	return l, nil
}

// segmentNames lists the directory's segment files in name (= sequence)
// order.
func segmentNames(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if n := e.Name(); !e.IsDir() && strings.HasPrefix(n, "wal-") && strings.HasSuffix(n, ".seg") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

// openSegmentLocked creates a fresh active segment starting at nextSeq;
// l.mu must be held (or the log not yet shared).
func (l *Log) openSegmentLocked() error {
	path := filepath.Join(l.dir, segName(l.nextSeq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	var hdr [segHeaderSize]byte
	copy(hdr[:], Magic)
	binary.LittleEndian.PutUint32(hdr[8:], Version)
	binary.LittleEndian.PutUint64(hdr[16:], l.nextSeq)
	binary.LittleEndian.PutUint64(hdr[24:], crc64.Checksum(hdr[:24], crcTable))
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	l.active = f
	l.activeSeg = segment{path: path, firstSeq: l.nextSeq, size: segHeaderSize}
	return nil
}

// Append writes one record and returns its sequence number. With
// SyncAlways the record is durable when Append returns; the other policies
// trade that guarantee for throughput. Concurrent appends serialize;
// sequence numbers are assigned in write order. Once an fsync has failed —
// under this Append, an earlier one, Sync or the background flusher — every
// Append fails with ErrSyncFailed.
func (l *Log) Append(payload []byte) (uint64, error) {
	if len(payload) > maxRecordLen {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds the %d-byte limit", len(payload), maxRecordLen)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.failed != nil {
		return 0, l.failed
	}
	rec := int64(recHeaderSize + len(payload))
	if l.activeSeg.size > segHeaderSize && l.activeSeg.size+rec > l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	buf := make([]byte, recHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	binary.LittleEndian.PutUint64(buf[4:], crc64.Checksum(payload, crcTable))
	copy(buf[recHeaderSize:], payload)
	if _, err := l.active.Write(buf); err != nil {
		// The write may have landed partially: the on-disk tail is torn. A
		// failed append is never acknowledged, and reopening repairs the
		// tail, so the log's contract holds; refuse further appends rather
		// than interleave records with garbage.
		l.closed = true
		l.active.Close()
		return 0, err
	}
	seq := l.nextSeq
	l.nextSeq++
	l.activeSeg.size += rec
	l.activeSeg.lastSeq = seq
	l.dirty = true
	switch l.opts.Sync {
	case SyncAlways:
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	case SyncInterval:
		if time.Since(l.lastSync) >= l.opts.SyncEvery {
			if err := l.syncLocked(); err != nil {
				return 0, err
			}
		}
	}
	return seq, nil
}

// rotateLocked seals the active segment and opens the next one; l.mu must
// be held.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.active.Close(); err != nil {
		return err
	}
	l.sealed = append(l.sealed, l.activeSeg)
	return l.openSegmentLocked()
}

// syncLocked fsyncs the active segment; l.mu must be held. The first
// failure fails the log closed (see ErrSyncFailed): it is returned from
// here on, without another fsync.
func (l *Log) syncLocked() error {
	if l.failed != nil {
		return l.failed
	}
	if !l.dirty {
		return nil
	}
	if err := syncFile(l.active); err != nil {
		l.failed = fmt.Errorf("%w: %w", ErrSyncFailed, err)
		return l.failed
	}
	l.dirty = false
	l.lastSync = time.Now()
	return nil
}

// Err returns the failure that failed the log closed (it wraps
// ErrSyncFailed), or nil while the log still accepts appends.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// Sync forces pending writes to disk regardless of the sync policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

// flushLoop is the SyncInterval background flusher: it bounds how long an
// appended record can stay unsynced when no later append pushes it out.
func (l *Log) flushLoop() {
	defer l.wg.Done()
	t := time.NewTicker(l.opts.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed {
				_ = l.syncLocked() // a failure sticks: the next Append returns it
			}
			l.mu.Unlock()
		}
	}
}

// Close syncs and closes the log. Further appends fail with ErrClosed. The
// file is closed even when the sync fails or the log had failed closed; the
// error says so.
func (l *Log) Close() error {
	l.stopOnce.Do(func() { close(l.stop) })
	l.wg.Wait()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	err := l.syncLocked()
	if cerr := l.active.Close(); err == nil {
		err = cerr
	}
	l.closed = true
	return err
}

// LastSeq returns the highest appended sequence number (0 when the log has
// never held a record).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq - 1
}

// FirstSeq returns the lowest sequence number still present (which trails
// compaction), or 0 when the log holds no records.
func (l *Log) FirstSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range append(append([]segment{}, l.sealed...), l.activeSeg) {
		if s.lastSeq > 0 {
			return s.firstSeq
		}
	}
	return 0
}

// TornRepairs reports how many torn tails Open truncated.
func (l *Log) TornRepairs() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tornRepair
}

// Segments reports the current segment-file count (sealed plus active).
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.sealed) + 1
}

// Compact removes sealed segments whose every record has sequence <= upTo:
// the caller asserts those records are durably covered elsewhere (a model
// snapshot). The active segment is never removed — replay skips its
// already-covered records by sequence number instead. Returns the number
// of segments deleted.
func (l *Log) Compact(upTo uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	removed := 0
	for len(l.sealed) > 0 {
		s := l.sealed[0]
		if s.lastSeq == 0 || s.lastSeq > upTo {
			break
		}
		if err := os.Remove(s.path); err != nil {
			return removed, err
		}
		l.sealed = l.sealed[1:]
		removed++
	}
	return removed, nil
}
